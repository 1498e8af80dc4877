"""Acceptance checks: one function per release criterion, with stated tolerances.

Each check runs the relevant slice of the stack end to end (simulation,
readout, fitting) against an independent oracle or closed form and returns
a pass/fail verdict with a one-line detail.  ``run_all`` executes every
criterion; the CLI ``verify`` command prints one line per criterion and
exits nonzero on any failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .basis import (
    Basis,
    Pair,
    PairLabel,
    PairState,
    SpinState,
    pair_product_state,
    s_wave,
    singlet_x,
    subspace_projector,
    total_spin_operators,
)
from .control import (
    CalibrationUncertainty,
    ExchangeVoltageModel,
    SweepModel,
    exchange_from_voltages,
    propagate_calibration_error,
)
from .dynamics import (
    ExchangeConfig,
    PulseSequence,
    SegmentKind,
    SequenceStack,
    W2PI,
    evolve,
    exchange_pulse,
    f_ss,
    f_st_perturbative,
    hold,
    linear_ramp,
    p_st_degenerate,
    run_sequence,
    set_diabatic,
    visibilities,
)
from .fitting import fit_damped_cosine
from .hamiltonians import (
    ZeemanConfig,
    heisenberg_full,
    triplet_block_transformed,
    zeeman_full,
    zeeman_sector_elements,
    zeeman_sector_kets,
)
from .readout import ReadoutDirection, ensemble_probabilities, pair_probabilities_batch
from .readout import rng as stream


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def check_frequency_law(seed: int = 0) -> CheckResult:
    """Fitted singlet-singlet frequency equals sqrt(jx^2+jy^2-jx*jy) to 0.5%."""
    start = time.perf_counter()
    rng = stream(seed, 1)
    worst = 0.0
    for _ in range(100):
        jx, jy = rng.uniform(5.0, 120.0, size=2)
        f_law = f_ss(jx, jy)
        t = np.linspace(0.0, 3.2e3 / f_law, 64)
        j = ExchangeConfig.balanced(jx, jy)
        seq = PulseSequence(
            init=SpinState(Basis.GLOBAL_SINGLET_2, np.array([1.0, 0.0], dtype=complex)),
            segments=(set_diabatic(j), hold(j, 0.0)),
            dwell_times=tuple(t),
        )
        res = run_sequence(seq)
        p = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[:, 0]
        fit = fit_damped_cosine(t, p)
        worst = max(worst, abs(fit.f - f_law) / f_law)
    elapsed = time.perf_counter() - start
    passed = worst <= 5e-3 and elapsed < 10.0
    return CheckResult(1, "rvb-frequency-law", passed,
                       f"worst rel err {worst:.2e} (tol 5e-3), {elapsed:.1f}s (limit 10s)", elapsed)


def check_visibility_law(seed: int = 0) -> CheckResult:
    """Simulated peak-to-peak amplitudes match the closed forms to 1e-6."""
    start = time.perf_counter()
    rng = stream(seed, 2)
    cases = [(50.0, 50.0), (40.0, 0.0)] + [tuple(rng.uniform(2.0, 120.0, size=2)) for _ in range(40)]
    worst = 0.0
    anti_ok = True
    sx = singlet_x()
    for jx, jy in cases:
        vx, vy = visibilities(jx, jy) if (jx or jy) else (0, 0)
        h = heisenberg_full(ExchangeConfig.balanced(jx, jy))
        half = 0.5e3 / f_ss(jx, jy)
        p0_x = pair_probabilities_batch(sx.amplitudes, ReadoutDirection.HORIZONTAL)[0]
        p0_y = pair_probabilities_batch(sx.amplitudes, ReadoutDirection.VERTICAL)[0]
        psi = evolve(sx, h, half)
        ph_x = pair_probabilities_batch(psi.amplitudes, ReadoutDirection.HORIZONTAL)[0]
        ph_y = pair_probabilities_batch(psi.amplitudes, ReadoutDirection.VERTICAL)[0]
        worst = max(worst, abs((p0_x - ph_x) - vx), abs((ph_y - p0_y) - vy))
        if jy > 0 and not (p0_x - ph_x > 0 > p0_y - ph_y):
            anti_ok = False
    vx_eq, vy_eq = visibilities(50.0, 50.0)
    equal_ok = abs(vx_eq - 0.75) < 1e-12 and abs(vy_eq - 0.75) < 1e-12
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6 and anti_ok and equal_ok
    return CheckResult(2, "visibility-law", passed,
                       f"worst amplitude err {worst:.2e} (tol 1e-6), anti-phase {anti_ok}, "
                       f"equal-exchange 3/4 {equal_ok}", elapsed)


def _exact_fst(j: ExchangeConfig) -> float:
    w, v = np.linalg.eigh(triplet_block_transformed(j))
    i0 = int(np.argmax(np.abs(v[0, :])))
    i1 = int(np.argmax(np.abs(v[1, :])))
    return float(w[i0] - w[i1])


def check_perturbative_frequency(seed: int = 0) -> CheckResult:
    """Perturbative swap frequency error shrinks ~16x when imbalances halve."""
    start = time.perf_counter()
    rng = stream(seed, 3)
    ratios = []
    exact_at_zero = True
    for _ in range(20):
        jx = rng.uniform(30.0, 120.0)
        jy = float(np.clip(jx + rng.choice([-1, 1]) * rng.uniform(0.35, 0.8) * jx, 15.0, 200.0))
        model = ExchangeVoltageModel(j0x=jx, j0y=jy)
        dvx, dvy = rng.uniform(0.5, 2.0, size=2)  # kappa * 2 mV = 0.118 <= 0.12
        errs = []
        for scale in (1.0, 0.5):
            j = exchange_from_voltages(model, scale * dvx, scale * dvy)
            errs.append(abs(f_st_perturbative(j) - _exact_fst(j)))
        if errs[1] > 1e-11:
            ratios.append(errs[0] / errs[1])
        if f_st_perturbative(ExchangeConfig.balanced(jx, jy)) != jy / 2:
            exact_at_zero = False
    quartic = bool(ratios) and all(10.0 < r < 24.0 for r in ratios)
    elapsed = time.perf_counter() - start
    passed = quartic and exact_at_zero
    rng_str = f"{min(ratios):.1f}..{max(ratios):.1f}" if ratios else "n/a"
    return CheckResult(3, "perturbative-frequency", passed,
                       f"error ratios {rng_str} (expect ~16), zero-imbalance exact {exact_at_zero}",
                       elapsed)


def _fit_beat_frequency(t: np.ndarray, p: np.ndarray, carrier_guess: float) -> float:
    """Two close tones plus their difference tone: returns half the splitting (MHz).

    With the constant and amplitudes projected out, (nu1, nu2) start at the best of a
    120-point splitting grid and take Gauss-Newton steps on a central-difference
    Jacobian (h = 1e-7 MHz) until a step is below 1e-12 MHz, for at most 20 steps.
    A best start on the first or last grid point raises ValueError: the splitting
    may lie outside the grid.
    """

    def residual(x):  # columns: constant, nu1, nu2 and nu2 - nu1
        design = np.cos(np.outer(t, W2PI * np.array([0.0, *x, x[1] - x[0]])))
        coef, *_ = np.linalg.lstsq(design, p, rcond=None)
        return design @ coef - p

    starts = [np.array([carrier_guess - delta / 2, carrier_guess + delta / 2])
              for delta in np.linspace(0.005, 0.12, 120)]
    best = int(np.argmin([np.sum(residual(x) ** 2) for x in starts]))
    if best in (0, len(starts) - 1):
        raise ValueError("best beat-fit start lies on the edge of its splitting grid "
                         "[0.005, 0.12] MHz")
    x = starts[best]
    for _ in range(20):
        jac = np.column_stack([(residual(x + dx) - residual(x - dx)) / 2e-7
                               for dx in np.eye(2) * 1e-7])
        step, *_ = np.linalg.lstsq(jac, -residual(x), rcond=None)
        x = x + step
        if np.abs(step).max() < 1e-12:
            break
    nu1, nu2 = sorted(x)
    return (nu2 - nu1) / 2


def check_degenerate_formula(seed: int = 0) -> CheckResult:
    """Closed form matches exact 3-level evolution; beat frequency fits
    (dx^2+dy^2)/(4J) to 1%."""
    start = time.perf_counter()
    rng = stream(seed, 4)
    init = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    worst = 0.0
    for _ in range(40):
        j = rng.uniform(15.0, 80.0)
        dx = rng.uniform(-0.3, 0.3) * j
        dy = rng.uniform(-0.3, 0.3) * j
        t = rng.uniform(0.0, 2000.0)
        h = triplet_block_transformed(ExchangeConfig.from_directional(j, j, dx, dy))
        w, v = np.linalg.eigh(h)
        coeff = v.T @ init
        amp = np.sum(coeff**2 * np.exp(-1j * W2PI * w * t))
        worst = max(worst, abs(p_st_degenerate(j, dx, dy, t) - abs(amp) ** 2))

    j, dx, dy = 25.0, 1.2, 0.9
    t = np.arange(0.0, 60000.0, 8.0)
    trace = p_st_degenerate(j, dx, dy, t)
    beat_fit = _fit_beat_frequency(t, trace, carrier_guess=j / 2 + (dx**2 + dy**2) * 0.75 / j)
    beat_law = (dx**2 + dy**2) / (4 * j)
    beat_err = abs(beat_fit - beat_law) / beat_law
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and beat_err <= 0.01
    return CheckResult(4, "degenerate-formula", passed,
                       f"worst closed-form err {worst:.2e} (tol 1e-8), beat err {beat_err:.2%} "
                       f"(tol 1%)", elapsed)


def _residual_amplitudes(t_ramps, jx: float, jy0: float) -> np.ndarray:
    """Residual oscillation amplitude after each ramp time; the ramps run as one stack."""
    target = ExchangeConfig.balanced(jx, jx).as_array()
    start = ExchangeConfig.balanced(jx, jy0).as_array()
    dwell = tuple(np.linspace(0.0, 2e3 / jx, 41))  # two periods
    kinds = (SegmentKind.SET_DIABATIC, SegmentKind.LINEAR_RAMP, SegmentKind.HOLD)
    n = len(t_ramps)
    stack = SequenceStack(singlet_x(), kinds, np.repeat([[start], [target], [target]], n, axis=1),
                          [np.zeros(n), t_ramps, np.zeros(n)], dwell)
    p = ensemble_probabilities(run_sequence(stack), ReadoutDirection.HORIZONTAL)[..., 0]
    return np.ptp(p, axis=-1) / 2


def check_s_wave_preparation(seed: int = 0) -> CheckResult:
    """Adiabatic ramp reaches the equal-exchange ground state.

    The ideal 3/4 plateau is asserted; the measured saturations (0.78 and
    0.66..0.72) include preparation/readout errors that are deliberately
    not modelled.
    """
    start = time.perf_counter()
    jx, jy0 = 50.0, 0.5
    t_ramp = 200.0 / (jx * 1e-3)  # dimensionless ramp quality j * t = 200
    target = ExchangeConfig.balanced(jx, jx)
    seq = PulseSequence(
        init=singlet_x(),
        segments=(set_diabatic(ExchangeConfig.balanced(jx, jy0)), linear_ramp(target, t_ramp)),
    )
    res = run_sequence(seq)
    final = SpinState(Basis.FULL16, res.states[0, 0])
    fidelity = abs(np.vdot(s_wave(Basis.FULL16).amplitudes, final.amplitudes)) ** 2
    p_x = pair_probabilities_batch(final.amplitudes, ReadoutDirection.HORIZONTAL)[0]
    p_y = pair_probabilities_batch(final.amplitudes, ReadoutDirection.VERTICAL)[0]
    plateau_ok = abs(p_x - 0.75) <= 0.005 and abs(p_y - 0.75) <= 0.005

    amps = _residual_amplitudes([140.0, 180.0, 220.0, 260.0, 300.0], jx, jy0)
    monotone = all(a > b for a, b in zip(amps, amps[1:]))
    elapsed = time.perf_counter() - start
    passed = fidelity >= 0.999 and plateau_ok and monotone
    return CheckResult(5, "s-wave-preparation", passed,
                       f"fidelity {fidelity:.6f} (>=0.999), P_SS ({p_x:.4f}, {p_y:.4f}) "
                       f"(3/4 +- 0.005), residual amplitude monotone {monotone}", elapsed)


def check_d_wave_preparation(seed: int = 0) -> CheckResult:
    """Half-swap pulse then equal-exchange hold parks the excited eigenstate."""
    start = time.perf_counter()
    j23 = 20.0
    equal = ExchangeConfig.balanced(50.0, 50.0)
    dwell = tuple(np.linspace(0.0, 80.0, 41))
    seq = PulseSequence(
        init=singlet_x(),
        segments=(exchange_pulse(ExchangeConfig(0, 0, j23, 0), 500.0 / j23),
                  set_diabatic(equal), hold(equal, 0.0)),
        dwell_times=dwell,
    )
    res = run_sequence(seq)
    p_x = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[:, 0]
    p_y = ensemble_probabilities(res, ReadoutDirection.VERTICAL)[:, 0]
    vis = max(np.ptp(p_x), np.ptp(p_y))
    mean_ok = abs(p_x.mean() - 0.25) <= 0.005 and abs(p_y.mean() - 0.25) <= 0.005
    elapsed = time.perf_counter() - start
    passed = vis < 1e-3 and mean_ok
    return CheckResult(6, "d-wave-preparation", passed,
                       f"visibility {vis:.2e} (<1e-3), means ({p_x.mean():.4f}, {p_y.mean():.4f}) "
                       f"(1/4 +- 0.005)", elapsed)


def check_zeeman_elements(seed: int = 0) -> CheckResult:
    """Closed-form sector elements equal full-matrix projections to 1e-12."""
    start = time.perf_counter()
    z = ZeemanConfig(b_mt=1.0)
    hz = zeeman_full(z)
    kets = zeeman_sector_kets()
    table = zeeman_sector_elements(z)
    worst = max(
        abs(np.vdot(kets[bra], hz @ kets[ket]).real - value)
        for (bra, ket), value in table.items()
    )
    bound = max(abs(v) for v in table.values())

    proj = subspace_projector(Basis.GLOBAL_SINGLET_2)
    comp = np.eye(16) - proj.conj().T @ proj
    h_j = heisenberg_full(ExchangeConfig.balanced(40, 40))
    leak_unequal = np.linalg.norm(
        comp @ evolve(singlet_x(), h_j + hz, 173.0).amplitudes
    )
    equal = ZeemanConfig(b_mt=1.0, g1=0.2, g2=0.2, g3=0.2, g4=0.2)
    leak_equal = np.linalg.norm(
        comp @ evolve(singlet_x(), h_j + zeeman_full(equal), 173.0).amplitudes
    )
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and bound < 4.0 and leak_unequal > 1e-6 and leak_equal < 1e-12
    return CheckResult(7, "zeeman-elements", passed,
                       f"worst element err {worst:.1e} (tol 1e-12), max |element| {bound:.2f} MHz "
                       f"(<4), leakage unequal {leak_unequal:.1e} / equal {leak_equal:.1e}", elapsed)


def check_exchange_range(seed: int = 0) -> CheckResult:
    """Compensated sweep spans the published coupling range within 15%."""
    import tempfile

    from .experiments import run_calibration, st_scan

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        report = run_calibration(tmp, seed=seed, overrides={
            "calibrate.offset_dvx_mv": 0.0, "calibrate.offset_dvy_mv": 0.0,
        })
    sweep = SweepModel(ExchangeVoltageModel(j0x=report.j0x_mhz, j0y=report.j0y_mhz))

    fitted = {}
    for dvp, target in ((-20.0, 108.0), (26.0, 15.0)):
        f_nom = sweep.sums(dvp)[0] / 2
        t = np.linspace(0.0, 3.0e3 / f_nom, 121)
        p = st_scan(sweep.config([dvp]), ReadoutDirection.VERTICAL, t)[0]
        fitted[dvp] = 2 * fit_damped_cosine(t, p).f
    err_hi = abs(fitted[-20.0] - 108.0) / 108.0
    err_lo = abs(fitted[26.0] - 15.0) / 15.0

    grid = np.linspace(-20.0, 26.0, 47)
    jxs = [sweep.sums(v)[0] for v in grid]
    monotone = all(a > b for a, b in zip(jxs, jxs[1:]))
    elapsed = time.perf_counter() - start
    passed = err_hi <= 0.15 and err_lo <= 0.15 and monotone
    return CheckResult(8, "exchange-range", passed,
                       f"jx endpoints {fitted[-20.0]:.1f}/{fitted[26.0]:.1f} MHz vs 108/15 "
                       f"(errs {err_hi:.1%}, {err_lo:.1%}, tol 15%), monotone {monotone}, "
                       f"calibrated j0 ({report.j0x_mhz:.1f}, {report.j0y_mhz:.1f})", elapsed)


def check_fit_recovery(seed: int = 0) -> CheckResult:
    """Damped-cosine recovery under 500-shot noise: 2% on f, 10% on tphi."""
    start = time.perf_counter()
    t = np.linspace(0.0, 300.0, 50)
    truth_f, truth_tphi = 50.0, 130.0
    p_mean = 0.375 * np.cos(2 * np.pi * 1e-3 * truth_f * t) * np.exp(-((t / truth_tphi) ** 2)) + 0.625
    trials, good = 200, 0
    for k in range(trials):
        rng = stream(seed, 9, k)
        data = rng.binomial(500, np.clip(p_mean, 0.0, 1.0)) / 500.0
        try:
            fit = fit_damped_cosine(t, data)
        except ValueError:
            continue
        if abs(fit.f - truth_f) / truth_f < 0.02 and abs(fit.tphi - truth_tphi) / truth_tphi < 0.10:
            good += 1
    elapsed = time.perf_counter() - start
    passed = good >= 0.95 * trials and elapsed < 60.0
    return CheckResult(9, "fit-recovery", passed,
                       f"{good}/{trials} trials within tolerance (need >=190), "
                       f"{elapsed:.1f}s (limit 60s)", elapsed)


def check_conservation_suite(seed: int = 0) -> CheckResult:
    """Norm drift, symmetry commutators, subspace agreement, and the
    calibration-uncertainty oracle."""
    start = time.perf_counter()
    rng = stream(seed, 10)
    s2, sz = total_spin_operators()

    norm_drift = 0.0
    comm = 0.0
    for _ in range(10):
        j = ExchangeConfig(*rng.uniform(1.0, 120.0, size=4))
        h = heisenberg_full(j)
        comm = max(comm, np.abs(h @ s2 - s2 @ h).max(), np.abs(h @ sz - sz @ h).max())
        amp = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = SpinState(Basis.FULL16, amp / np.linalg.norm(amp))
        out = evolve(state, h, float(rng.uniform(0, 500)))
        norm_drift = max(norm_drift, abs(np.linalg.norm(out.amplitudes) - 1.0))

    # sector runs (2-dim singlet, 3-dim triplet, 4-dim m = -1 under a field)
    # against full-space evolution
    st_init = pair_product_state(PairState(Pair.Q12, PairLabel.S),
                                 PairState(Pair.Q34, PairLabel.T_MINUS))
    dwell = tuple(np.linspace(0.0, 60.0, 13))
    sub_worst = 0.0
    for _ in range(5):
        jx, jy = rng.uniform(5.0, 120.0, size=2)
        j = ExchangeConfig.balanced(jx, jy)
        for init, zeeman in ((singlet_x(), None), (st_init, None), (st_init, ZeemanConfig())):
            seq = PulseSequence(init=init, segments=(set_diabatic(j), hold(j, 0.0)),
                                dwell_times=dwell)
            h = heisenberg_full(j) + (0.0 if zeeman is None else zeeman_full(zeeman))
            full = np.stack([evolve(init, h, t).amplitudes for t in dwell])
            fast = run_sequence(seq, zeeman=zeeman).states[0]
            sub_worst = max(sub_worst, float(np.abs(full - fast).max()))

    oracle_worst = 0.0
    for j0x, j0y in ((50.0, 50.0), (80.0, 40.0), (30.0, 60.0)):
        model = ExchangeVoltageModel(j0x=j0x, j0y=j0y)
        worst_dev = 0.0
        for ox in np.linspace(-2.0, 2.0, 9):
            for oy in np.linspace(-2.0, 2.0, 9):
                jc = exchange_from_voltages(model, -ox, -oy)
                worst_dev = max(worst_dev, 2 * _exact_fst(jc) - jc.jy)
        _, sigma_jy = propagate_calibration_error(model, CalibrationUncertainty(dvx0=2.0, dvy0=2.0))
        oracle_worst = max(oracle_worst, abs(sigma_jy - worst_dev) / worst_dev)

    _, sigma_ref = propagate_calibration_error(
        ExchangeVoltageModel(j0x=50.0, j0y=50.0), CalibrationUncertainty(dvx0=2.0, dvy0=2.0)
    )
    sigma_in_band = 2.0 <= sigma_ref <= 3.0

    elapsed = time.perf_counter() - start
    passed = (
        norm_drift <= 1e-12 and comm <= 1e-12 and sub_worst <= 1e-10
        and oracle_worst <= 0.20 and sigma_in_band
    )
    return CheckResult(10, "conservation-oracles", passed,
                       f"norm drift {norm_drift:.1e} (tol 1e-12), commutators {comm:.1e} "
                       f"(tol 1e-12), subspace agreement {sub_worst:.1e} (tol 1e-10), "
                       f"uncertainty oracle {oracle_worst:.1%} (tol 20%), "
                       f"sigma_j {sigma_ref:.2f} MHz in [2, 3]", elapsed)


CHECKS = (
    check_frequency_law,
    check_visibility_law,
    check_perturbative_frequency,
    check_degenerate_formula,
    check_s_wave_preparation,
    check_d_wave_preparation,
    check_zeeman_elements,
    check_exchange_range,
    check_fit_recovery,
    check_conservation_suite,
)


def format_line(result: CheckResult) -> str:
    verdict = "PASS" if result.passed else "FAIL"
    return (f"[{verdict}] criterion {result.criterion:2d} {result.name} "
            f"({result.elapsed_s:.1f}s): {result.detail}")


def run_all(seed: int = 0, echo: bool = False) -> list[CheckResult]:
    results = []
    for check in CHECKS:
        result = check(seed)
        results.append(result)
        if echo:
            print(format_line(result), flush=True)
    return results
