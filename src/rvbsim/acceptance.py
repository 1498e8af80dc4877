"""Acceptance checks: one function per release criterion, with stated tolerances.

Each check runs the relevant slice of the stack end to end (simulation,
readout, fitting) against an independent oracle or closed form and returns
a pass/fail verdict with a one-line detail.  ``CHECKS`` lists the checks
in criterion order; the CLI ``verify`` command runs each, prints its
:func:`format_line` and exits nonzero on any failure.

A check draws each quantity of its cases in one call to its own stream,
``stream(seed, criterion)``, and solves them as one stack: one sweep of
per-column dwell grids, one batched ``eigh``, one stacked fit.  Loops are left
only where a check calls a scalar function under test (``evolve``,
``f_st_perturbative``, ``p_st_degenerate``) on each case.
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


def _frequency_law_traces(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Criterion 1's cases: law frequencies (100,), dwell grids and singlet traces (100, 64).

    Each case starts in the horizontal singlet product at its own (jx, jy) and
    dwells 3.2 periods on its own grid; all 100 run as one sweep.
    """
    jx, jy = stream(seed, 1).uniform(5.0, 120.0, size=(2, 100))
    f_law = np.sqrt(jx**2 + jy**2 - jx * jy)  # f_ss of each case
    grids = np.linspace(0.0, 3.2e3 / f_law, 64, axis=-1)
    j = np.column_stack([jx / 2, jx / 2, jy / 2, jy / 2])  # ExchangeConfig.balanced rows
    seq = PulseSequence(SpinState(Basis.GLOBAL_SINGLET_2, np.array([1.0, 0.0], dtype=complex)),
                        (set_diabatic(j), hold(j, 0.0)), grids)
    return f_law, grids, ensemble_probabilities(run_sequence(seq),
                                                ReadoutDirection.HORIZONTAL)[..., 0]


def check_frequency_law(seed: int = 0) -> CheckResult:
    """Fitted singlet-singlet frequency equals sqrt(jx^2+jy^2-jx*jy) to 0.5%."""
    start = time.perf_counter()
    f_law, grids, traces = _frequency_law_traces(seed)
    # one stacked fit on per-trace grids; a trace that cannot be fitted reads NaN and fails
    fit = fit_damped_cosine(grids, traces)
    worst = float(np.max(np.abs(fit.f - f_law) / f_law))
    elapsed = time.perf_counter() - start
    passed = worst <= 5e-3 and elapsed < 10.0
    return CheckResult(1, "rvb-frequency-law", passed,
                       f"worst rel err {worst:.2e} (tol 5e-3), {elapsed:.1f}s (limit 10s)", elapsed)


def check_visibility_law(seed: int = 0) -> CheckResult:
    """Simulated peak-to-peak amplitudes match the closed forms to 1e-6."""
    start = time.perf_counter()
    cases = [(50.0, 50.0), (40.0, 0.0), *stream(seed, 2).uniform(2.0, 120.0, size=(40, 2))]
    worst = 0.0
    anti_ok = True
    sx = singlet_x()
    p0_x = pair_probabilities_batch(sx.amplitudes, ReadoutDirection.HORIZONTAL)[0]
    p0_y = pair_probabilities_batch(sx.amplitudes, ReadoutDirection.VERTICAL)[0]
    for jx, jy in cases:
        vx, vy = visibilities(jx, jy) if (jx or jy) else (0, 0)
        h = heisenberg_full(ExchangeConfig.balanced(jx, jy))
        half = 0.5e3 / f_ss(jx, jy)
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


def _exact_fst(couplings: np.ndarray) -> np.ndarray:
    """Exact singlet/T- swap frequency of each row of ``couplings`` (k, 4), shape (k,).

    The gap between the triplet-block levels that hold most of its first and of
    its second basis state, from one batched ``eigh``.
    """
    w, v = np.linalg.eigh(triplet_block_transformed(couplings))
    levels = np.take_along_axis(w, np.argmax(np.abs(v[:, :2, :]), axis=-1), axis=-1)
    return levels[:, 0] - levels[:, 1]


def check_perturbative_frequency(seed: int = 0) -> CheckResult:
    """Perturbative swap frequency error shrinks ~16x when imbalances halve."""
    start = time.perf_counter()
    rng = stream(seed, 3)
    jx = rng.uniform(30.0, 120.0, size=20)
    jy = np.clip(jx + rng.choice([-1, 1], size=20) * rng.uniform(0.35, 0.8, size=20) * jx,
                 15.0, 200.0)
    dvx, dvy = rng.uniform(0.5, 2.0, size=(2, 20))  # kappa * 2 mV = 0.118 <= 0.12
    cases = np.column_stack([jx, jy, dvx, dvy]).tolist()
    # each case at full and at half imbalance
    configs = [exchange_from_voltages(ExchangeVoltageModel(j0x=jx, j0y=jy), s * dvx, s * dvy)
               for jx, jy, dvx, dvy in cases for s in (1.0, 0.5)]
    exact = _exact_fst(np.array([j.as_array() for j in configs]))
    errs = np.abs(np.array([f_st_perturbative(j) for j in configs]) - exact).reshape(-1, 2)
    ratios = [full / half for full, half in errs if half > 1e-11]
    exact_at_zero = all(f_st_perturbative(ExchangeConfig.balanced(jx, jy)) == jy / 2
                        for jx, jy, _, _ in cases)
    quartic = bool(ratios) and all(10.0 < r < 24.0 for r in ratios)
    elapsed = time.perf_counter() - start
    passed = quartic and exact_at_zero
    rng_str = f"{min(ratios):.1f}..{max(ratios):.1f}" if ratios else "n/a"
    return CheckResult(3, "perturbative-frequency", passed,
                       f"error ratios {rng_str} (expect ~16), zero-imbalance exact {exact_at_zero}",
                       elapsed)


def check_degenerate_formula(seed: int = 0) -> CheckResult:
    """Closed form matches exact 3-level evolution; the beat frequency of the exact
    spectrum matches (dx^2+dy^2)/(4J) to 1%."""
    start = time.perf_counter()
    rng = stream(seed, 4)
    init = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    j = rng.uniform(15.0, 80.0, size=40)
    dx, dy = rng.uniform(-0.3, 0.3, size=(2, 40)) * j
    t = rng.uniform(0.0, 2000.0, size=40)
    cases = np.column_stack([j, dx, dy, t]).tolist()
    # ExchangeConfig.from_directional(j, j, dx, dy) of each case
    couplings = np.column_stack([(j + dx) / 2, (j - dx) / 2, (j + dy) / 2, (j - dy) / 2])
    w, v = np.linalg.eigh(triplet_block_transformed(couplings))
    coeff = np.swapaxes(v, 1, 2) @ init
    amp = np.sum(coeff**2 * np.exp(-1j * W2PI * w * t[:, None]), axis=-1)
    closed = np.array([p_st_degenerate(*case) for case in cases])
    worst = float(np.max(np.abs(closed - np.abs(amp) ** 2)))

    # the beat of the two close tones is half the splitting of the two upper levels
    j, dx, dy = 25.0, 1.2, 0.9
    w = np.linalg.eigvalsh(triplet_block_transformed(ExchangeConfig.from_directional(j, j, dx, dy)))
    beat = (w[2] - w[1]) / 2
    beat_law = (dx**2 + dy**2) / (4 * j)
    beat_err = abs(beat - beat_law) / beat_law
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and beat_err <= 0.01
    return CheckResult(4, "degenerate-formula", passed,
                       f"worst closed-form err {worst:.2e} (tol 1e-8), beat err {beat_err:.2%} "
                       f"(tol 1%)", elapsed)


def _residual_amplitudes(t_ramps, jx: float, jy0: float) -> np.ndarray:
    """Residual oscillation amplitude after each ramp time; the ramps run as one sweep."""
    target = ExchangeConfig.balanced(jx, jx)
    start = ExchangeConfig.balanced(jx, jy0)
    dwell = np.linspace(0.0, 2e3 / jx, 41)  # two periods
    seq = PulseSequence(singlet_x(), (set_diabatic(start), linear_ramp(target, t_ramps),
                                      hold(target, 0.0)), dwell)
    p = ensemble_probabilities(run_sequence(seq), ReadoutDirection.HORIZONTAL)[..., 0]
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

    ends = np.array([-20.0, 26.0])
    grids = np.linspace(0.0, 3.0e3 / (sweep.sums(ends)[0] / 2), 121, axis=-1)  # 3 nominal periods
    traces = st_scan(sweep.config(ends), ReadoutDirection.VERTICAL, grids)
    fitted = dict(zip(ends.tolist(), 2 * fit_damped_cosine(grids, traces).f))
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
    trials = 200
    data = stream(seed, 9).binomial(500, np.clip(p_mean, 0.0, 1.0), size=(trials, len(t))) / 500.0
    # a trace the fit rejects reads NaN, which is within no tolerance
    fit = fit_damped_cosine(t, data)
    good = int(np.sum((np.abs(fit.f - truth_f) / truth_f < 0.02)
                      & (np.abs(fit.tphi - truth_tphi) / truth_tphi < 0.10)))
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

    # sector runs (2-dim singlet, 3-dim triplet, 4-dim m = -1 under a field,
    # 6-dim S_z = 0 for the singlet under a field) against full-space evolution
    st_init = pair_product_state(PairState(Pair.Q12, PairLabel.S),
                                 PairState(Pair.Q34, PairLabel.T_MINUS))
    dwell = np.linspace(0.0, 60.0, 13)
    jx, jy = rng.uniform(5.0, 120.0, size=(2, 5))
    j = np.column_stack([jx / 2, jx / 2, jy / 2, jy / 2])  # ExchangeConfig.balanced rows
    h = heisenberg_full(j)
    sub_worst = 0.0
    for init, zeeman in ((singlet_x(), None), (st_init, None), (st_init, ZeemanConfig()),
                         (singlet_x(), ZeemanConfig())):
        seq = PulseSequence(init, (set_diabatic(j), hold(j, 0.0)), dwell)
        # one eigendecomposition per column serves every dwell time
        w, v = np.linalg.eigh(h + (0.0 if zeeman is None else zeeman_full(zeeman)))
        coords = np.conj(np.swapaxes(v, 1, 2)) @ init.amplitudes
        full = (np.exp(-1j * W2PI * (dwell[:, None] * w[:, None, :])) * coords[:, None, :]
                ) @ np.swapaxes(v, 1, 2)
        fast = run_sequence(seq, zeeman=zeeman).states[:, 0]
        sub_worst = max(sub_worst, float(np.abs(full - fast).max()))

    # the largest 2 f_ST - jy over a 9 x 9 grid of balance offsets within +-2 mV
    # around each model; at 0 mV a sweep model is its model's balance point
    offsets = np.linspace(-2.0, 2.0, 9)
    models = [ExchangeVoltageModel(j0x=j0x, j0y=j0y)
              for j0x, j0y in ((50.0, 50.0), (80.0, 40.0), (30.0, 60.0))]
    jc = np.array([SweepModel(m).config(0.0, -offsets[:, None], -offsets[None, :]).reshape(-1, 4)
                   for m in models])
    dev = 2 * _exact_fst(jc.reshape(-1, 4)).reshape(len(models), -1) - (jc[..., 3] + jc[..., 2])
    oracle_worst = 0.0
    for model, worst_dev in zip(models, dev.max(axis=1)):
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

