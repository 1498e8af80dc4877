from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hamiltonian_blocks import singlet_block
from quadrature_reference import quadrature_readout
from rvbsim import dynamics, readout
from rvbsim.basis import (
    Basis,
    Pair,
    PairLabel,
    PairState,
    SpinState,
    d_wave,
    lift,
    pair_product_state,
    s_wave,
    singlet_x,
    singlet_y,
    subspace_projector,
)
from rvbsim.dynamics import (
    NoiseModel,
    PulseSegment,
    PulseSequence,
    RampConvergenceError,
    SegmentKind,
    dephasing_envelope,
    evolve,
    exchange_pulse,
    f_ss,
    f_st_perturbative,
    ground_state_probabilities,
    hold,
    linear_ramp,
    p_st_degenerate,
    run_sequence,
    set_diabatic,
    sigma_from_tphi,
    singlet_singlet_probabilities,
    tphi_from_sigma,
    visibilities,
    W2PI,
    _SECTORS,
    _ramp_generators,
    _ramp_products,
    _ramp_unitaries,
    _sector,
)
from rvbsim.hamiltonians import (
    ExchangeConfig,
    ZeemanConfig,
    heisenberg_full,
    triplet_block_transformed,
    zeeman_full,
)
from rvbsim.readout import ReadoutDirection, ensemble_probabilities, pair_probabilities_batch

ST_INIT = pair_product_state(
    PairState(Pair.Q12, PairLabel.S), PairState(Pair.Q34, PairLabel.T_MINUS)
)
#: T+_12 T-_34: S_z = 0, outside the 2-, 3- and 4-dim sectors
TPTM_INIT = pair_product_state(
    PairState(Pair.Q12, PairLabel.T_PLUS), PairState(Pair.Q34, PairLabel.T_MINUS)
)
#: the singlet plus the S_z = -1 product: it spans two S_z blocks, so only 16 dims hold it
MIXED_SZ_INIT = SpinState(Basis.FULL16, (singlet_x().amplitudes + ST_INIT.amplitudes) / np.sqrt(2))


def test_evolve_identity_at_zero_time():
    h = singlet_block(50, 50)
    out = evolve(s_wave(), h, 0.0)
    assert_allclose(out.amplitudes, s_wave().amplitudes, atol=1e-15)


def test_evolve_full_period_returns():
    # one full period at f = 50 MHz is t = 20 ns
    sx2 = SpinState(Basis.GLOBAL_SINGLET_2, np.array([1.0, 0.0], dtype=complex))
    out = evolve(sx2, singlet_block(50, 50), 20.0)
    assert_allclose(abs(np.vdot(sx2.amplitudes, out.amplitudes)) ** 2, 1.0, atol=1e-12)


def test_evolve_group_property():
    rng = np.random.default_rng(21)
    h = singlet_block(37.0, 61.0)
    amp = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = SpinState(Basis.GLOBAL_SINGLET_2, amp / np.linalg.norm(amp))
    once = evolve(state, h, 17.3)
    twice = evolve(evolve(state, h, 17.3 / 2), h, 17.3 / 2)
    assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-12)


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError, match="basis"):
        evolve(s_wave(), np.eye(3), 1.0)


def test_evolve_norm_preserved_full_space():
    rng = np.random.default_rng(22)
    h = heisenberg_full(ExchangeConfig(31, 17, 23, 41))
    amp = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = SpinState(Basis.FULL16, amp / np.linalg.norm(amp))
    out = evolve(state, h, 211.7)
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


def test_f_ss_values():
    assert_allclose(f_ss(25, 25), 25.0, atol=1e-12)
    assert_allclose(f_ss(108, 56), np.sqrt(108**2 + 56**2 - 108 * 56), atol=0)
    assert abs(f_ss(108, 56) - 93.55) < 0.01
    assert_allclose(f_ss(40, 0), 40.0, atol=1e-12)
    with pytest.raises(ValueError):
        f_ss(0, 0)


def test_visibility_values():
    assert_allclose(visibilities(30, 30), (0.75, 0.75), atol=1e-12)
    assert_allclose(visibilities(40, 0), (0.0, 0.0), atol=1e-12)
    vx, vy = visibilities(60, 30)  # jx = 2 jy
    assert_allclose((vx, vy), (0.25, 0.5), atol=1e-12)
    for jx, jy in [(10, 90), (50, 50), (120, 5)]:
        vx, vy = visibilities(jx, jy)
        assert 0 <= vx <= 1 and 0 <= vy <= 1


def test_closed_form_oscillation_against_full_space():
    # exact 16-dim evolution reproduces the 2-level return/swap probabilities
    jx, jy = 50.0, 50.0
    h = heisenberg_full(ExchangeConfig.balanced(jx, jy))
    sx, sy = singlet_x(), singlet_y()
    for t in (0.0, 5.0, 7.3, 12.0, 20.0):
        psi = evolve(sx, h, t)
        px, py = singlet_singlet_probabilities(jx, jy, t)
        assert_allclose(abs(sx.overlap(psi)) ** 2, px, atol=1e-12)
        assert_allclose(abs(sy.overlap(psi)) ** 2, py, atol=1e-12)
    # expected value at t = 20 ns (one period of 50 MHz): full return
    assert_allclose(singlet_singlet_probabilities(50, 50, 20.0)[0], 1.0, atol=1e-12)


def test_oscillations_are_anti_phase():
    # the cosine coefficients of the two readout directions have opposite sign
    for jx, jy in [(10, 80), (50, 50), (110, 30)]:
        period = 1e3 / f_ss(jx, jy)
        px0, py0 = singlet_singlet_probabilities(jx, jy, 0.0)
        pxh, pyh = singlet_singlet_probabilities(jx, jy, period / 2)
        cx = (px0 - pxh) / 2
        cy = (py0 - pyh) / 2
        assert cx > 0 > cy


def test_ground_state_probabilities_formulas():
    assert_allclose(ground_state_probabilities(50, 50), (0.75, 0.75), atol=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(10):
        jx, jy = rng.uniform(5, 120, size=2)
        w, v = np.linalg.eigh(singlet_block(jx, jy))
        gs = v[:, 0]
        px_direct = abs(gs[0]) ** 2
        sy_coords = np.array([-0.5, np.sqrt(3) / 2])  # vertical product in x coords
        py_direct = abs(np.dot(sy_coords, gs)) ** 2
        px, py = ground_state_probabilities(jx, jy)
        assert_allclose(px, px_direct, atol=1e-12)
        assert_allclose(py, py_direct, atol=1e-12)


def test_f_st_perturbative_values():
    assert_allclose(f_st_perturbative(ExchangeConfig.balanced(50, 60)), 30.0, atol=0)
    j = ExchangeConfig(j12=26, j34=24, j23=30, j14=30)
    assert_allclose(f_st_perturbative(j), 30 + 4 / 60, atol=1e-12)
    with pytest.raises(ValueError, match="degenerate"):
        f_st_perturbative(ExchangeConfig.from_directional(50, 51, delta_x=8))


def _exact_fst(j):
    w, v = np.linalg.eigh(triplet_block_transformed(j))
    i0 = int(np.argmax(np.abs(v[0, :])))
    i1 = int(np.argmax(np.abs(v[1, :])))
    return w[i0] - w[i1]


def test_f_st_perturbative_error_is_quartic():
    # Richardson check: halving the imbalances shrinks the error ~16x
    rng = np.random.default_rng(24)
    for _ in range(20):
        jx = rng.uniform(30, 120)
        jy = jx + rng.choice([-1, 1]) * rng.uniform(0.35 * jx, 0.8 * jx)
        jy = float(np.clip(jy, 15, 200))
        dx = rng.uniform(0.02, 0.1) * jx
        dy = rng.uniform(0.02, 0.1) * jy
        errs = []
        for scale in (1.0, 0.5):
            j = ExchangeConfig.from_directional(jx, jy, dx * scale, dy * scale)
            errs.append(abs(f_st_perturbative(j) - _exact_fst(j)))
        if errs[1] < 1e-11:  # below double-precision resolution of the gap
            continue
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 24.0


def test_p_st_degenerate_at_zero_time_and_zero_imbalance():
    assert_allclose(p_st_degenerate(25, 3, 2, 0.0), 1.0, atol=1e-12)
    t = np.linspace(0, 100, 11)
    assert_allclose(p_st_degenerate(25, 0, 0, t), 0.5 * (1 + np.cos(W2PI * 12.5 * t)), atol=1e-12)


def test_p_st_degenerate_matches_exact_three_level():
    rng = np.random.default_rng(25)
    init = np.array([1, 1, 0]) / np.sqrt(2)
    for _ in range(25):
        j = rng.uniform(15, 80)
        dx = rng.uniform(-0.3, 0.3) * j
        dy = rng.uniform(-0.3, 0.3) * j
        t = rng.uniform(0, 2000)
        h = triplet_block_transformed(ExchangeConfig.from_directional(j, j, dx, dy))
        w, v = np.linalg.eigh(h)
        coeff = v.T @ init
        amp = np.sum(coeff**2 * np.exp(-1j * W2PI * w * t))
        assert_allclose(p_st_degenerate(j, dx, dy, t), abs(amp) ** 2, atol=1e-8)


def test_p_st_degenerate_special_case_frequency():
    # with delta_y = 0 the oscillation runs at J/2 + dx^2/J
    j, dx = 40.0, 2.0
    t = np.arange(0, 8000, 0.5)
    p = p_st_degenerate(j, dx, 0.0, t)
    padded = 8 * len(t)
    spec = np.abs(np.fft.rfft(p - p.mean(), n=padded))
    f_axis = np.fft.rfftfreq(padded, 0.5) * 1e3
    assert_allclose(f_axis[int(np.argmax(spec))], j / 2 + dx**2 / j, rtol=2e-3)


def test_tphi_sigma_round_trip():
    assert_allclose(tphi_from_sigma(sigma_from_tphi(130.0)), 130.0, rtol=1e-12)
    assert_allclose(sigma_from_tphi(130.0), 1.732, atol=2e-3)


def test_dephasing_envelope_matches_gaussian():
    # the default 16-node rule reproduces the Gaussian characteristic function
    noise = NoiseModel(sigma_f=sigma_from_tphi(130.0))
    t = np.linspace(0.0, 260.0, 53)
    env = dephasing_envelope(noise, t)
    assert_allclose(env, np.exp(-((t / 130.0) ** 2)), rtol=0, atol=1e-6)
    assert abs(dephasing_envelope(noise, 130.0) - np.e**-1) < 1e-12
    assert_allclose(dephasing_envelope(NoiseModel(0.0, 100, 1), t), np.ones_like(t), atol=1e-15)


def test_noise_quadrature_rule_and_node_cap():
    sigma = 1.7
    for n in (1, 2, 16, 128):
        offsets, weights = NoiseModel(sigma_f=sigma, n_samples=n).quadrature()
        assert offsets.shape == weights.shape == (n,)
        assert_allclose(weights.sum(), 1.0, rtol=0, atol=1e-14)
        assert np.all(weights > 0)
        assert_allclose(offsets, -offsets[::-1], rtol=0, atol=1e-12)  # symmetric rule
        if n >= 3:  # exact Gaussian moments up to degree 2n - 1
            assert_allclose(weights @ offsets**2, sigma**2, rtol=1e-12)
            assert_allclose(weights @ offsets**4, 3 * sigma**4, rtol=1e-12)
    # deterministic: the seed no longer enters
    a, b = NoiseModel(1.0, 8, seed=42).quadrature(), NoiseModel(1.0, 8, seed=43).quadrature()
    assert_allclose(a, b, rtol=0, atol=0)
    for n in (0, 129, 500):
        with pytest.raises(ValueError, match="1..128"):
            NoiseModel(sigma_f=1.0, n_samples=n)


@pytest.mark.parametrize("n", [2.5, 16.0, True, "16"])
def test_noise_node_count_must_be_an_integer(n):
    # 2.5 used to construct and fail in hermegauss; True ran a one-node rule
    with pytest.raises(ValueError, match=f"must be an integer in 1..128, got {n!r}"):
        NoiseModel(sigma_f=1.0, n_samples=n)
    assert NoiseModel(sigma_f=1.0, n_samples=np.int64(16)).quadrature()[0].shape == (16,)


_J = ExchangeConfig.balanced(50, 50)


@pytest.mark.parametrize("build", [
    lambda x: NoiseModel(sigma_f=x),
    lambda x: ExchangeConfig(j12=x, j34=25, j23=25, j14=25),
    lambda x: hold(_J, x),
    lambda x: linear_ramp(_J, x),
    lambda x: PulseSequence(init=s_wave(), segments=(hold(_J, 0.0),), dwell_times=(0.0, x)),
], ids=["sigma_f", "coupling", "hold", "ramp", "dwell"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_model_inputs_rejected(build, value):
    # NaN or inf would otherwise run: NaN probabilities, an instant switch, or
    # a ramp that doubles to the step cap before it fails
    with pytest.raises(ValueError, match="finite"):
        build(value)


@dataclass(frozen=True)
class MonteCarloNoise:
    """Reference ensemble: n Gaussian draws of weight 1/n, through the quadrature interface."""

    sigma_f: float
    n_samples: int
    seed: int = 0

    def quadrature(self):
        draws = np.random.default_rng(self.seed).standard_normal(self.n_samples)
        return self.sigma_f * draws, np.full(self.n_samples, 1.0 / self.n_samples)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(("singlet_x", "singlet_y", "st")), st.integers(0, 2**32 - 1),
       st.lists(st.floats(5.0, 40.0), min_size=8, max_size=8),
       st.floats(0.0, 40.0), st.floats(0.005, 0.05), st.booleans())
def test_quadrature_matches_monte_carlo_reference(kind, seed, bonds, duration, rel_sigma,
                                                  with_zeeman):
    # 16 nodes against 20k random draws of the same quasi-static ensemble, with a
    # prefix segment and optionally the Zeeman field; the noise is a fraction of the
    # dwell frequency, so the phase spread stays in the range the rule integrates
    init = {"singlet_x": singlet_x(), "singlet_y": singlet_y(), "st": ST_INIT}[kind]
    j0, j1 = ExchangeConfig(*bonds[:4]), ExchangeConfig(*bonds[4:])
    seq = PulseSequence(init=init, segments=(hold(j0, duration), hold(j1, 0.0)),
                        dwell_times=(0.0, 12.0, 30.0))
    sigma = rel_sigma * f_ss(j1.jx, j1.jy)
    zeeman = ZeemanConfig() if with_zeeman else None
    quad = run_sequence(seq, NoiseModel(sigma), zeeman=zeeman)
    mc = run_sequence(seq, MonteCarloNoise(sigma, 20000, seed), zeeman=zeeman)
    tol = 3 / np.sqrt(20000)
    for direction in ReadoutDirection:
        assert_allclose(ensemble_probabilities(quad, direction),
                        ensemble_probabilities(mc, direction), rtol=0, atol=tol)


@pytest.mark.parametrize("init", [singlet_x(), ST_INIT, d_wave(Basis.FULL16)])
def test_a_node_at_negative_scale_reads_as_its_mirror(init):
    # real Hamiltonians, starts and projectors: a trajectory under -lam H is the
    # complex conjugate of one under +lam H, so every readout probability agrees
    psi16 = lift(init.amplitudes, init.basis)
    basis, q, _, bonds = _sector(psi16, None)
    lam, times = np.array([0.7, -0.7]), np.linspace(0.0, 300.0, 31)[None, :]
    amps = dynamics._evolve_ensemble(np.tile(q @ psi16, (2, 1)), _SWEEP_ROWS[:1], bonds, 0.0, lam,
                                     times)
    for direction in ReadoutDirection:
        plus, minus = pair_probabilities_batch(amps, direction, basis)
        assert_allclose(minus, plus, rtol=0, atol=1e-14)
        assert np.ptp(plus, axis=0).max() > 0.1  # the state moves


def test_run_sequence_single_hold_matches_evolve():
    j = ExchangeConfig.balanced(50, 50)
    seq = PulseSequence(init=singlet_x(), segments=(hold(j, 13.0),))
    res = run_sequence(seq)
    direct = evolve(singlet_x(), heisenberg_full(j), 13.0)
    assert_allclose(res.states[0, 0], direct.amplitudes, atol=1e-12)


def test_run_sequence_dwell_grid_and_closed_form():
    j = ExchangeConfig.balanced(50, 50)
    dwell = tuple(np.linspace(0, 40, 21))
    seq = PulseSequence(init=singlet_x(), segments=(set_diabatic(j), hold(j, 0.0)),
                        dwell_times=dwell)
    res = run_sequence(seq)
    sx = singlet_x().amplitudes
    px = np.abs(res.states[0] @ sx.conj()) ** 2
    expected, _ = singlet_singlet_probabilities(50, 50, np.array(dwell))
    assert_allclose(px, expected, atol=1e-12)


def test_sector_is_smallest_invariant_span():
    rng = np.random.default_rng(30)
    generic = rng.normal(size=16) + 1j * rng.normal(size=16)
    z = zeeman_full(ZeemanConfig())
    cases = (
        (singlet_x().amplitudes, None, Basis.GLOBAL_SINGLET_2),
        (ST_INIT.amplitudes, None, Basis.TRIPLET_MINUS_3),
        (ST_INIT.amplitudes, z, Basis.TRIPLET_MINUS_PLUS_Q_4),
        (singlet_x().amplitudes, z, Basis.SZ_ZERO_6),
        (TPTM_INIT.amplitudes, None, Basis.SZ_ZERO_6),
        (TPTM_INIT.amplitudes, z, Basis.SZ_ZERO_6),
        (MIXED_SZ_INIT.amplitudes, None, Basis.FULL16),
        (MIXED_SZ_INIT.amplitudes, z, Basis.FULL16),
        (generic / np.linalg.norm(generic), None, Basis.FULL16),
    )
    for psi, zeeman, basis in cases:
        sector, q, qh, stack = _sector(psi, zeeman)
        assert sector is basis
        assert q.shape == (basis.dim, 16) and stack.shape == (4, basis.dim, basis.dim)


_INITS = ("singlet_x", "singlet_y", "st", "m1", "tptm", "generic")


_OWN_BASIS = {"singlet_x": Basis.GLOBAL_SINGLET_2, "singlet_y": Basis.GLOBAL_SINGLET_2,
              "st": Basis.TRIPLET_MINUS_3, "m1": Basis.TRIPLET_MINUS_PLUS_Q_4,
              "tptm": Basis.SZ_ZERO_6, "generic": Basis.FULL16}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_INITS), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.5, 60.0), min_size=8, max_size=8),
       st.floats(0.0, 50.0), st.booleans(), st.booleans(), st.booleans())
@example("singlet_y", 1, [20.0, 5.0, 30.0, 8.0, 12.0, 40.0, 3.0, 25.0], 13.0, False, True, True)
@example("st", 2, [20.0, 5.0, 30.0, 8.0, 12.0, 40.0, 3.0, 25.0], 13.0, False, True, True)
@example("m1", 3, [20.0, 5.0, 30.0, 8.0, 12.0, 40.0, 3.0, 25.0], 13.0, True, True, True)
@example("tptm", 4, [20.0, 5.0, 30.0, 8.0, 12.0, 40.0, 3.0, 25.0], 13.0, True, True, True)
@example("singlet_x", 5, [20.0, 5.0, 30.0, 8.0, 12.0, 40.0, 3.0, 25.0], 13.0, True, True, True)
def test_run_sequence_matches_full_space_evolution(kind, seed, bonds, duration, with_zeeman,
                                                   with_noise, in_own_basis):
    # every sector choice, noise and field setting reproduces per-trajectory
    # 16-dim evolution under s H(j) + Z, prefix segment and dwell grid alike;
    # an init given in its own 2-, 3-, 4- or 6-dim basis runs as its 16-dim lift
    rng = np.random.default_rng(seed)
    if kind in ("m1", "generic"):
        dim = 4 if kind == "m1" else 16
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
        init = SpinState(Basis.FULL16, lift(amp, Basis.TRIPLET_MINUS_PLUS_Q_4) if dim == 4 else amp)
    else:
        init = {"singlet_x": singlet_x(), "singlet_y": singlet_y(), "st": ST_INIT,
                "tptm": TPTM_INIT}[kind]
    j0, j1 = ExchangeConfig(*bonds[:4]), ExchangeConfig(*bonds[4:])
    zeeman = ZeemanConfig() if with_zeeman else None
    noise = NoiseModel(sigma_f=2.0, n_samples=4, seed=seed) if with_noise else None
    dwell = (0.0, 7.5, 31.0)
    segments = (hold(j0, duration), hold(j1, 0.0))
    seq = PulseSequence(init=init, segments=segments, dwell_times=dwell)
    res = run_sequence(seq, noise, zeeman=zeeman)
    if in_own_basis:
        own = _OWN_BASIS[kind]
        coords = SpinState(own, subspace_projector(own) @ init.amplitudes)
        res_own = run_sequence(PulseSequence(init=coords, segments=segments, dwell_times=dwell),
                               noise, zeeman=zeeman)
        assert res_own.sector is res.sector
        assert_allclose(res_own.states, res.states, rtol=0, atol=1e-12)
        res = res_own

    hz = zeeman_full(zeeman) if zeeman is not None else 0.0
    # each node scales the couplings by 1 + offset/f_ref
    scales = 1 + noise.quadrature()[0] / f_ss(j1.jx, j1.jy) if with_noise else [1.0]
    expected = []
    for s in scales:
        mid = evolve(init, s * heisenberg_full(j0) + hz, duration)
        expected.append([evolve(mid, s * heisenberg_full(j1) + hz, t).amplitudes for t in dwell])
    expected = np.array(expected)
    assert_allclose(res.states, expected, atol=1e-10)


def test_adiabatic_ramp_prepares_ground_state():
    # slow voltage-linear ramp from decoupled verticals to equal exchange
    j0 = ExchangeConfig.balanced(50, 0.5)
    j1 = ExchangeConfig.balanced(50, 50)
    seq = PulseSequence(
        init=singlet_x(),
        segments=(set_diabatic(j0), linear_ramp(j1, 4000.0)),
    )
    res = run_sequence(seq)
    fid = abs(np.vdot(s_wave(Basis.FULL16).amplitudes, res.states[0, 0])) ** 2
    assert fid >= 0.999


def test_diabatic_permutation_pulse_reaches_d_wave():
    # a half-swap on the Q23 bond turns the horizontal singlet product into
    # the excited equal-exchange eigenstate; the following hold leaves it put
    j23 = 20.0
    pulse_cfg = ExchangeConfig(0, 0, j23, 0)
    equal = ExchangeConfig.balanced(50, 50)
    dwell = tuple(np.linspace(0, 80, 41))
    seq = PulseSequence(
        init=singlet_x(),
        segments=(exchange_pulse(pulse_cfg, 500.0 / j23), set_diabatic(equal), hold(equal, 0.0)),
        dwell_times=dwell,
    )
    res = run_sequence(seq)
    d16 = d_wave(Basis.FULL16).amplitudes
    fid = np.abs(res.states[0] @ d16.conj()) ** 2
    assert np.min(fid) > 1 - 1e-10
    sx = singlet_x().amplitudes
    px = np.abs(res.states[0] @ sx.conj()) ** 2
    assert np.ptp(px) < 1e-10
    assert_allclose(px.mean(), 0.25, atol=1e-10)


def test_perfect_prep_probabilities_match_closed_forms():
    # the ideal-prep limit: project out the exact exchange ground state and
    # push it through the measurement route; a real voltage-linear ramp with
    # j * t_ramp >= 200 lands within 5e-3 of this (see the acceptance suite)
    rng = np.random.default_rng(29)
    for _ in range(20):
        jx, jy = rng.uniform(5, 120, size=2)
        w, v = np.linalg.eigh(singlet_block(jx, jy))
        ground = SpinState(Basis.FULL16, lift(v[:, 0], Basis.GLOBAL_SINGLET_2))
        px = pair_probabilities_batch(ground.amplitudes, ReadoutDirection.HORIZONTAL)[0]
        py = pair_probabilities_batch(ground.amplitudes, ReadoutDirection.VERTICAL)[0]
        px_law, py_law = ground_state_probabilities(jx, jy)
        assert abs(px - px_law) < 1e-6
        assert abs(py - py_law) < 1e-6


def test_run_sequence_with_zeeman_term():
    j = ExchangeConfig.balanced(40, 40)
    z = ZeemanConfig(b_mt=1.0)
    seq = PulseSequence(init=singlet_x(), segments=(hold(j, 57.0),))
    res = run_sequence(seq, zeeman=z)
    direct = evolve(singlet_x(), heisenberg_full(j) + zeeman_full(z), 57.0)
    assert_allclose(res.states[0, 0], direct.amplitudes, atol=1e-12)

    # noisy ensemble with a Zeeman term exercises the per-trajectory path
    # (the scale factor multiplies the exchange part only)
    dwell = (0.0, 10.0, 20.0)
    seq2 = PulseSequence(init=singlet_x(), segments=(hold(j, 57.0), hold(j, 0.0)),
                         dwell_times=dwell)
    noise = NoiseModel(sigma_f=1.0, n_samples=5, seed=3)
    r1 = run_sequence(seq2, noise, zeeman=z)
    r2 = run_sequence(seq2, noise, zeeman=z)
    assert r1.states.shape == (5, 3, 16)
    assert_allclose(r1.states, r2.states, atol=0)
    norms = np.linalg.norm(r1.states, axis=-1)
    assert_allclose(norms, np.ones_like(norms), atol=1e-12)


def test_singlet_block_start_leaving_block_under_zeeman_returns_full_space():
    # a 2-dim start under unequal g-factors leaks out of the singlet block but keeps
    # S_z = 0: the run moves to the 6-dim S_z = 0 block and keeps the leaked amplitude;
    # a start spanning two S_z blocks runs in FULL16
    j = ExchangeConfig.balanced(40, 40)
    h = heisenberg_full(j) + zeeman_full(ZeemanConfig())
    singlets = subspace_projector(Basis.GLOBAL_SINGLET_2)
    for init, sector in ((s_wave(), Basis.SZ_ZERO_6), (MIXED_SZ_INIT, Basis.FULL16)):
        seq = PulseSequence(init=init, segments=(set_diabatic(j), hold(j, 173.0)))
        res = run_sequence(seq, zeeman=ZeemanConfig())
        assert res.sector is sector
        psi = res.states[0, 0]
        assert_allclose(np.linalg.norm(psi), 1.0, rtol=0, atol=1e-12)
        direct = evolve(SpinState(Basis.FULL16, lift(init.amplitudes, init.basis)), h, 173.0)
        assert_allclose(psi, direct.amplitudes, rtol=0, atol=1e-12)
        assert np.linalg.norm(psi - singlets.conj().T @ (singlets @ psi)) > 1e-2  # leaked
        SpinState(Basis.FULL16, psi)  # within the norm contract


def test_sequence_result_keeps_sector_amplitudes_and_lifts_on_access():
    dwell = (0.0, 5.0, 9.0)
    j = ExchangeConfig.balanced(30, 50)
    noise = NoiseModel(sigma_f=1.0, n_samples=4, seed=5)
    for init, noisy, sector in ((s_wave(), None, Basis.GLOBAL_SINGLET_2),
                                (ST_INIT, noise, Basis.TRIPLET_MINUS_3)):
        seq = PulseSequence(init=init, segments=(set_diabatic(j), hold(j, 0.0)), dwell_times=dwell)
        res = run_sequence(seq, noisy)
        n = 1 if noisy is None else noise.n_samples
        assert res.sector is sector
        assert_allclose(res.weights.sum(), 1.0, rtol=0, atol=1e-14)
        assert res.weights.shape == (n,)
        assert res.amplitudes.shape == (n, len(dwell), sector.dim)
        lifted = res.amplitudes @ subspace_projector(sector).conj()
        assert res.states.shape == (n, len(dwell), 16)
        assert_allclose(res.states, lifted, rtol=0, atol=0)


def test_zeeman_leakage_from_singlet_subspace():
    # pure exchange keeps the state in the 2-dim block; unequal g-factors leak
    j = ExchangeConfig.balanced(40, 40)
    proj = subspace_projector(Basis.GLOBAL_SINGLET_2)
    comp = np.eye(16) - proj.conj().T @ proj
    h_j = heisenberg_full(j)
    state = evolve(singlet_x(), h_j, 173.0)
    assert np.linalg.norm(comp @ state.amplitudes) < 1e-12

    hz = zeeman_full(ZeemanConfig(b_mt=1.0))
    state = evolve(singlet_x(), h_j + hz, 173.0)
    assert np.linalg.norm(comp @ state.amplitudes) > 1e-4

    equal_g = ZeemanConfig(b_mt=1.0, g1=0.2, g2=0.2, g3=0.2, g4=0.2)
    state = evolve(singlet_x(), h_j + zeeman_full(equal_g), 173.0)
    assert np.linalg.norm(comp @ state.amplitudes) < 1e-12


def test_run_sequence_noise_deterministic_and_enveloped():
    j = ExchangeConfig.balanced(50, 50)
    dwell = tuple(np.linspace(0, 300, 61))
    seq = PulseSequence(init=singlet_x(), segments=(set_diabatic(j), hold(j, 0.0)),
                        dwell_times=dwell)
    noise = NoiseModel(sigma_f=sigma_from_tphi(130.0))
    res1 = run_sequence(seq, noise)
    res2 = run_sequence(seq, noise)
    assert_allclose(res1.states, res2.states, atol=0)
    assert res1.states.shape == (noise.n_samples, len(dwell), 16)

    sx = singlet_x().amplitudes
    px = res1.weights @ np.abs(res1.states @ sx.conj()) ** 2
    t = np.array(dwell)
    expected, _ = singlet_singlet_probabilities(50, 50, t, sigma_f=noise.sigma_f)
    assert_allclose(px, expected, rtol=0, atol=1e-6)


_SWEEP_ROWS = np.array([[12.0, 40.0, 3.0, 25.0], [50.0, 50.0, 50.0, 50.0], [5.0, 30.0, 22.0, 1.0]])


@pytest.mark.parametrize("init", [singlet_x(), ST_INIT, TPTM_INIT, MIXED_SZ_INIT],
                         ids=["singlet_2", "triplet_3", "sz0_6", "full"])
def test_closed_form_at_zero_sigma_is_the_noiseless_readout(init):
    seq = PulseSequence(init, (set_diabatic(_SWEEP_ROWS[::-1]), hold(_SWEEP_ROWS, 0.0)),
                        np.linspace(0.0, 400.0, 41))
    res = run_sequence(seq, NoiseModel(sigma_f=0.0))
    assert res.exact.all()
    clean = run_sequence(seq)
    for direction in ReadoutDirection:
        assert_allclose(ensemble_probabilities(res, direction),
                        ensemble_probabilities(clean, direction), rtol=0, atol=1e-12)


def test_singlet_block_column_is_the_gaussian_damped_cosine():
    # A cos(2 pi f t) exp(-(t/T_phi)^2) + A0 with f = f_ss and the default f_ref = f_ss
    couplings = [(50.0, 50.0), (30.0, 80.0), (110.0, 20.0)]
    rows = np.array([ExchangeConfig.balanced(jx, jy).as_array() for jx, jy in couplings])
    t = np.linspace(0.0, 500.0, 251)
    noise = NoiseModel(sigma_f=sigma_from_tphi(130.0))
    res = run_sequence(PulseSequence(singlet_x(), (hold(rows, 0.0),), t), noise)
    assert res.exact.all() and res.sector is Basis.GLOBAL_SINGLET_2
    p_h = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[..., 0]
    p_v = ensemble_probabilities(res, ReadoutDirection.VERTICAL)[..., 0]
    for c, (jx, jy) in enumerate(couplings):
        px, py = singlet_singlet_probabilities(jx, jy, t, sigma_f=noise.sigma_f)
        assert_allclose(p_h[c], px, rtol=0, atol=1e-12)
        assert_allclose(p_v[c], py, rtol=0, atol=1e-12)


def test_amplitudes_of_closed_form_columns_are_the_quadrature_evolution():
    # built on first access, by the evolution the quadrature runs, so their bits
    # are those of a run on which no column is exact
    grid = np.linspace(0.0, 300.0, 31)
    noise = NoiseModel(sigma_f=2.0, n_samples=7)
    refs = np.array([25.0, 4.0, 40.0])  # 4 MHz takes the outer nodes to negative scale
    pulse = np.array([0.0, 5.0, 0.0])  # the timed pulse keeps column 1 on the quadrature
    seq = PulseSequence(ST_INIT, (set_diabatic(_SWEEP_ROWS[::-1]),
                                  exchange_pulse(_SWEEP_ROWS[::-1], pulse),
                                  set_diabatic(_SWEEP_ROWS), hold(_SWEEP_ROWS, 0.0)), grid)
    res = run_sequence(seq, noise, noise_reference_mhz=refs)
    assert res.exact.tolist() == [True, False, True]
    assert res.quadrature_amplitudes.shape == (1, 7, len(grid), 3)
    _, q, _, bonds = _sector(lift(ST_INIT.amplitudes, ST_INIT.basis), None)
    offsets, _ = noise.quadrature()
    lam = (1.0 + offsets[None, :] / refs[:, None]).ravel()
    assert (lam < 0).any()
    start = np.tile(q @ lift(ST_INIT.amplitudes, ST_INIT.basis), (len(lam), 1))
    dur = np.repeat(pulse, 7)[:, None]
    pulsed = dynamics._evolve_ensemble(start, _SWEEP_ROWS[::-1], bonds, 0.0, lam, dur)[:, 0]
    start = np.where(dur > 0, pulsed, start)
    expected = dynamics._evolve_ensemble(start, _SWEEP_ROWS, bonds, 0.0, lam, grid[None, :])
    assert np.array_equal(res.amplitudes, expected.reshape(3, 7, len(grid), 3))
    assert np.array_equal(res.quadrature_amplitudes, res.amplitudes[~res.exact])
    for direction in ReadoutDirection:
        # the pulsed column keeps the node-weighted readout bit for bit
        assert np.array_equal(ensemble_probabilities(res, direction)[1],
                              quadrature_readout(res, direction)[1])


@pytest.mark.parametrize("init", [singlet_x(), ST_INIT, MIXED_SZ_INIT])
def test_zeeman_runs_keep_the_quadrature_bits(init):
    seq = PulseSequence(init, (set_diabatic(_SWEEP_ROWS[::-1]), hold(_SWEEP_ROWS, 0.0)),
                        np.linspace(0.0, 300.0, 31))
    res = run_sequence(seq, NoiseModel(sigma_f=1.5), zeeman=ZeemanConfig())
    assert not res.exact.any() and res.spectra is None
    assert np.array_equal(res.amplitudes, res.quadrature_amplitudes)
    for direction in ReadoutDirection:
        assert np.array_equal(ensemble_probabilities(res, direction),
                              quadrature_readout(res, direction))


_GENERIC16 = np.array([1.0, 1j]) @ np.random.default_rng(11).normal(size=(2, 16))
#: init and Zeeman field per sector a stack can run in
_STACK_SECTORS = {
    "singlet_2": (singlet_x(), None, Basis.GLOBAL_SINGLET_2),
    "triplet_3": (ST_INIT, None, Basis.TRIPLET_MINUS_3),
    "m1_4": (ST_INIT, ZeemanConfig(), Basis.TRIPLET_MINUS_PLUS_Q_4),
    "sz0_6": (singlet_x(), ZeemanConfig(), Basis.SZ_ZERO_6),
    "full": (SpinState(Basis.FULL16, _GENERIC16 / np.linalg.norm(_GENERIC16)), None, Basis.FULL16),
    "full_zeeman": (MIXED_SZ_INIT, ZeemanConfig(), Basis.FULL16),
}
_COLUMN = st.tuples(st.lists(st.floats(0.5, 60.0), min_size=8, max_size=8),
                    st.one_of(st.just(0.0), st.floats(0.0, 40.0)), st.floats(0.5, 30.0))
_EXAMPLE_COLUMNS = [([20.0, 5.0, 30.0, 8.0, 12.0, 40.0, 3.0, 25.0], 0.0, 2.0),
                    ([7.0, 33.0, 1.0, 15.0, 40.0, 2.5, 9.0, 11.0], 13.0, 25.0),
                    ([1.0, 2.0, 3.0, 4.0, 50.0, 50.0, 50.0, 50.0], 0.0, 0.7)]
#: ramps of 0, 300 and 4000 ns: the live columns leave the doubling loop at
#: different n, and the longest runs past one step block of the 2-, 3- and 4-dim sectors
_RAMP_COLUMNS = [([50.0, 50.0, 0.5, 0.5, 50.0, 50.0, 50.0, 50.0], 0.0, 2.0),
                 ([50.0, 50.0, 0.5, 0.5, 50.0, 50.0, 50.0, 50.0], 300.0, 25.0),
                 ([40.0, 45.0, 0.5, 2.0, 50.0, 45.0, 55.0, 60.0], 4000.0, 0.7)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_STACK_SECTORS)), st.lists(_COLUMN, min_size=1, max_size=4),
       st.sampled_from(("off", "default", "scalar", "per_column")), st.booleans(),
       st.sampled_from((1, 4, dynamics.BLOCK_STATES)), st.sampled_from(("pulse", "ramp")))
@example("singlet_2", _EXAMPLE_COLUMNS, "per_column", True, 1, "pulse")
@example("triplet_3", _EXAMPLE_COLUMNS, "scalar", True, 4, "pulse")
@example("m1_4", _EXAMPLE_COLUMNS, "default", False, 1, "pulse")
@example("full", _EXAMPLE_COLUMNS, "per_column", True, 4, "pulse")
@example("sz0_6", _EXAMPLE_COLUMNS, "per_column", True, 4, "pulse")
@example("full_zeeman", _EXAMPLE_COLUMNS, "off", True, dynamics.BLOCK_STATES, "pulse")
@example("singlet_2", _EXAMPLE_COLUMNS, "default", True, 4, "ramp")
@example("m1_4", _EXAMPLE_COLUMNS, "per_column", False, 1, "ramp")
@example("sz0_6", _EXAMPLE_COLUMNS, "default", False, 1, "ramp")
@example("full_zeeman", _EXAMPLE_COLUMNS, "scalar", True, dynamics.BLOCK_STATES, "ramp")
@example("singlet_2", _RAMP_COLUMNS, "default", True, 4, "ramp")
@example("m1_4", _RAMP_COLUMNS, "per_column", False, 1, "ramp")
@example("triplet_3", _EXAMPLE_COLUMNS, "default", True, 4, "pulse")
@example("full", _EXAMPLE_COLUMNS, "default", True, 1, "pulse")
@example("singlet_2", _EXAMPLE_COLUMNS, "default", True, dynamics.BLOCK_STATES, "pulse")
def test_stack_equals_its_columns_run_one_at_a_time(sector, columns, noise_mode, with_dwell, block,
                                                    prefix):
    # a stacked solve is bit for bit the per-column runs: amplitudes and
    # ensemble readout, in every sector, with zero-length prefixes,
    # with a pulse or with a ramp from each column's own start couplings, also
    # when the stack is evolved and read out in blocks of ``block`` states, and
    # for the noisy columns read out in closed form as for those on the quadrature
    init, zeeman, basis = _STACK_SECTORS[sector]
    bonds = np.array([b for b, *_ in columns])
    j0, j1 = bonds[:, :4], bonds[:, 4:]
    duration, zero = np.array([d for _, d, _ in columns]), np.zeros(len(columns))
    if prefix == "ramp":
        pre = [(SegmentKind.SET_DIABATIC, j0, zero), (SegmentKind.LINEAR_RAMP, j1, duration)]
    elif with_dwell:
        pre = [(SegmentKind.EXCHANGE_PULSE, j0, duration), (SegmentKind.SET_DIABATIC, j1, zero)]
    else:
        pre = [(SegmentKind.EXCHANGE_PULSE, j0, duration)]
    if with_dwell:
        segments, dwell = [*pre, (SegmentKind.HOLD, j1, zero)], (0.0, 7.5, 31.0)
    else:
        segments, dwell = [*pre, (SegmentKind.HOLD, j1, zero + 12.0)], None
    sweep = PulseSequence(init, tuple(PulseSegment(kind, j, d) for kind, j, d in segments), dwell)
    # each column alone: a sequence of the same rows
    seqs = [PulseSequence(init, tuple(PulseSegment(kind, ExchangeConfig(*j[c]), d[c])
                                      for kind, j, d in segments), dwell)
            for c in range(len(columns))]
    noise = None if noise_mode == "off" else NoiseModel(sigma_f=2.0, n_samples=5)
    refs = {"off": [None] * len(columns), "default": [None] * len(columns),
            "scalar": [3.0] * len(columns), "per_column": [ref for *_, ref in columns]}[noise_mode]
    stacked_ref = {"scalar": 3.0, "per_column": np.array(refs)}.get(noise_mode)
    with mock.patch.object(dynamics, "BLOCK_STATES", block), \
            mock.patch.object(readout, "BLOCK_STATES", block):
        stacked = run_sequence(sweep, noise, zeeman=zeeman,
                               noise_reference_mhz=stacked_ref)
        stacked_probs = {d: ensemble_probabilities(stacked, d) for d in ReadoutDirection}
    assert stacked.sector is basis
    assert stacked.amplitudes.shape[:2] == (len(columns), 1 if noise is None else 5)
    if prefix == "pulse":
        # a column is exact when its nodes enter the dwell alike (a zero-length
        # pulse) and without a Zeeman term
        exact = (noise is not None and zeeman is None and with_dwell) & (duration == 0)
        assert stacked.exact.tolist() == exact.tolist()
    for c, (seq, ref) in enumerate(zip(seqs, refs)):
        alone = run_sequence(seq, noise, zeeman=zeeman, noise_reference_mhz=ref)
        assert np.array_equal(stacked.amplitudes[c], alone.amplitudes)
        assert stacked.exact[c] == alone.exact
        for direction in ReadoutDirection:
            assert np.array_equal(stacked_probs[direction][c],
                                  ensemble_probabilities(alone, direction))
        if prefix == "pulse" and not with_dwell and seq.segments[0].duration == 0:
            # the zero-length pulse leaves the state as it was before the final hold
            bare = run_sequence(PulseSequence(init, seq.segments[1:]), noise, zeeman=zeeman,
                                noise_reference_mhz=ref)
            assert np.array_equal(alone.amplitudes, bare.amplitudes)


_ROWS = np.tile(ExchangeConfig.balanced(50, 50).as_array(), (3, 1))  # 3 columns


def _sweep(kinds=(SegmentKind.SET_DIABATIC, SegmentKind.HOLD), targets=(_ROWS, _ROWS),
           durations=(0.0, np.zeros(3)), dwell_times=(0.0, 5.0)) -> PulseSequence:
    return PulseSequence(singlet_x(), tuple(map(PulseSegment, kinds, targets, durations)),
                         dwell_times)


def _replaced(a, index, value):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


@pytest.mark.parametrize("change, message", [
    ({"targets": (_ROWS[:, :3], _ROWS)}, r"couplings \(\.\.\., 4\), got shape \(3, 3\)"),
    ({"kinds": ()}, "at least one segment"),
    ({"targets": (_ROWS[:0], _ROWS[:0]), "durations": (0.0, 0.0)}, "at least one column"),
    ({"durations": (0.0, np.zeros(2))}, "do not broadcast to one column shape"),
    ({"targets": (_ROWS[:, None], _ROWS)}, r"one column axis, got column shape \(3, 3\)"),
    *(({"targets": (_ROWS, _replaced(_ROWS, (1, 2), bad))},
       "couplings must be finite and non-negative") for bad in (-1.0, np.nan, np.inf)),
    *(({"durations": (_replaced(np.zeros(3), 2, bad), 0.0)},
       "segment duration must be finite and non-negative") for bad in (-1.0, np.nan, np.inf)),
    ({"kinds": (SegmentKind.LINEAR_RAMP, SegmentKind.HOLD)}, "ramp cannot be the first segment"),
    ({"kinds": (SegmentKind.SET_DIABATIC, SegmentKind.EXCHANGE_PULSE)}, "must be a HOLD"),
    ({"durations": (0.0, _replaced(np.zeros(3), 1, 4.0))}, "final HOLD's duration"),
    ({"dwell_times": ()}, r"at least one time, got shape \(0,\)"),
    ({"dwell_times": (0.0, np.nan)}, "dwell times must be finite and non-negative, got nan"),
    ({"dwell_times": (-1.0, 5.0)}, r"dwell times must be finite and non-negative, got -1\.0"),
    ({"dwell_times": np.zeros((2, 5))}, r"do not broadcast to one column shape: .*\(2,\)\]"),
    ({"dwell_times": np.zeros((3, 2, 5))}, r"\(columns, n_dwell\), got shape \(3, 2, 5\)"),
    ({"dwell_times": np.zeros((3, 0))}, r"at least one time, got shape \(3, 0\)"),
    ({"dwell_times": _replaced(np.zeros((3, 2)), (1, 1), np.nan)},
     "dwell times must be finite and non-negative, got nan"),
    ({"dwell_times": _replaced(np.zeros((3, 2)), (2, 0), -4.0)},
     r"dwell times must be finite and non-negative, got -4\.0"),
], ids=["three-bonds", "no-segments", "no-columns", "shapes-do-not-broadcast", "two-column-axes",
        "negative-coupling", "nan-coupling", "inf-coupling", "negative-duration", "nan-duration",
        "inf-duration", "ramp-first", "grid-on-a-pulse", "grid-on-a-timed-hold", "empty-grid",
        "nan-dwell", "negative-dwell", "grids-do-not-broadcast", "3d-grid", "empty-column-grids",
        "nan-column-grid", "negative-column-grid"])
def test_sweep_rejects_arrays_no_sequence_can_run(change, message):
    assert _sweep().couplings.shape == (2, 3, 4)
    with pytest.raises(ValueError, match=message):
        _sweep(**change)


def test_column_axis_follows_the_targets_and_durations():
    # a bare ExchangeConfig or (4,) row and scalar durations give no column axis; a
    # (1, 4) row gives a column axis of 1, and any array broadcasts the others
    j = ExchangeConfig.balanced(50, 50)
    noise = NoiseModel(sigma_f=1.0, n_samples=3)
    for target, cols in ((j, ()), (j.as_array(), ()), (j.as_array()[None], (1,)),
                         (np.tile(j.as_array(), (2, 1)), (2,))):
        seq = PulseSequence(singlet_x(), (set_diabatic(j), hold(target, 0.0)), (0.0, 5.0))
        assert seq.couplings.shape == (2, *cols, 4) and seq.durations.shape == (2, *cols)
        res = run_sequence(seq, noise)
        assert res.amplitudes.shape == (*cols, 3, 2, 2)
        assert np.shape(res.exact) == cols
        assert ensemble_probabilities(res, ReadoutDirection.HORIZONTAL).shape == (*cols, 2, 4)
    seq = PulseSequence(singlet_x(), (exchange_pulse(j, [0.0, 2.0, 4.0]), hold(j, 0.0)))
    assert seq.couplings.shape == (2, 3, 4) and seq.durations.tolist() == [[0, 2, 4], [0, 0, 0]]
    assert seq.segments[0].duration == [0.0, 2.0, 4.0]  # as stated
    with pytest.raises(ValueError, match="read-only"):
        seq.couplings[0, 0, 0] = 1.0


def test_segments_and_sequences_holding_arrays_compare_and_hash_by_value():
    # a dataclass's generated == raised on the ambiguous truth value of an array
    # field, and its hash() could not hash one
    rows = np.tile(ExchangeConfig.balanced(50, 50).as_array(), (2, 1))
    grids = np.array([[0.0, 5.0], [1.0, 6.0]])

    def sweep(rows, durations, grids):
        return PulseSequence(singlet_x(), (exchange_pulse(rows, durations), hold(rows, 0.0)),
                             grids)

    a, b = sweep(rows, np.array([1.0, 2.0]), grids), sweep(rows.copy(), [1.0, 2.0], grids.copy())
    assert a.segments[0] == b.segments[0] and hash(a.segments[0]) == hash(b.segments[0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != sweep(rows, [1.0, 3.0], grids)
    assert a != sweep(rows, [1.0, 2.0], grids + 1.0)
    assert a != sweep(rows + 1.0, [1.0, 2.0], grids)
    assert a.segments[0] != a.segments[1] and a.segments[0] != "pulse"
    seg = hold(ExchangeConfig.balanced(50, 50), 3.0)
    assert seg == hold(ExchangeConfig.balanced(50, 50), np.float64(3.0))
    assert hash(seg) == hash(hold(ExchangeConfig.balanced(50, 50), np.float64(3.0)))
    assert seg != hold(ExchangeConfig.balanced(50, 50).as_array(), 3.0)


_GRID_COLUMN = st.tuples(st.lists(st.floats(0.5, 60.0), min_size=8, max_size=8), st.floats(0.0, 40.0),
                        st.lists(st.floats(0.0, 300.0), min_size=4, max_size=4))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_STACK_SECTORS)), st.lists(_GRID_COLUMN, min_size=1, max_size=4),
       st.booleans())
@example("singlet_2", [(_EXAMPLE_COLUMNS[0][0], 0.0, [0.0, 7.5, 31.0, 90.0]),
                       (_EXAMPLE_COLUMNS[1][0], 13.0, [5.0, 5.0, 0.0, 250.0])], True)
@example("full_zeeman", [([1.0, 2.0, 3.0, 4.0, 50.0, 50.0, 50.0, 50.0], 2.0, [0.0, 1.0, 2.0, 3.0])],
         False)
@example("triplet_3", [(_EXAMPLE_COLUMNS[0][0], 0.0, [0.0, 7.5, 31.0, 90.0]),
                       (_EXAMPLE_COLUMNS[1][0], 0.0, [5.0, 5.0, 0.0, 250.0]),
                       (_EXAMPLE_COLUMNS[2][0], 3.0, [1.0, 2.0, 3.0, 4.0])], True)
def test_per_column_dwell_grids_equal_each_column_run_alone_on_its_grid(sector, columns, noisy):
    # row c of a (columns, n_dwell) grid is column c's own 1-D grid, at every noise
    # node and in the closed-form readout
    init, zeeman, _ = _STACK_SECTORS[sector]
    bonds = np.array([b for b, *_ in columns])
    j0, j1 = bonds[:, :4], bonds[:, 4:]
    pulse = np.array([d for _, d, _ in columns])
    grids = np.array([g for *_, g in columns])
    noise = NoiseModel(sigma_f=2.0, n_samples=5) if noisy else None
    sweep = PulseSequence(init, (exchange_pulse(j0, pulse), set_diabatic(j1), hold(j1, 0.0)), grids)
    assert sweep.dwell_times.shape == grids.shape
    stacked = run_sequence(sweep, noise, zeeman=zeeman)
    assert stacked.amplitudes.shape[:3] == (len(columns), 1 if noise is None else 5, 4)
    for c in range(len(columns)):
        first, second = ExchangeConfig(*j0[c]), ExchangeConfig(*j1[c])
        seq = PulseSequence(init, (exchange_pulse(first, pulse[c]), set_diabatic(second),
                                   hold(second, 0.0)), tuple(grids[c]))
        alone = run_sequence(seq, noise, zeeman=zeeman)
        assert np.array_equal(stacked.amplitudes[c], alone.amplitudes)
        assert stacked.exact[c] == alone.exact
        for direction in ReadoutDirection:
            assert np.array_equal(ensemble_probabilities(stacked, direction)[c],
                                  ensemble_probabilities(alone, direction))


def test_per_column_grid_joins_the_column_broadcast():
    # a (columns, n_dwell) grid alone makes a sweep; a (1, n_dwell) grid serves every
    # column as the same 1-D grid does; the grid is kept broadcast and read-only
    j = ExchangeConfig.balanced(50, 50)
    grids = np.array([[0.0, 5.0], [1.0, 7.0]])
    seq = PulseSequence(singlet_x(), (hold(j, 0.0),), grids)
    assert seq.couplings.shape == (1, 2, 4)
    assert run_sequence(seq).amplitudes.shape == (2, 1, 2, 2)
    with pytest.raises(ValueError, match="read-only"):
        seq.dwell_times[0, 0] = 3.0
    one = PulseSequence(singlet_x(), (hold(_ROWS, 0.0),), grids[:1])
    assert one.dwell_times.shape == (3, 2)
    shared = PulseSequence(singlet_x(), (hold(_ROWS, 0.0),), np.array([0.0, 5.0]))
    assert shared.dwell_times == (0.0, 5.0)  # a 1-D grid stays a tuple of floats
    assert np.array_equal(run_sequence(one).amplitudes, run_sequence(shared).amplitudes)


def test_ramp_columns_stack_with_their_own_start_and_duration():
    j0, j1 = ExchangeConfig.balanced(50, 0.5).as_array(), ExchangeConfig.balanced(50, 50).as_array()
    ramps = PulseSequence(singlet_x(), (set_diabatic(np.stack([j0, j1])),
                                        linear_ramp(np.stack([j1, j0]), [10.0, 0.0])))
    assert ramps.kinds == (SegmentKind.SET_DIABATIC, SegmentKind.LINEAR_RAMP)
    assert run_sequence(ramps).amplitudes.shape == (2, 1, 1, 2)


def test_noise_reference_is_checked_per_column_before_the_frequency_law():
    # a column with jx = jy = 0 has no singlet-singlet frequency to scale by
    live, dead = ExchangeConfig.balanced(50, 50), ExchangeConfig(0.0, 0.0, 0.0, 0.0)
    stack = PulseSequence(singlet_x(), (hold(np.stack([live.as_array(), dead.as_array()]), 0.0),),
                          (0.0, 1.0))
    noise = NoiseModel(sigma_f=1.0)
    with pytest.raises(ValueError, match="noise needs a positive reference frequency"):
        run_sequence(stack, noise)
    with pytest.raises(ValueError, match="noise needs a positive reference frequency"):
        run_sequence(stack, noise, noise_reference_mhz=[25.0, 0.0])
    res = run_sequence(stack, noise, noise_reference_mhz=[25.0, 25.0])
    assert res.exact.tolist() == [True, True]
    run_sequence(stack)  # without noise there is nothing to scale


@pytest.mark.parametrize("refs, message", [
    ([25.0, 25.0, 25.0], r"shape \(3,\), not \(\) or the column shape \(2,\)"),
    ([[25.0, 25.0]], r"shape \(1, 2\), not \(\) or the column shape \(2,\)"),
    (np.inf, "noise needs a finite reference frequency"),
    ([25.0, np.inf], "noise needs a finite reference frequency"),
], ids=["three-for-two", "two-dim", "inf", "inf-column"])
def test_noise_reference_must_be_finite_and_one_per_column(refs, message):
    # a wrong count used to fail in numpy's broadcast, and inf silently turned the noise off
    stack = PulseSequence(singlet_x(), (hold(_ROWS[:2], 0.0),), (0.0, 1.0))
    with pytest.raises(ValueError, match=message):
        run_sequence(stack, NoiseModel(sigma_f=1.0), noise_reference_mhz=refs)


_HOLD_COUPLINGS = st.lists(st.floats(0.5, 60.0), min_size=4, max_size=4)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("singlet_2", "triplet_3")), _HOLD_COUPLINGS, st.floats(0.0, 2.0))
@example("singlet_2", [12.5, 12.5, 12.5, 12.5], 0.8)  # f_ref = 25 MHz, sigma_f = 20 MHz
@example("triplet_3", [5.0, 30.0, 22.0, 1.0], 2.0)
def test_closed_form_readout_does_not_depend_on_the_node_count(sector, couplings, rel_sigma):
    # the node count sets only the quadrature, never which model a column gets,
    # even where sigma_f reaches 2 f_ref and many nodes scale the couplings below 0
    init = _STACK_SECTORS[sector][0]
    j = ExchangeConfig(*couplings)
    seq = PulseSequence(init, (set_diabatic(j), hold(j, 0.0)), np.linspace(0.0, 300.0, 31))
    sigma_f = rel_sigma * f_ss(j.jx, j.jy)
    runs = [run_sequence(seq, NoiseModel(sigma_f, n)) for n in (1, 2, 16, 128)]
    assert all(res.exact for res in runs)
    for direction in ReadoutDirection:
        first = ensemble_probabilities(runs[0], direction)
        for res in runs[1:]:
            assert np.array_equal(ensemble_probabilities(res, direction), first)


def test_ramp_requires_previous_segment():
    j = ExchangeConfig.balanced(50, 50)
    with pytest.raises(ValueError, match="first segment"):
        PulseSequence(init=singlet_x(), segments=(linear_ramp(j, 100.0),))


def test_empty_dwell_grid_rejected():
    j = ExchangeConfig.balanced(50, 50)
    with pytest.raises(ValueError, match="at least one time"):
        PulseSequence(init=singlet_x(), segments=(hold(j, 0.0),), dwell_times=())


def test_dwell_grid_rejects_a_final_hold_with_its_own_duration():
    # the grid replaces the final hold's duration, so a nonzero one would be ignored
    j = ExchangeConfig.balanced(50, 50)
    with pytest.raises(ValueError, match="final HOLD's duration, which must be 0"):
        PulseSequence(init=singlet_x(), segments=(set_diabatic(j), hold(j, 10.0)),
                      dwell_times=(0.0, 4.0, 8.0))
    PulseSequence(init=singlet_x(), segments=(hold(j, 10.0),))  # no grid: the duration holds


def test_ramp_step_cap_raises(monkeypatch):
    j0 = ExchangeConfig.balanced(50, 0.5)
    j1 = ExchangeConfig.balanced(50, 50)
    seq = PulseSequence(init=singlet_x(), segments=(set_diabatic(j0), linear_ramp(j1, 300.0)))
    # the 300 ns ramp converges at n = 512; the message names where it stopped
    monkeypatch.setattr(dynamics, "RAMP_STEP_CAP", 256)
    with pytest.raises(RampConvergenceError, match=r"^ramp discretization stopped at n=256 steps "
                                                   r".* estimated error \d"):
        run_sequence(seq)


def test_ramp_step_cap_names_the_column_of_a_stack(monkeypatch):
    j0 = ExchangeConfig.balanced(50, 0.5)
    j1 = ExchangeConfig.balanced(50, 50)
    stack = PulseSequence(singlet_x(), (set_diabatic(j0), linear_ramp(j1, [0.0, 4000.0])))
    # the zero-length ramp needs no steps; the 4000 ns one cannot converge in 128
    monkeypatch.setattr(dynamics, "RAMP_STEP_CAP", 128)
    with pytest.raises(RampConvergenceError,
                       match=r"^column 1: ramp discretization stopped at n=128 .* estimated error \d"):
        run_sequence(stack)


def test_ramp_step_cap_names_every_column_still_above_tol(monkeypatch):
    j0 = ExchangeConfig.balanced(50, 0.5)
    j1 = ExchangeConfig.balanced(50, 50)
    stack = PulseSequence(singlet_x(), (set_diabatic(j0),
                                        linear_ramp(j1, [4000.0, 0.0, 2.0, 3000.0])))
    # the 2 ns ramp converges within 128 steps, the 4000 and 3000 ns ones cannot
    monkeypatch.setattr(dynamics, "RAMP_STEP_CAP", 128)
    with pytest.raises(RampConvergenceError,
                       match=r"^columns 0, 3: ramp discretization stopped at n=128 steps \(cap 128\) "
                             r"with estimated errors \d[^,]*, \d[^,]*, above tol 1e-09$"):
        run_sequence(stack)


def test_magnus_ramps_converge_within_4096_steps(monkeypatch):
    # sixth-order steps converge both ramps within 256 steps; a second-order
    # (midpoint) rule needs 2^18 (singlet block) and 2^16 (16-dim) steps here
    j0 = ExchangeConfig.balanced(50, 0.5)
    j1 = ExchangeConfig.balanced(50, 50)
    singlet = PulseSequence(init=singlet_x(), segments=(set_diabatic(j0), linear_ramp(j1, 200.0)))
    product = PulseSequence(init=ST_INIT, segments=(set_diabatic(j0), linear_ramp(j1, 40.0)))
    monkeypatch.setattr(dynamics, "RAMP_STEP_CAP", 4096)
    for seq in (singlet, product):
        res = run_sequence(seq)
        assert res.states.shape == (1, 1, 16)
        assert_allclose(np.linalg.norm(res.states), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# properties of the Magnus ramp propagator

_STACK2, _STACK16 = _SECTORS[0][3], _SECTORS[-1][3]
_PROPERTY = settings(max_examples=15, deadline=None)
_couplings = st.lists(st.floats(0.5, 60.0), min_size=4, max_size=4).map(np.array)
#: a Hermitian 2x2 constant term with every Pauli component
_CONST2 = np.array([[3.0, 1.5 - 2.0j], [1.5 + 2.0j, -1.0]])


def _product(b0, b1, duration, n, stack, const=0.0):
    """One column's product of n Magnus steps."""
    return _ramp_products(np.array([b0]), np.array([b1]), np.array([float(duration)]), n,
                          _ramp_generators(stack, const))[0]


@_PROPERTY
@given(_couplings, _couplings, st.floats(1.0, 4000.0),
       st.sampled_from([(64, _STACK2), (4096, _STACK2), (64, _STACK16), (256, _STACK16)]),
       st.booleans())
def test_ramp_step_product_is_unitary(b0, b1, duration, steps, with_const):
    # the 2-dim sector's closed-form steps within one step block and past it,
    # and the 16-dim eigh steps, with and without a constant term
    n, stack = steps
    const = 0.0
    if with_const:
        const = _CONST2 if len(stack[0]) == 2 else zeeman_full(ZeemanConfig())
    u = _product(b0, b1, duration, n, stack, const)
    assert_allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-12)


@_PROPERTY
@given(_couplings, _couplings, st.floats(1.0, 80.0))
def test_ramp_singlet_block_is_projected_full_space(b0, b1, duration):
    # imbalanced endpoints make [H2, H1] nonzero inside every sector, which
    # pins the sign of the commutator term; the 4-dim m = -1 sector and the
    # 6-dim S_z = 0 block also carry the (sector-invariant) Zeeman term as the
    # constant part
    for basis, q, qh, stack in _SECTORS[:-1]:
        z = zeeman_full(ZeemanConfig()) * (basis in (Basis.TRIPLET_MINUS_PLUS_Q_4,
                                                    Basis.SZ_ZERO_6))
        u_sector = _product(b0, b1, duration, 64, stack, q @ z @ qh)
        u16 = _product(b0, b1, duration, 64, _STACK16, z)
        assert_allclose(u_sector, q @ u16 @ qh, atol=1e-12)


@_PROPERTY
@given(_couplings, st.lists(st.floats(10.0, 40.0), min_size=4, max_size=4), st.booleans(),
       st.floats(20.0, 60.0))
def test_ramp_error_is_sixth_order(b0, rise, downward, duration):
    # at 32 and 64 steps these ramps are in the asymptotic regime (a 100 ns one
    # is not yet: ratios up to ~84) with errors far above roundoff; the order-4
    # step gives ratios near 16 here
    b1 = b0 + np.array(rise)
    if downward:
        b0, b1 = b1, b0
    ref = _product(b0, b1, duration, 2**11, _STACK2)
    err = [np.abs(_product(b0, b1, duration, n, _STACK2) - ref).max() for n in (32, 64)]
    assume(err[1] > 1e-11)  # well above the roundoff of the comparison
    assert 48.0 <= err[0] / err[1] <= 80.0


#: The full space splits into blocks of fixed S_z (product states with k spins
#: up), which every bond and the Zeeman term conserve: a cheaper reference there.
_SZ_BLOCKS = [np.flatnonzero([bin(i).count("1") == k for i in range(16)]) for k in range(5)]


@settings(max_examples=6, deadline=None)
@given(_couplings, _couplings, st.floats(1.0, 80.0),
       st.sampled_from(["singlet", "full", "full with Zeeman"]), st.integers(0, 2**32 - 1))
def test_ramp_stops_within_tol_of_a_fine_reference(b0, b1, duration, space, seed):
    # RAMP_TOL is the error the stop rule estimates it has reached, not a step-to-step residual
    stack = _STACK2 if space == "singlet" else _STACK16
    dim = len(stack[0])
    const = zeeman_full(ZeemanConfig()) if space == "full with Zeeman" else np.zeros((dim, dim))
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    u = _ramp_unitaries(b0[None], b1[None], np.array([duration]), stack, psi[None], const)[0]
    blocks = [np.arange(2)] if space == "singlet" else _SZ_BLOCKS
    ref = np.zeros_like(psi)
    for idx in blocks:
        sub = np.ix_(idx, idx)
        ref[idx] = _product(b0, b1, duration, 2**14, stack[:, sub[0], sub[1]], const[sub]) @ psi[idx]
    assert np.linalg.norm(u @ psi - ref) < dynamics.RAMP_TOL


@_PROPERTY
@given(_couplings, _couplings, st.floats(2.0, 60.0))
def test_voltage_ramp_composes_at_geometric_mean(b0, b1, duration):
    # U(T) = U(T/2) U(T/2), the halves meeting at sqrt(b0 b1) on the voltage path
    cfg0, cfg1 = ExchangeConfig(*b0), ExchangeConfig(*b1)
    mid = ExchangeConfig(*np.sqrt(b0 * b1))
    one = PulseSequence(init=singlet_x(), segments=(set_diabatic(cfg0), linear_ramp(cfg1, duration)))
    two = PulseSequence(
        init=singlet_x(),
        segments=(set_diabatic(cfg0), linear_ramp(mid, duration / 2), linear_ramp(cfg1, duration / 2)),
    )
    assert_allclose(run_sequence(one).states, run_sequence(two).states, atol=1e-8)
