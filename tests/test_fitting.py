from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import least_squares

from rvbsim import fitting
from rvbsim.control import ExchangeVoltageModel, exchange_from_voltages
from rvbsim.dynamics import f_st_perturbative
from rvbsim.fitting import (
    TPHI_MAX_NS,
    CalibrationMap,
    FitResult,
    NoOscillationError,
    _covariance,
    _is_uniform,
    _kappa_model,
    _spectral_points,
    _spectral_seed,
    find_ellipse_center,
    find_frequency_minimum,
    fit_damped_cosine,
)
from rvbsim.io import read_csv


def damped_cosine(t, a, f, phi, tphi, a0):
    return a * np.cos(2 * np.pi * 1e-3 * f * t + phi) * np.exp(-((t / tphi) ** 2)) + a0


def _nyquist(t):
    """Nyquist frequency (MHz) of each equal-step grid of ``t``, as the fit takes it."""
    return 0.5 / np.median(np.diff(t, axis=-1), axis=-1) * 1e3


def _model(t, a, f, phi, tphi, a0):
    """The fit's damped cosine in tphi, through :func:`fitting._kappa_model`."""
    return _kappa_model(t, t * t, np.stack([a, f, phi, tphi**-2, a0], axis=-1))[0]


def _model_jacobian(t, a, f, phi, tphi, a0):
    """Derivatives of :func:`_model`, columns (a, f, phi, tphi, a0).

    The kappa Jacobian with column 3 times dkappa/dtphi = -2 tphi^-3.
    """
    jac = _kappa_model(t, t * t, np.stack([a, f, phi, tphi**-2, a0], axis=-1))[1]
    jac[..., 3] *= (-2 / np.asarray(tphi) ** 3)[..., None]
    return jac


def test_noiseless_recovery():
    t = np.linspace(0, 300, 76)
    truth = (0.375, 50.0, 0.0, 130.0, 0.5)
    fit = fit_damped_cosine(t, damped_cosine(t, *truth))
    assert_allclose(fit.a, truth[0], rtol=1e-6)
    assert_allclose(fit.f, truth[1], rtol=1e-6)
    assert abs(fit.phi - truth[2]) < 1e-5
    assert_allclose(fit.tphi, truth[3], rtol=1e-6)
    assert_allclose(fit.a0, truth[4], rtol=1e-6)
    assert fit.residual_rms < 1e-9


def test_recovery_with_nonzero_phase_and_undamped_trace():
    t = np.linspace(0, 120, 60)
    p = damped_cosine(t, 0.2, 33.0, 1.1, 1e9, 0.45)
    fit = fit_damped_cosine(t, p)
    assert_allclose(fit.f, 33.0, rtol=1e-6)
    assert abs(fit.phi - 1.1) < 1e-4
    assert fit.tphi > 1e4  # effectively no decay


def test_scale_equivariance():
    t = np.linspace(0, 250, 80)
    p = damped_cosine(t, 0.3, 40.0, 0.7, 150.0, 0.5)
    fit1 = fit_damped_cosine(t, p)
    fit2 = fit_damped_cosine(t, 3.0 * p)
    assert_allclose(fit2.a, 3 * fit1.a, rtol=1e-6)
    assert_allclose(fit2.a0, 3 * fit1.a0, rtol=1e-6)
    assert_allclose(fit2.f, fit1.f, rtol=1e-8)
    assert_allclose(fit2.tphi, fit1.tphi, rtol=1e-5)
    assert abs(fit2.phi - fit1.phi) < 1e-6


def test_shot_noise_recovery_study():
    # small version of the acceptance study: 500-shot binomial noise per point
    rng = np.random.default_rng(41)
    t = np.linspace(0, 300, 50)
    ok_f = ok_tphi = 0
    trials = 40
    for _ in range(trials):
        p = damped_cosine(t, 0.375, 50.0, 0.0, 130.0, 0.5)
        data = rng.binomial(500, np.clip(p, 0, 1)) / 500
        fit = fit_damped_cosine(t, data)
        ok_f += abs(fit.f - 50.0) / 50.0 < 0.02
        ok_tphi += abs(fit.tphi - 130.0) / 130.0 < 0.10
    assert ok_f >= 0.95 * trials
    assert ok_tphi >= 0.9 * trials


def test_fit_rejects_flat_and_short_traces():
    t = np.linspace(0, 300, 60)
    with pytest.raises(NoOscillationError):
        fit_damped_cosine(t, np.full_like(t, 0.5))
    with pytest.raises(ValueError, match="at least 10"):
        fit_damped_cosine(t[:5], np.cos(t[:5]))
    # spans less than 1.5 periods of the dominant frequency
    t_short = np.linspace(0, 20, 40)
    with pytest.raises(ValueError, match="periods"):
        fit_damped_cosine(t_short, damped_cosine(t_short, 0.3, 50.0, 0.0, 1e9, 0.5))
    # repeated time points and non-finite samples fail before the spectral seed
    t_rep = np.repeat(np.linspace(0, 300, 20), 3)
    with pytest.raises(ValueError, match="equal steps"):
        fit_damped_cosine(t_rep, damped_cosine(t_rep, 0.3, 50.0, 0.0, 130.0, 0.5))
    p_nan = damped_cosine(t, 0.3, 50.0, 0.0, 130.0, 0.5)
    p_nan[17] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fit_damped_cosine(t, p_nan)
    t_inf = t.copy()
    t_inf[-1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fit_damped_cosine(t_inf, damped_cosine(t, 0.3, 50.0, 0.0, 130.0, 0.5))


def test_noiseless_undamped_fit_reaches_roundoff():
    # the closed-form Jacobian lets the solver converge to round-off; with
    # finite differences it stalled at residual ~1e-10
    for t, truth in ((np.linspace(0, 120, 60), (0.2, 33.0, 1.1, 1e9, 0.45)),
                     (np.linspace(0, 300, 76), (0.375, 50.0, 0.0, 1e12, 0.5))):
        fit = fit_damped_cosine(t, damped_cosine(t, *truth))
        assert abs(fit.f - truth[1]) / truth[1] <= 1e-11
        assert fit.residual_rms < 1e-11


def _nyquist_shot_trace():
    # 20 points over 30 ns, amplitude 0.19 at f_nyq = 316.7 MHz, 500 shots
    t = np.linspace(0.0, 30.0, 20)
    p = 0.5 + 0.19 * np.cos(np.pi * np.arange(20))
    return t, np.random.default_rng(0).binomial(500, p) / 500


@pytest.mark.parametrize("t, p", [
    (np.linspace(0, 300, 61), 0.5 + 0.3 * np.cos(np.pi * np.arange(61))),
    _nyquist_shot_trace(),
], ids=["noiseless-100MHz", "shots-316.7MHz"])
def test_peak_at_nyquist_frequency_raises(t, p):
    # only a cos(phi) is determined there: the fit must refuse, not return a
    # wrong amplitude with a huge sigma
    f_nyq = 0.5e3 / (t[1] - t[0])
    with pytest.raises(NoOscillationError, match=f"Nyquist frequency {f_nyq:.1f} MHz"):
        fit_damped_cosine(t, p)


_PROPERTY = settings(max_examples=40, deadline=None)
_seeds = st.integers(0, 2**32 - 1)


@_PROPERTY
@given(st.floats(0.1, 1.0), st.floats(5.0, 200.0), st.floats(-np.pi, np.pi),
       st.floats(50.0, 2000.0), st.floats(-1.0, 1.0), st.integers(10, 80), _seeds)
def test_model_jacobian_matches_central_differences(a, f, phi, tphi, a0, n, seed):
    # ranges where every column stays well above the differences' round-off
    t = np.sort(np.random.default_rng(seed).uniform(0.0, 500.0, n))
    x = np.array([a, f, phi, tphi, a0])
    jac = _model_jacobian(t, *x)
    fd = np.empty_like(jac)
    for k in range(5):
        h = np.zeros(5)
        h[k] = 1e-6 * max(abs(x[k]), 1.0)
        # difference the oscillating part alone (offset 0) for the four shape
        # columns: the model is linear in a0, and rounding a0 + (vanishing
        # oscillation) would swamp a difference of a column that small
        off = 1.0 if k == 4 else 0.0
        fd[:, k] = (_model(t, *(x + h)[:4], off * (x + h)[4])
                    - _model(t, *(x - h)[:4], off * (x - h)[4])) / (2 * h[k])
    # relative to each column's scale: columns vanish wherever the envelope does
    assert np.all(np.abs(jac - fd) <= 1e-6 * np.abs(fd).max(axis=0))


def _is_5_smooth(m: int) -> bool:
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


def test_spectral_points_give_5_smooth_transform_lengths():
    # the fewest points from max(512, 8 n) up whose transform length 2(M - 1)
    # has no prime factor above 5, at most 7 % more (6.6 % is the worst up to
    # n = 20000)
    for n in range(10, 5001):
        least, m = max(512, 8 * n), _spectral_points(n)
        assert least <= m <= 1.07 * least and _is_5_smooth(2 * (m - 1))
        assert not any(_is_5_smooth(2 * (k - 1)) for k in range(least, m))
    assert _spectral_points(121) == 973  # length 1944 = 2^3 3^5, not 1934 = 2 x 967


def _dense_power(t, x, grid):
    """|sum_j x_j exp(-2 pi i f t_j)| for every frequency f (MHz) of ``grid``, by a dense DFT."""
    return np.abs(np.exp(-1j * (2 * np.pi * 1e-3) * np.outer(grid, t)) @ x)


@_PROPERTY
@given(st.floats(-500.0, 500.0), st.floats(0.1, 20.0), st.integers(10, 200),
       st.floats(0.05, 0.9), _seeds)
def test_fft_seed_power_matches_dense_dft(t0, dt, n, f_frac, seed):
    assume(f_frac * n >= 6)  # at least three periods
    t = t0 + dt * np.arange(n)
    f_nyq = 0.5 / dt * 1e3
    rng = np.random.default_rng(seed)
    p = 0.5 + 0.3 * np.cos(2 * np.pi * 1e-3 * f_frac * f_nyq * t + rng.uniform(-np.pi, np.pi))
    p += 0.02 * rng.normal(size=n)
    assert _is_uniform(t, np.median(np.diff(t)))
    t_off = t.copy()
    t_off[n // 2] += 1e-6 * dt
    assert not _is_uniform(t_off, np.median(np.diff(t_off)))
    m = _spectral_points(n)
    grid = np.linspace(0.0, f_nyq, m)
    dense = _dense_power(t, p - p.mean(), grid)
    fft = np.abs(np.fft.rfft(p - p.mean(), n=2 * (m - 1)))
    assert np.abs(fft - dense).max() <= 1e-9 * dense.max()
    (f0,), (error,) = _spectral_seed(p[None], np.array([f_nyq]))
    if error is not None:
        # a short noisy trace can miss the 4x-median floor or peak at the Nyquist edge
        assert isinstance(error, NoOscillationError)
        return
    # the bin times f_nyq / (M - 1) is the value linspace puts there, bit for bit
    lo = max(2, int(0.01 * m))
    assert f0 == grid[lo + int(np.argmax(dense[lo:]))]


def test_off_grid_rows_read_nan_with_the_grid_reason():
    # a row jittered by 1e-6 of a step, a reversed row and a row with a
    # repeated time fail before the seed: the other rows keep every bit of a
    # stack without them, and each bad trace alone raises
    t = np.linspace(0.0, 300.0, 61)
    rng = np.random.default_rng(3)
    good = np.array([rng.binomial(500, damped_cosine(t, 0.3, f, 0.4, 200.0, 0.5)) / 500
                     for f in (20.0, 35.0, 50.0)])
    jittered = t.copy()
    jittered[30] += 1e-6 * (t[1] - t[0])
    repeated = t.copy()
    repeated[30] = repeated[29]
    bad = {1: jittered, 2: t[::-1], 4: repeated}
    grids, p = [t] * 3, list(good)
    for k in sorted(bad):
        grids.insert(k, bad[k])
        p.insert(k, damped_cosine(bad[k], 0.3, 35.0, 0.4, 200.0, 0.5))
    mixed, clean = fit_damped_cosine(np.array(grids), np.array(p)), fit_damped_cosine(t, good)
    ok = [k for k in range(len(p)) if k not in bad]
    for k in bad:
        assert mixed.reason[k] == "time points must increase in equal steps"
        assert np.all(np.isnan(_fields(mixed)[:, k])) and np.all(np.isnan(mixed.covariance[k]))
        with pytest.raises(ValueError, match="equal steps"):
            fit_damped_cosine(bad[k], p[k])
    assert list(mixed.reason[ok]) == [""] * len(ok)
    assert np.array_equal(_fields(mixed)[:, ok], _fields(clean))
    assert np.array_equal(mixed.covariance[ok], clean.covariance)


def test_visible_periods_in_valence_bond_regime():
    # 50 MHz oscillation with tphi = 130 ns and amplitude 3/8 keeps more
    # than ten periods above a 1% visibility floor
    f, tphi, a = 50.0, 130.0, 0.375
    t_floor = tphi * np.sqrt(np.log(a / 0.01))
    assert f * 1e-3 * t_floor >= 10


def test_fit_result_flat_record():
    t = np.linspace(0, 200, 60)
    fit = fit_damped_cosine(t, damped_cosine(t, 0.3, 25.0, 0.2, 120.0, 0.4))
    rec = fit.to_flat_record()
    assert rec["fit.f_mhz"] == fit.f
    assert "fit.sigma_tphi_ns" in rec and rec["fit.sigma_tphi_ns"] >= 0


def test_frequency_minimum_exact_parabola():
    dv = np.linspace(-6, 6, 13)
    f = 25.0 + 0.4 * (dv - 1.5) ** 2
    res = find_frequency_minimum(dv, f)
    assert_allclose(res.dv_star, 1.5, atol=1e-9)
    assert_allclose(res.f_min, 25.0, atol=1e-9)
    assert_allclose(res.curvature, 0.4, rtol=1e-9)


def test_frequency_minimum_offset_invariance():
    dv = np.linspace(-5, 5, 11)
    f = 30.0 + 0.2 * (dv + 2.0) ** 2
    r1 = find_frequency_minimum(dv, f)
    r2 = find_frequency_minimum(dv, f + 7.5)
    assert_allclose(r1.dv_star, r2.dv_star, atol=1e-10)
    assert_allclose(r2.f_min - r1.f_min, 7.5, atol=1e-9)


def test_frequency_minimum_validation():
    dv = np.linspace(-5, 5, 11)
    with pytest.raises(ValueError, match="at least 5"):
        find_frequency_minimum(dv[:4], dv[:4] ** 2)
    with pytest.raises(ValueError, match="bracketed"):
        find_frequency_minimum(dv, 10 + dv)
    with pytest.raises(ValueError, match="one shape"):
        find_frequency_minimum(dv, dv[:-1] ** 2)


def test_frequency_minimum_closed_loop_with_exchange_model():
    # sweep generated through the voltage model with a hidden 3 mV offset
    model = ExchangeVoltageModel(j0x=40.0, j0y=90.0)
    offset = 3.0
    dv = np.linspace(-1, 7, 17)
    f = [f_st_perturbative(exchange_from_voltages(model, v - offset, 0.0)) for v in dv]
    res = find_frequency_minimum(dv, f)
    assert abs(res.dv_star - offset) < 0.1
    assert_allclose(2 * res.f_min, model.j0y, rtol=1e-3)
    # curvature consistent with the quadratic imbalance coefficient
    assert_allclose(res.curvature, model.j0x**2 * model.kappa**2 / model.j0y, rtol=0.05)


def _symmetric_map(nx=21, ny=21, center=(0.0, 0.0), tilt=0.0):
    dvx = np.linspace(-10, 10, nx)
    dvy = np.linspace(-10, 10, ny)
    xx, yy = np.meshgrid(dvx - center[0], dvy - center[1], indexing="ij")
    u = xx + tilt * yy
    w = yy - tilt * xx
    values = 0.5 + 0.4 * np.cos(0.35 * np.sqrt(1.3 * u**2 + 0.6 * w**2 + 0.4 * u * w))
    return CalibrationMap(dvx=dvx, dvy=dvy, values=values)


def test_ellipse_center_centered_map():
    res = find_ellipse_center(_symmetric_map())
    assert abs(res.center[0]) < 0.5 and abs(res.center[1]) < 0.5
    assert res.score > 0.99


def test_ellipse_center_translation_equivariance():
    res = find_ellipse_center(_symmetric_map(center=(4.0, -3.0)))
    assert_allclose(res.center, (4.0, -3.0), atol=0.5)


def test_ellipse_center_tilted_map():
    res = find_ellipse_center(_symmetric_map(center=(2.0, 1.0), tilt=0.35))
    assert abs(res.center[0] - 2.0) <= 2.0
    assert abs(res.center[1] - 1.0) <= 2.0


def test_ellipse_center_rejects_asymmetric_map():
    dvx = np.linspace(-10, 10, 21)
    dvy = np.linspace(-10, 10, 21)
    rng = np.random.default_rng(5)
    gradient = np.add.outer(np.exp(dvx / 4), 0.5 * dvy) + 0.02 * rng.normal(size=(21, 21))
    cal = CalibrationMap(dvx=dvx, dvy=dvy, values=gradient)
    with pytest.raises(ValueError):
        find_ellipse_center(cal)


@pytest.mark.parametrize("values, message", [
    (np.full((17, 17), 0.3), "map has no structure: every overlap large enough to score is "
                             "constant"),
    (np.arange(15.0).reshape(3, 5) % 4, "map too small for a symmetric-overlap search: 15 points, "
                                        "need at least 16"),
], ids=["uniform-17x17", "3x5"])
def test_ellipse_center_tells_a_flat_map_from_a_small_one(values, message):
    nx, ny = values.shape
    cal = CalibrationMap(dvx=np.linspace(-8, 8, nx), dvy=np.linspace(-8, 8, ny), values=values)
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_ellipse_center(cal)


def _direct_reflection_scores(v):
    """Pearson of each overlap with its point reflection, one center at a time; -inf unscored."""
    nx, ny = v.shape
    scores = np.full((2 * nx - 1, 2 * ny - 1), -np.inf)
    for ci2, cj2 in np.ndindex(scores.shape):
        i0, i1 = max(0, ci2 - nx + 1), min(nx - 1, ci2)
        j0, j1 = max(0, cj2 - ny + 1), min(ny - 1, cj2)
        a = v[i0 : i1 + 1, j0 : j1 + 1]
        b = v[ci2 - i1 : ci2 - i0 + 1, cj2 - j1 : cj2 - j0 + 1][::-1, ::-1]
        if a.size >= max(16, v.size / 4) and np.ptp(a) > 0:
            da, db = a - a.mean(), b - b.mean()
            scores[ci2, cj2] = np.sum(da * db) / np.sqrt(np.sum(da**2) * np.sum(db**2))
    return scores


_fractions = st.floats(0.0, 1.0)


@_PROPERTY
@given(st.integers(5, 20), st.integers(5, 20), st.booleans(),
       st.none() | st.tuples(_fractions, _fractions, _fractions, _fractions), _seeds)
@example(nx=10, ny=10, quantized=True, block=(0.0, 0.7, 0.0, 0.7), seed=0)  # 7x7 corner block
def test_reflection_scores_match_direct_pearson(nx, ny, quantized, block, seed):
    # uniform or shot-quantized (k/100) values, some with a constant block,
    # up to the whole map, so that whole overlaps are constant and read -inf
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 101, (nx, ny)) / 100 if quantized else rng.uniform(size=(nx, ny))
    if block is not None:
        (i0, i1), (j0, j1) = (sorted(int(f * (n - 1)) for f in pair)
                              for pair, n in ((block[:2], nx), (block[2:], ny)))
        v[i0 : i1 + 1, j0 : j1 + 1] = rng.integers(0, 101) / 100
    direct = _direct_reflection_scores(v)
    scores = fitting._reflection_scores(v)
    assert scores.shape == direct.shape
    finite = np.isfinite(direct)
    assert np.array_equal(np.isfinite(scores), finite)
    assert np.all(np.abs(scores[finite] - direct[finite]) <= 1e-12)
    if finite.any():
        assert np.argmax(scores) == np.argmax(direct)


def test_calibration_map_validation_and_csv(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        CalibrationMap(dvx=np.arange(5.0), dvy=np.arange(4.0), values=np.zeros((4, 5)))
    cal = _symmetric_map(nx=5, ny=7)
    path = tmp_path / "map.csv"
    cal.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "dvx_mv,dvy_mv,probability"
    back = {name: col.reshape(5, 7) for name, col in read_csv(path).items()}
    assert_allclose(back["probability"], cal.values, atol=1e-9)
    assert_allclose(back["dvx_mv"], np.repeat(cal.dvx[:, None], 7, axis=1), atol=1e-9)
    assert_allclose(back["dvy_mv"], np.repeat(cal.dvy[None, :], 5, axis=0), atol=1e-9)


def test_calibration_map_leaves_the_callers_arrays_writeable():
    # the map used to freeze the caller's float arrays in place
    grid = np.linspace(-1.0, 1.0, 3)
    values = np.zeros((3, 3))
    cal = CalibrationMap(dvx=grid, dvy=grid, values=values)
    grid[0] = -2.0
    values[0, 0] = 1.0
    assert cal.dvx[0] == cal.dvy[0] == -1.0 and cal.values[0, 0] == 0.0
    for arr in (cal.dvx, cal.dvy, cal.values):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_calibration_map_rejects_non_finite_values():
    values = _symmetric_map(nx=5, ny=7).values.copy()
    values[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        CalibrationMap(dvx=np.arange(5.0), dvy=np.arange(7.0), values=values)


def test_undetermined_decay_time_has_infinite_sigma():
    # an undamped 30 ns trace cannot fix tphi: its sigma is inf, not the ~1e-17 a
    # truncated pseudo-inverse of J^T J reports; the fixed parameters stay finite
    t = np.linspace(0.0, 30.0, 61)
    fit = fit_damped_cosine(t, 0.375 * np.cos(2 * np.pi * 1e-3 * 120.0 * t) + 0.625)
    assert fit.tphi > 1e3
    sig = fit.sigmas
    assert sig[3] == np.inf and np.all(np.isfinite(sig[[0, 1, 2, 4]]))
    # a damped noisy trace fixes every parameter
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 300.0, 50)
    p = 0.375 * np.cos(2 * np.pi * 1e-3 * 50.0 * t) * np.exp(-((t / 130.0) ** 2)) + 0.625
    assert np.all(np.isfinite(fit_damped_cosine(t, rng.binomial(500, p) / 500).sigmas))


def trf_reference_fit(t, p) -> FitResult:
    """Reference polish: SciPy ``trf`` in tphi from the fit's own start, box and tolerances.

    This is the solver ``fit_damped_cosine`` used before its bounded
    Levenberg-Marquardt loop in kappa; it takes already validated input.
    Start and box come from :func:`fitting._seed` with kappa read as tphi,
    which swaps kappa's bounds.
    """
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    start, _ = fitting._seed(t[None], p[None], _nyquist(t[None]))
    x0, lower, upper = start[:, 0].copy()
    x0[3], lower[3], upper[3] = x0[3] ** -0.5, upper[3] ** -0.5, lower[3] ** -0.5
    res = least_squares(lambda x: _model(t, *x) - p, x0=np.clip(x0, lower, upper),
                        jac=lambda x: _model_jacobian(t, *x), bounds=(lower, upper),
                        gtol=1e-10, xtol=1e-12, ftol=1e-12, max_nfev=2000)
    a, f, phi, tphi, a0 = res.x
    cov = _covariance(res.jac.T @ res.jac, 2 * res.cost / max(len(t) - 5, 1))
    return FitResult(a, f, (phi + np.pi) % (2 * np.pi) - np.pi, tphi, a0, cov,
                     float(np.sqrt(np.mean(res.fun**2))))


def _params(fit):
    return np.array([fit.a, fit.f, fit.phi, fit.tphi, fit.a0])


def _gaps(fit, ref):
    """|fit - ref| per parameter, with phi compared as e^{i phi}."""
    gap = np.abs(_params(fit) - _params(ref))
    gap[2] = abs(np.exp(1j * fit.phi) - np.exp(1j * ref.phi))
    return gap


def _shot_trace(n, span, periods, a, phi, growth, shots, seed):
    """Binomial shot means of 0.5 + a cos(...) exp(growth (t/span)^2) on n points."""
    t = np.linspace(0.0, span, n)
    envelope = np.exp(growth * (t / span) ** 2)
    p = np.clip(0.5 + a * np.cos(2 * np.pi * periods / span * t + phi) * envelope, 0.0, 1.0)
    return t, np.random.default_rng(seed).binomial(shots, p) / shots


#: (n, span, periods, growth, a, phi, shots, seed) of :func:`_shot_trace`: damped traces
_DAMPED = (st.integers(40, 121), st.floats(100.0, 600.0), st.floats(3.0, 10.0),
           st.floats(-3.0, -0.7), st.floats(0.2, 0.45), st.floats(-np.pi, np.pi),
           st.sampled_from((500, 2000, 5000)), _seeds)
#: ... and damped, undamped or growing ones, down to 20 points
_ANY_ENVELOPE = (st.integers(20, 121), st.floats(30.0, 600.0), st.floats(2.0, 10.0),
                 st.floats(-3.0, 0.7), st.floats(0.15, 0.45), st.floats(-np.pi, np.pi),
                 st.sampled_from((500, 5000)), _seeds)


@_PROPERTY
@given(*_DAMPED)
def test_fit_matches_trf_reference(n, span, periods, growth, a, phi, shots, seed):
    # a damped cosine under shot noise, decaying to exp(growth) of its amplitude
    # over the span, so the data fix every parameter to a few percent; trf's
    # ftol stop leaves ~1e-7 relative play there, which sets the tolerance
    t, p = _shot_trace(n, span, periods, a, phi, growth, shots, seed)
    fit, ref = fit_damped_cosine(t, p), trf_reference_fit(t, p)
    assert np.array_equal(np.isinf(fit.sigmas), np.isinf(ref.sigmas))
    finite = np.isfinite(fit.sigmas) & np.isfinite(ref.sigmas)
    scale = np.abs(_params(ref))
    scale[2] = 1.0
    assert np.all(_gaps(fit, ref)[finite] <= 1e-7 * scale[finite])
    assert fit.residual_rms <= ref.residual_rms * (1 + 1e-9)


@_PROPERTY
@given(*_ANY_ENVELOPE)
def test_fit_stays_in_box_and_matches_trf_on_any_envelope(n, span, periods, growth, a, phi,
                                                          shots, seed):
    # damped, undamped and growing envelopes, at least 4 points per period like
    # every experiment trace (near the Nyquist frequency amplitude and phase
    # separate only through the decay); growing envelopes put kappa on its
    # lower bound (tphi = TPHI_MAX_NS), where trf stalls short of it
    assume(4 * periods <= n - 1)
    t, p = _shot_trace(n, span, periods, a, phi, growth, shots, seed)
    fit, ref = fit_damped_cosine(t, p), trf_reference_fit(t, p)
    f_nyq = _nyquist(t[None])
    (f0,), _ = _spectral_seed(p[None], f_nyq)
    assert 0.0 <= fit.a <= 10 * (p.max() - p.min())
    assert 0.0 <= fit.f <= 2 * f0 + f_nyq[0]
    assert -np.pi <= fit.phi <= np.pi
    assert 1e-3 * span <= fit.tphi <= TPHI_MAX_NS
    assert np.isfinite(fit.a0)
    # agreement to a small fraction of the statistical error wherever it is finite
    assert np.array_equal(np.isinf(fit.sigmas), np.isinf(ref.sigmas))
    finite = np.isfinite(fit.sigmas)
    assert np.all(_gaps(fit, ref)[finite] <= 1e-4 * ref.sigmas[finite])
    assert fit.residual_rms <= ref.residual_rms * (1 + 1e-9)


def _best_trial_grid_residual(t, p):
    """Smallest residual the polish reaches, in the fit's box, from a grid of 12 starts.

    The starts are (f, tphi) = (0.97, 1, 1.03) f0 x (8, 2, 1, 1/3) span, each
    with (a, phi, a0) from the linear least-squares solve at its (f, tphi), as
    the seed's variable-projection grid once chose them.
    """
    (x0, lower, upper), _ = fitting._seed(t[None], p[None], _nyquist(t[None]))
    f0, span = x0[0, 1], np.ptp(t)
    starts = []
    for f in (0.97 * f0, f0, 1.03 * f0):
        for tphi in (8 * span, 2 * span, span, span / 3):
            env = np.exp(-((t / tphi) ** 2))
            theta = 2 * np.pi * 1e-3 * f * t
            design = np.column_stack([np.cos(theta) * env, -np.sin(theta) * env, np.ones_like(t)])
            c1, c2, a0 = np.linalg.lstsq(design, p, rcond=None)[0]
            starts.append([np.hypot(c1, c2), f, np.arctan2(c2, c1), tphi**-2, a0])
    trials = len(starts)
    lower, upper = np.repeat(lower, trials, axis=0), np.repeat(upper, trials, axis=0)
    fits, _ = fitting._polish(np.tile(t, (trials, 1)), np.tile(p, (trials, 1)),
                              np.clip(starts, lower, upper), lower, upper)
    return fits[:, 5].min()


@_PROPERTY
@given(st.one_of(st.tuples(*_DAMPED),
                 st.tuples(*_ANY_ENVELOPE).filter(lambda x: 4 * x[2] <= x[0] - 1)))
def test_one_start_reaches_the_best_minimum_of_a_trial_grid(trace):
    # the fit starts from one linear solve at (f0, 2 span); no start of the
    # 3 x 4 grid it replaced reaches a residual below the fit's
    n, span, periods, growth, a, phi, shots, seed = trace
    t, p = _shot_trace(n, span, periods, a, phi, growth, shots, seed)
    fit = fit_damped_cosine(t, p)
    assert fit.residual_rms <= _best_trial_grid_residual(t, p) * (1 + 1e-9)


@_PROPERTY
@given(st.floats(8.0, 110.0), st.floats(-np.pi, np.pi), st.floats(0.05, 0.5))
def test_undamped_trace_lands_on_tphi_bound(f, phi, a):
    # the 121-point, 240 ns shape of the calibration and criterion-8 traces: in
    # kappa the undamped limit is a bound the loop reaches in a few steps (trf in
    # tphi stalled at 1e5-1e8 ns)
    evaluations = []
    kappa_model = fitting._kappa_model

    def counting(*args):
        evaluations.append(1)
        return kappa_model(*args)

    t = np.linspace(0.0, 240.0, 121)
    with mock.patch.object(fitting, "_kappa_model", counting):
        fit = fit_damped_cosine(t, damped_cosine(t, a, f, phi, np.inf, 0.625))
    assert len(evaluations) <= 30
    assert fit.tphi == TPHI_MAX_NS
    assert fit.sigmas[3] == np.inf
    assert fit.residual_rms < 1e-13


def test_growing_envelope_stays_in_box():
    # exp(+(t/200 ns)^2) has no Gaussian decay: kappa stops on its lower bound
    t = np.linspace(0.0, 240.0, 121)
    p = 0.5 + 0.2 * np.cos(2 * np.pi * 1e-3 * 30.0 * t + 0.4) * np.exp((t / 200.0) ** 2)
    fit, ref = fit_damped_cosine(t, p), trf_reference_fit(t, p)
    assert fit.tphi == TPHI_MAX_NS and ref.tphi < TPHI_MAX_NS
    assert 0.0 <= fit.a <= 10 * np.ptp(p)
    assert_allclose(fit.f, 30.0, rtol=1e-2)
    assert fit.residual_rms <= ref.residual_rms * (1 + 1e-9)


def _fields(fit):
    return np.array([fit.a, fit.f, fit.phi, fit.tphi, fit.a0, fit.residual_rms])


@_PROPERTY
@given(st.integers(1, 6), st.integers(40, 121), st.booleans(), st.booleans(),
       st.sampled_from((50, 500, 5000)), _seeds)
def test_stack_fit_equals_fits_of_its_rows(rows, n, per_row_t, jittered_row, shots, seed):
    # shot-noise traces with their own frequency, phase and decay; per_row_t gives
    # each its own span, and jittered_row moves one row off its equal-step grid so
    # that row reads the grid reason while the others are fitted; the rows stop
    # after different numbers of steps, some rejected, and leave the batch
    rng = np.random.default_rng(seed)
    spans = rng.uniform(150.0, 400.0, rows) if per_row_t else np.full(rows, 300.0)
    t = np.linspace(0.0, spans, n, axis=-1)
    if jittered_row:
        t[0] += rng.uniform(-0.3, 0.3, n) * spans[0] / (n - 1)
    f = rng.uniform(4.0, 0.2 * (n - 1), rows) / spans * 1e3
    truth = damped_cosine(t, 0.3, f[:, None], rng.uniform(-np.pi, np.pi, (rows, 1)),
                          rng.uniform(0.5, 3.0, (rows, 1)) * spans[:, None], 0.5)
    p = rng.binomial(shots, np.clip(truth, 0.0, 1.0)) / shots
    stack = fit_damped_cosine(t if per_row_t or jittered_row else t[0], p)
    if jittered_row:
        assert stack.reason[0] == "time points must increase in equal steps"
    assert stack.f.shape == stack.reason.shape == (rows,)
    assert stack.covariance.shape == (rows, 5, 5)
    for k in range(rows):
        try:
            fit = fit_damped_cosine(t[k], p[k])
        except ValueError as err:  # 50 shots can bury a fast decay in the noise
            assert stack.reason[k] == str(err) and np.isnan(stack.f[k])
            continue
        assert stack.reason[k] == ""
        assert_allclose(stack.f[k], fit.f, rtol=1e-12)
        assert_allclose(stack.tphi[k], fit.tphi, rtol=1e-12)
        assert np.array_equal(np.isinf(stack.sigmas[k]), np.isinf(fit.sigmas))
        finite = np.isfinite(fit.sigmas)
        assert_allclose(stack.sigmas[k][finite], fit.sigmas[finite], rtol=1e-12)


@_PROPERTY
@given(st.integers(1, 8), st.integers(40, 151), st.integers(0, 1), _seeds)
def test_panel_stack_fit_equals_the_fit_of_each_panel(rows, n, flat_panel, seed):
    # a figure fits both panels' maps (2, rows, n) in one call: every field, the
    # covariance and the reason equal those of the two (rows, n) fits bit for bit,
    # a row the fit rejects (one flat row, in either panel) included
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 300.0, n)
    f = rng.uniform(5.0, 0.2 * (n - 1), (2, rows, 1)) / 300.0 * 1e3
    truth = damped_cosine(t, 0.3, f, rng.uniform(-np.pi, np.pi, (2, rows, 1)),
                          rng.uniform(100.0, 600.0, (2, rows, 1)), 0.5)
    p = rng.binomial(500, np.clip(truth, 0.0, 1.0)) / 500
    p[flat_panel, rng.integers(rows)] = 0.5
    stack = fit_damped_cosine(t, p)
    panels = [fit_damped_cosine(t, p[i]) for i in range(2)]
    assert "no spectral peak above the noise floor" in stack.reason[flat_panel]
    for i, alone in enumerate(panels):
        assert np.array_equal(_fields(stack)[:, i], _fields(alone), equal_nan=True)
        assert np.array_equal(stack.covariance[i], alone.covariance, equal_nan=True)
        assert np.array_equal(stack.reason[i], alone.reason)


def test_stack_fit_rows_that_fail_read_nan_with_their_reason():
    # a flat row, a row peaked at the Nyquist frequency and a row under 1.5
    # periods fail alone: the other rows keep every bit of a stack without them
    t = np.linspace(0.0, 300.0, 61)
    rng = np.random.default_rng(8)
    good = np.array([rng.binomial(500, damped_cosine(t, 0.3, f, 0.4, 200.0, 0.5)) / 500
                     for f in (20.0, 35.0, 50.0)])
    bad = {
        1: (np.full_like(t, 0.5), "no spectral peak above the noise floor"),
        2: (0.5 + 0.3 * np.cos(np.pi * np.arange(61)), "spectral peak at the Nyquist frequency"),
        4: (damped_cosine(t, 0.3, 3.0, 0.0, 1e9, 0.5), "trace spans 1.05 periods"),
    }
    p = list(good)
    for k in sorted(bad):
        p.insert(k, bad[k][0])
    mixed, clean = fit_damped_cosine(t, np.array(p)), fit_damped_cosine(t, good)
    ok = [k for k in range(len(p)) if k not in bad]
    for k, (_, reason) in bad.items():
        assert mixed.reason[k].startswith(reason)
        assert np.all(np.isnan(_fields(mixed)[:, k])) and np.all(np.isnan(mixed.covariance[k]))
    assert list(mixed.reason[ok]) == [""] * len(ok)
    assert np.array_equal(_fields(mixed)[:, ok], _fields(clean))
    assert np.array_equal(mixed.covariance[ok], clean.covariance)
    # the seed stages in blocks of one row give the same bits as in one block
    with mock.patch.object(fitting, "_SEED_VALUES", 1):
        blocked = fit_damped_cosine(t, np.array(p))
    assert np.array_equal(_fields(blocked), _fields(mixed), equal_nan=True)
    assert np.array_equal(blocked.reason, mixed.reason)
    # the same trace alone raises that reason
    with pytest.raises(NoOscillationError, match="Nyquist frequency 100.0 MHz"):
        fit_damped_cosine(t, bad[2][0])


def test_late_start_row_keeps_the_pinv_seed():
    # on a grid starting at 3e4 ns the seed envelope exp(-(t / 2 span)^2)
    # underflows to 0, so that row's Gram matrix is singular: it takes the
    # pseudo-inverse and the stack fits without raising, each row as if alone
    t = np.linspace(0.0, 300.0, 61) + np.array([[0.0], [3e4], [0.0]])
    p = damped_cosine(t - t[:, :1], 0.3, np.array([[20.0], [30.0], [45.0]]), 0.4, 200.0, 0.5)
    fit = fit_damped_cosine(t, p)
    assert list(fit.reason) == ["", "", ""]
    late = fit_damped_cosine(t[1], p[1])
    assert np.array_equal(_fields(fit)[:, 1], _fields(late))
    (f0,), _ = _spectral_seed(p[1:2], _nyquist(t[1:2]))
    theta = 2 * np.pi * 1e-3 * f0 * t[1]
    env = np.exp(-((t[1] / (2 * np.ptp(t[1]))) ** 2))
    assert not env.any()
    design = np.column_stack([np.cos(theta) * env, -np.sin(theta) * env, np.ones_like(t[1])])
    c1, c2, a0 = np.linalg.pinv(design) @ p[1]
    start, _ = fitting._seed(t, p, _nyquist(t))
    x0, lower, upper = start[:, 1]
    scale = np.ptp(p[1])
    expected = [max(np.hypot(c1, c2), 1e-4 * scale), f0, np.arctan2(c2, c1), x0[3], a0]
    assert_allclose(x0, np.clip(expected, lower, upper), rtol=1e-12)


def test_linear_seed_matches_pinv_on_well_and_ill_conditioned_rows():
    rng = np.random.default_rng(4)
    design = rng.normal(size=(4, 3, 50))
    design[1, 1] = design[1, 0] * (1 + 1e-9)  # nearly collinear columns: cond(G) ~ 1e19
    design[2, :2] = 0.0  # two columns gone: G singular
    p = rng.normal(size=(4, 50))
    expected = (np.linalg.pinv(design.swapaxes(-1, -2)) @ p[..., None])[..., 0]
    coef = fitting._linear_seed(design, p)
    assert_allclose(coef[[0, 3]], expected[[0, 3]], rtol=1e-10)
    assert np.array_equal(coef[[1, 2]], expected[[1, 2]])


def test_stack_fit_keeps_the_stack_shape():
    t = np.linspace(0.0, 300.0, 61)
    p = damped_cosine(t, 0.3, np.array([[20.0], [30.0], [40.0], [50.0]]), 0.0, 200.0, 0.5)
    fit = fit_damped_cosine(t, p.reshape(2, 2, 61))
    assert fit.f.shape == fit.residual_rms.shape == fit.reason.shape == (2, 2)
    assert fit.covariance.shape == (2, 2, 5, 5) and fit.sigmas.shape == (2, 2, 5)
    assert_allclose(fit.f.ravel(), [20.0, 30.0, 40.0, 50.0], rtol=1e-9)
    empty = fit_damped_cosine(t, np.empty((0, 61)))
    assert empty.f.shape == empty.reason.shape == (0,)
    with pytest.raises(ValueError, match="at least 10 points"):
        fit_damped_cosine(t[:9], p[:, :9])
    with pytest.raises(ValueError, match="does not fit p"):
        fit_damped_cosine(np.stack([t, t]), p)


def test_frequency_minimum_names_non_finite_points():
    # a failed fit's NaN used to read "parabola vertex falls outside the sweep range"
    dv = np.linspace(-4.0, 4.0, 9)
    f = 25.0 + 0.4 * dv**2
    f[[2, 4]] = np.nan
    with pytest.raises(ValueError, match=r"must be finite, got dv\[2\] = -2 mV, f\[2\] = nan MHz, "
                                         r"dv\[4\] = 0 mV, f\[4\] = nan MHz$"):
        find_frequency_minimum(dv, f)
    with pytest.raises(ValueError, match=r"dv\[0\] = inf mV"):
        find_frequency_minimum(np.r_[np.inf, dv[1:]], 25.0 + 0.4 * dv**2)
