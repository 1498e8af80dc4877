"""Oscillation fits, frequency-minimum location, and ellipse-center calibration.

Only the two models used by the experiments are provided: the damped
cosine ``A cos(2 pi f t + phi) exp(-(t/T_phi)^2) + A0`` for time traces,
and a local parabola for frequency-vs-voltage minima.  The equal-exchange
calibration map estimator exploits the two-fold point symmetry of the
ideal probability pattern instead of fitting conics, which stays robust
when the stripes are tilted or distorted.

The damped-cosine fit takes its frequency seed from the power spectrum of
the de-meaned trace on ``linspace(0, f_nyq, M)``.  When the time points
are increasing and uniform (to 1e-9 of a step), that power is one
zero-padded FFT of length 2(M - 1), whose bins fall exactly on the grid;
any other time grid (unsorted, jittered or with gaps) takes a dense DFT.

The polish is a small bounded Levenberg-Marquardt loop in
kappa = T_phi^-2 rather than T_phi: the model is smooth through kappa = 0,
so the undamped limit is the bound kappa = TPHI_MAX_NS^-2 that the loop
reaches in a step or two, where in T_phi it was a direction the solver crept
along.  The loop stops when no step can gain more than round-off; an
undetermined decay time therefore reads the 1e12 ns bound, with an inf
sigma.  Covariance and residual are evaluated in T_phi from the closed-form
Jacobian of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NoOscillationError(ValueError):
    """The trace has no spectral peak above the noise floor, or one at the Nyquist frequency."""


@dataclass(frozen=True)
class FitResult:
    """Damped-cosine parameters with 1-sigma uncertainties.

    Parameter order in ``covariance``: (a, f, phi, tphi, a0); a parameter the
    data do not fix (say ``tphi`` of an undamped trace) has an inf sigma.
    ``a`` is the oscillation amplitude (non-negative), ``f`` the frequency
    in MHz, ``phi`` the phase in (-pi, pi], ``tphi`` the Gaussian decay
    time in ns, ``a0`` the offset.
    """

    a: float
    f: float
    phi: float
    tphi: float
    a0: float
    covariance: np.ndarray
    residual_rms: float

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0, None))

    @property
    def visibility(self) -> float:
        """Peak-to-peak amplitude 2A of the undamped oscillation."""
        return 2 * self.a

    def to_flat_record(self) -> dict:
        sig = self.sigmas
        rec = {}
        for k, name in enumerate(("a", "f_mhz", "phi_rad", "tphi_ns", "a0")):
            rec[f"fit.{name}"] = float((self.a, self.f, self.phi, self.tphi, self.a0)[k])
            rec[f"fit.sigma_{name}"] = float(sig[k])
        rec["fit.residual_rms"] = float(self.residual_rms)
        return rec


#: Radians per (MHz * ns): the model phase is ``_W * f * t + phi``.
_W = 2 * np.pi * 1e-3

#: Largest reported decay time (ns): the fit's lower bound on kappa = tphi^-2 is its inverse square.
TPHI_MAX_NS = 1e12

#: Stopping rule of :func:`_bounded_lm`: predicted reduction at most
#: _FTOL cost + (_XTOL ||p||)^2, or _MAX_EVAL model evaluations.
_FTOL = 1e-14
_XTOL = 1e-13
_MAX_EVAL = 200


def _kappa_model(t, t2, x):
    """The damped cosine in kappa = tphi^-2 and its Jacobian, columns (a, f, phi, kappa, a0)."""
    a, f, phi, kappa, a0 = x
    theta = _W * f * t + phi
    env = np.exp(-kappa * t2)
    c = np.cos(theta) * env
    s = -a * np.sin(theta) * env
    jac = np.empty((len(t), 5))
    jac[:, 0] = c
    jac[:, 1] = _W * t * s
    jac[:, 2] = s
    jac[:, 3] = -a * t2 * c
    jac[:, 4] = 1.0
    return a * c + a0, jac


def _model(t, a, f, phi, tphi, a0):
    return _kappa_model(t, t * t, (a, f, phi, tphi**-2, a0))[0]


def _model_jacobian(t, a, f, phi, tphi, a0):
    """Closed-form derivatives of :func:`_model`, columns (a, f, phi, tphi, a0).

    The kappa Jacobian of :func:`_kappa_model` with column 3 times
    dkappa/dtphi = -2 tphi^-3.
    """
    jac = _kappa_model(t, t * t, (a, f, phi, tphi**-2, a0))[1]
    jac[:, 3] *= -2 / tphi**3
    return jac


def trace_to_csv(path, t_ns, p) -> None:
    """Write a (t_ns, probability) trace."""
    from .io import write_csv

    write_csv(path, {"t_ns": np.asarray(t_ns), "probability": np.asarray(p)})


def trace_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a (t_ns, probability) trace."""
    from .io import read_csv

    data = read_csv(path)
    return data["t_ns"], data["probability"]


def fit_trace_csv(path) -> FitResult:
    """Fit the damped cosine to a trace file."""
    return fit_damped_cosine(*trace_from_csv(path))


def _dft_power(t: np.ndarray, x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """|sum_j x_j exp(-2 pi i f t_j)| for every frequency f (MHz) of ``grid``, by a dense DFT."""
    return np.abs(np.exp(-1j * _W * np.outer(grid, t)) @ x)


def _fft_power(x: np.ndarray, m: int) -> np.ndarray:
    """:func:`_dft_power` on ``linspace(0, f_nyq, m)`` for ``x`` sampled on a uniform grid.

    Bin k of a length-2(m-1) transform is frequency k f_nyq / (m-1), so the
    zero-padded FFT lands exactly on the dense grid; the grid origin only
    adds a phase.
    """
    return np.abs(np.fft.rfft(x, n=2 * (m - 1)))


def _is_uniform(t: np.ndarray, dt: float) -> bool:
    """True when ``t`` increases in steps of ``dt``, to 1e-9 of a step at every point."""
    return bool(np.abs(t - t[0] - dt * np.arange(len(t))).max() <= 1e-9 * dt)


def _spectral_seed(t: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Dominant frequency (MHz) of the de-meaned trace, its frequency grid and power.

    The grid runs from 0 to the Nyquist frequency of the median time step;
    a peak in its top 1% raises :class:`NoOscillationError`.  A uniform,
    increasing ``t`` takes the power from one zero-padded FFT; any other
    ``t`` from the dense DFT.
    """
    dt = np.median(np.diff(np.sort(t)))
    f_nyq = 0.5 / dt * 1e3  # MHz
    grid = np.linspace(0.0, f_nyq, max(512, 8 * len(t)))
    demeaned = p - p.mean()
    if _is_uniform(t, dt):
        power = _fft_power(demeaned, len(grid))
    else:
        power = _dft_power(t, demeaned, grid)
    lo = max(2, int(0.01 * len(grid)))  # skip the DC shoulder
    peak = lo + int(np.argmax(power[lo:]))
    floor = 4.0 * np.median(power[lo:]) + 1e-12 * (abs(p).max() + 1.0) * len(t)
    if power[peak] <= floor:
        raise NoOscillationError("no spectral peak above the noise floor")
    if peak >= len(grid) - lo:  # the sine column vanishes there: only a cos(phi) is determined
        raise NoOscillationError(f"spectral peak at the Nyquist frequency {f_nyq:.1f} MHz")
    return float(grid[peak]), grid, power


def _seed_grid(t, p, f0, span) -> tuple[float, float, np.ndarray]:
    """Best (f, tphi, [a cos phi, a sin phi, a0]) of a 3 x 4 variable-projection grid.

    For each trial (f, tphi) the model is linear in the remaining
    parameters; all twelve linear least-squares problems are solved from
    one stacked SVD and the smallest residual wins.  Singular values below
    ``np.linalg.lstsq``'s default cutoff are dropped, as it does: a trial
    frequency at the Nyquist limit samples its sine column as zero.
    """
    f_try = f0 * np.array([0.97, 1.0, 1.03])
    tphi_try = np.array([8 * span, 2 * span, span, span / 3])
    theta = _W * f_try[:, None] * t
    env = np.exp(-((t / tphi_try[:, None]) ** 2))
    design = np.empty((len(f_try), len(tphi_try), len(t), 3))
    design[..., 0] = np.cos(theta)[:, None] * env
    design[..., 1] = -np.sin(theta)[:, None] * env
    design[..., 2] = 1.0
    design = design.reshape(-1, len(t), 3)
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    inv = np.where(sv > np.finfo(float).eps * len(t) * sv[:, :1], 1 / sv, 0.0)
    coef = (vt.transpose(0, 2, 1) * inv[:, None, :]) @ (u.transpose(0, 2, 1) @ p)[..., None]
    rss = np.sum(((design @ coef)[..., 0] - p) ** 2, axis=1)
    k = int(np.argmin(rss))
    return float(f_try[k // len(tphi_try)]), float(tphi_try[k % len(tphi_try)]), coef[k, :, 0]


def fit_damped_cosine(t_ns, p) -> FitResult:
    """Least-squares fit of a Gaussian-damped cosine to a probability trace.

    Seeds the frequency from the dominant spectral peak (one zero-padded
    FFT when ``t_ns`` is uniform and increasing, a dense DFT otherwise) and
    the remaining parameters from variable projection over a small
    frequency and decay-time grid, then polishes (a, f, phi, kappa, a0),
    kappa = tphi^-2, with a bounded Levenberg-Marquardt loop
    (:func:`_bounded_lm`) inside the box a in [0, 10 ptp(p)],
    f in [0, 2 f0 + f_nyq], phi in [-2 pi, 2 pi],
    tphi in [1e-3 span, TPHI_MAX_NS].  The loop stops at the first step
    whose predicted gain is below 1e-14 of the cost or the round-off of the
    data, so a trace whose decay the data cannot tell from none returns
    tphi = TPHI_MAX_NS (1e12 ns) with an inf sigma.  The covariance and
    residual come from the closed-form Jacobian in tphi at the result.
    Requires at least 10 finite points at distinct times, spanning 1.5
    periods of the dominant frequency.
    """
    t = np.asarray(t_ns, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    if t.shape != p.shape:
        raise ValueError("t and p must have matching length")
    if len(t) < 10:
        raise ValueError("need at least 10 points to fit")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise ValueError("t and p must be finite")
    if np.unique(t).size < t.size:
        raise ValueError("time points must be distinct")
    f0, grid, _ = _spectral_seed(t, p)
    span = t.max() - t.min()
    if span * f0 * 1e-3 < 1.5:
        raise ValueError(
            f"trace spans {span * f0 * 1e-3:.2f} periods of the dominant "
            "frequency; need at least 1.5"
        )

    f_seed, tphi_seed, (c1, c2, a0_seed) = _seed_grid(t, p, f0, span)
    a_seed = float(np.hypot(c1, c2))
    phi_seed = float(np.arctan2(c2, c1))

    scale = max(p.max() - p.min(), 1e-6)
    lower = np.array([0.0, 0.0, -2 * np.pi, TPHI_MAX_NS**-2, -np.inf])
    upper = np.array([10 * scale, 2 * f0 + grid[-1], 2 * np.pi, (1e-3 * span) ** -2, np.inf])
    x0 = np.array([max(a_seed, 1e-4 * scale), f_seed, phi_seed, tphi_seed**-2, a0_seed])
    a, f, phi, kappa, a0 = _bounded_lm(t, p, np.clip(x0, lower, upper), lower, upper)
    tphi = float(kappa**-0.5)
    phi = float((phi + np.pi) % (2 * np.pi) - np.pi)

    resid = _model(t, a, f, phi, tphi, a0) - p
    jac = _model_jacobian(t, a, f, phi, tphi, a0)
    cov = _covariance(jac.T @ jac, (resid @ resid) / max(len(t) - 5, 1))
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(float(a), float(f), phi, tphi, float(a0), cov, rms)


def _bounded_lm(t, p, x, lower, upper) -> np.ndarray:
    """Levenberg-Marquardt on (a, f, phi, kappa, a0) inside the box [lower, upper].

    Marquardt damping mu D^2 with Moré's scaling D^2, the running maximum of
    diag(J^T J) (Moré, LNM 630, 1978), floored at 1e-15 of its largest entry
    so a numerically zero column (the sine columns at the Nyquist frequency)
    is not amplified; mu starts at 1e-6, near Gauss-Newton, because the seed
    is close, and follows Nielsen's gain-ratio update (Madsen, Nielsen &
    Tingleff 2004).  A parameter on a bound whose gradient points out of the
    box is held (the active set); the others take the damped
    Gauss-Newton step, projected back into the box.  A step is kept when it
    lowers the cost ||r||^2.  Stops, without taking it, at the first
    unprojected step whose predicted reduction is at most _FTOL cost +
    (_XTOL ||p||)^2, i.e. nothing left to gain above round-off, or after
    _MAX_EVAL model evaluations.  A kappa that the same floor cannot tell
    from its lower bound is then put on it.
    """
    t2 = t * t
    floor = (_XTOL * np.linalg.norm(p)) ** 2
    model, jac = _kappa_model(t, t2, x)
    r = model - p
    cost, g, jtj = r @ r, r @ jac, jac.T @ jac
    d2 = np.zeros(5)
    mu, nu = 1e-6, 2.0
    for _ in range(_MAX_EVAL - 1):
        d2 = np.maximum(d2, jtj.diagonal())
        d2 = np.maximum(d2, 1e-15 * d2.max())
        held = ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))
        m = jtj + np.diag(mu * d2)
        m[held] = 0.0  # identity rows and columns pin the held steps to 0
        m[:, held] = 0.0
        m[held, held] = 1.0
        trial = x + np.linalg.solve(m, np.where(held, 0.0, -g))
        x_new = np.minimum(np.maximum(trial, lower), upper)
        step = x_new - x
        predicted = -(2 * g @ step + step @ jtj @ step)
        if predicted <= _FTOL * cost + floor and (x_new == trial).all():
            break
        model, jac_new = _kappa_model(t, t2, x_new)
        r_new = model - p
        gain = cost - r_new @ r_new
        if gain > 0:
            x, r, jac, cost = x_new, r_new, jac_new, cost - gain
            g, jtj = r @ jac, jac.T @ jac
            # gain ratio, read as 1 for a projected step the quadratic model misjudged
            rho = gain / max(predicted, gain)
            mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2
    # a decay the floor cannot tell from none lands on the bound, tphi = TPHI_MAX_NS
    if np.linalg.norm(jac[:, 3]) * (x[3] - lower[3]) <= np.sqrt(floor):
        x[3] = lower[3]
    return x


def _covariance(jtj: np.ndarray, sigma2: float) -> np.ndarray:
    """sigma2 (J^T J)^-1 over the directions the data fix, inf for parameters they do not.

    A direction is unfixed when its eigenvalue is at most 1e-15 of the largest
    (the cutoff ``pinv`` would drop it at); a parameter with more than 1e-6 of
    its squared weight on unfixed directions gets an inf row and column, so
    its sigma reads inf instead of the truncated ~1e-17.
    """
    w, v = np.linalg.eigh(jtj)
    fixed = w > 1e-15 * w.max()
    cov = sigma2 * (v[:, fixed] / w[fixed]) @ v[:, fixed].T
    loose = (v[:, ~fixed] ** 2).sum(axis=1) > 1e-6
    cov[loose, :] = np.inf
    cov[:, loose] = np.inf
    return cov


@dataclass(frozen=True)
class FrequencyMinimum:
    dv_star: float
    f_min: float
    curvature: float  # MHz per mV^2


def find_frequency_minimum(sweep) -> FrequencyMinimum:
    """Vertex of a local parabola through (voltage, frequency) sweep points.

    ``sweep`` is a sequence of (dv_mv, frequency) with frequency either a
    float or a :class:`FitResult`.  Needs at least 5 points bracketing an
    interior minimum.
    """
    dv = np.array([s[0] for s in sweep], dtype=float)
    f = np.array([s[1].f if isinstance(s[1], FitResult) else float(s[1]) for s in sweep])
    order = np.argsort(dv)
    dv, f = dv[order], f[order]
    if len(dv) < 5:
        raise ValueError("need at least 5 sweep points")
    imin = int(np.argmin(f))
    if imin in (0, len(dv) - 1):
        raise ValueError("frequency minimum is not bracketed by the sweep")
    lo, hi = max(0, imin - 4), min(len(dv), imin + 5)
    c2, c1, c0 = np.polyfit(dv[lo:hi], f[lo:hi], 2)
    if c2 <= 0:
        raise ValueError("local fit is not convex; no interior minimum")
    dv_star = -c1 / (2 * c2)
    if not (dv[0] <= dv_star <= dv[-1]):
        raise ValueError("parabola vertex falls outside the sweep range")
    return FrequencyMinimum(float(dv_star), float(c0 - c1**2 / (4 * c2)), float(c2))


@dataclass(frozen=True)
class CalibrationMap:
    """Probability map on a rectangular (dvx, dvy) voltage lattice.

    ``values[i, j]`` corresponds to ``(dvx[i], dvy[j])``.
    """

    dvx: np.ndarray
    dvy: np.ndarray
    values: np.ndarray
    t_ns: float = 0.0

    def __post_init__(self):
        dvx = np.asarray(self.dvx, dtype=float)
        dvy = np.asarray(self.dvy, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(dvx), len(dvy)):
            raise ValueError("values must have shape (len(dvx), len(dvy))")
        for g in (dvx, dvy):
            if len(g) < 3 or np.ptp(np.diff(g)) > 1e-9 * max(1.0, np.ptp(g)):
                raise ValueError("grids must be uniform with at least 3 points")
        for arr in (dvx, dvy, values):
            arr.setflags(write=False)
        object.__setattr__(self, "dvx", dvx)
        object.__setattr__(self, "dvy", dvy)
        object.__setattr__(self, "values", values)

    def to_csv(self, path) -> None:
        from .io import write_csv

        xx, yy = np.meshgrid(self.dvx, self.dvy, indexing="ij")
        write_csv(path, {
            "dvx_mv": xx.ravel(),
            "dvy_mv": yy.ravel(),
            "probability": self.values.ravel(),
        })

    @classmethod
    def from_csv(cls, path, t_ns: float = 0.0) -> "CalibrationMap":
        from .io import read_csv

        data = read_csv(path)
        dvx = np.unique(data["dvx_mv"])
        dvy = np.unique(data["dvy_mv"])
        values = np.full((len(dvx), len(dvy)), np.nan)
        ix = np.searchsorted(dvx, data["dvx_mv"])
        iy = np.searchsorted(dvy, data["dvy_mv"])
        values[ix, iy] = data["probability"]
        if np.isnan(values).any():
            raise ValueError("map CSV does not cover a full rectangular grid")
        return cls(dvx=dvx, dvy=dvy, values=values, t_ns=t_ns)


@dataclass(frozen=True)
class EllipseCenter:
    center: tuple[float, float]
    uncertainty: tuple[float, float]
    score: float


def _reflection_score(v: np.ndarray, ci2: int, cj2: int) -> tuple[float, int]:
    """Pearson correlation of the map with its point reflection about (ci2/2, cj2/2)."""
    nx, ny = v.shape
    i0, i1 = max(0, ci2 - (nx - 1)), min(nx - 1, ci2)
    j0, j1 = max(0, cj2 - (ny - 1)), min(ny - 1, cj2)
    if i1 < i0 or j1 < j0:
        return -np.inf, 0
    a = v[i0 : i1 + 1, j0 : j1 + 1]
    b = v[ci2 - i1 : ci2 - i0 + 1, cj2 - j1 : cj2 - j0 + 1][::-1, ::-1]
    n = a.size
    if n < 16:
        return -np.inf, n
    da, db = a - a.mean(), b - b.mean()
    denom = np.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom == 0:
        return -np.inf, n
    return float(np.sum(da * db) / denom), n


def find_ellipse_center(cal_map: CalibrationMap) -> EllipseCenter:
    """Estimate the symmetry center of a fixed-time probability map.

    Maximizes the autocorrelation under point reflection over a half-step
    center lattice, scoring only reflection points whose overlap with the
    map covers at least a quarter of it, then refines the peak with a local parabola.  The
    reported uncertainty is the half-width at half the peak prominence.
    Raises if no reflection point correlates above 0.2.
    """
    v = cal_map.values
    nx, ny = v.shape
    total = v.size
    scores = np.full((2 * nx - 1, 2 * ny - 1), -np.inf)
    for ci2 in range(2 * nx - 1):
        for cj2 in range(2 * ny - 1):
            s, n = _reflection_score(v, ci2, cj2)
            if n >= 0.25 * total:
                scores[ci2, cj2] = s
    if not np.isfinite(scores).any():
        raise ValueError("map too small for a symmetric-overlap search")
    best = np.unravel_index(np.nanargmax(np.where(np.isfinite(scores), scores, np.nan)), scores.shape)
    s_max = scores[best]
    if s_max < 0.2:
        raise ValueError("no point-symmetric structure found in the map")

    finite = scores[np.isfinite(scores)]
    baseline = float(np.median(finite))
    prominence = max(s_max - baseline, 1e-6)

    step_x = cal_map.dvx[1] - cal_map.dvx[0]
    step_y = cal_map.dvy[1] - cal_map.dvy[0]

    center = []
    sigma = []
    for axis, (idx, step, grid) in enumerate(
        [(best[0], step_x, cal_map.dvx), (best[1], step_y, cal_map.dvy)]
    ):
        line = scores[:, best[1]] if axis == 0 else scores[best[0], :]
        delta, curv = _parabolic_refine(line, idx)
        pos = grid[0] + (idx + delta) * step / 2  # half-step lattice
        center.append(float(pos))
        if curv > 0:
            half_width = np.sqrt(prominence / (2 * curv)) * step / 2
        else:
            half_width = step
        sigma.append(float(half_width))

    return EllipseCenter(center=tuple(center), uncertainty=tuple(sigma), score=float(s_max))


def _parabolic_refine(line: np.ndarray, idx: int) -> tuple[float, float]:
    """Sub-step peak offset and curvature from the three points around idx."""
    if idx == 0 or idx == len(line) - 1:
        return 0.0, 0.0
    y0, y1, y2 = line[idx - 1], line[idx], line[idx + 1]
    if not (np.isfinite(y0) and np.isfinite(y2)):
        return 0.0, 0.0
    denom = y0 - 2 * y1 + y2
    if denom >= 0:
        return 0.0, 0.0
    delta = 0.5 * (y0 - y2) / denom
    return float(np.clip(delta, -0.5, 0.5)), float(-denom / 2)
