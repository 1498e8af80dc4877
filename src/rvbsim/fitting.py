"""Oscillation fits, frequency-minimum location, and ellipse-center calibration.

Only the two models used by the experiments are provided: the damped
cosine ``A cos(2 pi f t + phi) exp(-(t/T_phi)^2) + A0`` for time traces,
and a local parabola for frequency-vs-voltage minima.  The equal-exchange
calibration map estimator exploits the two-fold point symmetry of the
ideal probability pattern instead of fitting conics, which stays robust
when the stripes are tilted or distorted: it scores every center of
reflection at once as a normalized self-correlation, from four FFT
convolutions (J. P. Lewis, Vision Interface 1995).

The damped-cosine fit takes one trace or a stack of traces, on one time
grid or on a grid per trace, and runs each stage for all traces together
(the seed in blocks of rows); one trace is a stack of one.  Each grid must
increase in equal steps (to 1e-9 of a step).  A trace of a stack that cannot
be fitted reads NaN and keeps the reason in ``FitResult.reason``, and the
other traces are unaffected; a single trace raises that reason instead.

The frequency seed is the peak of the power spectrum of the de-meaned trace
on ``linspace(0, f_nyq, M)``, where M is the fewest points, at least
max(512, 8 n) for n time points, whose transform length 2(M - 1) is
5-smooth (:func:`_spectral_points`): a length with a large prime factor
would send the FFT to Bluestein's chirp-z algorithm, several times slower.
On an equal-step grid that power is a zero-padded FFT of length 2(M - 1),
whose bins fall exactly on the frequencies k f_nyq / (M - 1), taken for all
traces of a block in one batched transform.  With f held at that peak and
T_phi at twice the span the model is linear in (A cos phi, A sin phi, A0),
and one batched 3x3 normal-equation solve seeds them (a trace whose Gram
matrix is near singular, say one whose envelope underflows on a late time
grid, takes the pseudo-inverse instead).  From this one start the polish
below reaches the minimum that a grid of trial (f, T_phi) starts would.

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
from functools import lru_cache

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

    A fit of one trace holds floats.  A fit of a stack of traces holds one
    entry per trace: the parameters, ``residual_rms`` and ``reason`` take the
    stack's shape and ``covariance`` that shape plus (5, 5).  ``reason`` is ""
    for a fitted trace and the error message for one that could not be
    fitted, which reads NaN in every other field.
    """

    a: float | np.ndarray
    f: float | np.ndarray
    phi: float | np.ndarray
    tphi: float | np.ndarray
    a0: float | np.ndarray
    covariance: np.ndarray
    residual_rms: float | np.ndarray
    reason: str | np.ndarray = ""

    @property
    def sigmas(self) -> np.ndarray:
        """1-sigma uncertainties in parameter order, on the last axis."""
        return np.sqrt(np.clip(np.diagonal(self.covariance, axis1=-2, axis2=-1), 0, None))

    @property
    def visibility(self) -> float | np.ndarray:
        """Peak-to-peak amplitude 2A of the undamped oscillation."""
        return 2 * self.a

    def to_flat_record(self, row=()) -> dict:
        """The fit of one trace, or of trace ``row`` of a stack, as flat ``fit.*`` keys."""
        sig = self.sigmas[row]
        values = (self.a, self.f, self.phi, self.tphi, self.a0)
        rec = {}
        for k, name in enumerate(("a", "f_mhz", "phi_rad", "tphi_ns", "a0")):
            rec[f"fit.{name}"] = float(np.asarray(values[k])[row])
            rec[f"fit.sigma_{name}"] = float(sig[k])
        rec["fit.residual_rms"] = float(np.asarray(self.residual_rms)[row])
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

#: The seed stages (:func:`_seed`) take a stack in blocks of about this many
#: values of their largest arrays, 2 M per row of n points (the input and
#: complex output of the spectral seed's one batched zero-padded FFT over M
#: frequencies, M = :func:`_spectral_points` (n), the fewest points at least
#: max(512, 8 n) with a 5-smooth transform length 2(M - 1)), so their
#: temporaries stay near 0.5 MB each.
_SEED_VALUES = 2**16


@lru_cache(maxsize=None)
def _spectral_points(n: int) -> int:
    """Points M >= max(512, 8 n) of the seed's frequency grid, fewest with 2(M - 1) 5-smooth.

    2(M - 1) is 5-smooth when M - 1 is, so M - 1 is the smallest number
    2^i 3^j 5^k that is at least max(512, 8 n) - 1.
    """
    need = max(512, 8 * n) - 1
    best = 2 * need
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            m = odd
            while m < need:
                m *= 2
            best = min(best, m)
            odd *= 3
        odd5 *= 5
    return best + 1


def _kappa_model(t, t2, x):
    """The damped cosine in kappa = tphi^-2 and its Jacobian, columns (a, f, phi, kappa, a0).

    ``x`` holds (a, f, phi, kappa, a0) on its last axis: shape (5,) for one
    trace ``t``, (rows, 5) for a stack ``t`` of shape (rows, n).  The
    Jacobian has the model's shape plus 5.
    """
    a, f, phi, kappa, a0 = np.asarray(x).T[..., None]
    theta = _W * f * t + phi
    env = np.exp(-kappa * t2)
    c = np.cos(theta) * env
    s = -a * np.sin(theta) * env
    jac = np.empty(theta.shape + (5,))
    jac[..., 0] = c
    jac[..., 1] = _W * t * s
    jac[..., 2] = s
    jac[..., 3] = -a * t2 * c
    jac[..., 4] = 1.0
    return a * c + a0, jac


def _is_uniform(t: np.ndarray, dt) -> np.ndarray:
    """True for each trace of ``t`` that increases in steps of ``dt`` > 0, to 1e-9 of a step."""
    dt = np.asarray(dt)
    steps = dt[..., None] * np.arange(t.shape[-1])
    return (dt > 0) & (np.abs(t - t[..., :1] - steps).max(axis=-1) <= 1e-9 * dt)


def _spectral_seed(p: np.ndarray, f_nyq: np.ndarray):
    """Dominant frequency (MHz) of each de-meaned trace of a stack, and its error.

    ``p`` is a stack (rows, n) sampled in equal steps and ``f_nyq`` (rows,)
    each row's Nyquist frequency.  The power on ``linspace(0, f_nyq, M)``,
    M = :func:`_spectral_points` (n), is one batched zero-padded FFT of
    length 2(M - 1): its bin k is frequency k f_nyq / (M - 1), the value
    ``linspace`` puts there, and the grid origin only adds a phase.  A row
    whose peak is in the top 1% of its grid, or not above its noise floor,
    gets a :class:`NoOscillationError` in ``errors`` (None elsewhere) and a
    NaN frequency.
    """
    rows, n = p.shape
    m = _spectral_points(n)
    power = np.abs(np.fft.rfft(p - p.mean(axis=-1, keepdims=True), n=2 * (m - 1)))
    lo = max(2, int(0.01 * m))  # skip the DC shoulder
    peak = lo + np.argmax(power[:, lo:], axis=-1)
    floor = 4.0 * np.median(power[:, lo:], axis=-1) + 1e-12 * (np.abs(p).max(axis=-1) + 1.0) * n
    errors = np.full(rows, None, dtype=object)
    for k in np.flatnonzero(power[np.arange(rows), peak] <= floor):
        errors[k] = NoOscillationError("no spectral peak above the noise floor")
    for k in np.flatnonzero(np.equal(errors, None) & (peak >= m - lo)):
        # the sine column vanishes there: only a cos(phi) is determined
        errors[k] = NoOscillationError(
            f"spectral peak at the Nyquist frequency {f_nyq[k]:.1f} MHz")
    f0 = np.where(np.equal(errors, None), peak * (f_nyq / (m - 1)), np.nan)
    return f0, errors


def fit_damped_cosine(t_ns, p) -> FitResult:
    """Least-squares fit of a Gaussian-damped cosine to a probability trace or a stack of them.

    ``p`` is one trace (n,) or a stack (..., n); ``t_ns`` is its time grid
    (n,), shared by every trace, or one grid per trace (``p``'s shape).
    Seeds the frequency f0 from the dominant spectral peak (one zero-padded
    FFT), the decay time at twice the span, and amplitude, phase and offset
    from one linear least-squares solve at that f0 and decay time, then
    polishes (a, f, phi, kappa, a0), kappa = tphi^-2, with a bounded
    Levenberg-Marquardt loop (:func:`_bounded_lm`) inside the box
    a in [0, 10 ptp(p)], f in [0, 2 f0 + f_nyq], phi in [-2 pi, 2 pi],
    tphi in [1e-3 span, TPHI_MAX_NS].  The loop stops at the first step
    whose predicted gain is below 1e-14 of the cost or the round-off of the
    data, so a trace whose decay the data cannot tell from none returns
    tphi = TPHI_MAX_NS (1e12 ns) with an inf sigma.  The covariance and
    residual come from the closed-form Jacobian in tphi at the result.
    Each stage runs on the stack at once: the seed in blocks of rows that
    bound its temporaries (``_SEED_VALUES``), the polish and the covariance
    on every row that has a seed.

    Requires at least 10 points per trace, and of each trace finite points
    on a grid that increases in equal steps (to 1e-9 of a step), spanning
    1.5 periods of the dominant frequency.  One trace that fails this
    raises; a trace of a stack reads NaN with its reason in
    ``FitResult.reason``, and the others are fitted as alone.
    """
    t = np.asarray(t_ns, dtype=float)
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or t.shape not in (p.shape, p.shape[-1:]):
        raise ValueError(f"t of shape {t.shape} does not fit p of shape {p.shape}: "
                         "need one time per point, shared or per trace")
    n = p.shape[-1]
    if n < 10:
        raise ValueError("need at least 10 points to fit")
    shape = p.shape[:-1]
    p = p.reshape(-1, n)
    t = np.broadcast_to(t, shape + (n,)).reshape(-1, n)

    errors = np.full(len(p), None, dtype=object)
    finite = np.isfinite(t).all(axis=-1) & np.isfinite(p).all(axis=-1)
    errors[~finite] = ValueError("t and p must be finite")
    live = np.flatnonzero(finite)
    dt = np.median(np.diff(t[live], axis=-1), axis=-1)
    uniform = _is_uniform(t[live], dt)
    errors[live[~uniform]] = ValueError("time points must increase in equal steps")
    live, f_nyq = live[uniform], 0.5 / dt[uniform] * 1e3  # MHz
    start = np.full((3, len(p), 5), np.nan)
    block = max(1, _SEED_VALUES // (2 * _spectral_points(n)))
    for i in range(0, live.size, block):
        rows = live[i:i + block]
        start[:, rows], errors[rows] = _seed(t[rows], p[rows], f_nyq[i:i + block])
    good = np.flatnonzero(np.equal(errors, None))
    fits = np.full((len(p), 6), np.nan)
    cov = np.full((len(p), 5, 5), np.nan)
    if good.size:
        fits[good], cov[good] = _polish(t[good], p[good], *start[:, good])

    if not shape:
        if errors[0] is not None:
            raise errors[0]
        return FitResult(*(float(v) for v in fits[0, :5]), cov[0], float(fits[0, 5]))
    reason = np.array([str(e) if e is not None else "" for e in errors]).reshape(shape)
    a, f, phi, tphi, a0, rms = fits.T.reshape((6,) + shape)
    return FitResult(a, f, phi, tphi, a0, cov.reshape(shape + (5, 5)), rms, reason)


def _seed(t, p, f_nyq) -> tuple[np.ndarray, np.ndarray]:
    """Start, lower and upper bound (3, rows, 5) of the polish of each row, and its errors.

    ``f_nyq`` (rows,) is each row's Nyquist frequency in MHz.  A row that
    has no usable spectral peak or spans under 1.5 periods of it gets its
    error (None elsewhere) and NaN bounds.
    """
    f0, errors = _spectral_seed(p, f_nyq)
    span = np.ptp(t, axis=-1)
    periods = span * f0 * 1e-3
    for k in np.flatnonzero(periods < 1.5):
        errors[k] = ValueError(f"trace spans {periods[k]:.2f} periods of the dominant "
                               "frequency; need at least 1.5")
    ok = np.equal(errors, None)
    t, p, f0, f_nyq, span = t[ok], p[ok], f0[ok], f_nyq[ok], span[ok]
    # (a cos phi, a sin phi, a0) from one linear least-squares solve at (f0, tphi0)
    tphi0 = 2 * span
    theta = _W * f0[:, None] * t
    env = np.exp(-((t / tphi0[:, None]) ** 2))
    c1, c2, a0_seed = _linear_seed(
        np.stack([np.cos(theta) * env, -np.sin(theta) * env, np.ones_like(t)], axis=-2), p).T
    rows = len(p)
    scale = np.maximum(p.max(axis=-1) - p.min(axis=-1), 1e-6)
    lower = np.tile([0.0, 0.0, -2 * np.pi, TPHI_MAX_NS**-2, -np.inf], (rows, 1))
    upper = np.column_stack([10 * scale, 2 * f0 + f_nyq, np.full(rows, 2 * np.pi),
                             (1e-3 * span) ** -2, np.full(rows, np.inf)])
    x0 = np.column_stack([np.maximum(np.hypot(c1, c2), 1e-4 * scale), f0, np.arctan2(c2, c1),
                          tphi0**-2, a0_seed])
    start = np.full((3, len(ok), 5), np.nan)
    start[:, ok] = np.clip(x0, lower, upper), lower, upper
    return start, errors


def _linear_seed(design_t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (rows, 3) of each row's design (rows, 3, n) for ``p`` (rows, n).

    One batched solve of the normal equations G c = D^T p, G = D^T D.  A row
    whose G, scaled to a unit diagonal C, may have a condition number above
    1e12 takes ``pinv`` of its design instead: the eigenvalues of C are at
    most 3 and sum to 3, so cond(C) <= 27 / det(C), and a row passes when
    det(G) > 2.7e-11 prod(diag(G)).  An exactly singular G (say a decay
    envelope that underflows on a late time grid) has det(G) = 0.
    """
    gram = design_t @ design_t.swapaxes(-1, -2)
    rhs = design_t @ p[..., None]
    ok = np.linalg.det(gram) > 2.7e-11 * np.prod(np.diagonal(gram, axis1=-2, axis2=-1), axis=-1)
    if ok.all():
        return np.linalg.solve(gram, rhs)[..., 0]
    coef = np.empty(rhs.shape[:-1])
    coef[ok] = np.linalg.solve(gram[ok], rhs[ok])[..., 0]
    coef[~ok] = (np.linalg.pinv(design_t[~ok].swapaxes(-1, -2)) @ p[~ok, :, None])[..., 0]
    return coef


def _polish(t, p, x0, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """(a, f, phi, tphi, a0, residual rms) per row of the stack, and the covariances.

    The Levenberg-Marquardt polish from ``x0`` inside [lower, upper], then
    the covariance and residual in tphi, for the rows :func:`_seed` passed.
    """
    a, f, phi, kappa, a0 = _bounded_lm(t, p, x0, lower, upper).T
    tphi = kappa**-0.5
    phi = (phi + np.pi) % (2 * np.pi) - np.pi

    # model and Jacobian in tphi: the kappa columns times dkappa/dtphi = -2 tphi^-3
    model, jac = _kappa_model(t, t * t, np.column_stack([a, f, phi, tphi**-2, a0]))
    jac[..., 3] *= (-2 / tphi**3)[:, None]
    resid = model - p
    cov = _covariance(_gram(jac), np.sum(resid**2, axis=-1) / max(p.shape[-1] - 5, 1))
    rms = np.sqrt(np.mean(resid**2, axis=-1))
    return np.column_stack([a, f, phi, tphi, a0, rms]), cov


def _bounded_lm(t, p, x, lower, upper) -> np.ndarray:
    """Levenberg-Marquardt on (a, f, phi, kappa, a0) inside the box [lower, upper], row by row.

    ``t`` and ``p`` are stacks (rows, n); ``x``, ``lower`` and ``upper`` hold
    one parameter vector per row (rows, 5).  Every row runs its own loop,
    all rows in one batch: it keeps its own damping, scaling, active set
    and stop, and a row that stops leaves the batch.

    Marquardt damping mu D^2 with Moré's scaling D^2, the running maximum of
    diag(J^T J) (Moré, LNM 630, 1978), floored at 1e-15 of its largest entry
    so a numerically zero column (the sine columns at the Nyquist frequency)
    is not amplified; mu starts at 1e-6, near Gauss-Newton, because the seed
    is close, and follows Nielsen's gain-ratio update (Madsen, Nielsen &
    Tingleff 2004).  A parameter on a bound whose gradient points out of the
    box, or that the damped Gauss-Newton step pushes out, is held (the active
    set); the others take that step, projected back into the box.  A step is
    kept when it lowers the cost ||r||^2.  Stops, without taking it, at the
    first unprojected step whose predicted reduction is at most _FTOL cost +
    (_XTOL ||p||)^2, i.e. nothing left to gain above round-off, or after
    _MAX_EVAL model evaluations.  A kappa that the same floor cannot tell
    from its lower bound is then put on it.
    """
    out = np.empty_like(x)
    rows = np.arange(len(x))
    t2 = t * t
    floor = (_XTOL * np.linalg.norm(p, axis=-1)) ** 2
    model, jac = _kappa_model(t, t2, x)
    r = model - p
    cost, g, jtj = np.einsum("kn,kn->k", r, r), (r[:, None] @ jac)[:, 0], _gram(jac)
    d2 = np.zeros_like(x)
    mu, nu = np.full(len(x), 1e-6), np.full(len(x), 2.0)
    diag = np.arange(5)
    for _ in range(_MAX_EVAL - 1):
        d2 = np.maximum(d2, jtj[:, diag, diag])
        d2 = np.maximum(d2, 1e-15 * d2.max(axis=-1, keepdims=True))
        held = ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))
        trial = x + _held_step(jtj, mu[:, None] * d2, g, held)
        x_new = np.minimum(np.maximum(trial, lower), upper)
        # a bound parameter that the coupled step pushes out is held too, its row re-solved
        pushed = (x_new != trial) & (x_new == x)
        if pushed.any():
            held, again = held | pushed, pushed.any(axis=-1)
            trial[again] = x[again] + _held_step(jtj[again], mu[again, None] * d2[again],
                                                 g[again], held[again])
            x_new = np.minimum(np.maximum(trial, lower), upper)
        step = x_new - x
        predicted = -(2 * np.einsum("ki,ki->k", g, step)
                      + np.einsum("ki,kij,kj->k", step, jtj, step))
        stop = (predicted <= _FTOL * cost + floor) & (x_new == trial).all(axis=-1)
        if stop.any():
            out[rows[stop]] = _snap_to_undamped(x[stop], jac[stop], lower[stop], floor[stop])
            keep = ~stop
            (rows, t, t2, p, x, x_new, lower, upper, floor, predicted, r, jac, cost, g, jtj, d2,
             mu, nu) = (v[keep] for v in (rows, t, t2, p, x, x_new, lower, upper, floor,
                                          predicted, r, jac, cost, g, jtj, d2, mu, nu))
            if not len(rows):
                return out
        model, jac_new = _kappa_model(t, t2, x_new)
        r_new = model - p
        gain = cost - np.einsum("kn,kn->k", r_new, r_new)
        up = gain > 0
        x = np.where(up[:, None], x_new, x)
        r = np.where(up[:, None], r_new, r)
        jac = np.where(up[:, None, None], jac_new, jac)
        cost = np.where(up, cost - gain, cost)
        g, jtj = (r[:, None] @ jac)[:, 0], _gram(jac)
        # gain ratio, read as 1 for a projected step the quadratic model misjudged
        rho = gain[up] / np.maximum(predicted[up], gain[up])
        mu[up] *= np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3)
        mu[~up] *= nu[~up]
        nu = np.where(up, 2.0, 2 * nu)
    out[rows] = _snap_to_undamped(x, jac, lower, floor)
    return out


def _held_step(jtj, damping, g, held) -> np.ndarray:
    """Solve (jtj + diag(damping)) step = -g per row (rows, 5), the held steps pinned to 0."""
    m, diag = jtj.copy(), np.arange(5)
    m[:, diag, diag] += damping
    m[held[:, :, None] | held[:, None, :]] = 0.0  # identity rows and columns
    m[:, diag, diag] = np.where(held, 1.0, m[:, diag, diag])
    return np.linalg.solve(m, np.where(held, 0.0, -g)[..., None])[..., 0]


def _gram(jac: np.ndarray) -> np.ndarray:
    """J^T J for each Jacobian of a stack (rows, n, 5)."""
    return jac.swapaxes(-1, -2) @ jac


def _snap_to_undamped(x, jac, lower, floor) -> np.ndarray:
    """``x`` with kappa put on its lower bound in every row whose floor cannot tell them apart.

    A decay the floor cannot tell from none lands on the bound, tphi = TPHI_MAX_NS.
    """
    x = x.copy()
    undamped = np.linalg.norm(jac[..., 3], axis=-1) * (x[:, 3] - lower[:, 3]) <= np.sqrt(floor)
    x[undamped, 3] = lower[undamped, 3]
    return x


def _covariance(jtj: np.ndarray, sigma2) -> np.ndarray:
    """sigma2 (J^T J)^-1 over the directions the data fix, inf for parameters they do not.

    ``jtj`` is one matrix (5, 5) or a stack (..., 5, 5) with one ``sigma2``
    each.  A direction is unfixed when its eigenvalue is at most 1e-15 of
    the largest (the cutoff ``pinv`` would drop it at); a parameter with
    more than 1e-6 of its squared weight on unfixed directions gets an inf
    row and column, so its sigma reads inf instead of the truncated ~1e-17.
    """
    w, v = np.linalg.eigh(jtj)
    fixed = w > 1e-15 * w.max(axis=-1, keepdims=True)
    inv = np.where(fixed, 1 / np.where(fixed, w, 1.0), 0.0)
    cov = np.asarray(sigma2)[..., None, None] * (v * inv[..., None, :]) @ v.swapaxes(-1, -2)
    loose = np.sum(np.where(fixed[..., None, :], 0.0, v**2), axis=-1) > 1e-6
    return np.where(loose[..., :, None] | loose[..., None, :], np.inf, cov)


@dataclass(frozen=True)
class FrequencyMinimum:
    dv_star: float
    f_min: float
    curvature: float  # MHz per mV^2


def find_frequency_minimum(dv, f) -> FrequencyMinimum:
    """Vertex of a local parabola through the sweep points (dv[k] mV, f[k] MHz).

    Needs at least 5 finite points bracketing an interior minimum; a
    non-finite point (say a failed fit's NaN) is named in the error.
    """
    dv = np.asarray(dv, dtype=float)
    f = np.asarray(f, dtype=float)
    if dv.shape != f.shape:
        raise ValueError(f"dv and f must have one shape, got {dv.shape} and {f.shape}")
    bad = np.flatnonzero(~(np.isfinite(dv) & np.isfinite(f)))
    if bad.size:
        raise ValueError("dv and f must be finite, got " + ", ".join(
            f"dv[{k}] = {dv[k]:g} mV, f[{k}] = {f[k]:g} MHz" for k in bad))
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

    def __post_init__(self):
        dvx = np.array(self.dvx, dtype=float)
        dvy = np.array(self.dvy, dtype=float)
        values = np.array(self.values, dtype=float)
        if values.shape != (len(dvx), len(dvy)):
            raise ValueError("values must have shape (len(dvx), len(dvy))")
        if not np.isfinite(values).all():  # one NaN would spoil every FFT-correlation score
            raise ValueError("values must be finite")
        for g in (dvx, dvy):
            if len(g) < 3 or np.ptp(np.diff(g)) > 1e-9 * max(1.0, np.ptp(g)):
                raise ValueError("grids must be uniform with at least 3 points")
        for arr in (dvx, dvy, values):  # copies, so the caller's arrays stay writeable
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


@dataclass(frozen=True)
class EllipseCenter:
    center: tuple[float, float]
    uncertainty: tuple[float, float]
    score: float


#: Fewest points an overlap needs to be scored (it also needs a quarter of the map).
_MIN_OVERLAP = 16


def _reflection_scores(v: np.ndarray) -> np.ndarray:
    """Pearson score of ``v`` against its point reflection about each half-step center.

    Center (ci2, cj2) maps (i, j) to (ci2 - i, cj2 - j) and its overlap onto
    itself, so sum b = sum a and sum b^2 = sum a^2; with M the all-ones mask,
    n = M*M, sum a = v*M, sum a^2 = v^2*M and sum ab = v*v are full 2-D
    convolutions, taken by rfft2 (Lewis 1995).  ``v`` is de-meaned first to
    keep round-off small.  -inf marks an overlap under 16 points or a quarter
    of the map, or a constant one (variance at most 1e-12 of the sum of squares).
    """
    shape = (2 * v.shape[0] - 1, 2 * v.shape[1] - 1)
    v = v - v.mean()
    f = np.fft.rfft2(np.stack([v, v * v, np.ones_like(v)]), shape)
    sum_a, sum_aa, sum_ab, n = np.fft.irfft2(f[[0, 1, 0, 2]] * f[[2, 2, 0, 2]], shape)
    n = np.rint(n)
    square_of_sum = sum_a**2 / n
    var = sum_aa - square_of_sum
    ok = (n >= max(_MIN_OVERLAP, 0.25 * v.size)) & (var > 1e-12 * np.sum(v * v))
    return np.where(ok, (sum_ab - square_of_sum) / np.where(ok, var, 1.0), -np.inf)


def find_ellipse_center(cal_map: CalibrationMap) -> EllipseCenter:
    """Estimate the symmetry center of a fixed-time probability map.

    Maximizes the Pearson correlation with the point-reflected map over a
    half-step center lattice, all centers scored at once by FFT
    (:func:`_reflection_scores`; J. P. Lewis, "Fast Normalized
    Cross-Correlation", Vision Interface 1995) where the overlap covers at
    least a quarter of the map, then refines the peak with a local parabola.
    The reported uncertainty is the half-width at half the peak prominence.
    Raises if the map is too small to score any overlap, if every overlap it
    can score is constant, or if no reflection point correlates above 0.2.
    """
    if cal_map.values.size < _MIN_OVERLAP:  # the whole map is the largest overlap
        raise ValueError("map too small for a symmetric-overlap search: "
                         f"{cal_map.values.size} points, need at least {_MIN_OVERLAP}")
    scores = _reflection_scores(cal_map.values)
    if not np.isfinite(scores).any():
        raise ValueError("map has no structure: every overlap large enough to score is constant")
    best = np.unravel_index(np.argmax(scores), scores.shape)
    s_max = scores[best]
    if s_max < 0.2:
        raise ValueError("no point-symmetric structure found in the map")

    finite = scores[np.isfinite(scores)]
    baseline = float(np.median(finite))
    prominence = max(s_max - baseline, 1e-6)

    center, sigma = [], []
    for line, idx, grid in ((scores[:, best[1]], best[0], cal_map.dvx),
                            (scores[best[0], :], best[1], cal_map.dvy)):
        step = grid[1] - grid[0]
        delta, curv = _parabolic_refine(line, idx)
        center.append(float(grid[0] + (idx + delta) * step / 2))  # half-step lattice
        sigma.append(float(np.sqrt(prominence / (2 * curv)) * step / 2 if curv > 0 else step))

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
