"""Time evolution under pulse sequences, quasi-static dephasing, and closed-form dynamics.

Phase convention: a level at energy f (MHz) accumulates phase
``2*pi * f * t * 1e-3`` over a time t (ns); propagators are
``U = exp(-i * 2*pi*1e-3 * H * t)``.  Constant segments evaluate them by exact
eigendecomposition; a ramp step in the 2-dim singlet sector evaluates its
exponential in closed form (su(2) vectors), in a larger sector by ``eigh``.

Linear ramps interpolate gate voltages linearly, so each exchange coupling
moves geometrically (exponentially) between its endpoints.  Ramps are
propagated with n sixth-order Magnus steps, each sampling the couplings
at three Gauss-Legendre nodes; n is doubled from 16 until the estimated
error of the final state, ||psi_n - psi_{n/2}|| / 63 (Richardson, 63 = 2^6 - 1),
is below RAMP_TOL, up to RAMP_STEP_CAP steps.  RAMP_TOL is thus the error the
rule estimates it has reached, not a step-to-step residual.

Sequences start from a state in any :class:`~rvbsim.basis.Basis` and run in
the smallest invariant sector holding it (2-dim total singlet, 3-dim S=1 m=-1
triplet, 4-dim m=-1 sector, 6-dim S_z = 0 block, or the full space, whose
isometry is the identity); exchange conserves S^2 and S_z for any couplings, so
this is exact.  A Zeeman field conserves S_z only, so under a field a singlet
start runs in the S_z = 0 block and an m = -1 start in the 4-dim sector.
A :class:`SequenceResult` keeps the amplitudes in that sector, where
:func:`rvbsim.readout.ensemble_probabilities` reads them out; its ``states``
property lifts them to the full space on each access.

A sweep is a :class:`PulseSequence` whose segments hold arrays: a target of
(columns, 4) couplings or a (columns,) duration broadcasts every segment to one
column axis, and every sweep, ramps included, runs in one call.  A constant
segment is one batched ``eigh`` over (columns x noise nodes).  The dwell grid
is one (n_dwell,) grid for every column or a (columns, n_dwell) array, one grid
per column; its leading shape joins the same broadcast.  A ramp takes
all its columns through one doubling loop: each level is one batched kernel
call over the columns still above RAMP_TOL, and a column leaves with its own
step count.  Each matrix is built on its own, and a ramp's step blocks depend
only on n and the sector, so a column of a sweep equals the same column run
alone bit for bit.

Quasi-static noise: each trajectory carries one Gaussian frequency offset
(std ``sigma_f``) and scales every exchange coupling by the common factor
``1 + offset/f_ref``, which shifts any exchange-set oscillation frequency
by that offset (all such frequencies are degree-1 homogeneous in the
couplings).  ``f_ref`` defaults to the singlet-singlet frequency of the
dwell configuration.  Ramp segments are evaluated at nominal couplings;
only constant-coupling segments are rescaled per trajectory.  A factor below 0
is kept, as in the closed form; for a real dwell Hamiltonian and entering state
it reads as its magnitude, averaging over the frequency |f_ref + offset|.

A column's ensemble average is exact when its dwell has no Zeeman term and
all its noise nodes enter the dwell in bit-identical states (after instant
switches and nominal-coupling ramps).  Its dwell Hamiltonian is then lam * H,
whose eigenvectors V do not depend on the node, and with H's energies E and
the entering coordinates c = V^dagger psi every readout probability is a sum
over eigenvalue pairs:
p_o(t) = sum_jl c_j c_l^* <v_l|P_o|v_j> exp(-i w_jl t) exp(-(w_jl t sigma_f/f_ref)^2 / 2),
w_jl = W2PI (E_j - E_l), the Gaussian characteristic function in closed form;
in the 2-dim singlet block it is A cos(2 pi f t) exp(-(t/T_phi)^2) + A0.
Such a column costs one ``eigh`` of H and keeps that spectrum, no amplitudes.
Every other column (a timed pulse before the dwell, a Zeeman field, a run
without noise or without a dwell grid) runs the trajectories at the nodes of a
Gauss-Hermite rule and averages them with its weights, which integrates the
same characteristic function without sampling error.  Against the closed
form, the default 16 nodes are off by 2.4e-6 at most on fig4b (dwell to ~2.7
T_phi), 4.5e-7 on fig3d, 8.2e-8 on fig3e, 7.7e-9 on fig3c, and by round-off on
the singlet-block maps, which dwell to ~1.2 T_phi.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .basis import Basis, Pair, SpinState, _ValueEquality, _value_key, lift, subspace_projector
from .hamiltonians import ExchangeConfig, ZeemanConfig, zeeman_full, _BOND_OPS

W2PI = 2 * np.pi * 1e-3  # rad per (MHz * ns)
_SQRT15 = np.sqrt(15.0)
#: Gauss-Legendre nodes of one Magnus step, as fractions of the step.
_MAGNUS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * _SQRT15 / 10

RAMP_TOL = 1e-9
RAMP_STEP_CAP = 2**20


class RampConvergenceError(RuntimeError):
    """Ramp discretization did not converge within the step cap."""


def evolve(state: SpinState, h: np.ndarray, t_ns: float) -> SpinState:
    """Propagate a state under a constant Hermitian Hamiltonian (MHz) for t (ns)."""
    h = np.asarray(h)
    if h.shape != (state.basis.dim, state.basis.dim):
        raise ValueError(
            f"Hamiltonian shape {h.shape} does not match state basis {state.basis.name}"
        )
    w, v = np.linalg.eigh(h)
    amps = v @ (np.exp(-1j * W2PI * w * t_ns) * (v.conj().T @ state.amplitudes))
    return SpinState(state.basis, amps)


# ---------------------------------------------------------------------------
# closed-form predictions for the singlet subspace


def f_ss(jx: float, jy: float) -> float:
    """Singlet-singlet oscillation frequency sqrt(jx^2 + jy^2 - jx*jy), MHz."""
    if jx < 0 or jy < 0:
        raise ValueError("couplings must be non-negative")
    if jx == 0 and jy == 0:
        raise ValueError("oscillation frequency undefined at jx = jy = 0")
    return float(np.sqrt(jx**2 + jy**2 - jx * jy))


def visibilities(jx: float, jy: float) -> tuple[float, float]:
    """Peak-to-peak oscillation visibilities (vx, vy) after a diabatic singlet start.

    vx = 3 jy^2 / (4 (jx^2 - jx jy + jy^2)), vy = 3 jx jy / (4 (...)); both
    in [0, 1], and the two readout directions oscillate in phase opposition.
    """
    d = f_ss(jx, jy) ** 2
    return float(3 * jy**2 / (4 * d)), float(3 * jx * jy / (4 * d))


def singlet_singlet_probabilities(jx, jy, t_ns, sigma_f: float = 0.0):
    """(P_horizontal, P_vertical) singlet-singlet probabilities vs time.

    Closed form for a diabatic start in the horizontal singlet product: the
    return probability is ``1 - (vx/2)(1 - cos wt)`` and the swapped one is
    ``1/4 + (vy/2)(1 - cos wt)``.  A nonzero ``sigma_f`` (MHz) applies the
    Gaussian quasi-static envelope exp(-(t/T_phi)^2) to the cosine.
    """
    t = np.asarray(t_ns, dtype=float)
    vx, vy = visibilities(jx, jy)
    osc = np.cos(W2PI * f_ss(jx, jy) * t)
    if sigma_f > 0:
        osc = osc * np.exp(-((t / tphi_from_sigma(sigma_f)) ** 2))
    px = 1 - vx / 2 * (1 - osc)
    py = 0.25 + vy / 2 * (1 - osc)
    return px, py


def ground_state_probabilities(jx: float, jy: float) -> tuple[float, float]:
    """Singlet-singlet readout probabilities of the exchange ground state.

    P_horizontal = 1/2 - (-2 jx + jy) / (4 gap),
    P_vertical   = 1/2 + (-jx + 2 jy) / (4 gap),  gap = f_ss(jx, jy).
    Both equal 3/4 at equal exchange.
    """
    gap = f_ss(jx, jy)
    px = 0.5 - (-2 * jx + jy) / (4 * gap)
    py = 0.5 + (-jx + 2 * jy) / (4 * gap)
    return float(px), float(py)


# ---------------------------------------------------------------------------
# closed-form predictions for the m = -1 triplet subspace


def f_st_perturbative(j: ExchangeConfig) -> float:
    """Singlet/triplet swap frequency jy/2 + dx^2/jy + dy^2/(2 jx), MHz.

    Second-order result, valid away from jx = jy; the residual error
    against the exact 3-level gap scales as O(delta^4).  Raises in the
    degenerate regime, where :func:`p_st_degenerate` applies instead.
    """
    jx, jy, dx, dy = j.jx, j.jy, j.delta_x, j.delta_y
    if jx <= 0 or jy <= 0:
        raise ValueError("perturbative frequency needs positive jx, jy")
    if dx == 0 and dy == 0:
        return jy / 2
    guard = max(dx**2, dy**2) / (abs(jx - jy) * min(jx, jy)) if jx != jy else np.inf
    if guard >= 0.1:
        raise ValueError(
            "degenerate regime (imbalance comparable to |jx - jy|); "
            "use p_st_degenerate"
        )
    return float(jy / 2 + dx**2 / jy + dy**2 / (2 * jx))


def p_st_degenerate(j_mhz: float, delta_x: float, delta_y: float, t_ns):
    """Survival probability of the singlet/T- product at equal exchange jx = jy = J.

    Exact three-frequency closed form: the initial state splits over the
    three levels with weights p_k, and P(t) = |sum_k p_k exp(-i w_k t)|^2.
    The oscillation carries a beating envelope at (dx^2+dy^2)/(4J); with
    both imbalances zero it reduces to (1 + cos(2 pi (J/2) t)) / 2.
    """
    if j_mhz <= 0:
        raise ValueError("exchange must be positive")
    t = np.asarray(t_ns, dtype=float)
    rho2 = delta_x**2 + delta_y**2
    if rho2 == 0:
        return 0.5 * (1 + np.cos(W2PI * (j_mhz / 2) * t))
    r = np.sqrt(j_mhz**2 + 4 * rho2)
    e_g = (-3 * j_mhz - r) / 4
    e_1 = -j_mhz / 2
    e_2 = (-3 * j_mhz + r) / 4
    p_g = (2 * delta_x + j_mhz + r) ** 2 / (4 * r * (r + j_mhz))
    p_1 = delta_y**2 / (2 * rho2)
    p_2 = (2 * delta_x + j_mhz - r) ** 2 / (4 * r * (r - j_mhz))
    amp = (
        p_g * np.exp(-1j * W2PI * e_g * t)
        + p_1 * np.exp(-1j * W2PI * e_1 * t)
        + p_2 * np.exp(-1j * W2PI * e_2 * t)
    )
    return np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# quasi-static dephasing


def tphi_from_sigma(sigma_f: float) -> float:
    """Gaussian dephasing time (ns) of quasi-static frequency noise sigma_f (MHz)."""
    if sigma_f <= 0:
        raise ValueError("sigma_f must be positive")
    return np.sqrt(2.0) / (2 * np.pi * sigma_f * 1e-3)


def sigma_from_tphi(tphi_ns: float) -> float:
    """Quasi-static frequency noise std (MHz) producing a given T_phi (ns)."""
    if tphi_ns <= 0:
        raise ValueError("tphi must be positive")
    return np.sqrt(2.0) / (2 * np.pi * tphi_ns * 1e-3)


#: Largest quadrature order :class:`NoiseModel` accepts: ``hermegauss`` returns
#: NaN weights by n = 500 and slows sharply past a few hundred nodes.
MAX_QUADRATURE_NODES = 128


@lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for a standard normal variable, weights summing to 1."""
    x, w = hermegauss(n)
    w = w / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class NoiseModel:
    """Quasi-static Gaussian frequency noise, averaged by Gauss-Hermite quadrature.

    ``sigma_f`` is the std (MHz) of the oscillation-frequency offset, and
    ``n_samples`` the number of quadrature nodes (1 to
    :data:`MAX_QUADRATURE_NODES`): an n-node rule averages any polynomial of
    degree below 2n in the offset exactly (Golub & Welsch, Math. Comp. 23,
    221 (1969)).  The rule serves only the columns that have no closed-form
    average (module docstring), the columns of :attr:`SequenceResult.amplitudes`;
    which columns have one does not depend on it.  The rule is deterministic,
    so ``seed`` does not affect a run; it is kept so that existing callers
    still construct the model.
    """

    sigma_f: float
    n_samples: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma_f < math.inf:
            raise ValueError(f"sigma_f must be finite and non-negative, got {self.sigma_f!r}")
        n = self.n_samples  # a bool is an int, but no node count
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or not 1 <= n <= MAX_QUADRATURE_NODES):
            raise ValueError(f"n_samples counts quadrature nodes and must be an integer in "
                             f"1..{MAX_QUADRATURE_NODES}, got {n!r}")

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets in MHz, weights summing to 1) of the n_samples-node rule."""
        x, w = _hermite_rule(self.n_samples)
        return self.sigma_f * x, w


def dephasing_envelope(noise: NoiseModel, t_ns) -> np.ndarray:
    """Ensemble-averaged cosine attenuation <cos(2 pi df t)> at time t (ns).

    The quadrature average of the Gaussian characteristic function
    exp(-(t/T_phi)^2), T_phi = sqrt(2)/(2 pi sigma_f 1e-3): 16 nodes reach it
    to 1e-15 up to T_phi and to 3e-9 up to 2 T_phi; past ~3 T_phi, where the
    envelope is below 1e-4, the error grows to the envelope's own size.
    """
    t = np.atleast_1d(np.asarray(t_ns, dtype=float))
    offsets, weights = noise.quadrature()
    out = weights @ np.cos(W2PI * np.outer(offsets, t))
    return out if np.ndim(t_ns) else float(out[0])


# ---------------------------------------------------------------------------
# pulse sequences


class SegmentKind(enum.Enum):
    SET_DIABATIC = "diabatic"
    LINEAR_RAMP = "ramp"
    HOLD = "hold"
    EXCHANGE_PULSE = "pulse"


@dataclass(frozen=True, eq=False)
class PulseSegment(_ValueEquality):
    """One step of a pulse sequence, or of every column of a sweep.

    ``SET_DIABATIC``, ``HOLD`` and ``EXCHANGE_PULSE`` evolve under the
    target couplings for ``duration`` ns (0 means an instantaneous switch).
    ``LINEAR_RAMP`` interpolates from the previous segment's couplings to
    the target over ``duration``, moving each coupling geometrically
    (linear gate voltage).  ``target`` is an :class:`ExchangeConfig`, a (4,)
    coupling row or a (columns, 4) array, in :meth:`ExchangeConfig.as_array`
    order; ``duration`` is a number or a (columns,) array, finite and
    non-negative.  Segments compare and hash by kind, target and duration
    values.
    """

    kind: SegmentKind
    target: ExchangeConfig | np.ndarray
    duration: float | np.ndarray = 0.0

    def __post_init__(self):
        d = np.asarray(self.duration)
        if not ((d >= 0) & (d < math.inf)).all():
            raise ValueError("segment duration must be finite and non-negative, "
                             f"got {self.duration}")

    def _key(self) -> tuple:
        return self.kind, _value_key(self.target), _value_key(self.duration)


def set_diabatic(target: ExchangeConfig | np.ndarray,
                 duration: float | np.ndarray = 0.0) -> PulseSegment:
    return PulseSegment(SegmentKind.SET_DIABATIC, target, duration)


def hold(target: ExchangeConfig | np.ndarray, duration: float | np.ndarray) -> PulseSegment:
    return PulseSegment(SegmentKind.HOLD, target, duration)


def exchange_pulse(target: ExchangeConfig | np.ndarray,
                   duration: float | np.ndarray) -> PulseSegment:
    return PulseSegment(SegmentKind.EXCHANGE_PULSE, target, duration)


def linear_ramp(target: ExchangeConfig | np.ndarray, duration: float | np.ndarray) -> PulseSegment:
    return PulseSegment(SegmentKind.LINEAR_RAMP, target, duration)


@dataclass(frozen=True, eq=False)
class PulseSequence(_ValueEquality):
    """Initial state, ordered segments, and an optional dwell-time grid.

    A segment whose target or duration is an array makes the sequence a sweep:
    all targets and durations broadcast, as in NumPy, to one column shape, ``()``
    for a single sequence or ``(columns,)``, and :func:`run_sequence` runs every
    column in one solve.  ``segments`` stay as stated; the read-only ``kinds``,
    ``couplings`` (segments, [columns,] 4) and ``durations`` (segments, [columns])
    hold them broadcast.  ``dwell_times`` is one (n_dwell,) grid, kept as a tuple
    of floats, or a (columns, n_dwell) array that gives each column its own grid:
    its leading shape joins the column broadcast, and it is kept broadcast to
    (columns, n_dwell), read-only.  Every sequence rule is checked here, and each
    segment checks its durations: no ramp first, finite non-negative couplings,
    and a dwell grid of finite non-negative times only on a final HOLD of
    duration 0, the grid taking the place of its duration.  Sequences compare
    and hash by the values of their init state, segments and dwell grid.
    """

    init: SpinState
    segments: tuple[PulseSegment, ...]
    dwell_times: tuple[float, ...] | np.ndarray | None = None
    kinds: tuple[SegmentKind, ...] = field(init=False, repr=False)
    couplings: np.ndarray = field(init=False, repr=False)
    durations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("sequence needs at least one segment")
        kinds = tuple(seg.kind for seg in segments)
        targets = [np.asarray(seg.target.as_array() if isinstance(seg.target, ExchangeConfig)
                              else seg.target, dtype=float) for seg in segments]
        durations = [np.asarray(seg.duration, dtype=float) for seg in segments]
        for target in targets:
            if target.shape[-1:] != (4,):
                raise ValueError("a segment target is an ExchangeConfig or couplings "
                                 f"(..., 4), got shape {target.shape}")
        shapes = [target.shape[:-1] for target in targets] + [d.shape for d in durations]
        dwell = None if self.dwell_times is None else np.asarray(self.dwell_times, dtype=float)
        if dwell is not None:
            if dwell.ndim not in (1, 2):
                raise ValueError("a dwell grid is (n_dwell,) or (columns, n_dwell), "
                                 f"got shape {dwell.shape}")
            if not dwell.size:
                raise ValueError(f"a dwell grid needs at least one time, got shape {dwell.shape}")
            bad = dwell[~((dwell >= 0) & (dwell < math.inf))]
            if bad.size:
                raise ValueError(f"dwell times must be finite and non-negative, got {bad[0]}")
            shapes.append(dwell.shape[:-1])
        try:
            cols = np.broadcast_shapes(*shapes)
        except ValueError:
            raise ValueError("segment targets (columns, 4), durations (columns,) and a dwell "
                             "grid (columns, n_dwell) do not broadcast to one column shape: "
                             f"{shapes}") from None
        if len(cols) > 1:
            raise ValueError(f"a sweep has one column axis, got column shape {cols}")
        if cols == (0,):
            raise ValueError("a sweep needs at least one column")
        j, dur = np.empty((len(segments), *cols, 4)), np.empty((len(segments), *cols))
        for k, (target, d) in enumerate(zip(targets, durations)):
            j[k], dur[k] = target, d
        if not ((j >= 0) & (j < np.inf)).all():
            raise ValueError("exchange couplings must be finite and non-negative")
        if kinds[0] is SegmentKind.LINEAR_RAMP:
            raise ValueError("a ramp cannot be the first segment (no starting couplings)")
        if dwell is not None:
            if kinds[-1] is not SegmentKind.HOLD:
                raise ValueError("a dwell grid sweeps the final segment, which must be a HOLD")
            if dur[-1].any():
                raise ValueError("a dwell grid sets the final HOLD's duration, which must be 0")
            if dwell.ndim == 1:
                dwell = tuple(dwell.tolist())
            else:
                dwell = np.array(np.broadcast_to(dwell, (*cols, dwell.shape[-1])))
                dwell.setflags(write=False)
            object.__setattr__(self, "dwell_times", dwell)
        j.setflags(write=False)
        dur.setflags(write=False)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "durations", dur)

    def _key(self) -> tuple:
        dwell = None if self.dwell_times is None else _value_key(self.dwell_times)
        return self.init, self.segments, dwell


@dataclass(frozen=True)
class DwellSpectra:
    """Nominal dwell spectra of the columns whose noise average has a closed form.

    Per such column, in column order: ``energies`` (n, d) and ``vectors``
    (n, d, d), the ``eigh`` of the dwell Hamiltonian at nominal couplings;
    ``coords`` (n, d), the state entering the dwell in that eigenbasis;
    ``spread`` (n,), sigma_f / f_ref; and ``times``, the dwell grid, shape
    (1 or n, n_dwell).
    """

    energies: np.ndarray
    vectors: np.ndarray
    coords: np.ndarray
    spread: np.ndarray
    times: np.ndarray


@dataclass(frozen=True)
class SequenceResult:
    """States returned by :func:`run_sequence`, or the spectra that stand for them.

    ``exact`` (column shape, bool) marks the columns whose Gaussian ensemble
    average is read out in closed form from ``spectra`` (module docstring);
    such a column keeps its spectrum only.  ``amplitudes`` holds the states of
    the other columns in the invariant sector the sequence ran in, with
    ``sector`` the basis of their d coordinates.  When no column is exact it
    covers every column, shape ([n_columns,] n_nodes, n_dwell, d), the leading
    column axis there exactly when the sequence has one; otherwise it holds the
    n columns not exact, in column order, shape (n, n_nodes, n_dwell, d).  A
    noiseless run is a one-node ensemble, and without a dwell grid the n_dwell
    axis is 1.  ``weights`` are the quadrature weights of the noise nodes
    (``[1.0]`` without noise), shared by all columns.  Read a result out with
    :func:`rvbsim.readout.ensemble_probabilities`.
    """

    sector: Basis
    weights: np.ndarray
    exact: np.ndarray
    spectra: DwellSpectra | None
    amplitudes: np.ndarray

    @property
    def states(self) -> np.ndarray:
        """Full-space states (..., n_nodes, n_dwell, 16) of ``amplitudes``, lifted per access."""
        return lift(self.amplitudes, self.sector)


_BOND_STACK = np.stack([_BOND_OPS[p] for p in Pair])  # Pair order is the coupling order

#: Invariant sectors, smallest first: (basis, isometry q, q^dagger, bond stack
#: q B q^dagger).  Every bond conserves S^2 and S_z, so each span is closed
#: under exchange for any couplings; the last entry is the full space, q = I.
_SECTORS = tuple(
    (b, q, q.conj().T, q @ _BOND_STACK @ q.conj().T)
    for b in sorted(Basis, key=lambda b: b.dim)
    for q in [subspace_projector(b)]
)


def _sector(psi16: np.ndarray, zeeman16: np.ndarray | None):
    """First sector whose span holds ``psi16`` and is mapped into itself by ``zeeman16``."""
    for basis, q, qh, stack in _SECTORS:
        if np.linalg.norm(qh @ (q @ psi16) - psi16) > 1e-10:
            continue
        if zeeman16 is None or np.abs(zeeman16 @ qh - qh @ (q @ zeeman16 @ qh)).max() <= 1e-12:
            return basis, q, qh, stack


#: States evolved, or read out, at a time: blocks of a large sweep keep its
#: temporaries to a few MB, so peak memory grows only by the result itself.
BLOCK_STATES = 1024


def _evolve_ensemble(states, couplings, bonds, zh, lam, times) -> np.ndarray:
    """Evolve row s of ``states`` under lam_s hj_c + zh for each time: (rows, times, d).

    The rows come in equal blocks, one per column c of ``couplings`` (columns, 4),
    whose exchange Hamiltonian is hj_c = sum_b couplings_cb bonds_b; ``times`` has
    shape (1 or rows, n_times).
    """
    hj = np.einsum("cb,bij->cij", couplings, bonds)
    n_cols, d = hj.shape[0], hj.shape[-1]
    h = lam.reshape(n_cols, -1)[:, :, None, None] * hj[:, None] + zh
    w, v = np.linalg.eigh(h.reshape(-1, d, d))
    coords = np.einsum("sji,sj->si", v.conj(), states)
    rate = -1j * W2PI * w[:, None, :]
    times = np.broadcast_to(times, (len(states), times.shape[1]))
    out = np.empty((len(states), times.shape[1], d), dtype=complex)
    step = max(1, BLOCK_STATES // times.shape[1])
    for i in range(0, len(out), step):
        rows = slice(i, i + step)
        phases = np.exp(rate[rows] * times[rows, :, None])
        out[rows] = (phases * coords[rows, None, :]) @ np.swapaxes(v[rows], 1, 2)
    return out


def _interp_bonds(b0: np.ndarray, b1: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Coupling schedule of each row's ramp: b0, b1 (rows, 4), s (rows, nodes) -> (rows, 4, nodes).

    A coupling moves geometrically (linear gate voltage), b0 (b1/b0)^s; one pinned
    at zero has no finite-voltage representation and moves linearly instead,
    b0 + s (b1 - b0).  Each bond takes one term, the other being b0 1^s or s 0.
    """
    geo = (b0 > 1e-12) & (b1 > 1e-12)
    ratio = np.where(geo, b1, 1.0) / np.where(geo, b0, 1.0)
    slope = np.where(geo, 0.0, b1 - b0)
    return b0[..., None] * ratio[..., None] ** s[:, None] + slope[..., None] * s[:, None]


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] for stacks of anti-Hermitian a and b, from one product: ba = (ab)^dagger."""
    ab = a @ b
    return ab - np.conj(np.swapaxes(ab, -1, -2))


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2 u x v over axis -2: the commutator of -i u.sigma and -i v.sigma is -i (2 u x v).sigma."""
    i, j = [1, 2, 0], [2, 0, 1]
    return 2 * (u.take(i, -2) * v.take(j, -2) - u.take(j, -2) * v.take(i, -2))


def _ramp_generators(stack: np.ndarray, const) -> np.ndarray:
    """The bond stack and the constant term, rows 0-3 and row 4, as the step kernel takes them.

    A 2-dim sector gives their real Pauli coefficients (identity, x, y, z),
    shape (5, 4); any other the matrices themselves, (5, d, d).
    """
    ops = np.concatenate([stack, np.broadcast_to(const, stack.shape[1:])[None]])
    if len(ops[0]) != 2:
        return ops
    return np.stack([(ops[:, 0, 0] + ops[:, 1, 1]).real / 2, ops[:, 1, 0].real,
                     ops[:, 1, 0].imag, (ops[:, 0, 0] - ops[:, 1, 1]).real / 2], axis=-1)


def _su2_steps(coef: np.ndarray, theta: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Product of each row's Magnus steps in a 2-dim sector, in closed form: (rows, 2, 2).

    Each alpha_k = -i (a_0 + a.sigma) is a real 4-vector, each commutator 2 u x v,
    and exp(Omega) = exp(-i w_0) (cos|w| - i sin|w| w.sigma/|w|).  The SU(2) parts
    multiply as unit quaternions, held as Cayley-Klein pairs (a, b) of
    [[a, -b*], [b, a*]]; the step phases w_0 are summed.
    """
    alpha = theta[:, None, None] * (gens[:4].T @ coef)  # (3, rows, 4 components, steps)
    alpha[0] += theta[:, None, None] * gens[4][:, None]
    u1, u2, u3 = alpha[:, :, 1:]
    c1 = _cross2(u1, u2)
    c2 = _cross2(u1, 2 * u3 + c1) / -60
    w = u1 + u3 / 12 + _cross2(-20 * u1 - u3 + c1, u2 + c2) / 240
    norm = np.sqrt(np.square(w).sum(-2))
    rot = np.exp(1j * norm)  # cos + i sin of each step's rotation angle
    sinc = rot.imag / np.where(norm > 0, norm, 1.0)
    ab = np.empty((2, *norm.shape), dtype=complex)
    ab[0].real, ab[0].imag = rot.real, -sinc * w[:, 2]
    ab[1].real, ab[1].imag = sinc * w[:, 1], -sinc * w[:, 0]
    sign = np.array([-1.0, 1.0])[:, None, None]
    while ab.shape[-1] > 1:  # later steps on the left
        p, q = ab[..., 1::2], ab[..., 0::2]
        ab = p * q[0] + np.conj(p[::-1]) * (q[1] * sign)
    a, b = ab[..., 0]
    m = np.stack([a, -np.conj(b), b, np.conj(a)], axis=-1).reshape(-1, 2, 2)
    return m * np.exp(-1j * (alpha[0, :, 0] + alpha[2, :, 0] / 12).sum(-1))[:, None, None]


def _eigh_steps(coef: np.ndarray, theta: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Product of each row's Magnus steps by the batched eigh of i Omega: (rows, d, d)."""
    d = gens.shape[-1]
    angle = -1j * theta[:, None, None]
    alpha1, alpha2, alpha3 = (angle * (np.swapaxes(coef, -1, -2) @ gens[:4].reshape(4, -1))
                              ).reshape(*coef.shape[:2], -1, d, d)
    alpha1 = alpha1 + angle[..., None] * gens[4]
    c1 = _commutator(alpha1, alpha2)
    c2 = _commutator(alpha1, 2 * alpha3 + c1) / -60
    h = 1j * (alpha1 + alpha3 / 12 + _commutator(-20 * alpha1 - alpha3 + c1, alpha2 + c2) / 240)
    tr = np.trace(h, axis1=-2, axis2=-1).real / d
    h -= tr[..., None, None] * np.eye(d)
    w, v = np.linalg.eigh(h)
    m = (v * np.exp(-1j * (w + tr[..., None]))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    while m.shape[1] > 1:  # later steps on the left
        m = m[:, 1::2] @ m[:, 0::2]
    return m[:, 0]


def _ramp_products(b0, b1, durations, n, gens) -> np.ndarray:
    """Product of n sixth-order Magnus steps for each column, shape (columns, d, d).

    Column c ramps from couplings b0[c] to b1[c] (columns, 4) over durations[c] ns.
    Step k samples A_i = -i W2PI dt H(s_i), H(s) = sum_b J_b(s) stack_b + const, at
    s_i = (k + 1/2 + (-1, 0, 1)_i sqrt(15)/10)/n and exponentiates
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240, with
    alpha1 = A2, alpha2 = (sqrt(15)/3)(A3 - A1), alpha3 = (10/3)(A3 - 2 A2 + A1),
    C1 = [alpha1, alpha2] and C2 = -[alpha1, 2 alpha3 + C1]/60 (S. Blanes, F. Casas
    & J. Ros, BIT 40, 434 (2000)): in closed form in a 2-dim sector, by the batched
    eigh of the Hermitian i Omega in a larger one.  ``gens`` is
    :func:`_ramp_generators` of the sector's projected bond stack, which gives the
    exact sector block of the propagator.

    The steps come in blocks of 1024 steps of a 2-dim sector, 256 of a 3- or
    4-dim one and 64 of a larger one; each block reduces to one matrix by a
    pairwise tree (n and the block are powers of two), and the blocks multiply in
    order.  The blocks depend on n and d only, so a column's product does not
    depend on the others.  The (block, column) rows are taken in chunks whose
    largest temporary holds about 2^15 values: chunks of 2^16 raised the peak
    memory of a long ramp.
    """
    pauli = gens.ndim == 2
    d = 2 if pauli else gens.shape[-1]
    steps = _su2_steps if pauli else _eigh_steps
    block = min(n, 2 ** max(6, 12 - 2 * (d - 1).bit_length()))
    n_cols, n_rows = len(durations), len(durations) * (n // block)
    chunk = max(1, 2**15 // (block * 3 * (4 if pauli else d * d)))
    theta = W2PI * durations / n
    total = np.empty((n_cols, d, d), dtype=complex)
    for start in range(0, n_rows, chunk):
        blk, col = divmod(np.arange(start, min(start + chunk, n_rows)), n_cols)
        k = blk[:, None] * block + np.arange(block)
        s = ((k[:, None] + _MAGNUS_NODES[:, None]) / n).reshape(len(blk), -1)
        j1, j2, j3 = np.moveaxis(_interp_bonds(b0[col], b1[col], s).reshape(
            len(blk), 4, 3, block), 2, 0)  # (rows, bonds, steps) at each node
        # alpha1..3 from coupling combinations, so the constant cancels exactly
        m = steps(np.stack([j2, _SQRT15 / 3 * (j3 - j1), 10 / 3 * (j3 - 2 * j2 + j1)]),
                  theta[col], gens)
        for b in range(blk[0], blk[-1] + 1):  # the blocks in order, later ones on the left
            rows = blk == b
            total[col[rows]] = m[rows] if b == 0 else m[rows] @ total[col[rows]]
    return total


def _ramp_unitaries(b0, b1, durations, stack, probes, const=0.0) -> np.ndarray:
    """Adaptive Magnus propagators of a ramp's columns, shape (columns, d, d).

    Column c ramps from couplings b0[c] to b1[c] (columns, 4) over durations[c] ns
    under the sector's bond ``stack`` and Hermitian ``const``; a column of duration
    0 is the identity.  n doubles from 16 for all live columns together; after n
    order-6 steps the error of probes[c] is estimated as ||psi_n - psi_{n/2}|| / 63
    (Richardson's estimate, 63 = 2^6 - 1), and a column whose estimate is below
    RAMP_TOL leaves the batch with its own n.  At RAMP_STEP_CAP a
    RampConvergenceError names n and every column still above it with its
    estimate, by index when there is more than one column.
    """
    gens = _ramp_generators(stack, const)
    out = np.tile(np.eye(stack.shape[1], dtype=complex), (len(durations), 1, 1))
    live, n = np.flatnonzero(durations), 16
    u = _ramp_products(b0[live], b1[live], durations[live], n, gens)
    psi_prev, error = (u @ probes[live, :, None])[..., 0], np.full(len(live), np.inf)
    while len(live) and n < RAMP_STEP_CAP:
        n *= 2
        u = _ramp_products(b0[live], b1[live], durations[live], n, gens)
        psi = (u @ probes[live, :, None])[..., 0]
        error = np.linalg.norm(psi - psi_prev, axis=-1) / 63
        done = error < RAMP_TOL
        out[live[done]] = u[done]
        live, psi_prev, error = live[~done], psi[~done], error[~done]
    if not len(live):
        return out
    plural = "s" * (len(live) > 1)
    where = f"column{plural} {', '.join(map(str, live))}: " if len(durations) > 1 else ""
    raise RampConvergenceError(
        f"{where}ramp discretization stopped at n={n} steps (cap {RAMP_STEP_CAP}) with estimated "
        f"error{plural} {', '.join(f'{e:.3g}' for e in error)}, above tol {RAMP_TOL}"
    )


def run_sequence(
    seq: PulseSequence,
    noise: NoiseModel | None = None,
    *,
    zeeman: ZeemanConfig | None = None,
    noise_reference_mhz: float | np.ndarray | None = None,
) -> SequenceResult:
    """Run a pulse sequence, every column of a sweep at once, optionally over a noise ensemble.

    The initial state, in any :class:`~rvbsim.basis.Basis`, evolves in the smallest
    invariant sector holding it (module docstring) that, with ``zeeman``, the Zeeman
    term also maps into itself; the result keeps the amplitudes in that sector.

    A sweep runs all its columns in one solve, and its result has a leading
    column axis exactly when the sequence has one.  A (columns, n_dwell) dwell
    grid gives each column, at every noise node, its own row of times; a 1-D
    grid serves every column.  A constant segment of duration 0 leaves a
    column's state exactly as it was.

    With ``noise``, every constant-coupling segment is rescaled per quadrature
    node by ``1 + offset/f_ref``, unclipped (module docstring); ramps run at
    nominal couplings.  A column whose average has the closed form keeps one
    ``eigh`` of its nominal dwell Hamiltonian in ``spectra`` in place of node
    trajectories.  ``noise_reference_mhz`` (f_ref) is finite and positive, one
    value or one per column; by default each column takes the singlet-singlet
    frequency of its final segment's couplings.
    """
    cols = seq.durations.shape[1:]  # () or (columns,)
    couplings = seq.couplings.reshape(len(seq.kinds), -1, 4)  # (segments, columns, 4)
    durations = seq.durations.reshape(len(seq.kinds), -1)
    n_cols = couplings.shape[1]
    psi16 = lift(seq.init.amplitudes, seq.init.basis)
    zeeman16 = zeeman_full(zeeman) if zeeman is not None else None
    sector, q, qh, bonds = _sector(psi16, zeeman16)
    zh = 0.0 if zeeman16 is None else q @ zeeman16 @ qh
    n_prefix = len(seq.kinds) - (seq.dwell_times is not None)

    if noise is not None:
        if noise_reference_mhz is None:
            j = couplings[-1]
            jx, jy = j[:, 0] + j[:, 1], j[:, 3] + j[:, 2]  # as ExchangeConfig.jx, .jy
            f_ref = np.sqrt(jx**2 + jy**2 - jx * jy)  # f_ss, 0 only at jx = jy = 0
        else:
            f_ref = np.asarray(noise_reference_mhz, dtype=float)
            if f_ref.shape not in ((), (n_cols,)):
                raise ValueError(f"noise_reference_mhz has shape {f_ref.shape}, not () or the "
                                 f"column shape {cols}")
            f_ref = np.broadcast_to(f_ref, (n_cols,))
        if not np.all(f_ref > 0):
            raise ValueError("noise needs a positive reference frequency")
        if not np.all(f_ref < np.inf):
            raise ValueError("noise needs a finite reference frequency")
        offsets, weights = noise.quadrature()
        lam = 1.0 + offsets[None, :] / f_ref[:, None]  # (columns, nodes)
    else:
        # a noiseless run is a one-trajectory ensemble
        lam, weights = np.ones((n_cols, 1)), np.ones(1)
    n_nodes = lam.shape[1]
    lam = lam.ravel()

    states = np.tile(q @ psi16, (len(lam), 1))  # (columns x nodes, d) sector coordinates
    for k in range(n_prefix):
        if seq.kinds[k] is SegmentKind.LINEAR_RAMP:
            # every column with its own step count, probed at its first node
            nodes = states.reshape(n_cols, n_nodes, -1)
            u = _ramp_unitaries(couplings[k - 1], couplings[k], durations[k], bonds, nodes[:, 0],
                                zh)
            states = (nodes @ np.swapaxes(u, 1, 2)).reshape(states.shape)
            # a product of many step unitaries accumulates roundoff in the
            # norm; renormalize to keep the 1e-12 norm contract on states
            states /= np.linalg.norm(states, axis=-1, keepdims=True)
            continue
        dur = np.repeat(durations[k], n_nodes)
        if dur.any():
            moved = _evolve_ensemble(states, couplings[k], bonds, zh, lam, dur[:, None])[:, 0]
            # a zero-length segment keeps its column's state exactly
            states = np.where(dur[:, None] > 0, moved, states)

    grid = None if seq.dwell_times is None else np.asarray(seq.dwell_times)
    nodes = states.reshape(n_cols, n_nodes, -1)
    # with no Zeeman term the dwell Hamiltonian is lam * H, whose eigenvectors do not
    # depend on the node: a column whose nodes all enter the dwell alike has the
    # closed-form Gaussian average of the module docstring
    exact = np.zeros(n_cols, dtype=bool)
    if noise is not None and grid is not None and not np.any(zh):
        exact = (nodes == nodes[:, :1]).all(axis=(1, 2))

    spectra = None
    if exact.any():
        w, v = np.linalg.eigh(np.einsum("cb,bij->cij", couplings[-1][exact], bonds))
        coords = (v.conj() * nodes[exact, 0][:, :, None]).sum(axis=1)
        spectra = DwellSpectra(w, v, coords, noise.sigma_f / f_ref[exact],
                               grid[None, :] if grid.ndim == 1 else grid[exact])
    # every other column runs its node trajectories over the dwell grid
    start, d = nodes[~exact], nodes.shape[-1]
    if grid is None:
        amps = start[:, :, None, :]
    elif not len(start):
        amps = np.empty((0, n_nodes, grid.shape[-1], d), dtype=complex)
    else:
        times = grid[None, :] if grid.ndim == 1 else np.repeat(grid[~exact], n_nodes, axis=0)
        amps = _evolve_ensemble(start.reshape(-1, d), couplings[-1][~exact], bonds, zh,
                                lam.reshape(n_cols, n_nodes)[~exact].ravel(), times)
        amps = amps.reshape(len(start), n_nodes, -1, d)
    return SequenceResult(sector, weights, exact.reshape(cols), spectra,
                          amps if exact.any() else amps.reshape(cols + amps.shape[1:]))
