"""Time evolution under pulse sequences, quasi-static dephasing, and closed-form dynamics.

Phase convention: a level at energy f (MHz) accumulates phase
``2*pi * f * t * 1e-3`` over a time t (ns); propagators are
``U = exp(-i * 2*pi*1e-3 * H * t)`` evaluated by exact eigendecomposition.

Linear ramps interpolate gate voltages linearly, so each exchange coupling
moves geometrically (exponentially) between its endpoints.  Ramps are
propagated with n fourth-order Magnus steps, each sampling the couplings
at two Gauss-Legendre nodes; n is doubled until the final state moves by
less than RAMP_TOL between n/2 and n steps, up to RAMP_STEP_CAP steps.

Sequences start from a state in any :class:`~rvbsim.basis.Basis` and run in
the smallest invariant sector holding it (2-dim total singlet, 3-dim S=1 m=-1
triplet, 4-dim m=-1 sector, or the full space, whose isometry is the identity);
exchange conserves S^2 and S_z for any couplings, so this is exact.
A :class:`SequenceResult` keeps the amplitudes in that sector, where
:func:`rvbsim.readout.ensemble_probabilities` reads them out; its ``states``
property lifts them to the full space on each access.

Every sweep, ramps included, runs as one :class:`SequenceStack`: one initial
state, segment kinds and dwell grid, and per segment a row of couplings and a
duration for each column.  A constant segment is one batched ``eigh`` over
(columns x noise nodes); a ramp builds each column's propagator, with its own
step count, from that column's rows.  A :class:`PulseSequence` runs as a stack
of one.  Each matrix is built on its own, so a stacked column equals the same
column run alone bit for bit.

Quasi-static noise: each trajectory carries one Gaussian frequency offset
(std ``sigma_f``) and scales every exchange coupling by the common factor
``1 + offset/f_ref``, which shifts any exchange-set oscillation frequency
by that offset (all such frequencies are degree-1 homogeneous in the
couplings).  ``f_ref`` defaults to the singlet-singlet frequency of the
dwell configuration.  The trajectories are the nodes of a Gauss-Hermite
rule and the ensemble average is their weighted sum, which integrates the
Gaussian characteristic function <exp(-i phi)> = exp(-sigma_phi^2 / 2)
without sampling error: at the default 16 nodes every figure's ensemble
average lies within 2.3e-6 of a 128-node one.  Ramp segments are
evaluated at nominal couplings; only constant-coupling segments are
rescaled per trajectory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .basis import Basis, Pair, SpinState, lift, subspace_projector
from .hamiltonians import ExchangeConfig, ZeemanConfig, zeeman_full, _BOND_OPS

W2PI = 2 * np.pi * 1e-3  # rad per (MHz * ns)
_SQRT3 = np.sqrt(3.0)

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
    221 (1969)).  The rule is deterministic, so ``seed`` does not affect a
    run; it is kept so that existing callers still construct the model.
    """

    sigma_f: float
    n_samples: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma_f < math.inf:
            raise ValueError(f"sigma_f must be finite and non-negative, got {self.sigma_f!r}")
        if not 1 <= self.n_samples <= MAX_QUADRATURE_NODES:
            raise ValueError(
                f"n_samples counts quadrature nodes and must be in 1..{MAX_QUADRATURE_NODES}, "
                f"got {self.n_samples}"
            )

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


@dataclass(frozen=True)
class PulseSegment:
    """One step of a pulse sequence.

    ``SET_DIABATIC``, ``HOLD`` and ``EXCHANGE_PULSE`` evolve under the
    target couplings for ``duration`` ns (0 means an instantaneous switch).
    ``LINEAR_RAMP`` interpolates from the previous segment's couplings to
    the target over ``duration``, moving each coupling geometrically
    (linear gate voltage).  The duration must be finite and non-negative.
    """

    kind: SegmentKind
    target: ExchangeConfig
    duration: float = 0.0

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ValueError("segment duration must be finite and non-negative, "
                             f"got {self.duration}")


def set_diabatic(target: ExchangeConfig, duration: float = 0.0) -> PulseSegment:
    return PulseSegment(SegmentKind.SET_DIABATIC, target, duration)


def hold(target: ExchangeConfig, duration: float) -> PulseSegment:
    return PulseSegment(SegmentKind.HOLD, target, duration)


def exchange_pulse(target: ExchangeConfig, duration: float) -> PulseSegment:
    return PulseSegment(SegmentKind.EXCHANGE_PULSE, target, duration)


def linear_ramp(target: ExchangeConfig, duration: float) -> PulseSegment:
    return PulseSegment(SegmentKind.LINEAR_RAMP, target, duration)


@dataclass(frozen=True)
class PulseSequence:
    """Initial state, ordered segments, and an optional dwell-time grid.

    A sequence is checked, and run, as a :class:`SequenceStack` of one column.
    """

    init: SpinState
    segments: tuple[PulseSegment, ...]
    dwell_times: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "dwell_times", self.as_stack().dwell_times)

    def as_stack(self) -> SequenceStack:
        """This sequence as a stack of one column."""
        return SequenceStack(self.init, tuple(seg.kind for seg in self.segments),
                             [[seg.target.as_array()] for seg in self.segments],
                             [[seg.duration] for seg in self.segments], self.dwell_times)


@dataclass(frozen=True, eq=False)
class SequenceStack:
    """One sweep as arrays, which :func:`run_sequence` runs as one solve.

    The columns share ``init``, the segment ``kinds`` and the ``dwell_times``
    grid; ``couplings`` (segments, columns, 4), in :meth:`ExchangeConfig.as_array`
    order, and ``durations`` (segments, columns) hold each column's segments.
    Every sequence rule is checked here: no ramp first, finite non-negative
    couplings and durations, and a dwell grid only on a final HOLD of duration 0,
    the grid taking the place of its duration.
    """

    init: SpinState
    kinds: tuple[SegmentKind, ...]
    couplings: np.ndarray
    durations: np.ndarray
    dwell_times: tuple[float, ...] | None = None

    def __post_init__(self):
        kinds = tuple(self.kinds)
        j, dur = np.array(self.couplings, dtype=float), np.array(self.durations, dtype=float)
        if not kinds:
            raise ValueError("sequence needs at least one segment")
        if j.shape[:1] + j.shape[2:] != (len(kinds), 4) or dur.shape != j.shape[:2]:
            raise ValueError(f"{len(kinds)} segments need couplings (segments, columns, 4) and "
                             f"durations (segments, columns), got {j.shape} and {dur.shape}")
        if not j.shape[1]:
            raise ValueError("a sequence stack needs at least one column")
        for name, values in (("exchange couplings", j), ("segment durations", dur)):
            if not np.all((values >= 0) & (values < np.inf)):
                raise ValueError(f"{name} must be finite and non-negative")
        if kinds[0] is SegmentKind.LINEAR_RAMP:
            raise ValueError("a ramp cannot be the first segment (no starting couplings)")
        if self.dwell_times is not None:
            dw = tuple(map(float, self.dwell_times))
            if not dw:
                raise ValueError("a dwell grid needs at least one time")
            if not (all(map(math.isfinite, dw)) and min(dw) >= 0):
                raise ValueError("dwell times must be finite and non-negative")
            if kinds[-1] is not SegmentKind.HOLD:
                raise ValueError("a dwell grid sweeps the final segment, which must be a HOLD")
            if dur[-1].any():
                raise ValueError("a dwell grid sets the final HOLD's duration, which must be 0")
            object.__setattr__(self, "dwell_times", dw)
        j.setflags(write=False)
        dur.setflags(write=False)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "durations", dur)

    @property
    def segments(self) -> tuple[PulseSegment, ...]:
        """Column 0's segments, which ``perfbench/spans.py`` classes a call by."""
        return tuple(PulseSegment(kind, ExchangeConfig(*j), d)
                     for kind, j, d in zip(self.kinds, self.couplings[:, 0], self.durations[:, 0]))


@dataclass(frozen=True)
class SequenceResult:
    """States returned by :func:`run_sequence`.

    ``amplitudes`` holds the states in the invariant sector the sequence
    ran in, shape (n_nodes, n_dwell, d) with ``sector`` the basis of the
    d coordinates; a noiseless run is a one-node ensemble, and without a
    dwell grid the n_dwell axis is 1.  The result of a
    :class:`SequenceStack` has a leading column axis, (n_columns, n_nodes,
    n_dwell, d).  ``weights`` are the quadrature weights of the noise nodes
    (``[1.0]`` without noise), shared by all columns.  Read a result out
    with :func:`rvbsim.readout.ensemble_probabilities`.
    ``clipped_weight`` is the total weight of nodes whose coupling scale
    factor ``1 + offset/f_ref`` was negative and clipped to 0: a float, or
    one per column, shape (n_columns,), for a stack.
    """

    amplitudes: np.ndarray
    sector: Basis
    weights: np.ndarray
    clipped_weight: float | np.ndarray

    @property
    def states(self) -> np.ndarray:
        """Full-space states (..., n_nodes, n_dwell, 16), lifted from the amplitudes on each access."""
        return lift(self.amplitudes, self.sector)


_BOND_STACK = np.stack(
    [_BOND_OPS[Pair.Q12], _BOND_OPS[Pair.Q34], _BOND_OPS[Pair.Q23], _BOND_OPS[Pair.Q14]]
)

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


#: States evolved, or read out, at a time: blocks of a large stack keep its
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
    """Per-bond coupling schedule along the ramp, shape (n, 4)."""
    out = np.empty((len(s), 4))
    floor = 1e-12
    for b in range(4):
        if b0[b] > floor and b1[b] > floor:
            out[:, b] = b0[b] * (b1[b] / b0[b]) ** s
        else:
            # a coupling pinned at zero has no finite-voltage representation;
            # fall back to a linear move for that bond
            out[:, b] = b0[b] + s * (b1[b] - b0[b])
    return out


def _ramp_unitary_once(bonds0, bonds1, duration, n, stack, const=0.0) -> np.ndarray:
    """Product of n fourth-order Magnus steps (two Gauss-Legendre nodes each).

    Step k exponentiates H_eff = (H1+H2)/2 - i (sqrt(3)/12) W2PI dt [H2, H1], with
    H1, H2 = sum_b J_b(s) stack_b + const at s = (k + 1/2 -+ sqrt(3)/6)/n; a
    sector's projected bond stack gives the exact sector block of the propagator.
    Steps are built in blocks of 4096; n is a power of two, so each block reduces
    to one matrix by a pairwise tree.
    """
    dt = duration / n
    dim = stack.shape[1]

    def hamiltonians(s):
        return np.einsum("kb,bij->kij", _interp_bonds(bonds0, bonds1, s), stack) + const

    total = np.eye(dim, dtype=complex)
    for start in range(0, n, 4096):
        k = np.arange(start, min(start + 4096, n)) + 0.5
        h1 = hamiltonians((k - _SQRT3 / 6) / n)
        h2 = hamiltonians((k + _SQRT3 / 6) / n)
        h = 0.5 * (h1 + h2) - (1j * _SQRT3 / 12 * W2PI * dt) * (h2 @ h1 - h1 @ h2)
        tr = np.trace(h, axis1=1, axis2=2).real / dim
        h -= tr[:, None, None] * np.eye(dim)
        w, v = np.linalg.eigh(h)
        phases = np.exp(-1j * W2PI * (w + tr[:, None]) * dt)
        m = (v * phases[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
        while m.shape[0] > 1:
            m = m[1::2] @ m[0::2]
        total = m[0] @ total
    return total


def _ramp_unitary(bonds0, bonds1, duration, stack, probe_state, const=0.0, where=""):
    """Adaptive Magnus ramp propagator, doubling n from 64 until converged.

    Converged means ``probe_state`` moves by less than RAMP_TOL between n/2 and n
    steps; at RAMP_STEP_CAP a RampConvergenceError led by ``where`` names n and residual.
    """
    if duration == 0:
        return np.eye(stack.shape[1], dtype=complex)
    n, residual = 64, np.inf
    psi_prev = _ramp_unitary_once(bonds0, bonds1, duration, n, stack, const) @ probe_state
    while n < RAMP_STEP_CAP:
        n *= 2
        u = _ramp_unitary_once(bonds0, bonds1, duration, n, stack, const)
        psi = u @ probe_state
        residual = np.linalg.norm(psi - psi_prev)
        if residual < RAMP_TOL:
            return u
        psi_prev = psi
    raise RampConvergenceError(
        f"{where}ramp discretization stopped at n={n} steps (cap {RAMP_STEP_CAP}) with residual "
        f"{residual:.3g}, above tol {RAMP_TOL}"
    )


def run_sequence(
    seq: PulseSequence | SequenceStack,
    noise: NoiseModel | None = None,
    *,
    zeeman: ZeemanConfig | None = None,
    noise_reference_mhz: float | np.ndarray | None = None,
) -> SequenceResult:
    """Run a pulse sequence, or a stack of them, optionally over a quasi-static noise ensemble.

    The initial state, in any :class:`~rvbsim.basis.Basis`, evolves in the smallest
    invariant sector holding it (module docstring) that, with ``zeeman``, the Zeeman
    term also maps into itself; the result keeps the amplitudes in that sector.

    A :class:`SequenceStack` runs all its columns in one solve and returns
    a result with a leading column axis; a single :class:`PulseSequence`
    runs as a stack of one and returns its column.  A constant segment of
    duration 0 leaves a column's state exactly as it was.

    With ``noise``, every constant-coupling segment is rescaled per
    quadrature node by ``1 + offset/f_ref``, clipped at 0 (see the module
    docstring); ramps run at nominal couplings.  ``noise_reference_mhz``
    (f_ref) is a scalar or one value per column; by default each column takes
    the singlet-singlet frequency of its final segment's couplings.
    """
    stack = seq if isinstance(seq, SequenceStack) else seq.as_stack()
    n_cols = stack.couplings.shape[1]
    psi16 = lift(stack.init.amplitudes, stack.init.basis)
    zeeman16 = zeeman_full(zeeman) if zeeman is not None else None
    sector, q, qh, bonds = _sector(psi16, zeeman16)
    zh = 0.0 if zeeman16 is None else q @ zeeman16 @ qh
    n_prefix = len(stack.kinds) - (stack.dwell_times is not None)

    if noise is not None:
        if noise_reference_mhz is None:
            j = stack.couplings[-1]
            jx, jy = j[:, 0] + j[:, 1], j[:, 3] + j[:, 2]  # as ExchangeConfig.jx, .jy
            f_ref = np.sqrt(jx**2 + jy**2 - jx * jy)  # f_ss, 0 only at jx = jy = 0
        else:
            f_ref = np.broadcast_to(np.asarray(noise_reference_mhz, dtype=float), (n_cols,))
        if not np.all(f_ref > 0):
            raise ValueError("noise needs a positive reference frequency")
        offsets, weights = noise.quadrature()
        scale = 1.0 + offsets[None, :] / f_ref[:, None]  # (columns, nodes)
        lam = np.maximum(scale, 0.0)
        clipped_weight = np.array([weights[s < 0].sum() for s in scale])
    else:
        # a noiseless run is a one-trajectory ensemble
        lam, weights = np.ones((n_cols, 1)), np.ones(1)
        clipped_weight = np.zeros(n_cols)
    n_nodes = lam.shape[1]
    lam = lam.ravel()

    states = np.tile(q @ psi16, (len(lam), 1))  # (columns x nodes, d) sector coordinates
    for k in range(n_prefix):
        if stack.kinds[k] is SegmentKind.LINEAR_RAMP:
            for c in range(n_cols):  # own step count, probed at the column's first node
                rows = slice(c * n_nodes, (c + 1) * n_nodes)
                u = _ramp_unitary(stack.couplings[k - 1, c], stack.couplings[k, c],
                                  stack.durations[k, c], bonds, states[rows.start], zh,
                                  f"column {c}: " if n_cols > 1 else "")
                states[rows] = states[rows] @ u.T
            # a product of many step unitaries accumulates roundoff in the
            # norm; renormalize to keep the 1e-12 norm contract on states
            states /= np.linalg.norm(states, axis=-1, keepdims=True)
            continue
        dur = np.repeat(stack.durations[k], n_nodes)
        if dur.any():
            moved = _evolve_ensemble(states, stack.couplings[k], bonds, zh, lam, dur[:, None])[:, 0]
            # a zero-length segment keeps its column's state exactly
            states = np.where(dur[:, None] > 0, moved, states)

    if stack.dwell_times is None:
        out = states[:, None, :]
    else:
        out = _evolve_ensemble(states, stack.couplings[-1], bonds, zh, lam,
                               np.asarray(stack.dwell_times)[None, :])
    amplitudes = out.reshape(n_cols, n_nodes, *out.shape[1:])
    if isinstance(seq, SequenceStack):
        return SequenceResult(amplitudes, sector, weights, clipped_weight)
    return SequenceResult(amplitudes[0], sector, weights, float(clipped_weight[0]))
