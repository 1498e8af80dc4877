"""Sequential two-pair singlet/triplet readout with shot sampling.

The two parallel pairs are read one after the other (the idle pair is
assumed perfectly isolated); because the pair projectors act on disjoint
dots they commute, so the sequential readout equals the joint projective
measurement.  Readout is ideal: each pair's singlet/triplet outcome is
recorded as it is, and charge-sensor physics and assignment errors are not
modelled.

Batch readout takes states in any of the five invariant sectors a sequence
runs in, the full space among them: for each outcome it contracts the d
sector coordinates with a factor of the outcome projector compressed to the
sector (rank <= d, built once per direction and basis), so a noisy ensemble
is read out without lifting it to 16 dims.  :func:`ensemble_probabilities`
is the one reader of a :class:`~rvbsim.dynamics.SequenceResult`: it reads
the sector amplitudes in their sector and weights the quadrature nodes of
each column, or evaluates a column's closed-form Gaussian average from its
dwell spectrum, for a stacked sweep in blocks of columns.

Shots are drawn per point as multinomial counts of the outcomes, one
draw for a whole stack of points, from the stream :func:`rng` names
by a key such as (seed, stream, panel).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import Basis, DIM_FULL, Pair, pair_singlet_projector, subspace_projector
from .dynamics import BLOCK_STATES, W2PI

#: Joint-outcome order used everywhere: (first pair, second pair).
OUTCOMES = ("SS", "ST", "TS", "TT")

#: Outcome probabilities at or below this are round-off: shot draws take them
#: as exactly 0, and the map files write ``p_ideal`` below it as 0.
PROBABILITY_FLOOR = 1e-15


class ReadoutDirection(enum.Enum):
    """Which pairs are isolated and read, and in what order."""

    HORIZONTAL = (Pair.Q34, Pair.Q12)
    VERTICAL = (Pair.Q23, Pair.Q14)

    @property
    def pairs(self) -> tuple[Pair, Pair]:
        return self.value


@lru_cache(maxsize=None)
def _sector_isometries(direction: ReadoutDirection) -> tuple[np.ndarray, ...]:
    """Orthonormal column bases of the four joint (o1, o2) outcome sectors."""
    first, second = direction.pairs
    p1s = pair_singlet_projector(first)
    p2s = pair_singlet_projector(second)
    eye = np.eye(DIM_FULL)
    sectors = []
    for o1 in (p1s, eye - p1s):
        for o2 in (p2s, eye - p2s):
            joint = o1 @ o2
            w, v = np.linalg.eigh(joint)
            cols = v[:, w > 0.5]
            cols.setflags(write=False)
            sectors.append(cols)
    return tuple(sectors)


@lru_cache(maxsize=None)
def _outcome_factors(direction: ReadoutDirection, basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """Readout of the four outcomes on coordinates in ``basis``: (F, S).

    F stacks, per outcome k, the columns of B_k^T, where B_k^dagger B_k =
    q P_k q^dagger is the outcome projector P_k compressed by the sector
    isometry q (rank <= d; q = I for the full space); S (R, 4) sums each
    outcome's columns, so the probabilities of a row stack ``a`` are
    ``|a @ F|^2 @ S``.
    """
    q = subspace_projector(basis)
    factors = []
    for c in _sector_isometries(direction):
        w, v = np.linalg.eigh((q @ c) @ (q @ c).conj().T)
        keep = w > 1e-14  # drop round-off null directions: rank <= d
        factors.append(v[:, keep].conj() * np.sqrt(w[keep]))
    f = np.concatenate(factors, axis=1)
    s = np.repeat(np.eye(len(OUTCOMES)), [g.shape[1] for g in factors], axis=0)
    f.setflags(write=False)
    s.setflags(write=False)
    return f, s


def pair_probabilities_batch(
    states: np.ndarray, direction: ReadoutDirection, basis: Basis = Basis.FULL16
) -> np.ndarray:
    """Joint outcome probabilities for a stack of states given in ``basis``.

    ``states`` has shape (..., basis.dim): full-space states, or the sector
    amplitudes of a :class:`~rvbsim.dynamics.SequenceResult` with its
    ``sector``; returns (..., 4) in :data:`OUTCOMES` order.
    """
    states = np.asarray(states)
    if states.shape[-1] != basis.dim:
        raise ValueError(
            f"batch readout in {basis.name} expects last dimension {basis.dim}, "
            f"got {states.shape[-1]}"
        )
    f, s = _outcome_factors(direction, basis)
    amps = states @ f
    return (amps.real**2 + amps.imag**2) @ s


def _spectral_probabilities(spectra, direction: ReadoutDirection, basis: Basis) -> np.ndarray:
    """Closed-form Gaussian ensemble average (n, n_dwell, 4) of the columns in ``spectra``.

    With V, w and c a column's dwell eigenvectors, energies and entering
    coordinates, D_jl = W2PI (w_j - w_l) and s = sigma_f / f_ref,
    p_o(t) = sum_jl B^o_jl exp(-i D_jl t) exp(-(D_jl t s)^2 / 2), where
    B^o_jl = c_j c_l^* sum_{f in o} (V^T F)_jf (V^T F)^*_lf and F are the outcome
    factors of :func:`_outcome_factors`.  The pairs j < l are summed as twice the
    real part.  Every sum over the small d, pair and factor axes is an elementwise
    product and sum, so a column's bits do not depend on the others.
    """
    f, s = _outcome_factors(direction, basis)
    w, v = spectra.energies, spectra.vectors
    a = spectra.coords[:, :, None] * (v[..., None] * f[:, None, :]).sum(axis=1)  # (n, d, R)
    j, l = np.triu_indices(w.shape[-1], 1)
    diag = ((a.real**2 + a.imag**2)[..., None] * s).sum(axis=-2).sum(axis=1)  # (n, 4)
    pairs = ((a[:, j] * a[:, l].conj())[..., None] * s).sum(axis=-2)  # (n, pairs, 4)
    gaps = W2PI * (w[:, j] - w[:, l])
    times, spread = spectra.times, spectra.spread
    out = np.empty((len(w), times.shape[-1], 4))
    step = max(1, BLOCK_STATES // (len(j) * times.shape[-1]))
    for i in range(0, len(out), step):
        cols = slice(i, i + step)
        theta = gaps[cols, :, None] * (times if len(times) == 1 else times[cols])[:, None, :]
        decay = np.exp(-1j * theta - 0.5 * (theta * spread[cols, None, None]) ** 2)
        out[cols] = diag[cols, None, :] + 2 * (pairs[cols, :, None, :] * decay[..., None]
                                               ).real.sum(axis=1)
    return out


def ensemble_probabilities(result, direction: ReadoutDirection) -> np.ndarray:
    """Ensemble-averaged joint outcome probabilities (..., n_dwell, 4) of a sequence result.

    A column on the quadrature reads its amplitudes, (n_nodes, n_dwell, d) in
    ``result.sector``, and sums its nodes with ``result.weights``; a noiseless
    result is a one-node ensemble.  A column marked in ``result.exact`` is the
    closed-form Gaussian average of its ``result.spectra``, whatever the node
    count.  The result of a sweep, which has a leading column axis, reads out to
    (n_columns, n_dwell, 4).  Columns are read out in blocks of about
    :data:`~rvbsim.dynamics.BLOCK_STATES` states, or phase factors.
    """
    exact = result.exact.reshape(-1)
    amps = result.quadrature_amplitudes
    n_nodes, n_dwell = amps.shape[1:3]
    quad = np.empty((len(amps), n_dwell * 4))
    step = max(1, BLOCK_STATES // (n_nodes * n_dwell))
    # one (nodes,) x (nodes, n_dwell * 4) product per column
    for i in range(0, len(amps), step):
        quad[i:i + step] = result.weights @ pair_probabilities_batch(
            amps[i:i + step], direction, result.sector).reshape(-1, n_nodes, n_dwell * 4)
    mean = quad.reshape(-1, n_dwell, 4)
    if result.spectra is not None:
        mean = np.empty((len(exact), n_dwell, 4))
        mean[~exact] = quad.reshape(-1, n_dwell, 4)
        mean[exact] = _spectral_probabilities(result.spectra, direction, result.sector)
    return mean.reshape(result.exact.shape + (n_dwell, 4))


@dataclass(frozen=True)
class ShotRecord:
    """Recorded outcome counts, shape (..., 4) in :data:`OUTCOMES` order, n_shots per point."""

    recorded: np.ndarray
    n_shots: int

    def __post_init__(self):
        arr = np.array(self.recorded)  # a copy, so the caller's stays writeable
        if arr.ndim < 1 or arr.shape[-1] != len(OUTCOMES):
            raise ValueError("recorded counts must have shape (..., 4)")
        if np.any(arr.sum(axis=-1) != self.n_shots):
            raise ValueError("recorded counts must sum to n_shots at every point")
        arr.setflags(write=False)
        object.__setattr__(self, "recorded", arr)

    def probabilities(self) -> np.ndarray:
        """Empirical (P_SS, P_ST, P_TS, P_TT) per point; each row sums to 1."""
        return self.recorded / self.n_shots


_KEY_MASK = (1 << 64) - 1


def rng(seed: int, *key: int) -> np.random.Generator:
    """Generator of the independent stream named by ``(seed, *key)``.

    Each part is masked to a non-negative 64-bit int and fed to
    ``np.random.SeedSequence`` as two 32-bit words after the part count, so
    distinct keys give distinct entropy (a plain int list would let
    ``[s]`` and ``[s, 0]``, or ``[2**32 * s]`` and ``[0, s]``, coincide).
    """
    parts = [len(key) + 1] + [int(k) & _KEY_MASK for k in (seed, *key)]
    words = np.array(parts, dtype=np.uint64).view(np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


def sample_shots(probs, n_shots: int, key: int | tuple[int, ...]) -> ShotRecord:
    """Draw ``n_shots`` shots at every point of a (..., 4) probability stack.

    The outcome counts of a point are multinomial in its probabilities ``p``,
    drawn for the whole stack in one call.  ``p`` must be finite, non-negative
    to 1e-12 and sum to 1 to 1e-9; a value at or below
    :data:`PROBABILITY_FLOOR` is set to exactly 0 and the point renormalised,
    so round-off on a forbidden outcome does not change how the draw uses its
    stream.  ``n_shots`` is an int, not a bool.  Deterministic given ``key``,
    an int or a key tuple for :func:`rng`.
    """
    if isinstance(n_shots, bool) or not isinstance(n_shots, (int, np.integer)) or n_shots < 1:
        raise ValueError(f"n_shots must be at least 1 and an integer, got {n_shots!r}")
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or p.shape[-1] != len(OUTCOMES):
        raise ValueError("expected 4 joint outcome probabilities along the last axis")
    # a NaN or an infinity makes the sum NaN or infinite, so it fails the sum test
    bad = ~(np.abs(p.sum(axis=-1) - 1.0) <= 1e-9) | (p < -1e-12).any(axis=-1)
    if bad.any():
        point = np.unravel_index(np.argmax(bad), bad.shape)
        at = f"point {tuple(map(int, point))} has" if point else "got"
        raise ValueError("outcome probabilities must be finite, non-negative and sum to 1; "
                         f"{at} {p[point].tolist()}")
    p = np.where(p <= PROBABILITY_FLOOR, 0.0, p)
    p = p / p.sum(axis=-1, keepdims=True)
    key = key if isinstance(key, tuple) else (key,)
    counts = rng(*key).multinomial(n_shots, p)
    return ShotRecord(recorded=counts, n_shots=n_shots)
