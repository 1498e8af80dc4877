"""Four-spin Hilbert space, pair singlet/triplet states, and working subspaces.

Conventions (fixed so every vector in the package is reproducible):

* Dots are numbered 1..4 on the 2x2 plaquette.  Horizontal pairs are
  (1,2) and (3,4); vertical pairs are (2,3) and (1,4).
* Full product basis: index ``n = sum_d b_d 2**(d-1)`` with ``b_d = 0``
  for spin-up and ``1`` for spin-down on dot ``d`` (dot 1 is the least
  significant bit).  ``n = 0`` is ``|up,up,up,up>``.
* Two-spin pair states on an ordered pair (i, j), i < j::

      |S>  = (|up_i dn_j> - |dn_i up_j>) / sqrt(2)
      |T0> = (|up_i dn_j> + |dn_i up_j>) / sqrt(2)
      |T+> = |up_i up_j>,   |T-> = |dn_i dn_j>

* ``GLOBAL_SINGLET_2`` (total spin 0), kets in order::

      |0> = |S_12 S_34>
      |1> = (|T+_12 T-_34> + |T-_12 T+_34> - |T0_12 T0_34>) / sqrt(3)

  Note: |1> is the unique total-spin-zero combination of two pair
  triplets.  A variant with coefficient -2 on |T0 T0> appears in some
  writeups; it is not a total-spin eigenstate and is not used here.
* ``TRIPLET_MINUS_3`` (total spin 1, m = -1), kets in order::

      |0> = |S_12 T-_34>
      |1> = |T-_12 S_34>
      |2> = (|T0_12 T-_34> - |T-_12 T0_34>) / sqrt(2)

* ``TRIPLET_MINUS_PLUS_Q_4`` appends the quintuplet member
  ``|Q-> = (|T0_12 T-_34> + |T-_12 T0_34>) / sqrt(2)``.

All states and operators are plain numpy arrays; instances are immutable
after construction and safe to share across parallel workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

DIM_FULL = 16

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)


class Basis(enum.Enum):
    """Declared basis of a state vector; value is the dimension."""

    FULL16 = 16
    GLOBAL_SINGLET_2 = 2
    TRIPLET_MINUS_3 = 3
    TRIPLET_MINUS_PLUS_Q_4 = 4

    @property
    def dim(self) -> int:
        return self.value


class Pair(enum.Enum):
    """Nearest-neighbour dot pairs. Q12/Q34 horizontal, Q23/Q14 vertical."""

    Q12 = (1, 2)
    Q34 = (3, 4)
    Q23 = (2, 3)
    Q14 = (1, 4)

    @property
    def dots(self) -> tuple[int, int]:
        return self.value


class PairLabel(enum.Enum):
    S = "S"
    T0 = "T0"
    T_PLUS = "T+"
    T_MINUS = "T-"


@dataclass(frozen=True)
class PairState:
    """A singlet or triplet on one nearest-neighbour pair."""

    pair: Pair
    label: PairLabel


@dataclass(frozen=True)
class SpinState:
    """Complex amplitude vector over a declared basis, normalized to 1e-12."""

    basis: Basis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitudes shape {amp.shape} does not match basis "
                f"{self.basis.name} (dim {self.basis.dim})"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} outside tolerance 1e-12")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def overlap(self, other: "SpinState") -> complex:
        if other.basis is not self.basis:
            raise ValueError("overlap requires matching bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def probability(self, other: "SpinState") -> float:
        return abs(self.overlap(other)) ** 2


# two-spin amplitudes in the (spin_i, spin_j) occupation convention, 0 = up
_PAIR_AMPLITUDES = {
    PairLabel.S: {(0, 1): 1 / _SQRT2, (1, 0): -1 / _SQRT2},
    PairLabel.T0: {(0, 1): 1 / _SQRT2, (1, 0): 1 / _SQRT2},
    PairLabel.T_PLUS: {(0, 0): 1.0},
    PairLabel.T_MINUS: {(1, 1): 1.0},
}


def pair_product_vector(a: PairState, b: PairState) -> np.ndarray:
    """Full-basis column vector of the tensor product of two pair states."""
    dots_a, dots_b = a.pair.dots, b.pair.dots
    if set(dots_a) & set(dots_b):
        raise ValueError(f"pairs {a.pair.name} and {b.pair.name} overlap")
    amp_a = _PAIR_AMPLITUDES[a.label]
    amp_b = _PAIR_AMPLITUDES[b.label]
    vec = np.zeros(DIM_FULL, dtype=complex)
    for n in range(DIM_FULL):
        bits = [(n >> d) & 1 for d in range(4)]
        ca = amp_a.get((bits[dots_a[0] - 1], bits[dots_a[1] - 1]), 0.0)
        cb = amp_b.get((bits[dots_b[0] - 1], bits[dots_b[1] - 1]), 0.0)
        vec[n] = ca * cb
    return vec


def pair_product_state(a: PairState, b: PairState) -> SpinState:
    """Normalized four-spin product state  |a> (x) |b>  on disjoint pairs."""
    return SpinState(Basis.FULL16, pair_product_vector(a, b))


def _product(l1, p1, l2, p2):
    return pair_product_vector(PairState(p1, PairLabel(l1)), PairState(p2, PairLabel(l2)))


def _global_singlet_kets() -> np.ndarray:
    k0 = _product("S", Pair.Q12, "S", Pair.Q34)
    k1 = (
        _product("T+", Pair.Q12, "T-", Pair.Q34)
        + _product("T-", Pair.Q12, "T+", Pair.Q34)
        - _product("T0", Pair.Q12, "T0", Pair.Q34)
    ) / _SQRT3
    return np.stack([k0, k1])


def _triplet_minus_kets(with_q: bool) -> np.ndarray:
    k0 = _product("S", Pair.Q12, "T-", Pair.Q34)
    k1 = _product("T-", Pair.Q12, "S", Pair.Q34)
    t0tm = _product("T0", Pair.Q12, "T-", Pair.Q34)
    tmt0 = _product("T-", Pair.Q12, "T0", Pair.Q34)
    kets = [k0, k1, (t0tm - tmt0) / _SQRT2]
    if with_q:
        kets.append((t0tm + tmt0) / _SQRT2)
    return np.stack(kets)


_SUBSPACE_KETS = {
    Basis.GLOBAL_SINGLET_2: _global_singlet_kets(),
    Basis.TRIPLET_MINUS_3: _triplet_minus_kets(False),
    Basis.TRIPLET_MINUS_PLUS_Q_4: _triplet_minus_kets(True),
}
for _m in _SUBSPACE_KETS.values():
    _m.setflags(write=False)


def subspace_projector(basis: Basis) -> np.ndarray:
    """Rows are the orthonormal subspace kets: maps full 16-dim -> dim(basis).

    ``P @ P.conj().T`` is the identity on the subspace.
    """
    if basis is Basis.FULL16:
        raise ValueError("projector is only defined for proper subspaces")
    return _SUBSPACE_KETS[basis].conj()


def project(state: SpinState, basis: Basis) -> np.ndarray:
    """Coordinates of a full-space state in a subspace basis (not renormalized)."""
    if state.basis is not Basis.FULL16:
        raise ValueError("project expects a full-space state")
    return subspace_projector(basis) @ state.amplitudes


def lift(coords: np.ndarray, basis: Basis) -> np.ndarray:
    """Full-space vector of subspace coordinates."""
    return subspace_projector(basis).conj().T @ np.asarray(coords, dtype=complex)


# coordinates of the x-pairing kets in the y-pairing basis: column k holds
# |k_x> expressed in {|0_y>, |1_y>}.  The map is a rotation by -120 degrees.
SINGLET_XY_MATRIX = np.array([[-0.5, _SQRT3 / 2], [-_SQRT3 / 2, -0.5]])
SINGLET_XY_MATRIX.setflags(write=False)


def change_basis_singlet_xy(state: SpinState) -> SpinState:
    """Re-express a 2-dim global-singlet state from x-pairing to y-pairing coordinates.

    The basis kets obey ``|0_x> = -1/2 |0_y> - sqrt(3)/2 |1_y>`` and
    ``|1_x> = sqrt(3)/2 |0_y> - 1/2 |1_y>``; the transform is unitary.
    """
    if state.basis is not Basis.GLOBAL_SINGLET_2:
        raise ValueError("change_basis_singlet_xy expects a 2-dim global-singlet state")
    return SpinState(Basis.GLOBAL_SINGLET_2, SINGLET_XY_MATRIX @ state.amplitudes)


_SZ1 = np.diag([0.5, -0.5])
_SP1 = np.array([[0.0, 1.0], [0.0, 0.0]])  # |dn> -> |up>
_SX1 = 0.5 * (_SP1 + _SP1.T)
_SY1 = -0.5j * (_SP1 - _SP1.T)


def single_spin_operator(op: np.ndarray, dot: int) -> np.ndarray:
    """Embed a one-spin operator acting on ``dot`` (1..4) into the full space."""
    if dot not in (1, 2, 3, 4):
        raise ValueError("dot must be 1..4")
    out = np.array([[1.0 + 0j]])
    for d in (4, 3, 2, 1):  # dot 1 is the least significant kron factor
        out = np.kron(out, op if d == dot else np.eye(2))
    return out


def spin_vector_operators(dot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for one dot in the full space, hbar = 1, eigenvalues +-1/2."""
    return (
        single_spin_operator(_SX1, dot),
        single_spin_operator(_SY1, dot),
        single_spin_operator(_SZ1, dot),
    )


def total_spin_operators() -> tuple[np.ndarray, np.ndarray]:
    """(S_tot^2, S_z) on the full space.

    Eigenvalues of S_z are {-2,...,2}; eigenvalues of S_tot^2 are {0, 2, 6}
    with multiplicities 2, 9, 5.
    """
    comps = [sum(spin_vector_operators(d)[c] for d in range(1, 5)) for c in range(3)]
    s2 = sum(c @ c for c in comps)
    return np.real_if_close(s2), np.real_if_close(comps[2])


def pair_singlet_projector(pair: Pair) -> np.ndarray:
    """Rank-4 projector: singlet on ``pair`` tensor identity on the other dots."""
    i, j = pair.dots
    amp = _PAIR_AMPLITUDES[PairLabel.S]
    proj = np.zeros((DIM_FULL, DIM_FULL), dtype=complex)
    for n in range(DIM_FULL):
        for m in range(DIM_FULL):
            bn = [(n >> d) & 1 for d in range(4)]
            bm = [(m >> d) & 1 for d in range(4)]
            rest_n = [b for d, b in enumerate(bn, start=1) if d not in (i, j)]
            rest_m = [b for d, b in enumerate(bm, start=1) if d not in (i, j)]
            if rest_n != rest_m:
                continue
            cn = amp.get((bn[i - 1], bn[j - 1]), 0.0)
            cm = amp.get((bm[i - 1], bm[j - 1]), 0.0)
            proj[n, m] = cn * np.conj(cm)
    return proj


def singlet_x() -> SpinState:
    """|S_12 S_34>, the horizontal singlet-pair product."""
    return pair_product_state(PairState(Pair.Q12, PairLabel.S), PairState(Pair.Q34, PairLabel.S))


def singlet_y() -> SpinState:
    """|S_14 S_23>, the vertical singlet-pair product."""
    return pair_product_state(PairState(Pair.Q14, PairLabel.S), PairState(Pair.Q23, PairLabel.S))


def s_wave(basis: Basis = Basis.GLOBAL_SINGLET_2) -> SpinState:
    """Equal-exchange ground state, coordinates (-sqrt(3)/2, 1/2) in the x-pairing basis."""
    coords = np.array([-_SQRT3 / 2, 0.5], dtype=complex)
    if basis is Basis.GLOBAL_SINGLET_2:
        return SpinState(basis, coords)
    if basis is Basis.FULL16:
        return SpinState(basis, lift(coords, Basis.GLOBAL_SINGLET_2))
    raise ValueError("s_wave lives in the global-singlet subspace")


def d_wave(basis: Basis = Basis.GLOBAL_SINGLET_2) -> SpinState:
    """Equal-exchange excited state, coordinates (1/2, sqrt(3)/2) in the x-pairing basis."""
    coords = np.array([0.5, _SQRT3 / 2], dtype=complex)
    if basis is Basis.GLOBAL_SINGLET_2:
        return SpinState(basis, coords)
    if basis is Basis.FULL16:
        return SpinState(basis, lift(coords, Basis.GLOBAL_SINGLET_2))
    raise ValueError("d_wave lives in the global-singlet subspace")
