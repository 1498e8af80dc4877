"""Heisenberg and Zeeman Hamiltonians for the 2x2 array, plus the double-dot energy model.

Energy unit is MHz (energy / h) throughout; magnetic fields are in mT.
Time-evolution phase conventions live in :mod:`rvbsim.dynamics`.

The Heisenberg term uses spin-1/2 operators with eigenvalues +-1/2, so a
single coupled pair has singlet energy -J and triplet energy 0:

    H = sum_bonds J_ij (S_i . S_j - 1/4),   bonds: (1,2), (3,4), (2,3), (1,4)

Spin-orbit and hyperfine interactions are not modelled as Hamiltonian
terms; measured magnitude bounds (anticrossing gap <= 2 MHz at 1 mT,
hyperfine < 0.48 MHz) are carried as documentation on the configs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    Basis,
    Pair,
    PairLabel,
    PairState,
    pair_product_vector,
    spin_vector_operators,
    subspace_projector,
)

#: Bohr magneton over Planck constant, MHz per mT.
MU_B_OVER_H = 13.996

#: g-factors (g1, g2, g3, g4) of the four dots used as defaults.
DEFAULT_G_FACTORS = (0.14, 0.24, 0.23, 0.26)

_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class ExchangeConfig:
    """The four nearest-neighbour exchange couplings, MHz (energy/h).

    Derived combinations: ``jx = j12 + j34``, ``jy = j14 + j23``,
    ``delta_x = j12 - j34``, ``delta_y = j23 - j14``.
    """

    j12: float
    j34: float
    j23: float
    j14: float

    def __post_init__(self):
        for name in ("j12", "j34", "j23", "j14"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative exchange coupling {name}={getattr(self, name)}")

    @property
    def jx(self) -> float:
        return self.j12 + self.j34

    @property
    def jy(self) -> float:
        return self.j14 + self.j23

    @property
    def delta_x(self) -> float:
        return self.j12 - self.j34

    @property
    def delta_y(self) -> float:
        return self.j23 - self.j14

    @classmethod
    def balanced(cls, jx: float, jy: float) -> "ExchangeConfig":
        """Configuration with equal couplings within each direction."""
        return cls(j12=jx / 2, j34=jx / 2, j23=jy / 2, j14=jy / 2)

    @classmethod
    def from_directional(cls, jx, jy, delta_x=0.0, delta_y=0.0) -> "ExchangeConfig":
        return cls(
            j12=(jx + delta_x) / 2,
            j34=(jx - delta_x) / 2,
            j23=(jy + delta_y) / 2,
            j14=(jy - delta_y) / 2,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.j12, self.j34, self.j23, self.j14])


@dataclass(frozen=True)
class ZeemanConfig:
    """In-plane field (mT) and per-dot g-factors.

    Hyperfine fields are not modelled; the measured bound on the induced
    Zeeman-like noise is below 0.48 MHz, an order below the couplings used here.
    """

    b_mt: float = 1.0
    g1: float = DEFAULT_G_FACTORS[0]
    g2: float = DEFAULT_G_FACTORS[1]
    g3: float = DEFAULT_G_FACTORS[2]
    g4: float = DEFAULT_G_FACTORS[3]

    @property
    def g(self) -> tuple[float, float, float, float]:
        return (self.g1, self.g2, self.g3, self.g4)


@dataclass(frozen=True)
class DoubleDotModel:
    """Singlet/triplet energies of one detuned double dot.

    ``tc`` is the tunnel coupling (MHz), ``sum_g`` the g-factor sum of the
    pair, ``b_mt`` the field.  The measured upper bound on the spin-orbit
    gap at the S/T- anticrossing is 2 MHz at 1 mT; it is a documented
    magnitude, not a Hamiltonian term.
    """

    tc: float
    sum_g: float
    b_mt: float

    def __post_init__(self):
        if self.tc <= 0:
            raise ValueError("tunnel coupling must be positive")


_BONDS = {Pair.Q12: (1, 2), Pair.Q34: (3, 4), Pair.Q23: (2, 3), Pair.Q14: (1, 4)}


def _bond_operator(i: int, j: int) -> np.ndarray:
    si = spin_vector_operators(i)
    sj = spin_vector_operators(j)
    op = sum(si[c] @ sj[c] for c in range(3)) - 0.25 * np.eye(16)
    return np.ascontiguousarray(op.real)


_BOND_OPS = {pair: _bond_operator(*dots) for pair, dots in _BONDS.items()}
for _op in _BOND_OPS.values():
    _op.setflags(write=False)


def heisenberg_full(j: ExchangeConfig) -> np.ndarray:
    """Full 16x16 Heisenberg Hamiltonian (MHz).

    Hermitian, commutes with S_tot^2 and S_z; only the four
    nearest-neighbour bonds appear (no diagonal bonds).
    """
    return (
        j.j12 * _BOND_OPS[Pair.Q12]
        + j.j34 * _BOND_OPS[Pair.Q34]
        + j.j23 * _BOND_OPS[Pair.Q23]
        + j.j14 * _BOND_OPS[Pair.Q14]
    )


def singlet_block(jx: float, jy: float) -> np.ndarray:
    """Heisenberg Hamiltonian restricted to the 2-dim total-spin-zero subspace.

    In the x-pairing basis::

        [[-jx - jy/4,  sqrt(3)/4 jy],
         [sqrt(3)/4 jy,     -3/4 jy]]

    The eigen-gap is sqrt(jx^2 - jx jy + jy^2).
    """
    if jx < 0 or jy < 0:
        raise ValueError("couplings must be non-negative")
    return np.array(
        [
            [-jx - jy / 4, _SQRT3 / 4 * jy],
            [_SQRT3 / 4 * jy, -0.75 * jy],
        ]
    )


def triplet_block(j: ExchangeConfig) -> np.ndarray:
    """Heisenberg Hamiltonian in the natural m = -1 triplet basis (3x3).

    Basis order {|S_12 T-_34>, |T-_12 S_34>, (|T0_12 T-_34> - |T-_12 T0_34>)/sqrt(2)}.
    The sign of the delta_y coupling follows from these ket definitions
    (it equals the projection of the full Hamiltonian entrywise).
    """
    jx, jy, dx, dy = j.jx, j.jy, j.delta_x, j.delta_y
    c = dy / (2 * np.sqrt(2.0))
    return np.array(
        [
            [-(jx + dx) / 2 - jy / 4, -jy / 4, c],
            [-jy / 4, -(jx - dx) / 2 - jy / 4, c],
            [c, c, -jy / 2],
        ]
    )


_TRIPLET_SUMDIFF = np.array(
    [
        [1 / np.sqrt(2), -1 / np.sqrt(2), 0],
        [1 / np.sqrt(2), 1 / np.sqrt(2), 0],
        [0, 0, 1.0],
    ]
)  # rows: difference, sum, third ket


def triplet_block_transformed(j: ExchangeConfig) -> np.ndarray:
    """Triplet-subspace Hamiltonian in the sum/difference basis.

    Basis {(|0>-|1>)/sqrt(2), (|0>+|1>)/sqrt(2), |2>} of :func:`triplet_block`.
    Splits as a diagonal part carrying jx, jy and an off-diagonal part
    carrying only delta_x, delta_y; see :func:`triplet_block_split`.
    """
    h0, v = triplet_block_split(j)
    return h0 + v


def triplet_block_split(j: ExchangeConfig) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal part, imbalance part) of :func:`triplet_block_transformed`."""
    jx, jy, dx, dy = j.jx, j.jy, j.delta_x, j.delta_y
    h0 = np.diag([-jx / 2, -(jx + jy) / 2, -jy / 2])
    v = np.array(
        [
            [0.0, -dx / 2, 0.0],
            [-dx / 2, 0.0, dy / 2],
            [0.0, dy / 2, 0.0],
        ]
    )
    return h0, v


def zeeman_full(z: ZeemanConfig) -> np.ndarray:
    """Full 16x16 Zeeman Hamiltonian (MHz), diagonal in the product basis."""
    diag = np.zeros(16)
    for n in range(16):
        for d, g in enumerate(z.g, start=1):
            spin = 0.5 if ((n >> (d - 1)) & 1) == 0 else -0.5
            diag[n] += g * spin
    return np.diag(z.b_mt * MU_B_OVER_H * diag)


def _unpolarized_triplet_kets() -> dict[str, np.ndarray]:
    # m = 0 triplet sector reached from the global singlets via g-factor differences
    def prod(l1, p1, l2, p2):
        return pair_product_vector(PairState(p1, PairLabel(l1)), PairState(p2, PairLabel(l2)))

    return {
        "0_T0": prod("S", Pair.Q12, "T0", Pair.Q34),
        "1_T0": prod("T0", Pair.Q12, "S", Pair.Q34),
        "2_T0": (prod("T+", Pair.Q12, "T-", Pair.Q34) - prod("T-", Pair.Q12, "T+", Pair.Q34))
        / np.sqrt(2.0),
    }


def zeeman_sector_kets() -> dict[str, np.ndarray]:
    """Named 16-dim kets used in :func:`zeeman_sector_elements`."""
    singlets = subspace_projector(Basis.GLOBAL_SINGLET_2).conj()
    tm = subspace_projector(Basis.TRIPLET_MINUS_PLUS_Q_4).conj()
    kets = {"0_S": singlets[0], "1_S": singlets[1]}
    kets.update(_unpolarized_triplet_kets())
    kets.update({"0_Tm": tm[0], "1_Tm": tm[1], "2_Tm": tm[2], "Qm": tm[3]})
    return kets


def zeeman_sector_elements(z: ZeemanConfig) -> dict[tuple[str, str], float]:
    """The 15 closed-form Zeeman matrix elements between total-spin sectors.

    Keys are (bra, ket) names matching :func:`zeeman_sector_kets`:
    ``0_S``/``1_S`` span the global singlet space, ``0_T0``..``2_T0`` the
    unpolarized (m = 0) triplet states they couple to, ``0_Tm``..``2_Tm``
    the natural m = -1 triplet basis, and ``Qm`` the quintuplet member.
    All couplings are driven by g-factor differences and vanish when the
    four g-factors are equal; values are MHz.
    """
    e = z.b_mt * MU_B_OVER_H
    g1, g2, g3, g4 = z.g
    s3, s6, s8 = 2 * _SQRT3, np.sqrt(6.0), 2 * np.sqrt(2.0)
    return {
        ("0_T0", "0_S"): 0.5 * e * (g3 - g4),
        ("1_T0", "0_S"): 0.5 * e * (g1 - g2),
        ("2_T0", "0_S"): 0.0,
        ("0_T0", "1_S"): e / s3 * (g2 - g1),
        ("1_T0", "1_S"): e / s3 * (g4 - g3),
        ("2_T0", "1_S"): e / s6 * (g1 + g2 - g3 - g4),
        ("0_Tm", "0_Tm"): -0.5 * e * (g3 + g4),
        ("1_Tm", "0_Tm"): 0.0,
        ("2_Tm", "0_Tm"): e / s8 * (g1 - g2),
        ("1_Tm", "1_Tm"): -0.5 * e * (g1 + g2),
        ("2_Tm", "1_Tm"): e / s8 * (g4 - g3),
        ("2_Tm", "2_Tm"): -0.25 * e * (g1 + g2 + g3 + g4),
        ("Qm", "2_Tm"): 0.25 * e * (g1 + g2 - g3 - g4),
        ("Qm", "1_Tm"): e / s8 * (g3 - g4),
        ("Qm", "0_Tm"): e / s8 * (g1 - g2),
    }


def double_dot_energies(m: DoubleDotModel, eps: float) -> tuple[float, float, float, float]:
    """(E_S, E_T0, E_T+, E_T-) at detuning ``eps`` (MHz), (1,1) sector.

    E_S = eps/2 - sqrt(eps^2/4 + 2 tc^2); the triplets are flat with the
    polarized ones split by the pair Zeeman energy.
    """
    e_s = eps / 2 - np.sqrt(eps**2 / 4 + 2 * m.tc**2)
    e_z = (m.sum_g / 2) * MU_B_OVER_H * m.b_mt
    return (float(e_s), 0.0, float(e_z), float(-e_z))


def find_st_anticrossing(m: DoubleDotModel, eps_max: float = 1000.0) -> float | None:
    """Detuning where the singlet crosses T- within (0, eps_max], else None.

    E_S(eps) = -e_z (e_z the pair Zeeman energy) squares to the unique root
    eps* = (2 tc^2 - e_z^2) / e_z, as the gap E_S - E_T- rises with eps.  With
    e_z <= 0 or e_z >= sqrt(2) tc there is none; larger tunnel coupling pushes
    it out of the modelled range: the singlet then stays the ground state.
    """
    e_z = double_dot_energies(m, 0.0)[2]
    if e_z <= 0:
        return None
    eps = (2 * m.tc**2 - e_z**2) / e_z
    return float(eps) if 0 < eps <= eps_max else None
