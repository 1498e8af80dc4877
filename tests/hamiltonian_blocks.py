"""Hand-written Heisenberg blocks of the singlet and m = -1 triplet sectors.

Independent references for the tests: the sector projections of
``rvbsim.hamiltonians.heisenberg_full`` and the sector runs of
``run_sequence`` are compared against these closed forms, which share no
code with the library.
"""

import numpy as np

from rvbsim.hamiltonians import ExchangeConfig

_SQRT3 = np.sqrt(3.0)


def singlet_block(jx: float, jy: float) -> np.ndarray:
    """Heisenberg Hamiltonian restricted to the 2-dim total-spin-zero subspace.

    In the x-pairing basis::

        [[-jx - jy/4,  sqrt(3)/4 jy],
         [sqrt(3)/4 jy,     -3/4 jy]]

    The eigen-gap is sqrt(jx^2 - jx jy + jy^2).
    """
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
