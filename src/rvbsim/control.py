"""Gate-voltage control of the exchange couplings.

Covers the virtual-gate crosstalk matrices, the exponential
exchange-vs-barrier-voltage model, the compensated symmetric sweep used to
tune ``jx`` at roughly constant ``jy``, and propagation of the
balance-point calibration uncertainty into exchange uncertainties.

The simulator carries physical gate voltages only for round-trip testing
and device configuration; the dynamics consume :class:`ExchangeConfig`,
never physical voltages.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum

import numpy as np

from .hamiltonians import ExchangeConfig

#: Crosstalk matrix mapping virtual plunger voltages (vP1..vP4, vP_SHT1,
#: vP_SHT2) to physical plunger voltages (same order), dimensionless.
PLUNGER_MATRIX = np.array(
    [
        [1.00, -0.28, 0.03, -0.20, -0.14, 0.00],
        [-0.26, 1.00, -0.27, -0.01, 0.00, -0.02],
        [0.02, -0.20, 1.00, -0.29, 0.00, -0.08],
        [-0.48, -0.03, -0.31, 1.00, 0.00, 0.00],
        [-0.12, -0.03, -0.01, -0.02, 1.00, 0.00],
        [0.00, 0.00, -0.12, -0.03, 0.00, 1.00],
    ]
)

#: Crosstalk matrix mapping virtual barrier voltages (vB12, vB34, vB23,
#: vB14) to physical gate voltages (P1..P4, B12, B34, B23, B14, B_SHT1).
BARRIER_MATRIX = np.array(
    [
        [-0.564, 0.042, 0.076, -0.181],
        [-1.296, 0.492, -1.212, 0.713],
        [0.048, -0.554, -0.160, -0.062],
        [0.650, -1.207, 0.954, -1.570],
        [1.000, -0.149, 0.191, -0.457],
        [-0.227, 1.000, -0.560, 0.324],
        [0.232, -0.298, 1.000, -0.228],
        [-0.289, 0.115, -0.318, 1.000],
        [-0.012, 0.015, -0.050, 0.011],
    ]
)

PLUNGER_MATRIX.setflags(write=False)
BARRIER_MATRIX.setflags(write=False)

PLUNGER_INPUTS = ("vP1", "vP2", "vP3", "vP4", "vP_SHT1", "vP_SHT2")
PLUNGER_OUTPUTS = ("P1", "P2", "P3", "P4", "P_SHT1", "P_SHT2")
BARRIER_INPUTS = ("vB12", "vB34", "vB23", "vB14")
BARRIER_OUTPUTS = ("P1", "P2", "P3", "P4", "B12", "B34", "B23", "B14", "B_SHT1")

#: Barrier-voltage operating point (vB12, vB34, vB23, vB14) in mV where the
#: four couplings are approximately equal; used as the sweep reference.
DEFAULT_REFERENCE_POINT = (16.0, -10.5, 0.0, 9.5)


class GateMatrixKind(enum.Enum):
    PLUNGER = "plunger"
    BARRIER = "barrier"


@dataclass(frozen=True)
class VirtualGateMatrix:
    kind: GateMatrixKind
    matrix: np.ndarray
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.output_labels), len(self.input_labels)):
            raise ValueError("matrix shape does not match gate labels")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def default_gate_matrix(kind: GateMatrixKind) -> VirtualGateMatrix:
    if kind is GateMatrixKind.PLUNGER:
        return VirtualGateMatrix(kind, PLUNGER_MATRIX, PLUNGER_INPUTS, PLUNGER_OUTPUTS)
    return VirtualGateMatrix(kind, BARRIER_MATRIX, BARRIER_INPUTS, BARRIER_OUTPUTS)


def load_matrix_table(path, n_columns: int | None = None) -> np.ndarray:
    """Load a crosstalk matrix from a whitespace-separated numeric table.

    Row-major plain text, one matrix row per line; ``#`` starts a comment.
    """
    m = np.atleast_2d(np.loadtxt(path))
    if n_columns is not None and m.shape[1] != n_columns:
        raise ValueError(f"expected {n_columns} columns, table has {m.shape[1]}")
    return m


def virtual_to_physical(gates: VirtualGateMatrix | GateMatrixKind, v_virtual) -> np.ndarray:
    """Physical gate voltages (mV) produced by the virtual voltages (mV)."""
    if isinstance(gates, GateMatrixKind):
        gates = default_gate_matrix(gates)
    v = np.asarray(v_virtual, dtype=float)
    if v.shape != (gates.matrix.shape[1],):
        raise ValueError(
            f"expected {gates.matrix.shape[1]} virtual voltages, got {v.shape}"
        )
    return gates.matrix @ v


#: Exchange sensitivity to a virtual barrier voltage, 1/mV.
DEFAULT_KAPPA = 0.059

#: Fraction of an x-sweep pulse applied with opposite sign on the vertical
#: barriers to hold jy steady.
COMPENSATION_FACTOR = 0.18


@dataclass(frozen=True)
class ExchangeVoltageModel:
    """Exponential coupling-vs-voltage model around a balanced operating point.

    ``j0x``/``j0y`` are the directional sums at balance (MHz); ``kappa`` the
    exponential sensitivity (1/mV).  Anti-symmetric voltage excursions
    ``dvx``/``dvy`` split the couplings as

        j34/j12 = (j0x/2) exp(+-kappa dvx),  j14/j23 = (j0y/2) exp(+-kappa dvy)

    (j34 and j14 grow with positive excursion).  The model is trusted only
    for kappa*|dv| <= 3; beyond that the exponential extrapolates far
    outside the calibrated range and :func:`exchange_from_voltages` refuses.
    """

    j0x: float
    j0y: float
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.j0x < 0 or self.j0y < 0:
            raise ValueError("balanced sums must be non-negative")


MODEL_VALIDITY_LIMIT = 3.0


def _couplings(j0x, j0y, kappa, dvx, dvy) -> np.ndarray:
    """Couplings (j12, j34, j23, j14) in MHz, shape (..., 4); the arguments broadcast."""
    kx, ky = kappa * np.asarray(dvx, dtype=float), kappa * np.asarray(dvy, dtype=float)
    worst = max(np.abs(kx).max(initial=0.0), np.abs(ky).max(initial=0.0))
    if worst > MODEL_VALIDITY_LIMIT:
        raise ValueError(f"kappa*|dv| = {worst:.2f} exceeds the exponential "
                         f"model validity limit {MODEL_VALIDITY_LIMIT}")
    return np.stack(np.broadcast_arrays(j0x / 2 * np.exp(-kx), j0x / 2 * np.exp(+kx),
                                        j0y / 2 * np.exp(-ky), j0y / 2 * np.exp(+ky)), axis=-1)


def exchange_from_voltages(model: ExchangeVoltageModel, dvx: float, dvy: float) -> ExchangeConfig:
    """Exchange couplings at anti-symmetric excursions (dvx, dvy) in mV."""
    return ExchangeConfig(*_couplings(model.j0x, model.j0y, model.kappa, dvx, dvy))


def apply_compensation(dvx_prime: float, factor: float = COMPENSATION_FACTOR) -> np.ndarray:
    """Virtual barrier deltas (vB12, vB34, vB23, vB14) for an x-sweep pulse.

    The sweep pulse goes on both horizontal barriers; a ``-factor`` fraction
    goes on the vertical barriers to cancel crosstalk into jy.
    """
    return np.array([dvx_prime, dvx_prime, -factor * dvx_prime, -factor * dvx_prime])


@dataclass(frozen=True)
class SweepModel:
    """Compensated symmetric sweep: tunes jx while jy stays (nearly) fixed.

    Under a compensated pulse of amplitude ``dvp`` the net exponential drive
    on the horizontal exchange is the sweep amplitude less the compensation
    fraction, and with ``orientation = -1`` a positive pulse weakens jx::

        jx(dvp) = j0x * exp(orientation * (1 - compensation) * kappa * dvp)

    ``jy_slope`` is an optional per-sweep linear drift hook (1/mV) for the
    residual jy variation seen in hardware; the ideal model keeps jy flat.
    """

    model: ExchangeVoltageModel
    compensation: float = COMPENSATION_FACTOR
    orientation: float = -1.0
    jy_slope: float = 0.0

    def sums(self, dvp):
        """(jx, jy) in MHz at sweep amplitude(s) ``dvp`` (mV), each shaped like ``dvp``."""
        dvp = np.asarray(dvp, dtype=float)
        kappa_eff = self.orientation * (1.0 - self.compensation) * self.model.kappa
        jx = self.model.j0x * np.exp(kappa_eff * dvp)
        jy = self.model.j0y * (1.0 + self.jy_slope * dvp)
        return jx, jy

    def config(self, dvp, dvx=0.0, dvy=0.0) -> np.ndarray:
        """Couplings (..., 4) at sweep amplitude ``dvp`` with local excursions, all in mV."""
        return _couplings(*self.sums(dvp), self.model.kappa, dvx, dvy)

    def barrier_point(self, dvp: float) -> np.ndarray:
        """Absolute virtual barrier voltages (mV) at sweep amplitude ``dvp``."""
        return np.asarray(DEFAULT_REFERENCE_POINT) + apply_compensation(dvp, self.compensation)


@dataclass(frozen=True)
class SyntheticDevice:
    """A simulated device whose true balance point is offset from nominal.

    The calibration loop sees only :meth:`config`; the hidden offsets stand
    in for imperfect prior tuning and drift.
    """

    sweep: SweepModel
    offset_dvx: float = 0.0
    offset_dvy: float = 0.0

    def config(self, dvp, dvx=0.0, dvy=0.0) -> np.ndarray:
        """Couplings (..., 4) at nominal excursions (dvx, dvy), which the offsets shift."""
        return self.sweep.config(dvp, dvx - self.offset_dvx, dvy - self.offset_dvy)


@dataclass(frozen=True)
class CalibrationUncertainty:
    """Worst-case offset of the true balance point from its estimate (mV)."""

    dvx0: float = 2.0
    dvy0: float = 2.0


def propagate_calibration_error(
    model: ExchangeVoltageModel, u: CalibrationUncertainty
) -> tuple[float, float]:
    """(sigma_jx, sigma_jy) in MHz from a balance-point offset (dvx0, dvy0).

    Operating at a point offset from true balance biases the extracted
    couplings upward (the oscillation frequency gains quadratic imbalance
    terms), so these are overestimates only:

        sigma_jy = 2 (j0x^2/j0y) kappa^2 dvx0^2 + (j0y^2/j0x) kappa^2 dvy0^2
        sigma_jx = 2 (j0y^2/j0x) kappa^2 dvy0^2 + (j0x^2/j0y) kappa^2 dvx0^2
    """
    if model.j0x <= 0 or model.j0y <= 0:
        raise ValueError("uncertainty propagation requires positive balanced sums")
    ax = (model.kappa * u.dvx0) ** 2
    ay = (model.kappa * u.dvy0) ** 2
    sigma_jy = 2 * model.j0x**2 / model.j0y * ax + model.j0y**2 / model.j0x * ay
    sigma_jx = 2 * model.j0y**2 / model.j0x * ay + model.j0x**2 / model.j0y * ax
    return float(sigma_jx), float(sigma_jy)
