"""Four-spin resonating-valence-bond simulator for a 2x2 quantum dot array."""

from .basis import (
    Basis,
    Pair,
    PairLabel,
    PairState,
    SpinState,
    change_basis_singlet_xy,
    d_wave,
    pair_product_state,
    s_wave,
    singlet_x,
    singlet_y,
    subspace_projector,
    total_spin_operators,
)
from .hamiltonians import (
    DEFAULT_G_FACTORS,
    MU_B_OVER_H,
    ExchangeConfig,
    ZeemanConfig,
    heisenberg_full,
    triplet_block_split,
    triplet_block_transformed,
    zeeman_full,
    zeeman_sector_elements,
)
from .control import (
    CalibrationUncertainty,
    ExchangeVoltageModel,
    GateMatrixKind,
    SweepModel,
    SyntheticDevice,
    apply_compensation,
    exchange_from_voltages,
    load_matrix_table,
    propagate_calibration_error,
    virtual_to_physical,
)
from .dynamics import (
    NoiseModel,
    PulseSegment,
    PulseSequence,
    SegmentKind,
    SequenceResult,
    dephasing_envelope,
    evolve,
    exchange_pulse,
    f_ss,
    f_st_perturbative,
    ground_state_probabilities,
    hold,
    linear_ramp,
    p_st_degenerate,
    run_sequence,
    set_diabatic,
    sigma_from_tphi,
    singlet_singlet_probabilities,
    tphi_from_sigma,
    visibilities,
)
from .readout import (
    ReadoutDirection,
    ShotRecord,
    sample_shots,
)
from .fitting import (
    CalibrationMap,
    EllipseCenter,
    FitResult,
    FrequencyMinimum,
    find_ellipse_center,
    find_frequency_minimum,
    fit_damped_cosine,
)

__version__ = "0.1.0"
