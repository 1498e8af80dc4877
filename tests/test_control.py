import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvbsim.control import (
    BARRIER_MATRIX,
    CalibrationUncertainty,
    DEFAULT_KAPPA,
    ExchangeVoltageModel,
    GateMatrixKind,
    PLUNGER_MATRIX,
    SweepModel,
    SyntheticDevice,
    apply_compensation,
    exchange_from_voltages,
    load_matrix_table,
    propagate_calibration_error,
    virtual_to_physical,
)
from rvbsim.hamiltonians import ExchangeConfig, triplet_block_transformed


def test_gate_matrix_shapes_and_diagonal():
    assert PLUNGER_MATRIX.shape == (6, 6)
    assert BARRIER_MATRIX.shape == (9, 4)
    assert_allclose(np.diag(PLUNGER_MATRIX), np.ones(6), atol=0)


def test_virtual_to_physical_known_entries():
    out = virtual_to_physical(GateMatrixKind.BARRIER, [1.0, 0.0, 0.0, 0.0])
    assert_allclose(out[0], -0.564, atol=1e-12)  # P1 response to vB12
    out = virtual_to_physical(GateMatrixKind.PLUNGER, [1, 0, 0, 0, 0, 0])
    assert_allclose(out[1], -0.26, atol=1e-12)  # P2 response to vP1
    assert_allclose(
        virtual_to_physical(GateMatrixKind.BARRIER, np.zeros(4)), np.zeros(9), atol=0
    )


def test_virtual_to_physical_length_mismatch():
    with pytest.raises(ValueError, match="virtual voltages"):
        virtual_to_physical(GateMatrixKind.BARRIER, np.zeros(5))


def test_load_matrix_table_round_trip(tmp_path):
    path = tmp_path / "barrier.txt"
    with open(path, "w") as fh:
        fh.write("# custom barrier map\n")
        for row in BARRIER_MATRIX:
            fh.write(" ".join(f"{x:.6f}" for x in row) + "\n")
    loaded = load_matrix_table(path, n_columns=4)
    assert_allclose(loaded, BARRIER_MATRIX, atol=1e-12)
    with pytest.raises(ValueError, match="columns"):
        load_matrix_table(path, n_columns=6)


def test_exchange_from_voltages_balance_point():
    model = ExchangeVoltageModel(j0x=50.0, j0y=40.0)
    j = exchange_from_voltages(model, 0.0, 0.0)
    assert_allclose([j.j12, j.j34, j.j23, j.j14], [25, 25, 20, 20], atol=1e-12)


def test_exchange_from_voltages_split_values():
    model = ExchangeVoltageModel(j0x=50.0, j0y=50.0)
    j = exchange_from_voltages(model, 10.0, 0.0)
    assert_allclose(j.j34, 25 * np.exp(0.59), rtol=1e-12)  # ~45.10 MHz
    assert_allclose(j.j12, 25 * np.exp(-0.59), rtol=1e-12)
    assert_allclose(j.j34, 45.0997, atol=2e-4)


def test_exchange_imbalance_linearization():
    # first-order expansion: delta_x ~ -j0x * kappa * dvx
    model = ExchangeVoltageModel(j0x=50.0, j0y=50.0)
    dv = 0.05
    j = exchange_from_voltages(model, dv, 0.0)
    assert_allclose(j.delta_x, -model.j0x * model.kappa * dv, rtol=1e-3)
    assert j.delta_y == 0


def test_exchange_sum_is_cosh():
    model = ExchangeVoltageModel(j0x=50.0, j0y=50.0)
    for dv in np.linspace(-20, 20, 11):
        j = exchange_from_voltages(model, dv, 0.0)
        assert_allclose(j.jx, 50 * np.cosh(model.kappa * dv), rtol=1e-12)
        assert j.jx >= 50.0


def test_imbalance_monotone_decreasing():
    model = ExchangeVoltageModel(j0x=50.0, j0y=50.0)
    dvs = np.linspace(-30, 30, 25)
    deltas = [exchange_from_voltages(model, dv, 0.0).delta_x for dv in dvs]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert_allclose(deltas[12], 0.0, atol=1e-12)


def test_exchange_model_validity_guard():
    model = ExchangeVoltageModel(j0x=50.0, j0y=50.0)
    with pytest.raises(ValueError, match="validity"):
        exchange_from_voltages(model, 3.01 / DEFAULT_KAPPA, 0.0)


def test_apply_compensation_values():
    assert_allclose(apply_compensation(0.0), np.zeros(4), atol=0)
    assert_allclose(apply_compensation(20.0), [20, 20, -3.6, -3.6], atol=1e-12)
    assert_allclose(apply_compensation(-20.0), [-20, -20, 3.6, 3.6], atol=1e-12)


def test_propagate_calibration_error_values():
    model = ExchangeVoltageModel(j0x=50.0, j0y=50.0)
    zero = propagate_calibration_error(model, CalibrationUncertainty(dvx0=0.0, dvy0=0.0))
    assert zero == (0.0, 0.0)

    sx, sy = propagate_calibration_error(model, CalibrationUncertainty(dvx0=2.0, dvy0=2.0))
    expected = 3 * 50 * DEFAULT_KAPPA**2 * 4  # 2.0886 MHz
    assert_allclose(sy, expected, rtol=1e-12)
    assert_allclose(sx, expected, rtol=1e-12)
    assert_allclose(sy, 2.0886, atol=1e-4)

    sx2, sy2 = propagate_calibration_error(model, CalibrationUncertainty(dvx0=4.0, dvy0=4.0))
    assert_allclose(sy2, 4 * sy, rtol=1e-12)

    with pytest.raises(ValueError):
        propagate_calibration_error(ExchangeVoltageModel(j0x=0.0, j0y=50.0),
                                    CalibrationUncertainty())


def _exact_fst(j):
    h = triplet_block_transformed(j)
    w, v = np.linalg.eigh(h)
    i0 = int(np.argmax(np.abs(v[0, :])))
    i1 = int(np.argmax(np.abs(v[1, :])))
    return w[i0] - w[i1]


@pytest.mark.parametrize("j0x,j0y", [(50, 50), (80, 40), (30, 60)])
def test_error_propagation_matches_gap_deviation_oracle(j0x, j0y):
    # brute force: worst exchange overestimate over the +-dv calibration square,
    # computed from the exact 3-level gap with exact exponential couplings
    dv = 2.0
    model = ExchangeVoltageModel(j0x=float(j0x), j0y=float(j0y))
    worst = 0.0
    for ox in np.linspace(-dv, dv, 9):
        for oy in np.linspace(-dv, dv, 9):
            j = exchange_from_voltages(model, -ox, -oy)
            worst = max(worst, 2 * _exact_fst(j) - j.jy)
    _, sigma_jy = propagate_calibration_error(model, CalibrationUncertainty(dvx0=dv, dvy0=dv))
    assert abs(sigma_jy - worst) / worst < 0.20
    assert sigma_jy > 0  # overestimation only


def test_sweep_model_range_and_flat_jy():
    sweep = SweepModel(ExchangeVoltageModel(j0x=46.0, j0y=50.0))
    jx_lo, jy_lo = sweep.sums(26.0)
    jx_hi, jy_hi = sweep.sums(-20.0)
    assert jx_lo < 46.0 < jx_hi
    assert jy_lo == jy_hi == 50.0
    jxs = [sweep.sums(dvp)[0] for dvp in np.linspace(-20, 26, 24)]
    assert all(a > b for a, b in zip(jxs, jxs[1:]))  # monotone in the pulse


def test_sweep_model_drift_hook():
    sweep = SweepModel(ExchangeVoltageModel(j0x=46.0, j0y=50.3), jy_slope=0.00431)
    assert abs(sweep.sums(-20.0)[1] - 46.0) < 0.5
    assert abs(sweep.sums(26.0)[1] - 56.0) < 0.5


def test_sweep_barrier_point_uses_compensation():
    sweep = SweepModel(ExchangeVoltageModel(j0x=46.0, j0y=50.0))
    point = sweep.barrier_point(20.0)
    assert_allclose(point, np.array([16.0, -10.5, 0.0, 9.5]) + [20, 20, -3.6, -3.6], atol=1e-12)


def test_synthetic_device_hides_offset():
    sweep = SweepModel(ExchangeVoltageModel(j0x=46.0, j0y=50.0))
    device = SyntheticDevice(sweep, offset_dvx=3.0, offset_dvy=-1.5)
    j = ExchangeConfig(*device.config(0.0, dvx=3.0, dvy=-1.5))
    assert_allclose(j.delta_x, 0.0, atol=1e-12)
    assert_allclose(j.delta_y, 0.0, atol=1e-12)
    assert ExchangeConfig(*device.config(0.0)).delta_x != 0.0


def test_sweep_and_device_grids_equal_the_scalar_law_bit_for_bit():
    sweep = SweepModel(ExchangeVoltageModel(j0x=46.0, j0y=50.0), jy_slope=0.00431)
    device = SyntheticDevice(sweep, offset_dvx=1.3, offset_dvy=-2.1)
    dvx, dvy = np.linspace(-8.0, 8.0, 7), np.linspace(-8.0, 8.0, 5) + 0.37
    for dvp in (-20.0, 0.0, 26.0):
        local = ExchangeVoltageModel(*sweep.sums(dvp), kappa=sweep.model.kappa)
        grid = sweep.config(dvp, dvx[:, None], dvy[None, :])
        shifted = device.config(dvp, dvx[:, None], dvy[None, :])
        assert grid.shape == shifted.shape == (7, 5, 4)
        for i, x in enumerate(dvx):
            for k, y in enumerate(dvy):
                assert np.array_equal(grid[i, k], exchange_from_voltages(local, x, y).as_array())
                assert np.array_equal(shifted[i, k], exchange_from_voltages(
                    local, x - device.offset_dvx, y - device.offset_dvy).as_array())
    # one grid point past kappa |dv| = 3 refuses the whole grid
    past = np.append(dvx, 3.0 / sweep.model.kappa + 0.01)
    with pytest.raises(ValueError, match="exceeds the exponential model validity limit"):
        sweep.config(0.0, past, 0.0)
    with pytest.raises(ValueError, match="exceeds the exponential model validity limit"):
        device.config(0.0, 0.0, device.offset_dvy - past)
