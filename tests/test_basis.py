import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvbsim.basis import (
    Basis,
    Pair,
    PairLabel,
    PairState,
    SpinState,
    change_basis_singlet_xy,
    d_wave,
    pair_product_state,
    pair_singlet_projector,
    s_wave,
    singlet_x,
    singlet_y,
    subspace_projector,
    total_spin_operators,
)

S12 = PairState(Pair.Q12, PairLabel.S)
S34 = PairState(Pair.Q34, PairLabel.S)


def test_singlet_x_is_normalized():
    sx = singlet_x()
    assert_allclose(abs(sx.overlap(sx)), 1.0, atol=1e-12)


def test_singlet_triplet_product_has_no_global_singlet_component():
    # brute-force projector applied to the explicit 16-dim vector
    st = pair_product_state(S12, PairState(Pair.Q34, PairLabel.T_MINUS))
    proj = subspace_projector(Basis.GLOBAL_SINGLET_2)
    assert np.linalg.norm(proj @ st.amplitudes) < 1e-12


def test_singlet_x_y_overlap_is_minus_half():
    # inner product of the explicit 16-dim product vectors
    assert_allclose(singlet_x().overlap(singlet_y()).real, -0.5, atol=1e-12)
    assert_allclose(singlet_x().overlap(singlet_y()).imag, 0.0, atol=1e-12)


def test_overlapping_pairs_rejected():
    with pytest.raises(ValueError, match="overlap"):
        pair_product_state(S12, PairState(Pair.Q23, PairLabel.S))


def test_projectors_have_orthonormal_rows():
    for basis in (Basis.GLOBAL_SINGLET_2, Basis.TRIPLET_MINUS_3, Basis.TRIPLET_MINUS_PLUS_Q_4,
                  Basis.SZ_ZERO_6):
        p = subspace_projector(basis)
        assert p.shape == (basis.dim, 16)
        assert_allclose(p @ p.conj().T, np.eye(basis.dim), atol=1e-12)


def test_projector_full_basis_is_identity():
    # the full space is the fourth sector: its isometry is the real identity
    q = subspace_projector(Basis.FULL16)
    assert q.dtype == np.float64
    assert np.array_equal(q, np.eye(16))


def test_sz_zero_block_is_the_two_down_products():
    # the S_z = 0 block: product kets with two spins down, in index order; it
    # holds the global singlets and the T+ T- product
    q = subspace_projector(Basis.SZ_ZERO_6)
    assert np.array_equal(q, np.eye(16)[[3, 5, 6, 9, 10, 12]])
    _, sz = total_spin_operators()
    assert np.array_equal(q @ sz @ q.T, np.zeros((6, 6)))
    tptm = pair_product_state(PairState(Pair.Q12, PairLabel.T_PLUS),
                              PairState(Pair.Q34, PairLabel.T_MINUS))
    for psi in (singlet_x(), singlet_y(), tptm):
        assert_allclose(q.T @ (q @ psi.amplitudes), psi.amplitudes, rtol=0, atol=0)


def test_triplet_minus_basis_vectors():
    p3 = subspace_projector(Basis.TRIPLET_MINUS_3)
    st = pair_product_state(S12, PairState(Pair.Q34, PairLabel.T_MINUS))
    assert_allclose(p3 @ st.amplitudes, [1, 0, 0], atol=1e-12)

    p4 = subspace_projector(Basis.TRIPLET_MINUS_PLUS_Q_4)
    t0tm = pair_product_state(
        PairState(Pair.Q12, PairLabel.T0), PairState(Pair.Q34, PairLabel.T_MINUS)
    )
    assert_allclose((p4 @ t0tm.amplitudes)[3], 1 / np.sqrt(2), atol=1e-12)


def test_change_basis_singlet_xy_columns():
    e0 = SpinState(Basis.GLOBAL_SINGLET_2, np.array([1.0, 0.0], dtype=complex))
    e1 = SpinState(Basis.GLOBAL_SINGLET_2, np.array([0.0, 1.0], dtype=complex))
    assert_allclose(change_basis_singlet_xy(e0).amplitudes, [-0.5, -np.sqrt(3) / 2], atol=1e-12)
    assert_allclose(change_basis_singlet_xy(e1).amplitudes, [np.sqrt(3) / 2, -0.5], atol=1e-12)


def test_change_basis_is_unitary_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        state = SpinState(Basis.GLOBAL_SINGLET_2, amp)
        out = change_basis_singlet_xy(state)
        assert_allclose(np.linalg.norm(out.amplitudes), 1.0, atol=1e-12)


def test_change_basis_consistent_with_full_space_overlaps():
    # the 2-dim transform must reproduce overlaps with the vertical product
    rng = np.random.default_rng(3)
    sy = singlet_y()
    p = subspace_projector(Basis.GLOBAL_SINGLET_2)
    for _ in range(10):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        full = p.conj().T @ amp
        overlap_full = np.vdot(sy.amplitudes, full)
        coords_y = change_basis_singlet_xy(SpinState(Basis.GLOBAL_SINGLET_2, amp))
        assert_allclose(coords_y.amplitudes[0], overlap_full, atol=1e-12)


def test_spin_state_leaves_the_callers_amplitudes_writeable():
    amp = np.array([1.0, 0.0], dtype=complex)
    state = SpinState(Basis.GLOBAL_SINGLET_2, amp)
    amp[:] = [0.0, 1.0]
    assert state.amplitudes.tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = 0.0


def test_total_spin_operators_are_the_same_read_only_arrays_on_every_call():
    first, again = total_spin_operators(), total_spin_operators()
    for op, same in zip(first, again):
        assert op is same
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0


def test_total_spin_operators_spectra():
    s2, sz = total_spin_operators()
    assert_allclose(s2, s2.conj().T, atol=1e-12)
    assert_allclose(sz, sz.conj().T, atol=1e-12)

    down = np.zeros(16, dtype=complex)
    down[15] = 1.0  # all four spins down
    assert_allclose(sz @ down, -2 * down, atol=1e-12)

    assert_allclose(s2 @ singlet_x().amplitudes, 0.0 * down, atol=1e-12)

    evals = np.sort(np.linalg.eigvalsh(s2))
    values, counts = np.unique(np.round(evals, 9), return_counts=True)
    assert_allclose(values, [0.0, 2.0, 6.0], atol=1e-9)
    assert list(counts) == [2, 9, 5]

    sz_vals = np.unique(np.round(np.linalg.eigvalsh(sz), 9))
    assert_allclose(sz_vals, [-2, -1, 0, 1, 2], atol=1e-9)


def test_s_and_d_wave_probabilities():
    sx, sy = singlet_x(), singlet_y()
    s16, d16 = s_wave(Basis.FULL16), d_wave(Basis.FULL16)
    assert_allclose(abs(sx.overlap(s16)) ** 2, 0.75, atol=1e-12)
    assert_allclose(abs(sy.overlap(s16)) ** 2, 0.75, atol=1e-12)
    assert_allclose(abs(sx.overlap(d16)) ** 2, 0.25, atol=1e-12)
    assert_allclose(abs(sy.overlap(d16)) ** 2, 0.25, atol=1e-12)

    # same numbers from the 2-dim coordinates after the basis change
    s2 = s_wave()
    assert_allclose(abs(s2.amplitudes[0]) ** 2, 0.75, atol=1e-12)
    assert_allclose(abs(change_basis_singlet_xy(s2).amplitudes[0]) ** 2, 0.75, atol=1e-12)


def test_pair_singlet_projector_properties():
    for pair in Pair:
        proj = pair_singlet_projector(pair)
        assert_allclose(proj, proj.conj().T, atol=1e-12)
        assert_allclose(proj @ proj, proj, atol=1e-12)
        assert_allclose(np.trace(proj).real, 4.0, atol=1e-12)


def test_spin_state_validation():
    with pytest.raises(ValueError, match="norm"):
        SpinState(Basis.GLOBAL_SINGLET_2, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        SpinState(Basis.GLOBAL_SINGLET_2, np.zeros(3, dtype=complex))


def test_states_compare_and_hash_by_basis_and_amplitude_values():
    # a dataclass's generated == raised on the ambiguous truth value of the
    # amplitude array, and its hash() could not hash it
    a, b = singlet_x(), singlet_x()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert singlet_x() != singlet_y()
    assert a == SpinState(Basis.FULL16, a.amplitudes.copy())
    global_singlet = SpinState(Basis.GLOBAL_SINGLET_2, [1.0, 0.0])
    assert global_singlet != SpinState(Basis.TRIPLET_MINUS_3, [1.0, 0.0, 0.0])
    assert global_singlet != SpinState(Basis.GLOBAL_SINGLET_2, [0.0, 1.0])
    assert a != a.amplitudes.tolist()
