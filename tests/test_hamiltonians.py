import numpy as np
import pytest
from numpy.testing import assert_allclose

from hamiltonian_blocks import singlet_block, triplet_block
from rvbsim.basis import Basis, singlet_x, subspace_projector, total_spin_operators
from rvbsim.hamiltonians import (
    ExchangeConfig,
    ZeemanConfig,
    heisenberg_full,
    triplet_block_split,
    triplet_block_transformed,
    zeeman_full,
    zeeman_sector_elements,
    zeeman_sector_kets,
)


def random_config(rng, lo=1.0, hi=80.0):
    return ExchangeConfig(*rng.uniform(lo, hi, size=4))


def test_exchange_config_derived_quantities():
    j = ExchangeConfig(j12=26, j34=24, j23=30, j14=28)
    assert j.jx == 50
    assert j.jy == 58
    assert j.delta_x == 2
    assert j.delta_y == 2


def test_exchange_config_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        ExchangeConfig(-1, 0, 0, 0)


def test_zero_couplings_give_zero_hamiltonian():
    h = heisenberg_full(ExchangeConfig(0, 0, 0, 0))
    assert_allclose(h, np.zeros((16, 16)), atol=0)


def test_heisenberg_commutes_with_total_spin():
    rng = np.random.default_rng(11)
    s2, sz = total_spin_operators()
    for _ in range(5):
        h = heisenberg_full(random_config(rng))
        assert np.linalg.norm(h @ s2 - s2 @ h) < 1e-12 * np.linalg.norm(h) * np.linalg.norm(s2)
        assert np.linalg.norm(h @ sz - sz @ h) < 1e-10


def test_singlet_expectation_matches_block_diagonal():
    rng = np.random.default_rng(12)
    sx = singlet_x().amplitudes
    for _ in range(10):
        j = random_config(rng)
        h = heisenberg_full(j)
        expect = np.vdot(sx, h @ sx).real
        assert_allclose(expect, -j.jx - j.jy / 4, rtol=1e-12)


def test_singlet_block_values_at_equal_exchange():
    hs = singlet_block(50.0, 50.0)
    assert_allclose(hs, [[-62.5, 21.650635094610966], [21.650635094610966, -37.5]], atol=1e-12)


def test_singlet_block_decoupled_direction():
    hs = singlet_block(40.0, 0.0)
    assert_allclose(hs, np.diag([-40.0, 0.0]), atol=0)


def test_singlet_block_equal_exchange_ground_state():
    w, v = np.linalg.eigh(singlet_block(30.0, 30.0))
    gs = v[:, 0] * np.sign(v[1, 0])  # fix the sign gauge to (-sqrt(3)/2, 1/2)
    assert_allclose(gs, [-np.sqrt(3) / 2, 0.5], atol=1e-12)
    assert_allclose(w[1] - w[0], 30.0, atol=1e-10)


def test_singlet_block_congruent_with_full_hamiltonian():
    # projection of the full Hamiltonian equals the 2x2 block entrywise,
    # for unbalanced couplings too (the sector only sees the sums)
    rng = np.random.default_rng(13)
    p = subspace_projector(Basis.GLOBAL_SINGLET_2)
    for _ in range(10):
        j = random_config(rng)
        projected = p @ heisenberg_full(j) @ p.conj().T
        assert_allclose(projected.real, singlet_block(j.jx, j.jy), atol=1e-11)
        assert np.linalg.norm(projected.imag) < 1e-12
        # and the subspace is closed: no leakage column
        full = p.conj().T @ p
        leak = (np.eye(16) - full) @ heisenberg_full(j) @ p.conj().T
        assert np.linalg.norm(leak) < 1e-10


def test_congruence_check_catches_sign_mutation():
    # sanity: the projected-block comparison is sensitive to an off-diagonal
    # sign error, so the congruence tests above have teeth
    j = ExchangeConfig.balanced(50, 50)
    p = subspace_projector(Basis.GLOBAL_SINGLET_2)
    projected = (p @ heisenberg_full(j) @ p.conj().T).real
    mutated = singlet_block(50, 50) * np.array([[1, -1], [-1, 1]])
    assert not np.allclose(projected, mutated, atol=1e-6)


def test_singlet_gap_formula_random_sweep():
    rng = np.random.default_rng(14)
    for _ in range(100):
        jx, jy = rng.uniform(0.5, 120.0, size=2)
        w = np.linalg.eigvalsh(singlet_block(jx, jy))
        assert_allclose(w[1] - w[0], np.sqrt(jx**2 - jx * jy + jy**2), rtol=1e-10)


def test_triplet_block_congruent_with_full_hamiltonian():
    rng = np.random.default_rng(15)
    p = subspace_projector(Basis.TRIPLET_MINUS_3)
    for _ in range(10):
        j = random_config(rng)
        projected = (p @ heisenberg_full(j) @ p.conj().T).real
        assert_allclose(projected, triplet_block(j), atol=1e-11)
        # eigenvalue congruence
        assert_allclose(
            np.linalg.eigvalsh(projected), np.linalg.eigvalsh(triplet_block(j)), atol=1e-11
        )


def test_triplet_block_transformed_structure():
    j = ExchangeConfig(j12=10, j34=10, j23=20, j14=20)
    hp = triplet_block_transformed(j)
    assert_allclose(hp, np.diag([-10.0, -30.0, -20.0]), atol=1e-12)

    rng = np.random.default_rng(16)
    for _ in range(5):
        jr = random_config(rng)
        h0, v = triplet_block_split(jr)
        assert_allclose(np.diag(np.diag(h0)), h0, atol=0)
        assert_allclose(np.diag(v), np.zeros(3), atol=0)
        assert_allclose(h0, np.diag([-jr.jx / 2, -(jr.jx + jr.jy) / 2, -jr.jy / 2]), atol=1e-12)
        assert_allclose(abs(v[0, 1]), abs(jr.delta_x) / 2, atol=1e-12)
        assert_allclose(abs(v[1, 2]), abs(jr.delta_y) / 2, atol=1e-12)
        # transform is a similarity of the natural-basis block
        t = np.array(
            [[1, -1, 0], [1, 1, 0], [0, 0, np.sqrt(2)]]
        ) / np.sqrt(2)
        assert_allclose(t @ triplet_block(jr) @ t.T, h0 + v, atol=1e-11)


def test_triplet_eigenvalues_match_full_space():
    rng = np.random.default_rng(17)
    p = subspace_projector(Basis.TRIPLET_MINUS_3)
    for _ in range(5):
        j = random_config(rng)
        sub = np.linalg.eigvalsh(triplet_block_transformed(j))
        proj = np.linalg.eigvalsh((p @ heisenberg_full(j) @ p.conj().T).real)
        assert_allclose(sub, proj, atol=1e-11)


def test_zeeman_full_is_diagonal_and_reproduces_element():
    z = ZeemanConfig(b_mt=1.0)
    hz = zeeman_full(z)
    assert_allclose(hz, np.diag(np.diag(hz)), atol=0)
    kets = zeeman_sector_kets()
    elem = np.vdot(kets["1_T0"], hz @ kets["0_S"]).real
    assert_allclose(elem, -0.6998, atol=1e-10)  # 0.5 * 13.996 * (0.14 - 0.24)


def test_zeeman_sector_elements_match_projections():
    z = ZeemanConfig(b_mt=1.0)
    hz = zeeman_full(z)
    kets = zeeman_sector_kets()
    table = zeeman_sector_elements(z)
    assert len(table) == 15
    for (bra, ket), value in table.items():
        direct = np.vdot(kets[bra], hz @ kets[ket])
        assert abs(direct.imag) < 1e-12
        assert_allclose(direct.real, value, atol=1e-12)


def test_zeeman_couplings_vanish_for_equal_g():
    z = ZeemanConfig(b_mt=1.0, g1=0.2, g2=0.2, g3=0.2, g4=0.2)
    for (bra, ket), value in zeeman_sector_elements(z).items():
        if bra != ket:
            assert abs(value) < 1e-14


def test_zeeman_magnitude_bound_at_one_millitesla():
    table = zeeman_sector_elements(ZeemanConfig(b_mt=1.0))
    assert max(abs(v) for v in table.values()) < 4.0


def test_zeeman_quintuplet_element_zero_against_first_singlet():
    z = ZeemanConfig(b_mt=1.0)
    hz = zeeman_full(z)
    kets = zeeman_sector_kets()
    assert abs(np.vdot(kets["2_T0"], hz @ kets["0_S"])) < 1e-14
