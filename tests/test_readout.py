import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rvbsim.basis import (
    Basis,
    Pair,
    PairLabel,
    PairState,
    SpinState,
    pair_product_state,
    pair_singlet_projector,
    s_wave,
    singlet_x,
    subspace_projector,
)
from rvbsim.dynamics import NoiseModel, PulseSequence, hold, run_sequence
from rvbsim.hamiltonians import ExchangeConfig, ZeemanConfig
from rvbsim.readout import (
    OUTCOMES,
    PROBABILITY_FLOOR,
    ReadoutDirection,
    ShotRecord,
    ensemble_probabilities,
    pair_probabilities_batch,
    rng,
    sample_shots,
)


def random_state(rng):
    amp = rng.normal(size=16) + 1j * rng.normal(size=16)
    return SpinState(Basis.FULL16, amp / np.linalg.norm(amp))


def test_singlet_x_horizontal_readout():
    probs = pair_probabilities_batch(singlet_x().amplitudes, ReadoutDirection.HORIZONTAL)
    assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)


def test_singlet_x_vertical_readout():
    probs = pair_probabilities_batch(singlet_x().amplitudes, ReadoutDirection.VERTICAL)
    assert_allclose(probs[0], 0.25, atol=1e-12)  # |<S_y|S_x>|^2
    assert_allclose(probs.sum(), 1.0, atol=1e-12)


def test_s_wave_first_pair_singlet_probability():
    state = s_wave(Basis.FULL16)
    for direction in ReadoutDirection:
        probs = pair_probabilities_batch(state.amplitudes, direction)
        assert_allclose(probs[0] + probs[1], 0.75, atol=1e-12)  # P(first = S)
        assert_allclose(probs[0], 0.75, atol=1e-12)  # both-singlet outcome


def test_probabilities_sum_to_one_on_random_states():
    rng = np.random.default_rng(31)
    for _ in range(20):
        state = random_state(rng)
        for direction in ReadoutDirection:
            probs = pair_probabilities_batch(state.amplitudes, direction)
            assert_allclose(probs.sum(), 1.0, atol=1e-12)
            assert np.all(probs > -1e-14)


def test_sequential_equals_joint_measurement():
    # oracle: apply the two commuting pair projectors one after the other
    rng = np.random.default_rng(32)
    eye = np.eye(16)
    for direction in ReadoutDirection:
        first, second = direction.pairs
        p1 = pair_singlet_projector(first)
        p2 = pair_singlet_projector(second)
        assert np.linalg.norm(p1 @ p2 - p2 @ p1) < 1e-12
        for _ in range(10):
            psi = random_state(rng).amplitudes
            seq = []
            for o1 in (p1, eye - p1):
                psi1 = o1 @ psi  # unnormalized post-measurement branch
                for o2 in (p2, eye - p2):
                    seq.append(np.linalg.norm(o2 @ psi1) ** 2)
            probs = pair_probabilities_batch(psi, direction)
            assert_allclose(probs, seq, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Basis)), st.sampled_from(list(ReadoutDirection)),
       st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_sector_readout_matches_lifted_readout(basis, direction, n_samples, n_dwell, seed):
    # reading sector amplitudes through the compressed outcome factors equals
    # reading the lifted 16-dim states through the pair projectors
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n_samples, n_dwell, basis.dim, 2)) @ [1, 1j]
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    lifted = amps if basis is Basis.FULL16 else amps @ subspace_projector(basis).conj()
    first, second = (pair_singlet_projector(p) for p in direction.pairs)
    eye = np.eye(16)
    expected = np.stack([np.linalg.norm(lifted @ (o1 @ o2).T, axis=-1) ** 2
                         for o1 in (first, eye - first) for o2 in (second, eye - second)],
                        axis=-1)
    probs = pair_probabilities_batch(amps, direction, basis)
    assert probs.shape == (n_samples, n_dwell, 4)
    assert_allclose(probs, expected, rtol=0, atol=1e-12)
    assert_allclose(pair_probabilities_batch(lifted, direction), expected, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="last dimension"):
        pair_probabilities_batch(np.zeros((n_dwell, basis.dim + 1)), direction, basis)


def test_state_in_subspace_rejected():
    # subspace coordinates are read only with their basis named
    with pytest.raises(ValueError, match="FULL16 expects last dimension 16, got 2"):
        pair_probabilities_batch(s_wave().amplitudes, ReadoutDirection.HORIZONTAL)


_ST_PRODUCT = pair_product_state(PairState(Pair.Q12, PairLabel.S),
                                 PairState(Pair.Q34, PairLabel.T_MINUS))
#: spans the S_z = 0 and -1 blocks, so it runs in 16 dims also under a field
_MIXED_SZ = SpinState(Basis.FULL16, (singlet_x().amplitudes + _ST_PRODUCT.amplitudes) / np.sqrt(2))


@pytest.mark.parametrize("init, zeeman, sector", [
    (singlet_x(), None, Basis.GLOBAL_SINGLET_2),
    (_ST_PRODUCT, None, Basis.TRIPLET_MINUS_3),
    (_ST_PRODUCT, ZeemanConfig(), Basis.TRIPLET_MINUS_PLUS_Q_4),
    (_MIXED_SZ, ZeemanConfig(), Basis.FULL16),
    (singlet_x(), ZeemanConfig(), Basis.SZ_ZERO_6),
])
def test_ensemble_probabilities_is_weighted_projector_readout_of_full_states(init, zeeman, sector):
    # oracle: weights @ |P_k psi|^2 on the full-space lift, P_k the joint outcome projectors
    j0, j1 = ExchangeConfig(12.0, 31.0, 7.0, 22.0), ExchangeConfig(25.0, 18.0, 40.0, 9.0)
    seq = PulseSequence(init=init, segments=(hold(j0, 17.0), hold(j1, 0.0)),
                        dwell_times=(0.0, 6.5, 23.0))
    noise = NoiseModel(sigma_f=1.5, n_samples=5)
    res = run_sequence(seq, noise, zeeman=zeeman)
    # the timed first hold rescales each node: every run here is on the quadrature
    assert not res.exact and res.sector is sector and res.states.shape == (5, 3, 16)
    eye = np.eye(16)
    for direction in ReadoutDirection:
        first, second = (pair_singlet_projector(p) for p in direction.pairs)
        node_probs = np.stack([np.linalg.norm(res.states @ (o1 @ o2).T, axis=-1) ** 2
                               for o1 in (first, eye - first) for o2 in (second, eye - second)],
                              axis=-1)
        expected = np.einsum("n,ndk->dk", res.weights, node_probs)
        assert_allclose(ensemble_probabilities(res, direction), expected, rtol=0, atol=1e-12)


def test_sample_shots_perfect_fidelity_pure_outcome():
    rec = sample_shots([1.0, 0.0, 0.0, 0.0], 100, 1)
    assert rec.n_shots == 100
    assert_allclose(rec.probabilities(), [1, 0, 0, 0], atol=0)


def test_sample_shots_uniform_law_of_large_numbers():
    rec = sample_shots([0.25, 0.25, 0.25, 0.25], 40000, 2)
    sigma = np.sqrt(0.25 * 0.75 / rec.n_shots)
    assert np.all(np.abs(rec.probabilities() - 0.25) < 3 * sigma)
    assert rec.recorded.sum() == 40000


def test_sample_shots_deterministic_given_seed():
    probs = np.tile([0.4, 0.1, 0.3, 0.2], (50, 1))

    def counts(seed):
        return sample_shots(probs, 500, seed).recorded

    for seed in (7, (7, 3, 1, 4)):
        assert np.array_equal(counts(seed), counts(seed))
    assert not np.array_equal(counts((7, 3, 1, 4)), counts((7, 3, 1, 5)))


def test_rng_keys_name_distinct_streams():
    # a plain SeedSequence int list maps [s] and [s, 0], and [2**32 s] and [0, s], to
    # one stream; the helper's fixed-width words and leading part count do not
    def first(*key):
        return tuple(rng(*key).integers(0, 2**63, size=2))

    keys = [(5,), (5, 0), (5, 0, 0), (5 * 2**32,), (0, 5), (0, 5, 0), (2**64 - 1,), (7, 1, 0, 3)]
    assert len({first(*k) for k in keys}) == len(keys)
    assert first(-1) == first(2**64 - 1)  # keys are masked to non-negative 64-bit ints
    assert first(7, 1, 0, 3) == first(7, 1, 0, 3)


def test_sample_shots_stack_is_multinomial_in_recorded_probabilities():
    # one draw for a (columns, points, 4) stack: every point gets n_shots shots
    # whose mean frequencies follow its probabilities
    p = np.random.default_rng(4).dirichlet(np.ones(4), size=(3, 40))
    rec = sample_shots(p, 20000, (1, 2))
    assert rec.recorded.shape == (3, 40, 4) and rec.n_shots == 20000
    assert np.all(rec.recorded.sum(axis=-1) == 20000)
    expected = p
    z = (rec.probabilities() - expected) / np.sqrt(expected * (1 - expected) / rec.n_shots)
    assert np.abs(z).max() < 5 and abs(z.mean()) < 0.2 and 0.8 < z.std() < 1.2
    with pytest.raises(ValueError, match="last axis"):
        sample_shots(np.full((5, 3), 1 / 3), 20000, (1, 2))
    with pytest.raises(ValueError, match="sum to 1"):
        sample_shots(np.full((5, 4), 0.3), 20000, (1, 2))


@pytest.mark.parametrize("probs, where", [
    ([np.nan, 0.5, 0.25, 0.25], r"got \[nan, 0\.5, 0\.25, 0\.25\]"),
    ([[0.25] * 4, [0.25] * 4, [np.inf, 0.0, 0.0, 0.0]], r"point \(2,\) has \[inf, 0\.0, 0\.0, 0\.0\]"),
    ([[[0.25] * 4, [0.5, np.nan, 0.5, 0.0]], [[np.nan] * 4] * 2], r"point \(0, 1\) has \[0\.5, nan,"),
])
def test_sample_shots_rejects_non_finite_probabilities_naming_the_point(probs, where):
    # a NaN passed the sum and sign checks and reached numpy's multinomial, which
    # raised "pvals < 0, pvals > 1 or pvals contains NaNs"
    with pytest.raises(ValueError, match="must be finite, non-negative and sum to 1; " + where):
        sample_shots(probs, 100, (3, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 3), st.floats(5e-324, PROBABILITY_FLOOR),
       st.integers(1, 2000), st.integers(0, 2**32 - 1))
def test_round_off_on_a_forbidden_outcome_leaves_the_counts(key, forbidden, eps, n_shots, seed):
    # Generator.multinomial uses its stream differently for an exact 0: without the
    # floor, 1e-37 in place of a 0 changed nearly every count drawn under the key
    p = np.random.default_rng(seed).dirichlet(np.ones(3), size=12)
    exact = np.insert(p, forbidden, 0.0, axis=-1)
    rounded = exact.copy()
    rounded[:, forbidden] = eps
    rounded /= rounded.sum(axis=-1, keepdims=True)
    assert np.array_equal(sample_shots(rounded, n_shots, (key, 5)).recorded,
                          sample_shots(exact, n_shots, (key, 5)).recorded)


def test_shot_record_standard_errors_vectorised():
    rec = sample_shots(np.tile([0.5, 0.2, 0.2, 0.1], (2, 3, 1)), 500, 11)
    p = rec.probabilities()
    assert p.shape == (2, 3, 4)
    assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="sum to n_shots"):
        ShotRecord(np.array([1, 2, 3, 4]), n_shots=9)


def test_sample_shots_needs_a_shot():
    with pytest.raises(ValueError, match="n_shots must be at least 1"):
        sample_shots([0.25, 0.25, 0.25, 0.25], 0, 1)


@pytest.mark.parametrize("n_shots", [2.5, 3.0, True, "3"])
def test_sample_shots_rejects_a_shot_count_that_is_not_an_integer(n_shots):
    # 2.5 used to fail later with "recorded counts must sum to n_shots", and True drew a shot
    with pytest.raises(ValueError, match=f"^n_shots must be at least 1 and an integer, "
                                         f"got {n_shots!r}$"):
        sample_shots([0.25, 0.25, 0.25, 0.25], n_shots, 1)
    assert sample_shots([0.25, 0.25, 0.25, 0.25], np.int64(3), 1).n_shots == 3


def test_shot_record_leaves_the_callers_counts_writeable():
    counts = np.array([[1, 2, 3, 4]])
    rec = ShotRecord(counts, n_shots=10)
    counts[0, 0] = 5
    assert rec.recorded[0, 0] == 1
    with pytest.raises(ValueError, match="read-only"):
        rec.recorded[0, 0] = 5
    assert OUTCOMES == ("SS", "ST", "TS", "TT")
