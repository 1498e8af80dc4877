"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints the one-line verdict for its criterion, so a verbose run
shows the same report as ``rvbsim verify``.
"""

import numpy as np
import pytest

from rvbsim.acceptance import (
    CHECKS,
    _exact_fst,
    _frequency_law_traces,
    check_degenerate_formula,
    format_line,
)
from rvbsim.basis import Basis, SpinState
from rvbsim.dynamics import PulseSequence, f_ss, hold, run_sequence, set_diabatic
from rvbsim.hamiltonians import ExchangeConfig, triplet_block_transformed
from rvbsim.readout import ReadoutDirection, ensemble_probabilities
from rvbsim.readout import rng as stream


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__.removeprefix("check_"))
def test_acceptance_criterion(check):
    result = check(seed=0)
    print(format_line(result))
    assert result.passed, format_line(result)


def test_degenerate_formula_beat_error_at_seed_0():
    # the exact spectrum gives the beat 0.022419578003542995 MHz, 0.36% off the
    # (dx^2+dy^2)/(4J) law at criterion 4's (J, dx, dy) = (25, 1.2, 0.9)
    assert check_degenerate_formula(0).detail.endswith("beat err 0.36% (tol 1%)")


def test_exact_fst_equals_one_eigh_per_config():
    # the batched helper against a per-config reference, including balanced rows
    rng = np.random.default_rng(5)
    couplings = rng.uniform(0.5, 120.0, size=(60, 4))
    couplings[:5, 1] = couplings[:5, 0]
    expected = []
    for row in couplings:
        w, v = np.linalg.eigh(triplet_block_transformed(ExchangeConfig(*row)))
        expected.append(w[np.argmax(np.abs(v[0]))] - w[np.argmax(np.abs(v[1]))])
    assert np.array_equal(_exact_fst(couplings), expected)


@pytest.mark.parametrize("seed", [0, 7])
def test_frequency_law_traces_equal_one_run_per_case(seed):
    # criterion 1's one sweep on 100 grids against its cases run one at a time
    f_law, grids, traces = _frequency_law_traces(seed)
    assert traces.shape == grids.shape == (100, 64)
    jxs, jys = stream(seed, 1).uniform(5.0, 120.0, size=(2, 100))
    init = SpinState(Basis.GLOBAL_SINGLET_2, np.array([1.0, 0.0], dtype=complex))
    for k, (jx, jy) in enumerate(zip(jxs, jys)):
        t = np.linspace(0.0, 3.2e3 / f_ss(jx, jy), 64)
        j = ExchangeConfig.balanced(jx, jy)
        alone = run_sequence(PulseSequence(init, (set_diabatic(j), hold(j, 0.0)), tuple(t)))
        assert f_law[k] == f_ss(jx, jy)
        assert np.array_equal(grids[k], t)
        assert np.array_equal(traces[k],
                              ensemble_probabilities(alone, ReadoutDirection.HORIZONTAL)[:, 0])
