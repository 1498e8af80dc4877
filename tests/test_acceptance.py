"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints the one-line verdict for its criterion, so a verbose run
shows the same report as ``rvbsim verify``.
"""

import pytest

from rvbsim.acceptance import CHECKS, check_degenerate_formula, format_line


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__.removeprefix("check_"))
def test_acceptance_criterion(check):
    result = check(seed=0)
    print(format_line(result))
    assert result.passed, format_line(result)


def test_degenerate_formula_beat_error_at_seed_0():
    # the exact spectrum gives the beat 0.022419578003542995 MHz, 0.36% off the
    # (dx^2+dy^2)/(4J) law at criterion 4's (J, dx, dy) = (25, 1.2, 0.9)
    assert check_degenerate_formula(0).detail.endswith("beat err 0.36% (tol 1%)")
