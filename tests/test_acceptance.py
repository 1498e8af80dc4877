"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints the one-line verdict for its criterion, so a verbose run
shows the same report as ``rvbsim verify``.
"""

import numpy as np
import pytest

from rvbsim.acceptance import CHECKS, _fit_beat_frequency, format_line
from rvbsim.dynamics import p_st_degenerate


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__.removeprefix("check_"))
def test_acceptance_criterion(check):
    result = check(seed=0)
    print(format_line(result))
    assert result.passed, format_line(result)


@pytest.mark.parametrize("j, dx, dy, beat", [
    (25.0, 1.2, 0.9, 0.022419578003542995),  # criterion 4: best start inside the grid
    (60.25, -2.00, -4.81, None),  # exact beat 0.1118 MHz: best start on the last grid point
])
def test_beat_fit_refuses_a_start_on_its_grid_edge(j, dx, dy, beat):
    t = np.arange(0.0, 60000.0, 8.0)
    args = (t, p_st_degenerate(j, dx, dy, t), j / 2 + (dx**2 + dy**2) * 0.75 / j)
    if beat is None:
        with pytest.raises(ValueError, match=r"edge of its splitting grid \[0.005, 0.12\] MHz"):
            _fit_beat_frequency(*args)
    else:
        assert _fit_beat_frequency(*args) == beat
