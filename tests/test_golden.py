"""Golden outputs: the sha256 of every file each figure writes, and of calibration.json.

Every figure function and the closed-loop calibration run at seed 0 twice: with
sizes cut through their own config keys (``SMALL``), about 2 s in all on one
core, and at default parameters, about 0.3 s.  The hashes live in
``golden_sha256.json`` and ``golden_default_sha256.json``; reruns must reproduce
them byte for byte.  The lines ``rvbsim verify`` prints at seeds 0 and 7, with
their times masked, live in ``golden_verify.json``.  After a deliberate output
change, re-bless all three from the repository root with

    PYTHONPATH=src python tests/test_golden.py --bless

and say in CHANGES.md which outputs moved and by how much.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from rvbsim.cli import main
from rvbsim.experiments import FIGURES, run_calibration, run_figure

GOLDEN_PATH = Path(__file__).with_name("golden_sha256.json")
DEFAULT_GOLDEN_PATH = Path(__file__).with_name("golden_default_sha256.json")
VERIFY_GOLDEN_PATH = Path(__file__).with_name("golden_verify.json")

SMALL = {
    "noise.n_samples": 40,
    "readout.n_shots": 100,
    "fig3c.dv_points": 5,
    "fig3c.t_points": 41,
    "fig3e.dvp_points": 6,
    "fig3e.t_points": 61,
    "fig4b.t_points": 44,
    "fig4cd.t_points": 21,
    "fig5a.t_ramp_points": 4,
    "fig5.t_points": 21,
    "fig5ef.tj_points": 11,
    "figs456.dv_points": 5,
    "figS9.t_ramp_points": 5,
    "calibrate.grid_points": 9,
}

PRODUCTS = (*FIGURES, "calibrate")

#: At ``SMALL`` sizes fig4cd's 21-point dwell grid resolves up to 62.5 MHz, so
#: fig4ef's two most negative sweep rows (105 and 68 MHz) read NaN and warn; the
#: seed-0 shots of panel y, column 5 show no spectral peak, so it reads NaN too.
EXPECTED_WARNINGS = {"fig4ef": r"^fig4ef panel ([xy] column [01]: model frequency"
                               r"|y column 5: no spectral peak above the noise floor$)"}


#: Seeds whose ``rvbsim verify`` lines are pinned.
VERIFY_SEEDS = (0, 7)


def product_hashes(name: str, out: Path, overrides=SMALL) -> dict[str, str]:
    """sha256 per output file of one product run at seed 0 with ``overrides`` (None: defaults)."""
    if name == "calibrate":
        run_calibration(out, seed=0, overrides=overrides)
    else:
        run_figure(name, out, seed=0, overrides=overrides)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def verify_lines(seed: int) -> list[str]:
    """The lines ``rvbsim verify --seed <seed>`` prints, each elapsed time masked as ``<t>s``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--seed", str(seed)]) == 0
    return [re.sub(r"\d+\.\ds\b", "<t>s", line) for line in out.getvalue().splitlines()]


def test_golden_table_covers_every_product():
    for path in (GOLDEN_PATH, DEFAULT_GOLDEN_PATH):
        assert sorted(json.loads(path.read_text())) == sorted(PRODUCTS), path.name


@pytest.mark.parametrize("name", PRODUCTS)
def test_golden_outputs(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    if name in EXPECTED_WARNINGS:
        with pytest.warns(RuntimeWarning, match=EXPECTED_WARNINGS[name]):
            hashes = product_hashes(name, tmp_path)
    else:
        hashes = product_hashes(name, tmp_path)
    assert hashes == golden


def test_golden_default_size_outputs(tmp_path):
    # every product at default parameters: full-size map tables and the full fig3e/fig4ef
    # fit stacks, which the SMALL sizes never reach; no product warns there
    golden = json.loads(DEFAULT_GOLDEN_PATH.read_text())
    for name in PRODUCTS:
        assert product_hashes(name, tmp_path / name, overrides=None) == golden[name], name


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_golden_verify_lines(seed):
    assert verify_lines(seed) == json.loads(VERIFY_GOLDEN_PATH.read_text())[str(seed)]


def _write(path: Path, table) -> None:
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        for path, overrides in ((GOLDEN_PATH, SMALL), (DEFAULT_GOLDEN_PATH, None)):
            _write(path, {name: product_hashes(name, Path(tmp) / path.stem / name, overrides)
                          for name in PRODUCTS})
    _write(VERIFY_GOLDEN_PATH, {str(seed): verify_lines(seed) for seed in VERIFY_SEEDS})
