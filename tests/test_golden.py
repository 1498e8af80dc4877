"""Golden outputs: the sha256 of every file each figure writes, and of calibration.json.

Every figure function and the closed-loop calibration run at seed 0 with sizes cut
through their own config keys (``SMALL``), about 2 s in all on one core.  The hashes
live in ``golden_sha256.json``; reruns must reproduce them byte for byte.  After a
deliberate output change, re-bless them from the repository root with

    PYTHONPATH=src python tests/test_golden.py --bless

and say in CHANGES.md which outputs moved and by how much.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rvbsim.experiments import FIGURES, run_calibration, run_figure

GOLDEN_PATH = Path(__file__).with_name("golden_sha256.json")

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


def product_hashes(name: str, out: Path) -> dict[str, str]:
    """sha256 per output file of one product run at seed 0 with ``SMALL`` sizes."""
    if name == "calibrate":
        run_calibration(out, seed=0, overrides=SMALL)
    else:
        run_figure(name, out, seed=0, overrides=SMALL)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_golden_table_covers_every_product():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(PRODUCTS)


@pytest.mark.parametrize("name", PRODUCTS)
def test_golden_outputs(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    if name in EXPECTED_WARNINGS:
        with pytest.warns(RuntimeWarning, match=EXPECTED_WARNINGS[name]):
            hashes = product_hashes(name, tmp_path)
    else:
        hashes = product_hashes(name, tmp_path)
    assert hashes == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: product_hashes(name, Path(tmp) / name) for name in PRODUCTS}
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
