"""Output checks for the rvbsim benchmark; each failed check counts as a failed operation.

The checks hold across the changes the ROADMAP plans on purpose (ramp
results that move in the last digit, re-derived RNG streams): Monte-Carlo
results are compared against closed forms within Monte-Carlo tolerances,
fits against the model columns written next to them, and only the noiseless
figS4-figS6 maps against a stored reference, to 1e-6.

Regenerate that reference after a deliberate change to those maps with::

    python3 perfbench/checks.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from rvbsim.io import read_csv  # noqa: E402
REFERENCE = HERE / "reference" / "figS456.npz"
REFERENCE_ATOL = 1e-6

#: CSV columns holding probabilities, which must lie in [0, 1]
_PROBABILITY_PREFIXES = ("p_", "probability")
#: %.10g output rounds each probability by up to ~5e-11
_ROUNDING = 1e-9
#: relative agreement of fitted couplings with the model columns
FIG3E_FIT_RTOL = 0.08
FIG4EF_FIT_RTOL = 0.05
#: long-ramp plateau of P_SS and its tolerance on the dwell mean
PLATEAU, PLATEAU_TOL = 0.75, 0.01


def digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _probability_range(out: Path):
    worst = 0.0
    for path in sorted(out.glob("*.csv")):
        for name, col in read_csv(path).items():
            if name.startswith(_PROBABILITY_PREFIXES):
                worst = max(worst, -col.min(), col.max() - 1.0)
    return worst <= _ROUNDING, f"worst excursion outside [0, 1]: {worst:.2e}"


def _joint_sums(out: Path):
    worst = 0.0
    for path in sorted(out.glob("*_result.csv")):
        cols = read_csv(path)
        for tag in ("h", "v"):
            total = sum(cols[f"p_{o}_{tag}"] for o in ("ss", "st", "ts", "tt"))
            worst = max(worst, float(np.abs(total - 1.0).max()))
    return worst <= 4 * _ROUNDING, f"joint outcomes sum to 1 within {worst:.2e}"


def _figS9(out: Path):
    """Zero-ramp rows against the closed form; the longest ramp on the 3/4 plateau."""
    from rvbsim.dynamics import sigma_from_tphi, singlet_singlet_probabilities, visibilities

    params = json.loads((out / "figS9_params.json").read_text())["parameters"]
    jj = 2 * params["fig5.j_pair_mhz"]
    sigma = sigma_from_tphi(params["fig4cd.tphi_ns"])
    # the quasi-static ensemble reaches the Gaussian envelope at ~3/sqrt(n)
    tol = 3 / np.sqrt(params["noise.n_samples"]) * max(visibilities(jj, jj)) / 2
    worst_zero, worst_plateau = 0.0, 0.0
    for init in ("sx", "sy"):
        for readout in ("x", "y"):
            cols = read_csv(out / f"figS9_{init}_read{readout}.csv")
            zero = cols["t_ramp_ns"] == 0.0
            p_return, p_swapped = singlet_singlet_probabilities(jj, jj, cols["t_ns"][zero], sigma)
            same = (init == "sx") == (readout == "x")
            expected = p_return if same else p_swapped
            worst_zero = max(worst_zero, float(np.abs(cols["p_ideal"][zero] - expected).max()))
            longest = cols["t_ramp_ns"] == cols["t_ramp_ns"].max()
            worst_plateau = max(worst_plateau, abs(cols["p_ideal"][longest].mean() - PLATEAU))
    ok = worst_zero <= tol and worst_plateau <= PLATEAU_TOL
    return ok, (f"zero-ramp rows within {worst_zero:.4f} of closed form (tol {tol:.4f}); "
                f"longest ramp mean off 3/4 by {worst_plateau:.4f} (tol {PLATEAU_TOL})")


def _relative_fit_error(cols, pairs, rtol, what):
    worst = max(float(np.abs(cols[fit] / cols[model] - 1.0).max()) for fit, model in pairs)
    return worst <= rtol, f"{what} fits within {worst:.2%} of the model (tol {rtol:.0%})"


def _fig3e(out: Path):
    cols = read_csv(out / "fig3e_exchange.csv")
    return _relative_fit_error(cols, (("jx_fit_mhz", "jx_model_mhz"), ("jy_fit_mhz", "jy_model_mhz")),
                               FIG3E_FIT_RTOL, "fig3e coupling")


def _fig4ef(out: Path):
    cols = read_csv(out / "fig4ef_extraction.csv")
    return _relative_fit_error(cols, (("f_fit_x_mhz", "f_theory_mhz"), ("f_fit_y_mhz", "f_theory_mhz")),
                               FIG4EF_FIT_RTOL, "fig4ef frequency")


def reference_columns(out: Path) -> dict[str, np.ndarray]:
    """The figS4-figS6 map and chevron columns the reference stores."""
    cols = {}
    for path in sorted(out.glob("*.csv")):
        data = read_csv(path)
        key = "probability" if "probability" in data else "p_ideal"
        cols[f"{path.name}:{key}"] = data[key]
    return cols


def _noiseless_maps(out: Path):
    with np.load(REFERENCE) as ref:
        actual = reference_columns(out)
        mine = {k for k in ref.files if k.startswith(out.name + "_")}
        if set(actual) != mine:
            return False, f"files differ from the reference: {sorted(set(actual) ^ mine)}"
        worst = max(float(np.abs(actual[k] - ref[k]).max()) if actual[k].shape == ref[k].shape
                    else np.inf for k in mine)
    return worst <= REFERENCE_ATOL, f"maps within {worst:.1e} of the reference (tol {REFERENCE_ATOL})"


def _calibration(out: Path):
    report = json.loads((out / "calibration.json").read_text())["report"]
    err = np.abs(np.subtract(report["center_mv"], report["true_offset_mv"]))
    unc = np.asarray(report["center_uncertainty_mv"])
    ok = bool(report["converged"]) and bool(np.all(err <= unc))
    return ok, (f"converged {report['converged']}, center error ({err[0]:.4f}, {err[1]:.4f}) mV "
                f"within uncertainty ({unc[0]:.3f}, {unc[1]:.3f}) mV")


def _criterion(out: Path):
    verdict = json.loads((out / "criterion.json").read_text())
    return verdict["passed"], f"criterion {verdict['criterion']} {verdict['name']}"


_BY_LABEL = {
    "figS9": (_figS9,),
    "fig3e": (_fig3e,),
    "fig4ef": (_fig4ef,),
    "figS4": (_noiseless_maps,),
    "figS5": (_noiseless_maps,),
    "figS6": (_noiseless_maps,),
}
_BY_KIND = {
    "simulate": (_joint_sums,),
    "calibrate": (_calibration,),
    "criterion": (_criterion,),
}


def check_op(op, pass_dir: Path) -> list[tuple[str, bool, str]]:
    """Run every check that applies to one operation's outputs.

    Returns ``(check name, passed, detail)``; a check that raises (say, on a
    missing file) is a failed check.
    """
    out = pass_dir / op.label
    results = []
    for check in (_probability_range, *_BY_KIND.get(op.kind, ()), *_BY_LABEL.get(op.label, ())):
        name = f"{op.label}:{check.__name__.lstrip('_')}"
        try:
            ok, detail = check(out)
        except Exception as exc:  # noqa: BLE001 - any error means the outputs are wrong
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def write_reference(out_root: Path) -> None:
    """Run figS4-figS6 as the calibrate_verify workload does and store their maps."""
    import workloads

    cols = {}
    for op in workloads.build("calibrate_verify", 0):
        if op.label in ("figS4", "figS5", "figS6"):
            workloads.execute(op, out_root)
            cols.update(reference_columns(out_root / op.label))
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **{k: v.astype(np.float32) for k, v in cols.items()})


if __name__ == "__main__":
    import shutil

    scratch = HERE.parent / ".bench_out" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    write_reference(scratch)
    shutil.rmtree(scratch)
    print(REFERENCE)
