"""Command-line front end: figure, calibrate, verify, and simulate verbs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", type=Path, default=None,
                        help="flat key-value config overriding the built-in defaults")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvbsim",
        description="Four-spin valence-bond simulator: regenerate figure data, "
                    "calibrate a synthetic device, verify acceptance criteria, "
                    "or run ad-hoc pulse sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate one figure's data files")
    fig.add_argument("name", help="figure name (e.g. fig4b); use 'list' to enumerate")
    _add_common(fig)

    cal = sub.add_parser("calibrate", help="run the closed-loop exchange calibration")
    _add_common(cal)

    ver = sub.add_parser("verify", help="run the acceptance and invariant suite")
    _add_common(ver)

    sim = sub.add_parser("simulate", help="run a pulse-sequence file to CSV")
    sim.add_argument("sequence", type=Path, help="pulse-sequence text file")
    _add_common(sim)
    sim.add_argument("--direction", choices=["horizontal", "vertical", "both"],
                     default="both", help="readout direction(s) to tabulate")
    sim.add_argument("--sigma-f", type=float, default=0.0,
                     help="quasi-static frequency noise std (MHz)")
    sim.add_argument("--samples", type=int, default=200, help="noise trajectories")
    sim.add_argument("--shots", type=int, default=0,
                     help="also sample this many readout shots per dwell point")
    return parser


def _load_overrides(path: Path | None) -> dict | None:
    if path is None:
        return None
    from .io import load_config

    return load_config(path)


def cmd_figure(args) -> int:
    from .experiments import FIGURES, run_figure

    if args.name == "list":
        for name in FIGURES:
            print(name)
        return 0
    product = run_figure(args.name, args.out, seed=args.seed, overrides=_load_overrides(args.spec))
    for path in product.files:
        print(path)
    print(f"# {product.name} done in {product.elapsed_s:.1f}s")
    return 0


def cmd_calibrate(args) -> int:
    from .experiments import run_calibration

    report = run_calibration(args.out, seed=args.seed, overrides=_load_overrides(args.spec))
    print(f"center estimate: ({report.center_mv[0]:+.3f}, {report.center_mv[1]:+.3f}) mV "
          f"(true offset ({report.true_offset_mv[0]:+.3f}, {report.true_offset_mv[1]:+.3f}))")
    print(f"balanced sums: jx = {report.j0x_mhz:.2f} MHz (true {report.true_j0x_mhz:.2f}), "
          f"jy = {report.j0y_mhz:.2f} MHz (true {report.true_j0y_mhz:.2f})")
    print(f"worst-case exchange uncertainty: ({report.sigma_jx_mhz:.2f}, "
          f"{report.sigma_jy_mhz:.2f}) MHz for a +-2 mV center precision")
    print(f"iterations: {report.iterations}, converged: {report.converged}")
    return 0 if report.converged else 1


def cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all(seed=args.seed, echo=True)
    failed = [r for r in results if not r.passed]
    print(f"# {len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    from .dynamics import NoiseModel, run_sequence
    from .experiments import ensemble_probabilities
    from .io import load_sequence, write_csv
    from .readout import OUTCOMES, ReadoutConfig, ReadoutDirection, sample_shots

    seq = load_sequence(args.sequence)
    noise = None
    if args.sigma_f > 0:
        noise = NoiseModel(sigma_f=args.sigma_f, n_samples=args.samples, seed=args.seed)
    result = run_sequence(seq, noise)

    t = np.asarray(seq.dwell_times) if seq.dwell_times is not None else np.array([0.0])
    columns: dict[str, np.ndarray] = {"t_ns": t}
    directions = {
        "horizontal": [ReadoutDirection.HORIZONTAL],
        "vertical": [ReadoutDirection.VERTICAL],
        "both": [ReadoutDirection.HORIZONTAL, ReadoutDirection.VERTICAL],
    }[args.direction]
    for direction in directions:
        tag = direction.name.lower()[0]
        probs = ensemble_probabilities(result, direction)
        for k, outcome in enumerate(OUTCOMES):
            columns[f"p_{outcome.lower()}_{tag}"] = probs[:, k]
        if args.shots > 0:
            sampled = np.empty_like(probs)
            for i in range(len(t)):
                cfg = ReadoutConfig(direction, n_shots=args.shots,
                                    seed=args.seed * 1543 + 29 * i)
                sampled[i] = sample_shots(probs[i], cfg).probabilities()
            for k, outcome in enumerate(OUTCOMES):
                columns[f"shots_{outcome.lower()}_{tag}"] = sampled[:, k]

    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / (args.sequence.stem + "_result.csv")
    write_csv(out_path, columns)
    print(out_path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "figure": cmd_figure,
        "calibrate": cmd_calibrate,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
