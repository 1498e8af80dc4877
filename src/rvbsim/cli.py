"""Command-line front end: figure, calibrate, verify, and simulate verbs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dynamics import MAX_QUADRATURE_NODES, NoiseModel


def _checked(convert, check):
    """Argument type: ``convert`` the text, then report a ValueError of ``check`` as bad usage."""

    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid float value" names it
    return parse


def _shot_count(n: int) -> None:
    """``--shots``: a non-negative shot count (0 draws no shots)."""
    if n < 0:
        raise ValueError(f"must be non-negative, got {n}")


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
    sim.add_argument("--sigma-f", type=_checked(float, NoiseModel), default=0.0,
                     help="quasi-static frequency noise std (MHz)")
    sim.add_argument("--samples", type=_checked(int, lambda n: NoiseModel(0.0, n)), default=16,
                     help="noise ensemble size in Gauss-Hermite quadrature nodes "
                          f"(1..{MAX_QUADRATURE_NODES})")
    sim.add_argument("--shots", type=_checked(int, _shot_count), default=0,
                     help="also sample this many readout shots per dwell point")
    return parser


class _UsageError(Exception):
    """A bad input file or name: :func:`main` prints it in one line and exits 2."""


def _load_overrides(path: Path | None) -> dict | None:
    """The ``--spec`` file's overrides, checked against the config keys."""
    if path is None:
        return None
    from .experiments import resolve_params
    from .io import load_config

    try:
        overrides = load_config(path)
        resolve_params(overrides)
    except (OSError, KeyError, ValueError) as err:
        detail = err.args[0] if isinstance(err, KeyError) else getattr(err, "strerror", None) or err
        raise _UsageError(f"{path}: {detail}") from None
    return overrides


def cmd_figure(args) -> int:
    from .experiments import FIGURES, run_figure

    if args.name == "list":
        for name in FIGURES:
            print(name)
        return 0
    if args.name not in FIGURES:
        raise _UsageError(f"{args.name}: unknown figure; choose from {sorted(FIGURES)}")
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
    from .dynamics import run_sequence
    from .experiments import SHOT_STREAMS
    from .io import load_sequence, write_csv
    from .readout import OUTCOMES, ReadoutDirection, ensemble_probabilities, sample_shots

    noise = None
    if args.sigma_f > 0:
        noise = NoiseModel(sigma_f=args.sigma_f, n_samples=args.samples)
    try:
        seq = load_sequence(args.sequence)
        # a file can load and still not run, e.g. noise on a final segment without exchange
        result = run_sequence(seq, noise)
    except (OSError, ValueError) as err:
        raise _UsageError(f"{args.sequence}: {getattr(err, 'strerror', None) or err}") from None

    t = np.asarray(seq.dwell_times) if seq.dwell_times is not None else np.array([0.0])
    columns: dict[str, np.ndarray] = {"t_ns": t}
    directions = {
        "horizontal": [ReadoutDirection.HORIZONTAL],
        "vertical": [ReadoutDirection.VERTICAL],
        "both": [ReadoutDirection.HORIZONTAL, ReadoutDirection.VERTICAL],
    }[args.direction]
    for panel, direction in enumerate(directions):
        tag = direction.name.lower()[0]
        probs = ensemble_probabilities(result, direction)
        for k, outcome in enumerate(OUTCOMES):
            columns[f"p_{outcome.lower()}_{tag}"] = probs[:, k]
        if args.shots > 0:
            key = (args.seed, SHOT_STREAMS["simulate"], panel, 0)
            sampled = sample_shots(probs, args.shots, key).probabilities()
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
    try:
        return handler(args)
    except _UsageError as err:
        print(f"rvbsim {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
