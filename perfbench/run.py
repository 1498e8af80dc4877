#!/usr/bin/env python3
"""rvbsim benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds`` and
reports the end-to-end metrics (median pass wall time, interpreter set-up
time, peak RSS, share of operations that passed).  Times are taken at a
reference host speed: a fixed numpy + Python kernel that does not use rvbsim
is timed before and after every timed step, and the step's wall time is
scaled by the kernel's nominal over its measured time, because shared hosts
switch between speed states for seconds to minutes at a time.  Raw wall
times are printed and recorded next to the scaled ones.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.  Every pass is
checked (see checks.py); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Samples, quartiles,
the environment and the spans go to ``.bench_out/<workload>-seed<n>-trace<t>/``.
See perfbench/README.md for the workloads and what each metric predicts.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS/OpenMP thread; must be set before numpy loads
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}

_LAYER_METRICS = {
    "experiments.self_s": "s",
    "acceptance.self_s": "s",
    **{f"dynamics.{cls}.{what}": unit
       for cls in ("ramp", "ramp_full", "const_noisy", "const_clean")
       for what, unit in (("calls", "count"), ("busy_s", "s"))},
    "dynamics.states_out": "count",
    "readout.batch.calls": "count",
    "readout.batch.busy_s": "s",
    "readout.batch.states": "count",
    "readout.shots.calls": "count",
    "readout.shots.busy_s": "s",
    "readout.shots.count": "count",
    "fitting.cosine.calls": "count",
    "fitting.cosine.busy_s": "s",
    "fitting.cosine.failed": "count",
    "fitting.ellipse.calls": "count",
    "fitting.ellipse.busy_s": "s",
    "fitting.fmin.busy_s": "s",
    "control.busy_s": "s",
    "io.write.busy_s": "s",
    "io.bytes": "B",
    "trace.overhead_s": "s",
}

#: a fresh interpreter importing everything the CLI verbs need
SETUP_CODE = ("import rvbsim, rvbsim.cli, rvbsim.experiments, rvbsim.acceptance, rvbsim.io; "
              "rvbsim.cli.build_parser()")
SETUP_SAMPLES = 5

_REFERENCE_RNG = np.random.default_rng(0)
_REFERENCE_H = _REFERENCE_RNG.standard_normal((32, 16, 16))
_REFERENCE_H = _REFERENCE_H + _REFERENCE_H.transpose(0, 2, 1)
#: nominal reference-kernel time, so scaled times stay close to seconds
REFERENCE_NOMINAL_S = 0.1


def reference_time() -> float:
    """Wall time of a fixed kernel shaped like rvbsim's work (small batched
    eigh, matmul, exp and a Python loop) but independent of it."""
    start = time.perf_counter()
    for _ in range(60):
        w, v = np.linalg.eigh(_REFERENCE_H)
        v @ (np.exp(1j * w)[:, :, None] * v.transpose(0, 2, 1))
        acc = 0
        for i in range(3000):
            acc += i * i
    return time.perf_counter() - start


class SpeedScaledClock:
    """Times steps at the reference host speed.

    The reference kernel runs at the start and then after any step that ends
    at least :attr:`INTERVAL_S` of step time after the last reference run (and
    in :meth:`close`).  Each step's wall time is scaled by nominal / mean of
    the two reference times that bracket it; :attr:`raw` and :attr:`scaled`
    hold the step times so far.
    """

    INTERVAL_S = 1.0

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._ref = reference_time()

    def step(self, fn, *args, **kwargs) -> None:
        start = time.perf_counter()
        try:
            fn(*args, **kwargs)
        finally:
            self._pending.append(time.perf_counter() - start)
            if sum(self._pending) >= self.INTERVAL_S:
                self._flush()

    def close(self) -> None:
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        ref = reference_time()
        factor = REFERENCE_NOMINAL_S / ((self._ref + ref) / 2)
        self.raw += self._pending
        self.scaled += [t * factor for t in self._pending]
        self._pending = []
        self._ref = ref


def per_layer_units(products) -> dict[str, str]:
    return {**{f"{p}.wall_s": "s" for p in products}, **_LAYER_METRICS}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ramp_prep", "sweep", "calibrate_verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def measure_setup() -> tuple[list[float], list[float]]:
    """(raw, speed-scaled) wall times of fresh interpreters importing rvbsim;
    a first one, which compiles bytecode, is not counted."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    clock = SpeedScaledClock()
    for _ in range(SETUP_SAMPLES):
        clock.step(subprocess.run, cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    clock.close()
    return clock.raw, clock.scaled


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import scipy

    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cpu_pinning": "none: the harness neither pins CPUs nor controls their frequency, "
                       "so shared hosts add run-to-run spread",
    }


class Tally:
    """Attempted and failed operations: workload commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)


def _execute(op, pass_dir: Path, tally: Tally, tracer) -> None:
    import workloads

    try:
        if tracer is None:
            workloads.execute(op, pass_dir)
        else:
            with tracer.span(op.product):
                workloads.execute(op, pass_dir)
    except Exception:  # noqa: BLE001 - a failed command is counted, the run goes on
        tally.add(False, op.label, traceback.format_exc())
    else:
        tally.add(True, op.label)


def run_pass(ops, pass_dir: Path, tally: Tally, tracer=None) -> tuple[float, float]:
    """Run every operation once; returns the pass's (raw, speed-scaled) wall time."""
    clock = SpeedScaledClock()
    for op in ops:
        clock.step(_execute, op, pass_dir, tally, tracer)
    clock.close()
    return sum(clock.raw), sum(clock.scaled)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rvbsim" / "__init__.py").is_file():
        print(f"error: no rvbsim sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    # verify's exchange-range check calibrates into a temporary directory
    tempfile.tempdir = str(run_dir / "tmp")
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads

    setup_raw, setup = measure_setup() if not args.trace else ([], [])
    ops = workloads.build(args.workload, args.seed)
    tally = Tally()
    walls: dict[bool, list[float]] = {False: [], True: []}  # speed-scaled
    raw_walls: dict[bool, list[float]] = {False: [], True: []}
    layer_samples: list[dict] = []
    traced_spans: list = []
    first_digest = None
    start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        pass_dir = run_dir / f"pass{k}"
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            sites = tracer.patched_sites()
            try:
                raw, wall = run_pass(ops, pass_dir, tally, tracer)
            finally:
                tracer.uninstall()
            tally.add(spans.all_restored(sites), "tracer restored every wrapped function")
            layer_samples.append(tracer.layer_metrics())
            traced_spans = tracer.spans
        else:
            raw, wall = run_pass(ops, pass_dir, tally)
        walls[traced].append(wall)
        raw_walls[traced].append(raw)

        digest = checks.digest(pass_dir)
        if first_digest is None:
            first_digest = digest
            for op in ops:
                for name, ok, detail in checks.check_op(op, pass_dir):
                    tally.add(ok, name, detail)
        else:
            tally.add(digest == first_digest, f"pass {k} outputs byte-identical to pass 0")
        shutil.rmtree(pass_dir)
        k += 1

        kinds = (False, True) if args.trace else (False,)
        now = time.perf_counter()
        if all(walls[t] for t in kinds) and now - start + (now - pass_start) > args.seconds:
            break

    samples: dict[str, list[float]] = {}
    if args.trace:
        units = per_layer_units(workloads.PRODUCTS)
        for name in units:
            samples[name] = [m.get(name, 0.0) for m in layer_samples]
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        samples["trace.overhead_s"] = [overhead]
        (run_dir / "spans.json").write_text(json.dumps(
            {"format": ["name", "parent", "start_s", "end_s"], "last_traced_pass": traced_spans}))
    else:
        units = END_TO_END
        samples["wall_s"] = walls[False]
        samples["setup_s"] = setup
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        samples["pass_ratio"] = [1.0 - tally.failed / tally.attempted]

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "passes": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
                   "untraced_raw_wall_s": raw_walls[False], "traced_raw_wall_s": raw_walls[True],
                   "setup_raw_s": setup_raw},
        "samples": samples, "attempted": tally.attempted, "failed": tally.failed,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir / "tmp", ignore_errors=True)

    print("environment " + json.dumps(env, sort_keys=True))
    for name, values in (("raw pass wall", raw_walls[False] + raw_walls[True]),
                         ("raw setup", setup_raw)):
        if values:
            print(f"{name}: " + " ".join(f"{v:.3f}" for v in values) + " s")
    for name in units:
        q1, med, q3 = quartiles(samples[name])
        print(f"{name}: median {med:.6g} {units[name]} (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n={len(samples[name])})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
