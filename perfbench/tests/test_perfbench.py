"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generation_is_deterministic_per_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)
    # a fresh interpreter with another hash seed builds the same operations
    code = (f"import sys; sys.path[:0] = {[str(ROOT / 'src'), str(BENCH)]!r}; "
            f"import workloads; print(repr(workloads.build({name!r}, 7)))")
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == repr(workloads.build(name, 7))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units(workloads.PRODUCTS)


# small operations that reach every traced layer: noisy constant segments and
# shots (fig3c), noiseless calls, fits, the ellipse search and control
# (calibrate), a full-space ramp with a Zeeman field (simulate)
_SMALL_OPS = (
    Op("experiments.fig3c", "fig3c", "figure", 5,
       {"fig3c.dv_points": 2, "fig3c.t_points": 11, "noise.n_samples": 20, "readout.n_shots": 50}),
    Op("experiments.calibrate", "calibrate0", "calibrate", 6,
       {"calibrate.offset_dvx_mv": 1.0, "calibrate.offset_dvy_mv": -0.5}),
    Op("experiments.simulate_zeeman", "simulate_zeeman", "simulate", 7,
       {"sequence": workloads._SIM_ZEEMAN.replace("dur=4", "dur=0.5"),
        "sigma_f": 2.0, "samples": 5, "zeeman": True}),
)


def test_traced_pass_is_byte_identical_and_restores_every_function(tmp_path):
    import rvbsim
    from rvbsim import dynamics, experiments, readout

    originals = (rvbsim.run_sequence, dynamics.run_sequence, experiments.run_sequence,
                 readout.pair_probabilities_batch, experiments.SweepModel.config)
    plain = run.Tally()
    run.run_pass(_SMALL_OPS, tmp_path / "plain", plain)

    tracer = spans.Tracer()
    tracer.install()
    sites = tracer.patched_sites()
    assert dynamics.run_sequence is not originals[1]
    try:
        traced = run.Tally()
        run.run_pass(_SMALL_OPS, tmp_path / "traced", traced, tracer)
    finally:
        tracer.uninstall()

    assert plain.failed == traced.failed == 0
    assert checks.digest(tmp_path / "plain") == checks.digest(tmp_path / "traced")
    assert spans.all_restored(sites)
    assert (rvbsim.run_sequence, dynamics.run_sequence, experiments.run_sequence,
            readout.pair_probabilities_batch, experiments.SweepModel.config) == originals

    metrics = tracer.layer_metrics()
    for name in ("dynamics.const_noisy.calls", "dynamics.const_clean.calls",
                 "dynamics.ramp_full.calls", "readout.shots.calls", "readout.batch.calls",
                 "fitting.cosine.calls", "fitting.ellipse.calls", "control.calls",
                 "io.write.calls"):
        assert metrics.get(name, 0) > 0, name
    assert metrics.get("dynamics.ramp.calls", 0) == 0
    assert metrics["experiments.calibrate.wall_s"] > 0
    assert metrics["io.bytes"] > 0


def test_sequence_class_depends_only_on_arguments():
    from rvbsim import ExchangeConfig, NoiseModel, PulseSequence, ZeemanConfig, singlet_x
    from rvbsim.dynamics import hold, linear_ramp, set_diabatic
    from rvbsim.experiments import st_product_state
    from rvbsim.readout import ReadoutDirection

    j0, j1 = ExchangeConfig.balanced(50, 0.5), ExchangeConfig.balanced(50, 50)
    ramp = PulseSequence(singlet_x(), (set_diabatic(j0), linear_ramp(j1, 10.0)))
    const = PulseSequence(singlet_x(), (set_diabatic(j1), hold(j1, 10.0)))
    product = PulseSequence(st_product_state(ReadoutDirection.HORIZONTAL),
                            (set_diabatic(j0), linear_ramp(j1, 10.0)))
    noise = NoiseModel(1.0, 4)
    assert spans.sequence_class((ramp, noise), {}) == "dynamics.ramp"
    assert spans.sequence_class((ramp,), {"zeeman": ZeemanConfig()}) == "dynamics.ramp_full"
    assert spans.sequence_class((product,), {}) == "dynamics.ramp_full"
    assert spans.sequence_class((const,), {"noise": noise}) == "dynamics.const_noisy"
    assert spans.sequence_class((const,), {}) == "dynamics.const_clean"


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_have_the_names_and_units_of_benchmark_json(trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        metrics = result["metrics"]
        assert metrics["dynamics.ramp.calls"]["value"] == 0
        assert metrics["dynamics.const_noisy.calls"]["value"] > 0
        assert metrics["readout.shots.calls"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
