"""Workload definitions for the rvbsim benchmark.

A workload is a fixed list of operations (figure scripts, calibrations,
``verify`` criteria and ``simulate``-style pulse sequences).  :func:`build`
derives every seed and hidden offset from the workload seed alone, so the
same seed gives the same operations; the program only ever receives these
generated figure seeds and config values.

Sizes are scaled from the figure defaults through the figures' own config
keys (sweep columns, ramp rows, map points), never through per-call sizes such as
noise samples, shots or dwell grids, so each workload keeps the layer mix of
the default-size commands while several passes fit into one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# rvbsim functions are looked up on their modules at call time, so that the
# traced run's wrappers (installed on those modules) see these calls too
from rvbsim import acceptance, dynamics, experiments, io
from rvbsim.hamiltonians import ZeemanConfig
from rvbsim.readout import OUTCOMES, ReadoutDirection


@dataclass(frozen=True)
class Op:
    """One operation of a workload pass.

    ``product`` names the per-layer wall-time metric the operation feeds;
    ``label`` is unique within the workload and names its output directory
    (for a figure it is the figure name).
    """

    product: str
    label: str
    kind: str  # figure | calibrate | criterion | simulate
    seed: int
    params: dict = field(default_factory=dict)


# full-space ramp sequences, run the way ``rvbsim simulate`` runs a file:
# a product start (16-dim, outside the singlet block) and a singlet start
# with a Zeeman field (which also leaves the singlet block)
_SIM_PRODUCT = """\
init product S Q12 T- Q34
segment diabatic j12=25 j34=25 j23=0.5 j14=0.5
segment ramp j12=25 j34=25 j23=25 j14=25 dur=10 mode=voltage
segment hold j12=25 j34=25 j23=25 j14=25 dur=0
dwell range 0 160 2
"""

_SIM_ZEEMAN = """\
init state sx
segment diabatic j12=25 j34=25 j23=0.5 j14=0.5
segment ramp j12=25 j34=25 j23=25 j14=25 dur=4 mode=voltage
segment hold j12=25 j34=25 j23=25 j14=25 dur=0
dwell range 0 160 2
"""

#: default figure-style dephasing, T_phi = 130 ns
_SIGMA_F = float(dynamics.sigma_from_tphi(130.0))

#: hidden calibration offsets are drawn uniformly in +-this many mV
CALIBRATION_OFFSET_MV = 3.0
N_CALIBRATIONS = 3


def _ramp_prep(rng: random.Random) -> list[Op]:
    return [
        Op("experiments.figS9", "figS9", "figure", rng.randrange(2**31),
           {"figS9.t_ramp_points": 6}),
        Op("experiments.simulate_st", "simulate_st", "simulate", rng.randrange(2**31),
           {"sequence": _SIM_PRODUCT, "sigma_f": _SIGMA_F, "samples": 100, "zeeman": False}),
        Op("experiments.simulate_zeeman", "simulate_zeeman", "simulate", rng.randrange(2**31),
           {"sequence": _SIM_ZEEMAN, "sigma_f": _SIGMA_F, "samples": 50, "zeeman": True}),
    ]


def _sweep(rng: random.Random) -> list[Op]:
    sizes = {
        "fig3c": {"fig3c.dv_points": 7},
        "fig3d": {"fig3c.dv_points": 7},
        "fig3e": {"fig3e.dvp_points": 8},
        "fig4ef": {"fig3e.dvp_points": 8},
        "fig5ef": {"fig5ef.tj_points": 13},
    }
    return [Op(f"experiments.{name}", name, "figure", rng.randrange(2**31), spec)
            for name, spec in sizes.items()]


def _calibrate_verify(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(N_CALIBRATIONS):
        offsets = {
            "calibrate.offset_dvx_mv": rng.uniform(-CALIBRATION_OFFSET_MV, CALIBRATION_OFFSET_MV),
            "calibrate.offset_dvy_mv": rng.uniform(-CALIBRATION_OFFSET_MV, CALIBRATION_OFFSET_MV),
        }
        ops.append(Op("experiments.calibrate", f"calibrate{k}", "calibrate",
                      rng.randrange(2**31), offsets))
    for name in ("figS4", "figS5", "figS6"):
        ops.append(Op(f"experiments.{name}", name, "figure", rng.randrange(2**31),
                      {"figs456.dv_points": 11}))
    # verify runs as its ten criteria, one operation each, with one seed: the
    # work of ``run_all``, timed in steps short enough for the speed-scaled clock
    verify_seed = rng.randrange(2**31)
    for k in range(len(acceptance.CHECKS)):
        ops.append(Op("acceptance.verify", f"verify{k + 1}", "criterion", verify_seed,
                      {"index": k}))
    return ops


WORKLOADS = {
    "ramp_prep": _ramp_prep,
    "sweep": _sweep,
    "calibrate_verify": _calibrate_verify,
}

#: every product any workload reports, in a fixed order
PRODUCTS = (
    "experiments.figS9", "experiments.simulate_st", "experiments.simulate_zeeman",
    "experiments.fig3c", "experiments.fig3d", "experiments.fig3e", "experiments.fig4ef",
    "experiments.fig5ef", "experiments.calibrate", "experiments.figS4", "experiments.figS5",
    "experiments.figS6", "acceptance.verify",
)


def build(name: str, seed: int) -> tuple[Op, ...]:
    """The operations of workload ``name`` for workload seed ``seed``."""
    return tuple(WORKLOADS[name](random.Random(seed)))


def execute(op: Op, out_dir: Path) -> None:
    """Run one operation, writing its outputs under ``out_dir / op.label``."""
    out = out_dir / op.label
    out.mkdir(parents=True)
    if op.kind == "figure":
        experiments.run_figure(op.label, out, seed=op.seed, overrides=op.params or None)
    elif op.kind == "calibrate":
        experiments.run_calibration(out, seed=op.seed, overrides=op.params)
    elif op.kind == "criterion":
        result = acceptance.CHECKS[op.params["index"]](op.seed)
        # the verdict only: the detail string carries elapsed times
        io.write_json(out / "criterion.json", {
            "criterion": result.criterion, "name": result.name, "passed": bool(result.passed),
        })
    elif op.kind == "simulate":
        _simulate(op, out)
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")


def _simulate(op: Op, out: Path) -> None:
    """The ``rvbsim simulate`` flow, plus the Zeeman field the CLI cannot set."""
    p = op.params
    seq = io.sequence_from_text(p["sequence"])
    noise = dynamics.NoiseModel(sigma_f=p["sigma_f"], n_samples=p["samples"], seed=op.seed)
    result = dynamics.run_sequence(seq, noise, zeeman=ZeemanConfig() if p["zeeman"] else None)
    columns = {"t_ns": np.asarray(seq.dwell_times)}
    for direction in (ReadoutDirection.HORIZONTAL, ReadoutDirection.VERTICAL):
        tag = direction.name.lower()[0]
        probs = experiments.ensemble_probabilities(result, direction)
        for k, outcome in enumerate(OUTCOMES):
            columns[f"p_{outcome.lower()}_{tag}"] = probs[:, k]
    io.write_csv(out / f"{op.label}_result.csv", columns)

