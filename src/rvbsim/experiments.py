"""Named experiment scripts that regenerate each figure's data products.

Each figure command simulates the corresponding measurement at desk scale
with the default device parameters (overridable through a flat config) and
writes one CSV per panel plus a JSON sidecar carrying every parameter.
Outputs are deterministic: identical (config, seed) reruns are
byte-identical.

Every figure repeats one measurement: set a gate point, evolve, read a pair
outcome probability against dwell time.  A figure states its sweep as arrays
(a (columns, 4) coupling row and a duration per column and segment, from the
vectorized ``SweepModel``/``SyntheticDevice`` couplings), builds one
:class:`~rvbsim.dynamics.SequenceStack` from them with :func:`_stack`, runs
it with one ``run_sequence`` call, ramps included, and hands the result to
:func:`_scan`, which owns the ensemble readout and, given a stream ``(seed,
figure, panel)``, draws column k of direction i from the shot key ``(seed,
SHOT_STREAMS[figure], panel + i, k)``.  A fig3e/fig4ef column whose fit
fails reads NaN, with a RuntimeWarning.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .basis import PairLabel, PairState, SpinState, pair_product_state, singlet_x, singlet_y
from .control import (
    COMPENSATION_FACTOR,
    CalibrationUncertainty,
    DEFAULT_KAPPA,
    ExchangeVoltageModel,
    SweepModel,
    SyntheticDevice,
    propagate_calibration_error,
)
from .dynamics import (
    ExchangeConfig,
    NoiseModel,
    SegmentKind,
    SequenceStack,
    f_ss,
    ground_state_probabilities,
    run_sequence,
    sigma_from_tphi,
    visibilities,
)
from .fitting import CalibrationMap, find_ellipse_center, find_frequency_minimum, fit_damped_cosine
from .io import write_csv, write_json
from .readout import ReadoutDirection, ensemble_probabilities, sample_shots

#: outcome column index per joint result (readout.OUTCOMES order), first readout pair first
IDX_SS, IDX_ST = 0, 1

BOTH_READOUTS = (ReadoutDirection.HORIZONTAL, ReadoutDirection.VERTICAL)


def st_product_state(direction: ReadoutDirection) -> SpinState:
    """Four-spin singlet/T- product matching a readout direction.

    T- sits on the first pair read and the singlet on the second: horizontal
    experiments start from T- on Q34 with a singlet on Q12, vertical ones
    from T- on Q23 with a singlet on Q14.
    """
    triplet, singlet = direction.pairs
    return pair_product_state(PairState(singlet, PairLabel.S), PairState(triplet, PairLabel.T_MINUS))


DEFAULTS: dict = {
    # device model shared by the sweep-style figures
    "device.j0x_mhz": 46.0,
    "device.j0y_mhz": 50.0,
    "device.kappa_per_mv": DEFAULT_KAPPA,
    "device.compensation": COMPENSATION_FACTOR,
    "device.orientation": -1.0,
    "device.jy_slope_per_mv": 0.0,
    "noise.n_samples": 16,
    "readout.n_shots": 500,
    # decoupled-pair operating point for the imbalance chevrons
    "chevron.j0x_mhz": 30.0,
    "chevron.j0y_mhz": 50.0,
    "chevron.tphi_ns": 130.0,
    "fig3c.dv_max_mv": 8.0,
    "fig3c.dv_points": 21,
    "fig3c.t_max_ns": 240.0,
    "fig3c.t_points": 121,
    "fig3e.dvp_min_mv": -20.0,
    "fig3e.dvp_max_mv": 26.0,
    "fig3e.dvp_points": 24,
    "fig3e.t_max_ns": 300.0,
    "fig3e.t_points": 151,
    "fig3e.tphi_ns": 130.0,
    "fig3e.jy_drift": False,
    "fig4b.j_pair_mhz": 25.0,
    "fig4b.t_max_ns": 348.0,
    "fig4b.t_points": 88,
    "fig4b.tphi_x_ns": 144.0,
    "fig4b.tphi_y_ns": 130.0,
    "fig4cd.t_max_ns": 160.0,
    "fig4cd.t_points": 81,
    "fig4cd.tphi_ns": 130.0,
    "fig5.j_pair_mhz": 25.0,
    "fig5.jy_start_mhz": 0.5,
    "fig5.t_ramp_ns": 160.0,
    "fig5a.t_ramp_max_ns": 200.0,
    "fig5a.t_ramp_points": 21,
    "fig5.t_max_ns": 160.0,
    "fig5.t_points": 81,
    "fig5ef.j23_mhz": 20.0,
    "fig5ef.tj_max_ns": 50.0,
    "fig5ef.tj_points": 51,
    "figs456.dv_max_mv": 8.0,
    "figs456.dv_points": 21,
    "figS4.dvp_mv": 20.0,
    "figS4.t_map_ns": 180.0,
    "figS5.dvp_mv": 0.0,
    "figS5.t_map_ns": 105.0,
    "figS6.dvp_mv": -20.0,
    "figS6.t_map_ns": 60.0,
    "figS9.t_ramp_max_ns": 200.0,
    "figS9.t_ramp_points": 41,
    "figS9.linecut_ns": 140.0,
    "calibrate.offset_dvx_mv": 2.0,
    "calibrate.offset_dvy_mv": -2.0,
    "calibrate.grid_mv": 8.0,
    "calibrate.grid_points": 17,
    "calibrate.map_t_ns": 105.0,
    "calibrate.max_iterations": 5,
    "calibrate.tolerance_mv": 0.25,
    "calibrate.drift_hook": False,
    "calibrate.jy_slope_per_mv": 0.00431,
}


def resolve_params(overrides: dict | None = None) -> dict:
    params = dict(DEFAULTS)
    if overrides:
        unknown = [k for k in overrides if k not in params]
        if unknown:
            raise KeyError(f"unknown config keys: {unknown}")
        params.update(overrides)
    return params


def sweep_model_from(params: dict, drift: bool = False) -> SweepModel:
    return SweepModel(
        ExchangeVoltageModel(
            j0x=params["device.j0x_mhz"],
            j0y=params["device.j0y_mhz"],
            kappa=params["device.kappa_per_mv"],
        ),
        compensation=params["device.compensation"],
        orientation=params["device.orientation"],
        jy_slope=params["calibrate.jy_slope_per_mv"] if drift else params["device.jy_slope_per_mv"],
    )


def _dvp(params: dict) -> np.ndarray:
    """Plunger values of the compensated sweep (fig3e, fig4cd/ef, fig5b/c)."""
    return np.linspace(params["fig3e.dvp_min_mv"], params["fig3e.dvp_max_mv"],
                       params["fig3e.dvp_points"])


def _noise(params: dict, tphi_key: str) -> NoiseModel:
    """Quasi-static noise ensemble with the decay time stored under ``tphi_key``."""
    return NoiseModel(sigma_from_tphi(params[tphi_key]), params["noise.n_samples"])


#: The ``figure`` part of a shot-stream key (seed, figure, panel, column), per
#: product that draws shots; fig4ef fits the fig4cd maps and so reads their streams.
SHOT_STREAMS = {"fig3c": 1, "fig3d": 2, "fig3e": 3, "fig4b": 4, "fig4cd": 5, "fig5ab": 6,
                "fig5ef": 7, "calibrate": 8, "simulate": 9}


def _shot_column(mean_probs, outcome: int, n_shots: int, key: tuple) -> np.ndarray:
    """Shot frequency of one outcome at each point of a (points, 4) stack, drawn in one call."""
    return sample_shots(mean_probs, n_shots, key).probabilities()[:, outcome]


def _scan(result, directions, outcome, stream=None, n_shots=None):
    """Ensemble probability of ``outcome`` over a sweep, shape (directions, columns, dwell).

    ``result`` is the one stacked sequence result whose columns are the sweep.
    ``outcome`` may be a slice.  A ``stream`` adds ``n_shots``-shot
    frequencies (module docstring).
    """
    probs = np.array([ensemble_probabilities(result, d) for d in directions])
    if stream is None:
        return probs[..., outcome]
    seed, figure, panel = stream
    shots = np.array([
        [_shot_column(p, outcome, n_shots, (seed, SHOT_STREAMS[figure], panel + i, k))
         for k, p in enumerate(column)]
        for i, column in enumerate(probs)
    ])
    return probs[..., outcome], shots


def _stack(init: SpinState, dwell, targets, *prefix) -> SequenceStack:
    """A hold at ``targets`` swept over ``dwell`` after the ``prefix`` segments, each (kind,
    couplings, durations); couplings broadcast to (columns, 4) and durations to (columns,)."""
    segments = (*prefix, (SegmentKind.HOLD, targets, 0.0))
    cols = np.broadcast_shapes((1,), *[np.shape(j)[:-1] for _, j, _ in segments],
                               *[np.shape(d) for _, _, d in segments])
    return SequenceStack(init, tuple(kind for kind, _, _ in segments),
                         [np.broadcast_to(j, (*cols, 4)) for _, j, _ in segments],
                         [np.broadcast_to(d, cols) for _, _, d in segments], tuple(dwell))


def st_scan(couplings, direction: ReadoutDirection, dwell, outcome=IDX_ST) -> np.ndarray:
    """Noiseless singlet/T- scan: probability of ``outcome``, shape (points, dwell).

    Each column starts in the S/T- product read in ``direction`` and dwells at
    its row of ``couplings`` (points, 4); the whole scan is one stacked solve.
    """
    stack = _stack(st_product_state(direction), dwell, couplings)
    return _scan(run_sequence(stack), (direction,), outcome)[0]


def _fit_rows(t, traces, f_model, figure: str, panel: str) -> np.ndarray:
    """Fitted (frequency, visibility) per row of ``traces``, shape (rows, 2).

    A row whose model frequency ``f_model[k]`` (MHz) reaches the Nyquist frequency
    of ``t`` would alias, and one the damped-cosine fit rejects with a ``ValueError``:
    each reads NaN and raises a ``RuntimeWarning`` naming figure, panel, column and reason.
    """
    f_nyq = 0.5e3 / (t[1] - t[0])
    rows = np.full((len(traces), 2), np.nan)
    for k, (trace, f_k) in enumerate(zip(traces, f_model)):
        try:
            if f_k >= f_nyq:
                raise ValueError(f"model frequency {f_k:.1f} MHz is at or above the dwell "
                                 f"grid's Nyquist frequency {f_nyq:.1f} MHz")
            fit = fit_damped_cosine(t, trace)
        except ValueError as err:
            warnings.warn(f"{figure} panel {panel} column {k}: {err}", RuntimeWarning, stacklevel=2)
            continue
        rows[k] = fit.f, fit.visibility
    return rows


def _calibration_sigmas(sweep: SweepModel, jx: float, jy: float) -> tuple[float, float]:
    """(sigma_jx, sigma_jy) of the default calibration uncertainty at couplings (jx, jy)."""
    model = ExchangeVoltageModel(j0x=max(jx, 1e-3), j0y=max(jy, 1e-3), kappa=sweep.model.kappa)
    return propagate_calibration_error(model, CalibrationUncertainty())


def _theory_columns(sweep: SweepModel, dvp, law, names) -> dict[str, np.ndarray]:
    """Columns ``names[i].format(band)`` of the i-th value of ``law(jx, jy)`` along the sweep.

    Band "theory" is the law at the sweep couplings, "lo"/"hi" its extremes over
    (jx, jy) + {-1, 0, 1} sigmas, clipped at 0 as sigma_jx exceeds jx far out.
    A corner clipped to (0, 0), where the laws are undefined, is left out.
    """
    bands = []
    for dvp_k in dvp:
        jx, jy = sweep.sums(dvp_k)
        sx, sy = _calibration_sigmas(sweep, jx, jy)
        clipped = [(max(jx + a, 0.0), max(jy + b, 0.0)) for a in (-sx, 0, sx) for b in (-sy, 0, sy)]
        corners = np.array([law(*c) for c in clipped if any(c)])
        bands.append((law(jx, jy), corners.min(axis=0), corners.max(axis=0)))
    bands = np.array(bands)  # (sweep, band, value)
    return {name.format(band): bands[:, b, i] for i, name in enumerate(names)
            for b, band in enumerate(("theory", "lo", "hi"))}


def _write_map_csv(path, sweep_name, sweep_values, t_ns, ideal, shots=None) -> str:
    """Write a (sweep, t) map, ``p_ideal`` round-off below 1e-15 as 0; return its path."""
    n_sweep, n_t = ideal.shape
    columns = {
        sweep_name: np.repeat(sweep_values, n_t),
        "t_ns": np.tile(t_ns, n_sweep),
        "p_ideal": np.where(np.abs(ideal) < 1e-15, 0.0, ideal).ravel(),
    }
    if shots is not None:
        columns["p_shot"] = shots.ravel()
    write_csv(path, columns)
    return str(path)


@dataclass
class FigureProduct:
    name: str
    files: list[str]
    elapsed_s: float


# ---------------------------------------------------------------------------
# imbalance chevrons (horizontal/vertical balance calibration data)


def _chevron(out_dir: Path, params: dict, seed: int, figure: str, axis: str) -> list[str]:
    """Singlet/T- chevron vs the ``axis`` ("x" or "y") imbalance voltage."""
    model = ExchangeVoltageModel(
        j0x=params["chevron.j0x_mhz"],
        j0y=params["chevron.j0y_mhz"],
        kappa=params["device.kappa_per_mv"],
    )
    dv = np.linspace(-params["fig3c.dv_max_mv"], params["fig3c.dv_max_mv"], params["fig3c.dv_points"])
    t = np.linspace(0.0, params["fig3c.t_max_ns"], params["fig3c.t_points"])
    init = st_product_state(ReadoutDirection.HORIZONTAL)
    noise = _noise(params, "chevron.tphi_ns")

    # no sweep pulse: the sweep model at 0 mV is the chevron's balanced operating point
    targets = SweepModel(model).config(0.0, *((dv, 0.0) if axis == "x" else (0.0, dv)))
    res = run_sequence(_stack(init, t, targets), noise, noise_reference_mhz=model.j0y / 2)
    ideal, shots = _scan(res, (ReadoutDirection.HORIZONTAL,), IDX_ST, (seed, figure, 0),
                         params["readout.n_shots"])
    return [_write_map_csv(out_dir / f"{figure}_map.csv", f"dv{axis}_mv", dv, t, ideal[0], shots[0])]


# ---------------------------------------------------------------------------
# compensated symmetric sweep: exchange range and extraction


def figure_fig3e(out_dir: Path, params: dict, seed: int) -> list[str]:
    """ST oscillation maps along the compensated sweep plus extracted couplings."""
    sweep = sweep_model_from(params, drift=params["fig3e.jy_drift"])
    dvp = _dvp(params)
    t = np.linspace(0.0, params["fig3e.t_max_ns"], params["fig3e.t_points"])
    noise = _noise(params, "fig3e.tphi_ns")
    sums = np.stack(sweep.sums(dvp), axis=-1)
    targets = sweep.config(dvp)
    files, j_fit = [], {}
    # the vertical readout oscillates at jx/2 (sums column 0), the horizontal one at jy/2
    for panel, (name, direction) in enumerate(zip(("vertical", "horizontal"), BOTH_READOUTS[::-1])):
        stack = _stack(st_product_state(direction), t, targets)
        ref = sums[:, panel] / 2
        ideal, shots = _scan(run_sequence(stack, noise, noise_reference_mhz=ref), (direction,),
                             IDX_ST, (seed, "fig3e", panel), params["readout.n_shots"])
        files.append(_write_map_csv(out_dir / f"fig3e_map_{name}.csv", "dvp_mv", dvp, t,
                                    ideal[0], shots[0]))
        j_fit[name] = 2 * _fit_rows(t, shots[0], sums[:, panel] / 2, "fig3e", name)[:, 0]

    sigmas = np.array([_calibration_sigmas(sweep, jx, jy) for jx, jy in sums])
    path = out_dir / "fig3e_exchange.csv"
    write_csv(path, {
        "dvp_mv": dvp,
        "jx_fit_mhz": j_fit["vertical"],
        "jy_fit_mhz": j_fit["horizontal"],
        "jx_model_mhz": sums[:, 0],
        "jy_model_mhz": sums[:, 1],
        "sigma_jx_mhz": sigmas[:, 0],
        "sigma_jy_mhz": sigmas[:, 1],
    })
    return [*files, str(path)]


# ---------------------------------------------------------------------------
# valence bond resonances


def figure_fig4b(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Equal-exchange singlet-singlet oscillation traces, both readouts."""
    j = ExchangeConfig.balanced(2 * params["fig4b.j_pair_mhz"], 2 * params["fig4b.j_pair_mhz"])
    t = np.linspace(0.0, params["fig4b.t_max_ns"], params["fig4b.t_points"])
    stack = _stack(singlet_y(), t, j.as_array())
    columns: dict[str, np.ndarray] = {"t_ns": t}
    fit_payload = {}
    for panel, (label, direction) in enumerate(zip("xy", BOTH_READOUTS)):
        tphi_key = f"fig4b.tphi_{label}_ns"
        ideal, shots = _scan(run_sequence(stack, _noise(params, tphi_key)), (direction,), IDX_SS,
                             (seed, "fig4b", panel), params["readout.n_shots"])
        columns[f"p_ss_{label}_ideal"] = ideal[0, 0]
        columns[f"p_ss_{label}_shot"] = shots[0, 0]
        fit = fit_damped_cosine(t, shots[0, 0])
        fit_payload[label] = fit.to_flat_record() | {"target_tphi_ns": params[tphi_key]}

    files = [str(out_dir / "fig4b_traces.csv"), str(out_dir / "fig4b_fits.json")]
    write_csv(files[0], columns)
    write_json(files[1], fit_payload)
    return files


def _fig4cd_maps(params, seed):
    sweep = sweep_model_from(params)
    dvp = _dvp(params)
    t = np.linspace(0.0, params["fig4cd.t_max_ns"], params["fig4cd.t_points"])
    noise = _noise(params, "fig4cd.tphi_ns")
    res = run_sequence(_stack(singlet_x(), t, sweep.config(dvp)), noise)
    ideal, shots = _scan(res, BOTH_READOUTS, IDX_SS, (seed, "fig4cd", 0), params["readout.n_shots"])
    return sweep, dvp, t, ideal, shots


def figure_fig4cd(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Singlet-singlet oscillation maps along the sweep, both readouts."""
    _, dvp, t, ideal, shots = _fig4cd_maps(params, seed)
    return [_write_map_csv(out_dir / f"fig4{name}_map.csv", "dvp_mv", dvp, t, ideal_i, shots_i)
            for name, ideal_i, shots_i in zip("cd", ideal, shots)]


def figure_fig4ef(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Fitted frequencies and visibilities vs sweep, with model predictions."""
    sweep, dvp, t, _, shots = _fig4cd_maps(params, seed)
    theory = _theory_columns(sweep, dvp, lambda jx, jy: (f_ss(jx, jy), *visibilities(jx, jy)),
                             ("f_{}_mhz", "vx_{}", "vy_{}"))
    fits = [(panel, _fit_rows(t, s, theory["f_theory_mhz"], "fig4ef", panel))
            for panel, s in zip("xy", shots)]
    path = out_dir / "fig4ef_extraction.csv"
    write_csv(path, {
        "dvp_mv": dvp,
        **{f"f_fit_{panel}_mhz": fit[:, 0] for panel, fit in fits},
        **{f"vis_fit_{panel}": fit[:, 1] for panel, fit in fits},
        **theory,
    })
    return [str(path)]


# ---------------------------------------------------------------------------
# eigenstate preparation


def _prep(init, starts, targets, t_ramps, dwell, noise):
    """Adiabatic preparations as one stacked run: each column switches to ``starts``, ramps
    to ``targets`` over ``t_ramps`` ns and dwells there (broadcast as in :func:`_stack`)."""
    return run_sequence(_stack(init, dwell, targets, (SegmentKind.SET_DIABATIC, starts, 0.0),
                               (SegmentKind.LINEAR_RAMP, targets, t_ramps)), noise)


def _prep_along_sweep(params, sweep, dvp, dwell, noise):
    """Preparations along the sweep: at each point, from (jx, fig5.jy_start) ramp to (jx, jy)."""
    targets = sweep.config(dvp)
    starts = np.where([True, True, False, False], targets, params["fig5.jy_start_mhz"] / 2)
    return _prep(singlet_x(), starts, targets, params["fig5.t_ramp_ns"], dwell, noise)


def figure_fig5ab(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Ramp-time map at equal exchange and sweep map after adiabatic prep."""
    jj = 2 * params["fig5.j_pair_mhz"]
    n_shots = params["readout.n_shots"]
    start = ExchangeConfig.balanced(jj, params["fig5.jy_start_mhz"]).as_array()
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    noise = _noise(params, "fig4cd.tphi_ns")
    ramps = np.linspace(0.0, params["fig5a.t_ramp_max_ns"], params["fig5a.t_ramp_points"])
    target = ExchangeConfig.balanced(jj, jj).as_array()
    res = _prep(singlet_x(), start, target, ramps, t, noise)
    ideal, shots = _scan(res, (ReadoutDirection.HORIZONTAL,), IDX_SS, (seed, "fig5ab", 0), n_shots)
    path_a = _write_map_csv(out_dir / "fig5a_map.csv", "t_ramp_ns", ramps, t, ideal[0], shots[0])
    sweep = sweep_model_from(params)
    dvp = _dvp(params)
    ideal, shots = _scan(_prep_along_sweep(params, sweep, dvp, t, noise),
                         (ReadoutDirection.HORIZONTAL,), IDX_SS, (seed, "fig5ab", 1), n_shots)
    return [path_a, _write_map_csv(out_dir / "fig5b_map.csv", "dvp_mv", dvp, t, ideal[0], shots[0])]


def figure_fig5c(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Mean singlet-singlet probability after adiabatic prep vs sweep, with theory."""
    sweep = sweep_model_from(params)
    dvp = _dvp(params)
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    noise = _noise(params, "fig4cd.tphi_ns")
    mean_x, mean_y = _scan(_prep_along_sweep(params, sweep, dvp, t, noise), BOTH_READOUTS,
                           IDX_SS).mean(axis=-1)
    path = out_dir / "fig5c_ground_state.csv"
    write_csv(path, {
        "dvp_mv": dvp,
        "p_ss_x_sim": mean_x,
        "p_ss_y_sim": mean_y,
        **_theory_columns(sweep, dvp, ground_state_probabilities, ("p_ss_x_{}", "p_ss_y_{}")),
    })
    return [str(path)]


def figure_fig5ef(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Swap-pulse duration maps: oscillations vanish at the half-swap point."""
    jj = 2 * params["fig5.j_pair_mhz"]
    pulse = (SegmentKind.EXCHANGE_PULSE, [0.0, 0.0, params["fig5ef.j23_mhz"], 0.0])
    equal = ExchangeConfig.balanced(jj, jj).as_array()
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    tj = np.linspace(0.0, params["fig5ef.tj_max_ns"], params["fig5ef.tj_points"])
    noise = _noise(params, "fig4cd.tphi_ns")

    stack = _stack(singlet_x(), t, equal, (*pulse, tj))
    ideal, shots = _scan(run_sequence(stack, noise), BOTH_READOUTS, IDX_SS, (seed, "fig5ef", 0),
                         params["readout.n_shots"])
    return [_write_map_csv(out_dir / f"fig5{name}_map.csv", "t_j_ns", tj, t, ideal_i, shots_i)
            for name, ideal_i, shots_i in zip("ef", ideal, shots)]


# ---------------------------------------------------------------------------
# fixed-time ellipse maps and local chevrons at the three operating points


def _figs456(out_dir: Path, params: dict, seed: int, tag: str) -> list[str]:
    dvp = params[f"{tag}.dvp_mv"]
    t_map = params[f"{tag}.t_map_ns"]
    sweep = sweep_model_from(params)
    half = params["figs456.dv_max_mv"]
    n = params["figs456.dv_points"]
    dv = np.linspace(-half, half, n)
    readouts = tuple(zip("xy", BOTH_READOUTS))
    grid = sweep.config(dvp, dv[:, None], dv[None, :]).reshape(-1, 4)  # dvx-major, as the map
    files = []
    for name, direction in readouts:
        values = st_scan(grid, direction, [t_map]).reshape(n, n)
        files.append(str(out_dir / f"{tag}_map_{name}.csv"))
        CalibrationMap(dvx=dv, dvy=dv, values=values).to_csv(files[-1])

    # local chevrons through the operating point
    t = np.linspace(0.0, 3.0 * t_map, 121)
    lines = (("dvx", sweep.config(dvp, dv, 0.0)), ("dvy", sweep.config(dvp, 0.0, dv)))
    return files + [_write_map_csv(out_dir / f"{tag}_chevron_{axis}_{name}.csv", f"{axis}_mv", dv, t,
                                   st_scan(line, direction, t))
                    for axis, line in lines for name, direction in readouts]


def figure_figS9(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Adiabatic preparation maps from both initial products, both readouts."""
    jj = 2 * params["fig5.j_pair_mhz"]
    start = ExchangeConfig.balanced(jj, params["fig5.jy_start_mhz"]).as_array()
    target = ExchangeConfig.balanced(jj, jj).as_array()
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    ramps = np.linspace(0.0, params["figS9.t_ramp_max_ns"], params["figS9.t_ramp_points"])
    cut = int(np.argmin(np.abs(ramps - params["figS9.linecut_ns"])))
    noise = _noise(params, "fig4cd.tphi_ns")
    read_x, read_y = _scan(_prep(singlet_x(), start, target, ramps, t, noise), BOTH_READOUTS,
                           IDX_SS)
    # the singlet-y start from (jy_start, jj) is the 90-degree rotation of this one: its
    # maps are these with the readouts swapped
    maps = {"sx_readx": read_x, "sx_ready": read_y, "sy_readx": read_y, "sy_ready": read_x}
    files = [_write_map_csv(out_dir / f"figS9_{name}.csv", "t_ramp_ns", ramps, t, ideal)
             for name, ideal in maps.items()]
    files.append(str(out_dir / "figS9_linecuts.csv"))
    write_csv(files[-1], {"t_ns": t, **{name: ideal[cut] for name, ideal in maps.items()}})
    return files


FIGURES = {
    "fig3c": partial(_chevron, figure="fig3c", axis="x"),
    "fig3d": partial(_chevron, figure="fig3d", axis="y"),
    "fig3e": figure_fig3e,
    "fig4b": figure_fig4b,
    "fig4cd": figure_fig4cd,
    "fig4ef": figure_fig4ef,
    "fig5ab": figure_fig5ab,
    "fig5c": figure_fig5c,
    "fig5ef": figure_fig5ef,
    "figS4": partial(_figs456, tag="figS4"),
    "figS5": partial(_figs456, tag="figS5"),
    "figS6": partial(_figs456, tag="figS6"),
    "figS9": figure_figS9,
}


def run_figure(name: str, out_dir, seed: int = 0, overrides: dict | None = None) -> FigureProduct:
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    params = resolve_params(overrides)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files = FIGURES[name](out, params, seed)
    elapsed = time.perf_counter() - start
    files.append(str(out / f"{name}_params.json"))
    write_json(files[-1], {"figure": name, "seed": seed,
                           "parameters": {k: params[k] for k in sorted(params)}})
    return FigureProduct(name=name, files=files, elapsed_s=elapsed)


# ---------------------------------------------------------------------------
# closed-loop calibration against a synthetic device


@dataclass
class CalibrationReport:
    center_mv: tuple[float, float]
    center_uncertainty_mv: tuple[float, float]
    j0x_mhz: float
    j0y_mhz: float
    sigma_jx_mhz: float
    sigma_jy_mhz: float
    true_j0x_mhz: float
    true_j0y_mhz: float
    true_offset_mv: tuple[float, float]
    iterations: int
    converged: bool


def run_calibration(out_dir, seed: int = 0, overrides: dict | None = None) -> CalibrationReport:
    """Ellipse-center plus frequency-minimum loop on a synthetic device.

    The device hides a balance-point offset; the loop recovers it, then
    extracts the balanced sums from the two frequency minima and reports
    the worst-case exchange uncertainty for the stated center precision.
    """
    params = resolve_params(overrides)
    if params["calibrate.max_iterations"] < 1:
        raise ValueError("calibrate.max_iterations must be at least 1, got "
                         f"{params['calibrate.max_iterations']}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    sweep = sweep_model_from(params, drift=params["calibrate.drift_hook"])
    device = SyntheticDevice(
        sweep,
        offset_dvx=params["calibrate.offset_dvx_mv"],
        offset_dvy=params["calibrate.offset_dvy_mv"],
    )

    half = params["calibrate.grid_mv"]
    n = params["calibrate.grid_points"]
    t_map = params["calibrate.map_t_ns"]
    center = np.array([0.0, 0.0])
    converged = False
    for iterations in range(1, params["calibrate.max_iterations"] + 1):
        dvx = center[0] + np.linspace(-half, half, n)
        dvy = center[1] + np.linspace(-half, half, n)
        grid = device.config(0.0, dvx[:, None], dvy[None, :]).reshape(-1, 4)
        probs = st_scan(grid, ReadoutDirection.HORIZONTAL, [t_map], outcome=slice(None))[:, 0]
        # the whole map is one draw under one key per iteration
        shots = _shot_column(probs, IDX_ST, params["readout.n_shots"],
                             (seed, SHOT_STREAMS["calibrate"], 0, iterations - 1))
        cal = CalibrationMap(dvx=dvx, dvy=dvy, values=shots.reshape(n, n))
        ellipse = find_ellipse_center(cal)
        shift = np.array(ellipse.center) - center
        center = np.array(ellipse.center)
        if np.linalg.norm(shift) < params["calibrate.tolerance_mv"] and iterations > 1:
            converged = True
            break

    # frequency minima through the recovered center: the horizontal readout
    # oscillates at jy/2 along dvx, the vertical one at jx/2 along dvy
    t = np.linspace(0.0, 240.0, 121)
    minima = []
    for axis, direction in enumerate(BOTH_READOUTS):
        line = center[axis] + np.linspace(-4.0, 4.0, 9)
        ends = (line, center[1]) if axis == 0 else (center[0], line)
        traces = st_scan(device.config(0.0, *ends), direction, t)
        minima.append(find_frequency_minimum(line, [fit_damped_cosine(t, p).f for p in traces]))
    min_x, min_y = minima
    j0y = 2 * min_x.f_min
    j0x = 2 * min_y.f_min

    model = ExchangeVoltageModel(j0x=j0x, j0y=j0y, kappa=sweep.model.kappa)
    sigma_jx, sigma_jy = propagate_calibration_error(model, CalibrationUncertainty())

    report = CalibrationReport(
        center_mv=(float(min_x.dv_star), float(min_y.dv_star)),
        center_uncertainty_mv=ellipse.uncertainty,
        j0x_mhz=float(j0x),
        j0y_mhz=float(j0y),
        sigma_jx_mhz=float(sigma_jx),
        sigma_jy_mhz=float(sigma_jy),
        true_j0x_mhz=sweep.model.j0x,
        true_j0y_mhz=sweep.model.j0y,
        true_offset_mv=(device.offset_dvx, device.offset_dvy),
        iterations=iterations,
        converged=converged,
    )
    write_json(out / "calibration.json", {
        "seed": seed,
        "report": {k: getattr(report, k) for k in report.__dataclass_fields__},
        "parameters": {k: params[k] for k in sorted(params) if k.startswith("calibrate.") or k.startswith("device.")},
    })
    return report
