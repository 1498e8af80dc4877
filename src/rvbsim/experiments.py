"""Named experiment scripts that regenerate each figure's data products.

Each figure command simulates the corresponding measurement at desk scale
with the default device parameters (overridable through a flat config) and
writes one CSV per panel plus a JSON sidecar carrying every parameter.
Outputs are deterministic: identical (config, seed) reruns are
byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import Pair, PairLabel, PairState, SpinState, pair_product_state, singlet_x, singlet_y
from .control import (
    COMPENSATION_FACTOR,
    CalibrationUncertainty,
    DEFAULT_KAPPA,
    ExchangeVoltageModel,
    SweepModel,
    SyntheticDevice,
    exchange_from_voltages,
    propagate_calibration_error,
)
from .dynamics import (
    ExchangeConfig,
    NoiseModel,
    PulseSequence,
    T_PI_NS,
    exchange_pulse,
    f_ss,
    ground_state_probabilities,
    hold,
    linear_ramp,
    run_sequence,
    set_diabatic,
    sigma_from_tphi,
    visibilities,
)
from .fitting import CalibrationMap, find_ellipse_center, find_frequency_minimum, fit_damped_cosine
from .io import write_csv, write_json
from .readout import ReadoutConfig, ReadoutDirection, pair_probabilities_batch, sample_shots

ZERO_CONFIG = ExchangeConfig(0, 0, 0, 0)

#: outcome column index per joint result, first readout pair first
IDX_SS, IDX_ST, IDX_TS, IDX_TT = 0, 1, 2, 3


def st_product_state(direction: ReadoutDirection) -> SpinState:
    """Four-spin singlet/T- product matching a readout direction.

    Horizontal experiments start from T- on Q34 with a singlet on Q12;
    vertical ones from T- on Q23 with a singlet on Q14.
    """
    if direction is ReadoutDirection.HORIZONTAL:
        return pair_product_state(
            PairState(Pair.Q12, PairLabel.S), PairState(Pair.Q34, PairLabel.T_MINUS)
        )
    return pair_product_state(
        PairState(Pair.Q14, PairLabel.S), PairState(Pair.Q23, PairLabel.T_MINUS)
    )


DEFAULTS: dict = {
    # device model shared by the sweep-style figures
    "device.j0x_mhz": 46.0,
    "device.j0y_mhz": 50.0,
    "device.kappa_per_mv": DEFAULT_KAPPA,
    "device.compensation": COMPENSATION_FACTOR,
    "device.orientation": -1.0,
    "device.jy_slope_per_mv": 0.0,
    "noise.n_samples": 500,
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
    "fig4b.n_samples": 2000,
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
        unknown = [k for k in overrides if k not in params and not k.startswith("user.")]
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


def ensemble_probabilities(result, direction: ReadoutDirection) -> np.ndarray:
    """Mean joint outcome probabilities (n_dwell, 4) of a sequence result."""
    states = result.states_full()
    probs = pair_probabilities_batch(states, direction)
    return probs.mean(axis=0) if result.noisy else probs


def _shot_column(mean_probs: np.ndarray, outcome: int, n_shots: int, seed: int) -> np.ndarray:
    """Per-dwell empirical outcome frequency from seeded categorical shots."""
    out = np.empty(len(mean_probs))
    for k, p in enumerate(mean_probs):
        cfg = ReadoutConfig(ReadoutDirection.HORIZONTAL, n_shots=n_shots, seed=seed + k)
        out[k] = sample_shots(p, cfg).probabilities()[outcome]
    return out


def _st_sequence(init: SpinState, target: ExchangeConfig, dwell: np.ndarray) -> PulseSequence:
    # structural prep steps: decoupled wait (the pair S -> T- rotation slot),
    # then the diabatic switch to the interacting point
    return PulseSequence(
        init=init,
        segments=(
            set_diabatic(ZERO_CONFIG),
            hold(ZERO_CONFIG, T_PI_NS),
            set_diabatic(target),
            hold(target, 0.0),
        ),
        dwell_times=tuple(dwell),
    )


def _write_map_csv(path, sweep_name, sweep_values, t_ns, ideal, shots=None) -> None:
    n_sweep, n_t = ideal.shape
    columns = {
        sweep_name: np.repeat(sweep_values, n_t),
        "t_ns": np.tile(t_ns, n_sweep),
        "p_ideal": ideal.ravel(),
    }
    if shots is not None:
        columns["p_shot"] = shots.ravel()
    write_csv(path, columns)


@dataclass
class FigureProduct:
    name: str
    files: list[str]
    elapsed_s: float


def _sidecar(out_dir: Path, name: str, params: dict, seed: int, extra: dict | None = None) -> str:
    payload = {"figure": name, "seed": seed, "parameters": {k: params[k] for k in sorted(params)}}
    if extra:
        payload.update(extra)
    path = out_dir / f"{name}_params.json"
    write_json(path, payload)
    return str(path)


# ---------------------------------------------------------------------------
# imbalance chevrons (horizontal/vertical balance calibration data)


def _chevron_panel(params, seed, sweep_axis: str):
    model = ExchangeVoltageModel(
        j0x=params["chevron.j0x_mhz"],
        j0y=params["chevron.j0y_mhz"],
        kappa=params["device.kappa_per_mv"],
    )
    dv = np.linspace(-params["fig3c.dv_max_mv"], params["fig3c.dv_max_mv"], params["fig3c.dv_points"])
    t = np.linspace(0.0, params["fig3c.t_max_ns"], params["fig3c.t_points"])
    init = st_product_state(ReadoutDirection.HORIZONTAL)
    sigma = sigma_from_tphi(params["chevron.tphi_ns"])
    f_ref = model.j0y / 2

    def column(args):
        k, dv_k = args
        j = exchange_from_voltages(model, dv_k, 0.0) if sweep_axis == "x" else \
            exchange_from_voltages(model, 0.0, dv_k)
        noise = NoiseModel(sigma_f=sigma, n_samples=params["noise.n_samples"], seed=seed + 7 * k)
        res = run_sequence(_st_sequence(init, j, t), noise, noise_reference_mhz=f_ref)
        probs = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)
        shot = _shot_column(probs, IDX_ST, params["readout.n_shots"], seed * 1009 + 97 * k)
        return probs[:, IDX_ST], shot

    results = [column(a) for a in enumerate(dv)]
    ideal = np.stack([r[0] for r in results])
    shots = np.stack([r[1] for r in results])
    return dv, t, ideal, shots


def figure_fig3c(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Singlet/T- chevron vs the horizontal imbalance voltage."""
    dv, t, ideal, shots = _chevron_panel(params, seed, sweep_axis="x")
    path = out_dir / "fig3c_map.csv"
    _write_map_csv(path, "dvx_mv", dv, t, ideal, shots)
    return [str(path)]


def figure_fig3d(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Singlet/T- chevron vs the vertical imbalance voltage."""
    dv, t, ideal, shots = _chevron_panel(params, seed, sweep_axis="y")
    path = out_dir / "fig3d_map.csv"
    _write_map_csv(path, "dvy_mv", dv, t, ideal, shots)
    return [str(path)]


# ---------------------------------------------------------------------------
# compensated symmetric sweep: exchange range and extraction


def figure_fig3e(out_dir: Path, params: dict, seed: int) -> list[str]:
    """ST oscillation maps along the compensated sweep plus extracted couplings."""
    sweep = sweep_model_from(params, drift=params["fig3e.jy_drift"])
    dvp = np.linspace(params["fig3e.dvp_min_mv"], params["fig3e.dvp_max_mv"], params["fig3e.dvp_points"])
    t = np.linspace(0.0, params["fig3e.t_max_ns"], params["fig3e.t_points"])
    sigma = sigma_from_tphi(params["fig3e.tphi_ns"])

    panels = {
        "vertical": ReadoutDirection.VERTICAL,  # oscillates at jx/2
        "horizontal": ReadoutDirection.HORIZONTAL,  # oscillates at jy/2
    }
    maps = {}
    fits = {name: [] for name in panels}
    for name, direction in panels.items():
        init = st_product_state(direction)

        def column(args, direction=direction, name=name):
            k, dvp_k = args
            j = sweep.config(dvp_k)
            f_nominal = (j.jx if direction is ReadoutDirection.VERTICAL else j.jy) / 2
            noise = NoiseModel(sigma, params["noise.n_samples"], seed + 13 * k)
            res = run_sequence(_st_sequence(init, j, t), noise, noise_reference_mhz=f_nominal)
            probs = ensemble_probabilities(res, direction)
            shot = _shot_column(probs, IDX_ST, params["readout.n_shots"],
                                seed * 2027 + 31 * k + (0 if name == "vertical" else 500000))
            return probs[:, IDX_ST], shot

        results = [column(a) for a in enumerate(dvp)]
        ideal = np.stack([r[0] for r in results])
        shots = np.stack([r[1] for r in results])
        maps[name] = (ideal, shots)
        for k in range(len(dvp)):
            fits[name].append(fit_damped_cosine(t, shots[k]))

    files = []
    for name, (ideal, shots) in maps.items():
        path = out_dir / f"fig3e_map_{name}.csv"
        _write_map_csv(path, "dvp_mv", dvp, t, ideal, shots)
        files.append(str(path))

    model = sweep.model
    uncertainty = CalibrationUncertainty()
    jx_fit = np.array([2 * f.f for f in fits["vertical"]])
    jy_fit = np.array([2 * f.f for f in fits["horizontal"]])
    sigma_pairs = [
        propagate_calibration_error(
            ExchangeVoltageModel(j0x=max(jx, 1e-3), j0y=max(jy, 1e-3), kappa=model.kappa),
            uncertainty,
        )
        for jx, jy in (sweep.sums(v) for v in dvp)
    ]
    path = out_dir / "fig3e_exchange.csv"
    write_csv(
        path,
        {
            "dvp_mv": dvp,
            "jx_fit_mhz": jx_fit,
            "jy_fit_mhz": jy_fit,
            "jx_model_mhz": [sweep.sums(v)[0] for v in dvp],
            "jy_model_mhz": [sweep.sums(v)[1] for v in dvp],
            "sigma_jx_mhz": [s[0] for s in sigma_pairs],
            "sigma_jy_mhz": [s[1] for s in sigma_pairs],
        },
    )
    files.append(str(path))
    return files


# ---------------------------------------------------------------------------
# valence bond resonances


def figure_fig4b(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Equal-exchange singlet-singlet oscillation traces, both readouts."""
    j = ExchangeConfig.balanced(2 * params["fig4b.j_pair_mhz"], 2 * params["fig4b.j_pair_mhz"])
    t = np.linspace(0.0, params["fig4b.t_max_ns"], params["fig4b.t_points"])
    seq = PulseSequence(
        init=singlet_y(),
        segments=(set_diabatic(j), hold(j, 0.0)),
        dwell_times=tuple(t),
    )
    columns: dict[str, np.ndarray] = {"t_ns": t}
    fit_payload = {}
    for label, direction, tphi_key, n_seed in (
        ("x", ReadoutDirection.HORIZONTAL, "fig4b.tphi_x_ns", 0),
        ("y", ReadoutDirection.VERTICAL, "fig4b.tphi_y_ns", 1),
    ):
        noise = NoiseModel(sigma_from_tphi(params[tphi_key]), params["fig4b.n_samples"], seed + n_seed)
        res = run_sequence(seq, noise)
        probs = ensemble_probabilities(res, direction)
        shot = _shot_column(probs, IDX_SS, params["readout.n_shots"], seed * 31 + n_seed * 7919)
        columns[f"p_ss_{label}_ideal"] = probs[:, IDX_SS]
        columns[f"p_ss_{label}_shot"] = shot
        fit = fit_damped_cosine(t, shot)
        fit_payload[label] = fit.to_flat_record() | {"target_tphi_ns": params[tphi_key]}

    path = out_dir / "fig4b_traces.csv"
    write_csv(path, columns)
    fit_path = out_dir / "fig4b_fits.json"
    write_json(fit_path, fit_payload)
    return [str(path), str(fit_path)]


def _fig4cd_maps(params, seed):
    sweep = sweep_model_from(params)
    dvp = np.linspace(params["fig3e.dvp_min_mv"], params["fig3e.dvp_max_mv"], params["fig3e.dvp_points"])
    t = np.linspace(0.0, params["fig4cd.t_max_ns"], params["fig4cd.t_points"])
    sigma = sigma_from_tphi(params["fig4cd.tphi_ns"])

    def column(args):
        k, dvp_k = args
        j = sweep.config(dvp_k)
        seq = PulseSequence(init=singlet_x(), segments=(set_diabatic(j), hold(j, 0.0)),
                            dwell_times=tuple(t))
        noise = NoiseModel(sigma, params["noise.n_samples"], seed + 17 * k)
        res = run_sequence(seq, noise)
        return (
            ensemble_probabilities(res, ReadoutDirection.HORIZONTAL),
            ensemble_probabilities(res, ReadoutDirection.VERTICAL),
        )

    results = [column(a) for a in enumerate(dvp)]
    n_shots = params["readout.n_shots"]
    px = np.stack([r[0][:, IDX_SS] for r in results])
    py = np.stack([r[1][:, IDX_SS] for r in results])
    shots_x = np.empty_like(px)
    shots_y = np.empty_like(py)
    for k, (probs_x, probs_y) in enumerate(results):
        shots_x[k] = _shot_column(probs_x, IDX_SS, n_shots, seed * 4099 + 811 * k)
        shots_y[k] = _shot_column(probs_y, IDX_SS, n_shots, seed * 5501 + 977 * k)
    return sweep, dvp, t, px, py, shots_x, shots_y


def figure_fig4cd(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Singlet-singlet oscillation maps along the sweep, both readouts."""
    _, dvp, t, px, py, shots_x, shots_y = _fig4cd_maps(params, seed)
    files = []
    for name, ideal, shots in (("c", px, shots_x), ("d", py, shots_y)):
        path = out_dir / f"fig4{name}_map.csv"
        _write_map_csv(path, "dvp_mv", dvp, t, ideal, shots)
        files.append(str(path))
    return files


def figure_fig4ef(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Fitted frequencies and visibilities vs sweep, with model predictions."""
    sweep, dvp, t, px, py, shots_x, shots_y = _fig4cd_maps(params, seed)
    uncertainty = CalibrationUncertainty()

    rows = {k: [] for k in (
        "f_fit_x_mhz", "f_fit_y_mhz", "vis_fit_x", "vis_fit_y",
        "f_theory_mhz", "f_lo_mhz", "f_hi_mhz",
        "vx_theory", "vx_lo", "vx_hi", "vy_theory", "vy_lo", "vy_hi",
    )}
    for k in range(len(dvp)):
        fit_x = fit_damped_cosine(t, shots_x[k])
        fit_y = fit_damped_cosine(t, shots_y[k])
        jx, jy = sweep.sums(dvp[k])
        sig_jx, sig_jy = propagate_calibration_error(
            ExchangeVoltageModel(j0x=jx, j0y=jy, kappa=sweep.model.kappa), uncertainty
        )
        corners = [
            (jx + sx, jy + sy) for sx in (-sig_jx, 0, sig_jx) for sy in (-sig_jy, 0, sig_jy)
        ]
        f_corner = [f_ss(*c) for c in corners]
        v_corner = [visibilities(*c) for c in corners]
        rows["f_fit_x_mhz"].append(fit_x.f)
        rows["f_fit_y_mhz"].append(fit_y.f)
        rows["vis_fit_x"].append(fit_x.visibility)
        rows["vis_fit_y"].append(fit_y.visibility)
        rows["f_theory_mhz"].append(f_ss(jx, jy))
        rows["f_lo_mhz"].append(min(f_corner))
        rows["f_hi_mhz"].append(max(f_corner))
        vx, vy = visibilities(jx, jy)
        rows["vx_theory"].append(vx)
        rows["vy_theory"].append(vy)
        rows["vx_lo"].append(min(v[0] for v in v_corner))
        rows["vx_hi"].append(max(v[0] for v in v_corner))
        rows["vy_lo"].append(min(v[1] for v in v_corner))
        rows["vy_hi"].append(max(v[1] for v in v_corner))

    path = out_dir / "fig4ef_extraction.csv"
    write_csv(path, {"dvp_mv": dvp} | {k: np.array(v) for k, v in rows.items()})
    return [str(path)]


# ---------------------------------------------------------------------------
# eigenstate preparation


def _prep_sequence(jx0, jy0, jx1, jy1, t_ramp, dwell) -> PulseSequence:
    start = ExchangeConfig.balanced(jx0, jy0)
    target = ExchangeConfig.balanced(jx1, jy1)
    segments = (set_diabatic(start), linear_ramp(target, t_ramp), hold(target, 0.0))
    return PulseSequence(init=singlet_x(), segments=segments, dwell_times=tuple(dwell))


def figure_fig5ab(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Ramp-time map at equal exchange and sweep map after adiabatic prep."""
    jj = 2 * params["fig5.j_pair_mhz"]
    jy0 = params["fig5.jy_start_mhz"]
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    sigma = sigma_from_tphi(params["fig4cd.tphi_ns"])
    n_samples = params["noise.n_samples"]
    ramps = np.linspace(0.0, params["fig5a.t_ramp_max_ns"], params["fig5a.t_ramp_points"])

    def ramp_row(args):
        k, t_ramp = args
        seq = _prep_sequence(jj, jy0, jj, jj, t_ramp, t)
        noise = NoiseModel(sigma, n_samples, seed + 23 * k)
        res = run_sequence(seq, noise)
        return ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)

    rows = [ramp_row(a) for a in enumerate(ramps)]
    ideal_a = np.stack([r[:, IDX_SS] for r in rows])
    shots_a = np.empty_like(ideal_a)
    for k, probs in enumerate(rows):
        shots_a[k] = _shot_column(probs, IDX_SS, params["readout.n_shots"], seed * 6007 + 89 * k)
    path_a = out_dir / "fig5a_map.csv"
    _write_map_csv(path_a, "t_ramp_ns", ramps, t, ideal_a, shots_a)

    sweep = sweep_model_from(params)
    dvp = np.linspace(params["fig3e.dvp_min_mv"], params["fig3e.dvp_max_mv"], params["fig3e.dvp_points"])
    t_ramp = params["fig5.t_ramp_ns"]

    def sweep_row(args):
        k, dvp_k = args
        jx, jy = sweep.sums(dvp_k)
        seq = _prep_sequence(jx, jy0, jx, jy, t_ramp, t)
        noise = NoiseModel(sigma, n_samples, seed + 29 * k)
        res = run_sequence(seq, noise)
        return ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)

    rows = [sweep_row(a) for a in enumerate(dvp)]
    ideal_b = np.stack([r[:, IDX_SS] for r in rows])
    shots_b = np.empty_like(ideal_b)
    for k, probs in enumerate(rows):
        shots_b[k] = _shot_column(probs, IDX_SS, params["readout.n_shots"], seed * 6029 + 83 * k)
    path_b = out_dir / "fig5b_map.csv"
    _write_map_csv(path_b, "dvp_mv", dvp, t, ideal_b, shots_b)
    return [str(path_a), str(path_b)]


def figure_fig5c(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Mean singlet-singlet probability after adiabatic prep vs sweep, with theory."""
    sweep = sweep_model_from(params)
    dvp = np.linspace(params["fig3e.dvp_min_mv"], params["fig3e.dvp_max_mv"], params["fig3e.dvp_points"])
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    jy0 = params["fig5.jy_start_mhz"]
    sigma = sigma_from_tphi(params["fig4cd.tphi_ns"])
    uncertainty = CalibrationUncertainty()

    def sweep_row(args):
        k, dvp_k = args
        jx, jy = sweep.sums(dvp_k)
        seq = _prep_sequence(jx, jy0, jx, jy, params["fig5.t_ramp_ns"], t)
        noise = NoiseModel(sigma, params["noise.n_samples"], seed + 41 * k)
        res = run_sequence(seq, noise)
        px = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[:, IDX_SS].mean()
        py = ensemble_probabilities(res, ReadoutDirection.VERTICAL)[:, IDX_SS].mean()
        return px, py

    rows = [sweep_row(a) for a in enumerate(dvp)]
    mean_x = np.array([r[0] for r in rows])
    mean_y = np.array([r[1] for r in rows])

    theory_x, theory_y, lo_x, hi_x, lo_y, hi_y = [], [], [], [], [], []
    for dvp_k in dvp:
        jx, jy = sweep.sums(dvp_k)
        sig_jx, sig_jy = propagate_calibration_error(
            ExchangeVoltageModel(j0x=jx, j0y=jy, kappa=sweep.model.kappa), uncertainty
        )
        px, py = ground_state_probabilities(jx, jy)
        corners = [ground_state_probabilities(jx + sx, jy + sy)
                   for sx in (-sig_jx, 0, sig_jx) for sy in (-sig_jy, 0, sig_jy)]
        theory_x.append(px)
        theory_y.append(py)
        lo_x.append(min(c[0] for c in corners))
        hi_x.append(max(c[0] for c in corners))
        lo_y.append(min(c[1] for c in corners))
        hi_y.append(max(c[1] for c in corners))

    path = out_dir / "fig5c_ground_state.csv"
    write_csv(path, {
        "dvp_mv": dvp,
        "p_ss_x_sim": mean_x,
        "p_ss_y_sim": mean_y,
        "p_ss_x_theory": np.array(theory_x),
        "p_ss_x_lo": np.array(lo_x),
        "p_ss_x_hi": np.array(hi_x),
        "p_ss_y_theory": np.array(theory_y),
        "p_ss_y_lo": np.array(lo_y),
        "p_ss_y_hi": np.array(hi_y),
    })
    return [str(path)]


def figure_fig5ef(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Swap-pulse duration maps: oscillations vanish at the half-swap point."""
    jj = 2 * params["fig5.j_pair_mhz"]
    j23 = params["fig5ef.j23_mhz"]
    pulse_cfg = ExchangeConfig(0.0, 0.0, j23, 0.0)
    equal = ExchangeConfig.balanced(jj, jj)
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    tj = np.linspace(0.0, params["fig5ef.tj_max_ns"], params["fig5ef.tj_points"])
    sigma = sigma_from_tphi(params["fig4cd.tphi_ns"])

    def row(args):
        k, tj_k = args
        seq = PulseSequence(
            init=singlet_x(),
            segments=(exchange_pulse(pulse_cfg, tj_k), set_diabatic(equal), hold(equal, 0.0)),
            dwell_times=tuple(t),
        )
        noise = NoiseModel(sigma, params["noise.n_samples"], seed + 37 * k)
        res = run_sequence(seq, noise)
        return (
            ensemble_probabilities(res, ReadoutDirection.HORIZONTAL),
            ensemble_probabilities(res, ReadoutDirection.VERTICAL),
        )

    rows = [row(a) for a in enumerate(tj)]
    files = []
    for name, idx in (("e", 0), ("f", 1)):
        ideal = np.stack([r[idx][:, IDX_SS] for r in rows])
        shots = np.empty_like(ideal)
        for k in range(len(tj)):
            shots[k] = _shot_column(rows[k][idx], IDX_SS, params["readout.n_shots"],
                                    seed * 7013 + 71 * k + idx * 400000)
        path = out_dir / f"fig5{name}_map.csv"
        _write_map_csv(path, "t_j_ns", tj, t, ideal, shots)
        files.append(str(path))
    return files


# ---------------------------------------------------------------------------
# fixed-time ellipse maps and local chevrons at the three operating points


def _figs456(out_dir: Path, params: dict, seed: int, tag: str) -> list[str]:
    dvp = params[f"{tag}.dvp_mv"]
    t_map = params[f"{tag}.t_map_ns"]
    sweep = sweep_model_from(params)
    half = params["figs456.dv_max_mv"]
    n = params["figs456.dv_points"]
    dvx = np.linspace(-half, half, n)
    dvy = np.linspace(-half, half, n)
    files = []

    for name, direction in (("x", ReadoutDirection.HORIZONTAL), ("y", ReadoutDirection.VERTICAL)):
        init = st_product_state(direction)

        def cell(args, direction=direction):
            i, j_idx = args
            cfg = sweep.config(dvp, dvx[i], dvy[j_idx])
            seq = _st_sequence(init, cfg, np.array([t_map]))
            res = run_sequence(seq)
            return ensemble_probabilities(res, direction)[0, IDX_ST]

        cells = [cell((i, j)) for i in range(n) for j in range(n)]
        values = np.array(cells).reshape(n, n)
        cal = CalibrationMap(dvx=dvx, dvy=dvy, values=values, t_ns=t_map)
        path = out_dir / f"{tag}_map_{name}.csv"
        cal.to_csv(path)
        files.append(str(path))

    # local chevrons through the operating point
    t = np.linspace(0.0, 3.0 * t_map, 121)
    for axis in ("dvx", "dvy"):
        for name, direction in (("x", ReadoutDirection.HORIZONTAL), ("y", ReadoutDirection.VERTICAL)):
            init = st_product_state(direction)

            def column(args, direction=direction, axis=axis):
                k, dv_k = args
                cfg = sweep.config(dvp, dv_k, 0.0) if axis == "dvx" else sweep.config(dvp, 0.0, dv_k)
                res = run_sequence(_st_sequence(init, cfg, t))
                return ensemble_probabilities(res, direction)[:, IDX_ST]

            cols = [column(a) for a in enumerate(dvx)]
            ideal = np.stack(cols)
            path = out_dir / f"{tag}_chevron_{axis}_{name}.csv"
            _write_map_csv(path, f"{axis}_mv", dvx, t, ideal)
            files.append(str(path))
    return files


def figure_figS4(out_dir, params, seed):
    return _figs456(out_dir, params, seed, "figS4")


def figure_figS5(out_dir, params, seed):
    return _figs456(out_dir, params, seed, "figS5")


def figure_figS6(out_dir, params, seed):
    return _figs456(out_dir, params, seed, "figS6")


def figure_figS9(out_dir: Path, params: dict, seed: int) -> list[str]:
    """Adiabatic preparation maps from both initial products, both readouts."""
    jj = 2 * params["fig5.j_pair_mhz"]
    jy0 = params["fig5.jy_start_mhz"]
    t = np.linspace(0.0, params["fig5.t_max_ns"], params["fig5.t_points"])
    ramps = np.linspace(0.0, params["figS9.t_ramp_max_ns"], params["figS9.t_ramp_points"])
    sigma = sigma_from_tphi(params["fig4cd.tphi_ns"])
    files = []
    linecuts: dict[str, np.ndarray] = {"t_ns": t}

    for init_name, init, start in (
        ("sx", singlet_x(), ExchangeConfig.balanced(jj, jy0)),
        ("sy", singlet_y(), ExchangeConfig.balanced(jy0, jj)),
    ):
        target = ExchangeConfig.balanced(jj, jj)

        def ramp_row(args, init=init, start=start, target=target):
            k, t_ramp = args
            seq = PulseSequence(
                init=init,
                segments=(set_diabatic(start), linear_ramp(target, t_ramp), hold(target, 0.0)),
                dwell_times=tuple(t),
            )
            noise = NoiseModel(sigma, params["noise.n_samples"], seed + 43 * k)
            res = run_sequence(seq, noise)
            return (
                ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[:, IDX_SS],
                ensemble_probabilities(res, ReadoutDirection.VERTICAL)[:, IDX_SS],
            )

        rows = [ramp_row(a) for a in enumerate(ramps)]
        for ro_name, idx in (("x", 0), ("y", 1)):
            ideal = np.stack([r[idx] for r in rows])
            path = out_dir / f"figS9_{init_name}_read{ro_name}.csv"
            _write_map_csv(path, "t_ramp_ns", ramps, t, ideal)
            files.append(str(path))
            cut = int(np.argmin(np.abs(ramps - params["figS9.linecut_ns"])))
            linecuts[f"{init_name}_read{ro_name}"] = ideal[cut]

    cut_path = out_dir / "figS9_linecuts.csv"
    write_csv(cut_path, linecuts)
    files.append(str(cut_path))
    return files


FIGURES = {
    "fig3c": figure_fig3c,
    "fig3d": figure_fig3d,
    "fig3e": figure_fig3e,
    "fig4b": figure_fig4b,
    "fig4cd": figure_fig4cd,
    "fig4ef": figure_fig4ef,
    "fig5ab": figure_fig5ab,
    "fig5c": figure_fig5c,
    "fig5ef": figure_fig5ef,
    "figS4": figure_figS4,
    "figS5": figure_figS5,
    "figS6": figure_figS6,
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
    files.append(_sidecar(out, name, params, seed))
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


def _st_trace_probabilities(device, direction, dvp, dvx, dvy, t):
    init = st_product_state(direction)
    cfg = device.config(dvp, dvx, dvy)
    res = run_sequence(_st_sequence(init, cfg, t))
    return ensemble_probabilities(res, direction)[:, IDX_ST]


def run_calibration(out_dir, seed: int = 0, overrides: dict | None = None) -> CalibrationReport:
    """Ellipse-center plus frequency-minimum loop on a synthetic device.

    The device hides a balance-point offset; the loop recovers it, then
    extracts the balanced sums from the two frequency minima and reports
    the worst-case exchange uncertainty for the stated center precision.
    """
    params = resolve_params(overrides)
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
    iterations = 0
    ellipse = None

    for iteration in range(params["calibrate.max_iterations"]):
        iterations = iteration + 1
        dvx = center[0] + np.linspace(-half, half, n)
        dvy = center[1] + np.linspace(-half, half, n)

        def cell(args):
            i, j_idx = args
            cfg = device.config(0.0, dvx[i], dvy[j_idx])
            seq = _st_sequence(st_product_state(ReadoutDirection.HORIZONTAL), cfg, np.array([t_map]))
            res = run_sequence(seq)
            p = ensemble_probabilities(res, ReadoutDirection.HORIZONTAL)[0]
            ro = ReadoutConfig(ReadoutDirection.HORIZONTAL, n_shots=params["readout.n_shots"],
                               seed=seed * 911 + 37 * i + j_idx)
            return sample_shots(p, ro).probabilities()[IDX_ST]

        cells = [cell((i, j)) for i in range(n) for j in range(n)]
        cal = CalibrationMap(dvx=dvx, dvy=dvy, values=np.array(cells).reshape(n, n), t_ns=t_map)
        ellipse = find_ellipse_center(cal)
        shift = np.array(ellipse.center) - center
        center = np.array(ellipse.center)
        if np.linalg.norm(shift) < params["calibrate.tolerance_mv"] and iteration > 0:
            converged = True
            break

    # frequency minima through the recovered center
    t = np.linspace(0.0, 240.0, 121)
    dv_line = np.linspace(-4.0, 4.0, 9)

    sweep_x = []
    for dv in dv_line:
        p = _st_trace_probabilities(device, ReadoutDirection.HORIZONTAL, 0.0,
                                    center[0] + dv, center[1], t)
        sweep_x.append((center[0] + dv, fit_damped_cosine(t, p)))
    min_x = find_frequency_minimum(sweep_x)
    j0y = 2 * min_x.f_min

    sweep_y = []
    for dv in dv_line:
        p = _st_trace_probabilities(device, ReadoutDirection.VERTICAL, 0.0,
                                    center[0], center[1] + dv, t)
        sweep_y.append((center[1] + dv, fit_damped_cosine(t, p)))
    min_y = find_frequency_minimum(sweep_y)
    j0x = 2 * min_y.f_min

    refined = np.array([min_x.dv_star, min_y.dv_star])
    model = ExchangeVoltageModel(j0x=j0x, j0y=j0y, kappa=sweep.model.kappa)
    sigma_jx, sigma_jy = propagate_calibration_error(model, CalibrationUncertainty())

    report = CalibrationReport(
        center_mv=(float(refined[0]), float(refined[1])),
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
