import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rvbsim.cli import main
from rvbsim.dynamics import MAX_QUADRATURE_NODES
from rvbsim.experiments import FIGURES, resolve_params, run_calibration, run_figure
from rvbsim.io import read_csv


def test_resolve_params_rejects_unknown_keys():
    with pytest.raises(KeyError, match="unknown config"):
        resolve_params({"fig4b.not_a_key": 1})
    with pytest.raises(KeyError, match="user.note"):
        resolve_params({"user.note": 1})
    params = resolve_params({"fig4b.t_points": 44})
    assert params["fig4b.t_points"] == 44


def test_figure_registry_complete():
    assert set(FIGURES) == {
        "fig3c", "fig3d", "fig3e", "fig4b", "fig4cd", "fig4ef",
        "fig5ab", "fig5c", "fig5ef", "figS4", "figS5", "figS6", "figS9",
    }


def test_unknown_figure_name():
    with pytest.raises(KeyError, match="unknown figure"):
        run_figure("fig99", "/tmp/nowhere")


SMALL_4B = {
    "fig4b.t_points": 40,
    "fig4b.t_max_ns": 156.0,
}


def test_fig4b_deterministic_and_fitted(tmp_path):
    prod = run_figure("fig4b", tmp_path, seed=5, overrides=SMALL_4B)
    blobs = {p: Path(p).read_bytes() for p in prod.files}
    prod2 = run_figure("fig4b", tmp_path, seed=5, overrides=SMALL_4B)
    for p in prod2.files:
        assert Path(p).read_bytes() == blobs[p]  # byte-identical rerun

    data = read_csv(tmp_path / "fig4b_traces.csv")
    assert set(data) == {"t_ns", "p_ss_x_ideal", "p_ss_x_shot", "p_ss_y_ideal", "p_ss_y_shot"}
    # initial vertical singlet product: P_y starts at 1, P_x at 1/4
    assert_allclose(data["p_ss_y_ideal"][0], 1.0, atol=1e-9)
    assert_allclose(data["p_ss_x_ideal"][0], 0.25, atol=1e-9)

    fits = json.loads((tmp_path / "fig4b_fits.json").read_text())
    assert abs(fits["x"]["fit.f_mhz"] - 50.0) / 50.0 < 0.02
    sidecar = json.loads((tmp_path / "fig4b_params.json").read_text())
    assert sidecar["seed"] == 5
    assert sidecar["parameters"]["fig4b.t_points"] == 40


def test_seed_changes_shot_columns(tmp_path):
    run_figure("fig4b", tmp_path / "a", seed=1, overrides=SMALL_4B)
    run_figure("fig4b", tmp_path / "b", seed=2, overrides=SMALL_4B)
    a = read_csv(tmp_path / "a" / "fig4b_traces.csv")
    b = read_csv(tmp_path / "b" / "fig4b_traces.csv")
    assert not np.allclose(a["p_ss_x_shot"], b["p_ss_x_shot"])


def test_figs5_map_structure(tmp_path):
    prod = run_figure("figS5", tmp_path, seed=0, overrides={
        "figs456.dv_points": 9, "figs456.dv_max_mv": 6.0,
    })
    data = read_csv(tmp_path / "figS5_map_x.csv")
    assert len(data["dvx_mv"]) == 81
    # signal is a genuine probability field
    assert np.all(data["probability"] >= -1e-12)
    assert np.all(data["probability"] <= 1 + 1e-12)
    chev = read_csv(tmp_path / "figS5_chevron_dvx_x.csv")
    assert set(chev) == {"dvx_mv", "t_ns", "p_ideal"}


def test_calibration_with_drift_hook(tmp_path):
    report = run_calibration(tmp_path, seed=1, overrides={
        "calibrate.drift_hook": True,
        "calibrate.offset_dvx_mv": 1.0,
        "calibrate.offset_dvy_mv": -1.0,
        "calibrate.grid_points": 13,
    })
    assert abs(report.center_mv[0] - 1.0) < 0.5
    assert abs(report.center_mv[1] + 1.0) < 0.5
    assert abs(report.j0x_mhz - report.true_j0x_mhz) < 1.5
    payload = json.loads((tmp_path / "calibration.json").read_text())
    assert payload["report"]["converged"] is True


@pytest.mark.parametrize("iterations", [0, -1])
def test_calibration_rejects_max_iterations_below_one(tmp_path, monkeypatch, iterations):
    # refused before any scan: the loop would never fit an ellipse to report
    from rvbsim import experiments

    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(experiments, "st_scan", no_scan)
    with pytest.raises(ValueError, match="calibrate.max_iterations must be at least 1"):
        run_calibration(tmp_path / "out", overrides={"calibrate.max_iterations": iterations})
    assert not (tmp_path / "out").exists()


def test_cli_figure_list(capsys):
    assert main(["figure", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig4b" in out and "figS9" in out


def test_cli_figure_with_spec(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    spec.write_text("".join(f"{k} = {v}\n" for k, v in SMALL_4B.items()))
    code = main(["figure", "fig4b", "--spec", str(spec), "--seed", "3",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig4b_traces.csv" in out
    assert (tmp_path / "out" / "fig4b_traces.csv").exists()


@pytest.mark.parametrize("argv, spec_text, message", [
    (["figure", "fig4b"], "fig4b.no_such_key = 1\n",
     "{spec}: unknown config keys: ['fig4b.no_such_key']"),
    (["figure", "fig4b"], None, "{spec}: No such file or directory"),
    (["figure", "fig4b"], "fig4b.t_points 40\n",
     "{spec}: config line 1: expected 'key = value', got 'fig4b.t_points 40'"),
    (["calibrate"], "calibrate.no_such_key = 1\n",
     "{spec}: unknown config keys: ['calibrate.no_such_key']"),
    (["calibrate"], None, "{spec}: No such file or directory"),
    (["calibrate"], "calibrate.grid_points\n",
     "{spec}: config line 1: expected 'key = value', got 'calibrate.grid_points'"),
    (["figure", "nosuch"], "", f"nosuch: unknown figure; choose from {sorted(FIGURES)}"),
], ids=["figure-unknown-key", "figure-missing-spec", "figure-line-without-equals",
        "calibrate-unknown-key", "calibrate-missing-spec", "calibrate-line-without-equals",
        "unknown-figure"])
def test_cli_bad_spec_or_figure_name_is_a_one_line_usage_error(tmp_path, capsys, argv, spec_text,
                                                               message):
    # loading and key checks only; an error raised while a figure runs is not caught
    spec = tmp_path / "spec.cfg"
    if spec_text is not None:
        spec.write_text(spec_text)
    out = tmp_path / "out"
    assert main([*argv, "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"rvbsim {argv[0]}: {message.format(spec=spec)}\n"
    assert not out.exists()


def test_cli_simulate(tmp_path, capsys):
    seq = tmp_path / "swap.txt"
    seq.write_text(
        "init state sx\n"
        "segment pulse j12=0 j34=0 j23=20 j14=0 dur=25\n"
        "segment diabatic j12=25 j34=25 j23=25 j14=25\n"
        "segment hold j12=25 j34=25 j23=25 j14=25 dur=0\n"
        "dwell range 0 80 4\n"
    )
    code = main(["simulate", str(seq), "--out", str(tmp_path / "out"),
                 "--shots", "200", "--seed", "2"])
    assert code == 0
    data = read_csv(tmp_path / "out" / "swap_result.csv")
    # the half-swap pulse parks the excited eigenstate: flat response at 1/4
    assert_allclose(data["p_ss_h"], 0.25, atol=1e-9)
    assert_allclose(data["p_ss_v"], 0.25, atol=1e-9)
    assert np.ptp(data["p_ss_h"]) < 1e-9
    assert "shots_ss_h" in data
    assert abs(data["shots_ss_h"].mean() - 0.25) < 0.02


@pytest.mark.parametrize("samples", ["0", "129", "200"])
def test_cli_simulate_rejects_samples_outside_quadrature_cap(tmp_path, capsys, samples):
    # a usage error naming the cap, before the sequence file is read
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(tmp_path / "missing.txt"), "--sigma-f", "1.0", "--samples", samples])
    assert exc.value.code == 2
    assert f"1..{MAX_QUADRATURE_NODES}, got {samples}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--sigma-f", "-1", "sigma_f must be finite and non-negative, got -1.0"),
    ("--sigma-f", "nan", "sigma_f must be finite and non-negative, got nan"),
    ("--sigma-f", "inf", "sigma_f must be finite and non-negative, got inf"),
    ("--shots", "-5", "must be non-negative, got -5"),
])
def test_cli_simulate_rejects_negative_or_non_finite_noise_and_shots(tmp_path, capsys, flag,
                                                                     value, message):
    # a usage error, not a silent noiseless or shot-free run
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(tmp_path / "missing.txt"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("init state sx\ninit state sy\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=1\n",
     "sequence line 2: repeated init directive"),
    ("init state sx\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=nan\n",
     "sequence line 2: segment duration must be finite and non-negative, got nan"),
    (None, "No such file or directory"),
], ids=["repeated-init", "nan-duration", "missing-file"])
def test_cli_simulate_bad_sequence_file_is_a_one_line_usage_error(tmp_path, capsys, text,
                                                                   message):
    path = tmp_path / "seq.txt"
    if text is not None:
        path.write_text(text)
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"rvbsim simulate: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_simulate_noise_without_exchange_is_a_one_line_usage_error(tmp_path, capsys):
    # the file loads, but noise scales couplings by 1 + offset/f_ref and a final
    # segment with jx = jy = 0 has no reference frequency
    path = tmp_path / "zero.txt"
    path.write_text("init state sx\nsegment hold j12=0 j34=0 j23=0 j14=0 dur=0\ndwell 0 1 2\n")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--sigma-f", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"rvbsim simulate: {path}: noise needs a positive reference frequency\n"
    assert not out.exists()
    assert main(["simulate", str(path), "--out", str(out)]) == 0  # noiseless, it runs


def test_sweeps_run_as_one_stacked_solve(tmp_path, monkeypatch):
    # one run_sequence call per sweep or panel, never one per column
    from rvbsim import experiments
    from rvbsim.readout import ReadoutDirection

    calls = []
    original = experiments.run_sequence

    def counting(seq, *args, **kwargs):
        calls.append(seq.couplings.shape[1])  # the columns of the stack
        return original(seq, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_sequence", counting)
    sweep = experiments.sweep_model_from(resolve_params())
    experiments.st_scan(sweep.config(np.linspace(-5.0, 5.0, 7)), ReadoutDirection.HORIZONTAL,
                        [0.0, 50.0])
    assert calls == [7]

    calls.clear()
    report = run_calibration(tmp_path / "cal", overrides={"calibrate.grid_points": 9})
    # per iteration one 9 x 9 map, then one 9-point line per frequency minimum
    assert calls == [81] * report.iterations + [9, 9]

    calls.clear()
    run_figure("fig3e", tmp_path / "fig3e", overrides={"fig3e.dvp_points": 6, "fig3e.t_points": 61})
    assert calls == [6, 6]  # one call per readout panel

    # the ramp sweeps too: figS9 one call (the singlet-y maps are its mirror), fig5ab one per map
    sizes = {"figS9.t_ramp_points": 3, "fig5a.t_ramp_points": 4, "fig3e.dvp_points": 5,
             "fig5.t_points": 11}
    for name, expected in (
        ("figS9", [sizes["figS9.t_ramp_points"]]),
        ("fig5ab", [sizes["fig5a.t_ramp_points"], sizes["fig3e.dvp_points"]]),
        ("fig5c", [sizes["fig3e.dvp_points"]]),
    ):
        calls.clear()
        run_figure(name, tmp_path / name, overrides=sizes)
        assert calls == expected


def test_cli_calibrate(tmp_path, capsys):
    # keep the loop small for test runtime
    spec = tmp_path / "cal.cfg"
    spec.write_text("calibrate.grid_points = 13\ncalibrate.offset_dvx_mv = 1.5\n")
    code = main(["calibrate", "--spec", str(spec), "--out", str(tmp_path / "out"), "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "center estimate" in out and "converged: True" in out


def test_shot_streams_are_distinct_per_column(tmp_path, monkeypatch):
    # every (figure, panel, column) shot key drawn at default sizes is used once and
    # names its own stream; fig4ef fits the fig4cd maps, so it is not run separately
    from rvbsim import experiments, readout

    keys = []
    original = readout.sample_shots

    def recording(probs, n_shots, key):
        keys.append(key)
        return original(probs, n_shots, key)

    monkeypatch.setattr(experiments, "sample_shots", recording)
    monkeypatch.setattr(readout, "sample_shots", recording)
    for name in ("fig3c", "fig3d", "fig3e", "fig4b", "fig4cd", "fig5ab", "fig5ef"):
        run_figure(name, tmp_path / name, seed=0)
    run_calibration(tmp_path / "calibrate", seed=0)
    seq = tmp_path / "hold.txt"
    seq.write_text("init state sx\nsegment hold j12=25 j34=25 j23=25 j14=25 dur=0\n"
                   "dwell range 0 40 4\n")
    assert main(["simulate", str(seq), "--out", str(tmp_path / "sim"), "--shots", "50"]) == 0

    assert all(isinstance(k, tuple) and len(k) == 4 and k[0] == 0 for k in keys)
    assert {k[1] for k in keys} == set(experiments.SHOT_STREAMS.values())
    assert len(set(keys)) == len(keys)
    firsts = {tuple(readout.rng(*k).integers(0, 2**63, size=2)) for k in keys}
    assert len(firsts) == len(keys)


def _standardized_residuals(path, n_shots):
    data = read_csv(path)
    n_sweep = len(np.unique(data["dvp_mv"]))
    p = data["p_ideal"].reshape(n_sweep, -1)
    shot = data["p_shot"].reshape(n_sweep, -1)
    var = p * (1 - p) / n_shots
    return np.where(var > 1e-9, (shot - p) / np.sqrt(np.maximum(var, 1e-9)), np.nan)


def test_adjacent_fig3e_columns_draw_uncorrelated_shots(tmp_path):
    # with stream strides shorter than the dwell grid, column k + 1 used to replay
    # column k's shots shifted by 31 points (correlation 0.75 at that offset)
    run_figure("fig3e", tmp_path, seed=0)
    z = _standardized_residuals(tmp_path / "fig3e_map_vertical.csv", 500)
    assert 0.8 < np.nanstd(z) < 1.2
    for offset in range(61):
        a, b = z[:-1, offset:].ravel(), z[1:, : z.shape[1] - offset].ravel()
        ok = np.isfinite(a) & np.isfinite(b)
        assert abs(np.corrcoef(a[ok], b[ok])[0, 1]) < 0.1, offset


def test_figs9_zero_ramp_rows_match_closed_form(tmp_path):
    # the default quadrature reaches the Gaussian-envelope closed form; the 3/sqrt(n)
    # bound a Monte-Carlo ensemble needs would be 0.75 at n = 16
    from rvbsim.dynamics import sigma_from_tphi, singlet_singlet_probabilities

    run_figure("figS9", tmp_path, seed=0, overrides={"figS9.t_ramp_points": 2})
    params = resolve_params()
    jj = 2 * params["fig5.j_pair_mhz"]
    sigma = sigma_from_tphi(params["fig4cd.tphi_ns"])
    for init in ("sx", "sy"):
        for readout in ("x", "y"):
            cols = read_csv(tmp_path / f"figS9_{init}_read{readout}.csv")
            zero = cols["t_ramp_ns"] == 0.0
            p_return, p_swapped = singlet_singlet_probabilities(jj, jj, cols["t_ns"][zero], sigma)
            expected = p_return if (init == "sx") == (readout == "x") else p_swapped
            assert_allclose(cols["p_ideal"][zero], expected, rtol=0, atol=1e-5)


@settings(max_examples=6, deadline=None)
@given(st.floats(10.0, 80.0), st.floats(0.1, 8.0),
       st.lists(st.floats(0.0, 150.0), min_size=1, max_size=3), st.booleans())
def test_figs9_singlet_y_maps_are_the_singlet_x_maps_with_readouts_swapped(jj, jy0, t_ramps,
                                                                           noisy):
    # figS9 runs only the singlet-x ramps: the singlet-y start from (jy0, jj) is their
    # 90-degree rotation, so its maps are theirs with the two readouts swapped
    from rvbsim.basis import singlet_x, singlet_y
    from rvbsim.dynamics import (NoiseModel, SegmentKind, SequenceStack, run_sequence,
                                 sigma_from_tphi)
    from rvbsim.hamiltonians import ExchangeConfig
    from rvbsim.readout import ReadoutDirection, ensemble_probabilities

    noise = NoiseModel(sigma_from_tphi(130.0), 4) if noisy else None
    n = len(t_ramps)
    target = ExchangeConfig.balanced(jj, jj).as_array()

    def maps(init, start):
        stack = SequenceStack(init, (SegmentKind.SET_DIABATIC, SegmentKind.LINEAR_RAMP,
                                     SegmentKind.HOLD),
                              np.repeat([[start], [target], [target]], n, axis=1),
                              [np.zeros(n), t_ramps, np.zeros(n)], np.linspace(0.0, 60.0, 13))
        result = run_sequence(stack, noise)
        return [ensemble_probabilities(result, d)[..., 0] for d in ReadoutDirection]

    read_x, read_y = maps(singlet_x(), ExchangeConfig.balanced(jj, jy0).as_array())
    sy_read_x, sy_read_y = maps(singlet_y(), ExchangeConfig.balanced(jy0, jj).as_array())
    assert_allclose(sy_read_x, read_y, rtol=0, atol=1e-12)
    assert_allclose(sy_read_y, read_x, rtol=0, atol=1e-12)


def test_fig4b_undetermined_decay_time_round_trips_as_inf(tmp_path):
    # an effectively undamped trace leaves tphi unfixed: its sigma is written as
    # JSON Infinity and read back as inf, the others stay finite
    run_figure("fig4b", tmp_path, seed=0,
               overrides={"fig4b.tphi_x_ns": 1e12, "readout.n_shots": 10**6})
    fit = json.loads((tmp_path / "fig4b_fits.json").read_text())["x"]
    assert fit["fit.sigma_tphi_ns"] == np.inf
    assert all(np.isfinite(fit[f"fit.sigma_{k}"]) for k in ("a", "f_mhz", "phi_rad", "a0"))


# a sweep to 60 mV: jx falls from 121 to 2.5 MHz while sigma_jx grows past jx near 33 mV
FAR_SWEEP = {
    "fig3e.dvp_max_mv": 60.0,
    "fig3e.dvp_points": 5,
    "fig3e.t_points": 61,
    "fig4cd.t_points": 41,
    "fig5.t_points": 21,
    "noise.n_samples": 8,
}


def test_fig3e_failed_column_fits_read_nan(tmp_path):
    # where jx/2 gives under 1.5 periods in the dwell window the vertical fit fails:
    # that column reads NaN and warns, the figure still completes
    with pytest.warns(RuntimeWarning, match=r"^fig3e panel vertical column \d+: trace spans") as record:
        run_figure("fig3e", tmp_path, seed=0, overrides=FAR_SWEEP)
    failed = sorted(int(re.search(r"column (\d+)", str(w.message)).group(1)) for w in record)
    data = read_csv(tmp_path / "fig3e_exchange.csv")
    assert failed and failed == np.flatnonzero(np.isnan(data["jx_fit_mhz"])).tolist()
    ok = np.ones(len(data["dvp_mv"]), dtype=bool)
    ok[failed] = False
    assert np.all(np.isfinite(data["jx_fit_mhz"][ok]))
    for name, column in data.items():
        if name != "jx_fit_mhz":
            assert np.all(np.isfinite(column)), name


@pytest.mark.filterwarnings("ignore:fig4ef panel:RuntimeWarning")
# at 100 mV sigma_jy also exceeds jy, so one corner clips to the undefined (0, 0)
@pytest.mark.parametrize("dvp_max_mv", [60.0, 100.0], ids=["60mV", "100mV"])
@pytest.mark.parametrize("name, csv, prefixes", [
    ("fig4ef", "fig4ef_extraction.csv", ("f_{}_mhz", "vx_{}", "vy_{}")),
    ("fig5c", "fig5c_ground_state.csv", ("p_ss_x_{}", "p_ss_y_{}")),
])
def test_theory_band_clips_corner_couplings_at_zero(tmp_path, name, csv, prefixes, dvp_max_mv):
    run_figure(name, tmp_path, seed=0, overrides=FAR_SWEEP | {"fig3e.dvp_max_mv": dvp_max_mv})
    data = read_csv(tmp_path / csv)
    for prefix in prefixes:
        lo, theory, hi = (data[prefix.format(band)] for band in ("lo", "theory", "hi"))
        assert np.all(np.isfinite(lo) & np.isfinite(hi))
        assert np.all((lo <= theory) & (theory <= hi)), prefix


_FIG4EF_FITS = ("f_fit_x_mhz", "f_fit_y_mhz", "vis_fit_x", "vis_fit_y")


@pytest.mark.parametrize("name, csv, grid, model", [
    ("fig3e", "fig3e_exchange.csv", "fig3e",
     {"jx_fit_mhz": ("jx_model_mhz", 2), "jy_fit_mhz": ("jy_model_mhz", 2)}),
    ("fig4ef", "fig4ef_extraction.csv", "fig4cd", dict.fromkeys(_FIG4EF_FITS, ("f_theory_mhz", 1))),
])
def test_rows_above_nyquist_read_nan(tmp_path, name, csv, grid, model):
    # from -60 mV up jx runs 838, 365, 159, ... MHz against the dwell grid's 250 MHz
    # Nyquist frequency; a row's model frequency (jx/2, jy/2 or f_ss) decides whether it aliases
    overrides = {"fig3e.dvp_min_mv": -60.0, "fig3e.dvp_points": 6, "noise.n_samples": 8}
    with pytest.warns(RuntimeWarning, match=rf"^{name} panel \w+ column \d+: model frequency"):
        run_figure(name, tmp_path, seed=0, overrides=overrides)
    params = resolve_params(overrides)
    f_nyq = 0.5e3 * (params[f"{grid}.t_points"] - 1) / params[f"{grid}.t_max_ns"]
    data = read_csv(tmp_path / csv)
    aliased = {column: data[model_column] / divisor >= f_nyq
               for column, (model_column, divisor) in model.items()}
    assert 0 < sum(map(np.sum, aliased.values())) < len(aliased) * len(data["dvp_mv"])
    for column, rows in aliased.items():
        assert np.array_equal(np.isnan(data[column]), rows), column
    for column in data.keys() - model.keys():
        assert np.all(np.isfinite(data[column])), column
