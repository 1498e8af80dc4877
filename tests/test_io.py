import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rvbsim.basis import Basis, Pair, PairLabel, PairState, pair_product_state, singlet_x
from rvbsim.dynamics import PulseSegment, SegmentKind
from rvbsim.hamiltonians import ExchangeConfig
from rvbsim import io
from rvbsim.io import (load_sequence, parse_config, read_csv, sequence_from_text, write_csv,
                       write_json)

SEQ_TEXT = """
# half-swap then equal-exchange dwell
init state sx
segment pulse j12=0 j34=0 j23=20 j14=0 dur=25
segment diabatic j12=12.5 j34=12.5 j23=12.5 j14=12.5
segment hold j12=12.5 j34=12.5 j23=12.5 j14=12.5 dur=0
dwell range 0 100 10
"""


def test_parse_config_types_and_comments():
    cfg = parse_config(
        """
        # a comment
        exchange.j0x = 46.0
        exchange.kappa = 0.059
        noise.samples = 500   # inline comment
        run.label = fig4b
        run.enabled = true
        """
    )
    assert cfg["exchange.j0x"] == 46.0
    assert cfg["noise.samples"] == 500 and isinstance(cfg["noise.samples"], int)
    assert cfg["run.label"] == "fig4b"
    assert cfg["run.enabled"] is True


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("not a config line")


def test_sequence_parse_structure():
    seq = sequence_from_text(SEQ_TEXT)
    assert seq.init.basis is Basis.FULL16
    kinds = [s.kind for s in seq.segments]
    assert kinds == [SegmentKind.EXCHANGE_PULSE, SegmentKind.SET_DIABATIC, SegmentKind.HOLD]
    assert seq.segments[0].duration == 25.0
    assert seq.segments[0].target.j23 == 20.0
    assert seq.dwell_times == tuple(float(t) for t in range(0, 101, 10))


def test_sequence_round_trip():
    seq = sequence_from_text(SEQ_TEXT)
    equal = ExchangeConfig.balanced(25.0, 25.0)
    assert seq.segments == (
        PulseSegment(SegmentKind.EXCHANGE_PULSE, ExchangeConfig(0.0, 0.0, 20.0, 0.0), 25.0),
        PulseSegment(SegmentKind.SET_DIABATIC, equal, 0.0),
        PulseSegment(SegmentKind.HOLD, equal, 0.0),
    )
    assert_allclose(seq.init.amplitudes, singlet_x().amplitudes, atol=0)


def test_sequence_product_init_round_trip():
    text = "init product S Q12 T- Q34\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=5\n"
    seq = sequence_from_text(text)
    expected = pair_product_state(
        PairState(Pair.Q12, PairLabel.S), PairState(Pair.Q34, PairLabel.T_MINUS)
    )
    assert seq.init.basis is Basis.FULL16
    assert_allclose(seq.init.amplitudes, expected.amplitudes, atol=0)


def test_sequence_amplitude_init_round_trip():
    amp = np.array([0.6, 0.8j], dtype=complex)
    text = "init amplitudes global_singlet_2 0.6:0 0:0.8\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=1\n"
    seq = sequence_from_text(text)
    assert seq.init.basis is Basis.GLOBAL_SINGLET_2
    assert_allclose(seq.init.amplitudes, amp, atol=0)


def test_malformed_amplitude_token_is_a_value_error_naming_it():
    # complex() of three parts raised a TypeError that the command line printed as a traceback
    text = "init amplitudes global_singlet_2 1:0:0 0:0\n" + _HOLD + "\n"
    with pytest.raises(ValueError, match=r"sequence line 1: amplitude '1:0:0'"):
        sequence_from_text(text)
    seq = sequence_from_text("init amplitudes global_singlet_2 1 0:0\n" + _HOLD + "\n")
    assert_allclose(seq.init.amplitudes, [1.0, 0.0], atol=0)


def test_sequence_requires_init():
    with pytest.raises(ValueError, match="no init"):
        sequence_from_text("segment hold j12=1 j34=1 j23=1 j14=1 dur=1\n")


RAMP_TEXT = """init state sx
segment diabatic j12=25 j34=25 j23=0.5 j14=0.5
segment ramp j12=25 j34=25 j23=25 j14=25 dur=160 mode={mode}
"""


def test_ramp_mode_voltage_is_the_only_mode():
    seq = sequence_from_text(RAMP_TEXT.format(mode="voltage"))
    assert seq.segments[1].kind is SegmentKind.LINEAR_RAMP
    with pytest.raises(ValueError, match="sequence line 3: ramp mode must be 'voltage'"):
        sequence_from_text(RAMP_TEXT.format(mode="linear"))


@pytest.mark.parametrize("kind", ["diabatic", "hold", "pulse"])
def test_mode_is_rejected_off_ramp_lines(kind):
    text = f"init state sx\nsegment {kind} j12=1 j34=1 j23=1 j14=1 dur=5 mode=voltage\n"
    with pytest.raises(ValueError, match=r"sequence line 2: unknown segment fields \['mode'\]"):
        sequence_from_text(text)


@pytest.mark.parametrize("grid, times", [
    ("0 10 6", (0.0, 6.0)),  # an off-grid stop is not passed
    ("0 0.3 0.1", (0.0, 0.1, 0.2, 0.30000000000000004)),  # an on-grid stop survives round-off
    ("0 160 2", tuple(2.0 * k for k in range(81))),
    ("5 5 1", (5.0,)),
])
def test_dwell_range_stops_at_its_stop(grid, times):
    text = f"init state sx\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=0\ndwell range {grid}\n"
    assert sequence_from_text(text).dwell_times == times


@pytest.mark.parametrize("grid", ["0 300 0", "300 0 2", "0 300 -2", "0 300 inf"])
def test_dwell_range_without_points_rejected(grid):
    text = f"init state sx\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=0\ndwell range {grid}\n"
    with pytest.raises(ValueError, match="sequence line 3: dwell range .* makes no grid"):
        sequence_from_text(text)


@pytest.mark.parametrize("grid, cap", [
    ("0 1e300 1e-300", None),  # an infinite count, which math.floor cannot take
    ("0 1e308 1e-308", None),
    ("0 5 1", 5),  # cap + 1 points
    ("2 4.5 0.5", 5),
])
def test_dwell_range_past_the_point_cap_rejected(monkeypatch, grid, cap):
    # the count is refused before a grid is built; a small cap keeps a wrong check cheap
    if cap is not None:
        monkeypatch.setattr(io, "MAX_DWELL_POINTS", cap)
    text = f"init state sx\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=0\ndwell range {grid}\n"
    with pytest.raises(ValueError, match=f"sequence line 3: dwell range .* makes more than "
                                         f"{io.MAX_DWELL_POINTS} points"):
        sequence_from_text(text)
    if cap is not None:  # one point fewer fits
        start, stop, step = map(float, grid.split())
        fits = text.replace(grid, f"{start} {stop - step} {step}")
        assert len(sequence_from_text(fits).dwell_times) == cap


_HOLD = "segment hold j12=1 j34=1 j23=1 j14=1 dur=0"


@pytest.mark.parametrize("text, error", [
    (f"init state sx\ninit state sy\n{_HOLD}\n", r"sequence line 2: repeated init directive"),
    (f"init state sx\n{_HOLD}\ndwell 0 4\ndwell 8\n",
     r"sequence line 4: repeated dwell directive"),
    ("init state sx\nsegment hold j12=25 j34=1 j23=1 j14=1 j12=1 dur=1\n",
     r"sequence line 2: repeated segment fields \['j12'\]"),
    ("init state sx\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=1 dur=2 j34=1\n",
     r"sequence line 2: repeated segment fields \['dur', 'j34'\]"),
])
def test_repeated_directive_or_field_rejected(text, error):
    # the last repeat used to win without a word
    with pytest.raises(ValueError, match=error):
        sequence_from_text(text)


_INIT_FORMS = r"'init state <name>', 'init product <label> <pair> <label> <pair>' or 'init amp"
_SEGMENT_FORM = r"'segment <kind> j12=<MHz> j34=<MHz> j23=<MHz> j14=<MHz> \[dur=<ns>\]'$"
_DWELL_FORMS = r"'dwell <t_ns> \.\.\.' or 'dwell range <start> <stop> <step>'$"


@pytest.mark.parametrize("line, directive, form", [
    ("dwell", "dwell", _DWELL_FORMS),
    ("segment", "segment", _SEGMENT_FORM),
    ("init state", "init", _INIT_FORMS),
    ("init amplitudes", "init", _INIT_FORMS),
    ("init product S Q12", "init", _INIT_FORMS),
    ("dwell range 0 1", "dwell", _DWELL_FORMS),
    ("segment hold j12=1 j34=1 j23=1 j14=1 dur", "segment", _SEGMENT_FORM),
    ("init state sx sy", "init", _INIT_FORMS),
    ("init product S Q12 T- Q34 S Q23", "init", _INIT_FORMS),
    ("dwell range 0 10 5 99", "dwell", _DWELL_FORMS),
], ids=["dwell", "segment", "init-state", "init-amplitudes", "init-product", "dwell-range",
        "field", "init-state-extra", "init-product-extra", "dwell-range-extra"])
def test_malformed_line_names_its_directive_and_form(line, directive, form):
    # a short line used to report "list index out of range" or a failed unpacking, and
    # an extra token was ignored: sx sy started in sx, and "range 0 10 5 99" made 0, 5, 10
    text = f"{line}\n" if directive == "init" else f"init state sx\n{line}\n"
    lineno = 1 if directive == "init" else 2
    with pytest.raises(ValueError, match=f"^sequence line {lineno}: malformed {directive} line: "
                                         f"expected {form}"):
        sequence_from_text(text)


def test_load_sequence(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(SEQ_TEXT)
    seq = load_sequence(path)
    assert len(seq.segments) == 3


def test_csv_round_trip_and_stability(tmp_path):
    path = tmp_path / "table.csv"
    cols = {"t_ns": np.linspace(0, 10, 11), "p": np.linspace(0, 1, 11) ** 2}
    write_csv(path, cols)
    first = path.read_bytes()
    write_csv(path, cols)
    assert path.read_bytes() == first  # byte-identical rewrite
    back = read_csv(path)
    assert list(back) == ["t_ns", "p"]
    assert_allclose(back["p"], cols["p"], atol=1e-9)


def test_csv_length_mismatch(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "bad.csv", {"a": np.arange(3), "b": np.arange(4)})


def _reference_csv(columns) -> bytes:
    """The per-value CSV formatting ``write_csv`` must reproduce byte for byte."""

    def fmt(x) -> str:
        if isinstance(x, (np.integer, int)):
            return str(int(x))
        return f"{float(x):.10g}"

    arrays = [np.asarray(a).ravel() for a in columns.values()]
    lines = [",".join(columns)] + [",".join(fmt(a[i]) for a in arrays) for i in range(len(arrays[0]))]
    return "".join(line + "\n" for line in lines).encode()


def test_csv_bytes_match_reference_formatter(tmp_path):
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 1e-30, 5e-324, 1 / 3, 1e10,
               123456789012.5, 0.1 + 0.2]
    n = len(special) + 200
    cols = {
        "floats": np.concatenate([special, rng.normal(scale=1e3, size=200)]),
        "ints": np.concatenate([[0, -1, 2**62, -(2**62)], rng.integers(-10**6, 10**6, n - 4)]),
        "uint8": rng.integers(0, 256, n).astype(np.uint8),
        "flags": rng.random(n) < 0.5,
        "float32": rng.random(n).astype(np.float32),
        "grid": np.arange(n, dtype=float).reshape(-1, 1) * 0.25,
    }
    path = tmp_path / "table.csv"
    write_csv(path, cols)
    assert path.read_bytes() == _reference_csv(cols)
    write_csv(path, {"only": np.array([np.nan])})
    assert path.read_bytes() == b"only\nnan\n"


def _row_by_row_csv(path, columns) -> None:
    """``write_csv`` as it formatted one row per ``%``: the oracle of its block writer."""
    names = list(columns)
    arrays = [np.asarray(columns[name]).ravel() for name in names]
    row = ",".join("%d" if np.issubdtype(a.dtype, np.integer) else "%.10g" for a in arrays) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row % r for r in zip(*[a.tolist() for a in arrays]))


_SPECIAL_FLOATS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-15, 1 / 3)
#: cell values of each column kind, and the dtype they are stored in
_CSV_COLUMNS = {
    "int": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "float": (st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)), float),
    # round-off below 1e-15 written as 0, as the maps' ``p_ideal`` column is
    "snapped": (st.one_of(st.floats(-1e-14, 1e-14), st.floats(0.0, 1.0))
                .map(lambda x: 0.0 if abs(x) < 1e-15 else x), float),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(sorted(_CSV_COLUMNS)), min_size=1, max_size=5),
       st.integers(0, 30), st.integers(1, 8), st.data())
def test_block_csv_bytes_match_the_row_formatter(tmp_path_factory, kinds, rows, block, data):
    # zero, one or many rows of mixed int and float columns, over one or several
    # row blocks (the block shrunk so that a short table spans many)
    cols = {f"{kind}{k}": np.array(data.draw(st.lists(_CSV_COLUMNS[kind][0], min_size=rows,
                                                      max_size=rows)), dtype=_CSV_COLUMNS[kind][1])
            for k, kind in enumerate(kinds)}
    tmp = tmp_path_factory.mktemp("csv")
    _row_by_row_csv(tmp / "rows.csv", cols)
    with mock.patch.object(io, "_CSV_BLOCK_ROWS", block):
        write_csv(tmp / "blocks.csv", cols)
    assert (tmp / "blocks.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def test_csv_longer_than_one_block_matches_the_row_formatter(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * io._CSV_BLOCK_ROWS + 3
    p = rng.normal(scale=1e-14, size=n)
    cols = {"k": np.arange(n), "p": np.where(np.abs(p) < 1e-15, 0.0, p),
            "x": rng.normal(scale=1e5, size=n), "count": rng.integers(0, 500, n)}
    _row_by_row_csv(tmp_path / "rows.csv", cols)
    write_csv(tmp_path / "blocks.csv", cols)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _block_csv(path, columns) -> None:
    """``write_csv`` before it looked for axis columns, every cell formatted on its own:
    the oracle of its axis strings."""
    names = list(columns)
    arrays = [np.asarray(columns[name]).ravel() for name in names]
    n = len(arrays[0])
    row = ",".join("%d" if np.issubdtype(a.dtype, np.integer) else "%.10g" for a in arrays) + "\n"
    width = len(arrays)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, io._CSV_BLOCK_ROWS):
            block = [a[lo:lo + io._CSV_BLOCK_ROWS].tolist() for a in arrays]
            values = [None] * (width * len(block[0]))
            for k, column in enumerate(block):
                values[k::width] = column
            fh.write(row * len(block[0]) % tuple(values))


#: axis values: few distinct ones, so that a value repeats inside one period, and any float
_AXIS_FLOATS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, np.nan)), st.sampled_from(_SPECIAL_FLOATS),
                         st.floats())
_AXIS_INTS = st.one_of(st.integers(-1, 1), st.integers(-(2**62), 2**62))
#: edits of one cell of an axis column, on its int64 view: the sign bit (0.0 to -0.0),
#: the last bit (a period that misses by one bit), or a NaN of its own payload
_AXIS_EDITS = {
    "sign": lambda bits: bits ^ np.iinfo(np.int64).min,
    "bit": lambda bits: bits ^ 1,
    "nan": lambda bits: np.array(np.nan).view(np.int64) | 1,
}


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.integers(1, 8), st.integers(1, 8), st.sampled_from([None, *_AXIS_EDITS]),
       st.sampled_from([1, 3, io._CSV_AXIS_MIN_ROWS]), st.integers(1, 40), st.data())
def test_axis_csv_bytes_match_the_block_formatter(tmp_path_factory, ints, m, k, edit, least,
                                                  block, data):
    # a map table: a sweep column repeated, a time column tiled, a value column; ints,
    # NaN, +-0, subnormals and floored values, an axis cell edited inside its run or
    # period, and tables above and below the row count where axis columns are looked for
    values = _AXIS_INTS if ints else _AXIS_FLOATS
    dtype = np.int64 if ints else float
    sweep, t = (np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)
                for size in (m, k))
    cols = {"sweep": np.repeat(sweep, k), "t_ns": np.tile(t, m),
            "p": np.array(data.draw(st.lists(_CSV_COLUMNS["snapped"][0], min_size=m * k,
                                             max_size=m * k)))}
    if edit is not None:
        column = cols[data.draw(st.sampled_from(["sweep", "t_ns"]))].view(np.int64)
        cell = data.draw(st.integers(0, m * k - 1))
        column[cell] = _AXIS_EDITS[edit](column[cell])
    tmp = tmp_path_factory.mktemp("csv")
    with mock.patch.object(io, "_CSV_BLOCK_ROWS", block):
        _block_csv(tmp / "reference.csv", cols)
        with mock.patch.object(io, "_CSV_AXIS_MIN_ROWS", least):
            write_csv(tmp / "axes.csv", cols)
    assert (tmp / "axes.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


def test_axis_strings_take_only_bit_exact_repeats_and_tiles():
    v = np.array([0.0, 1.5, np.nan, -2.0, 5e-324])
    strings = ["0", "1.5", "nan", "-2", "4.940656458e-324"]
    assert io._axis_strings(np.repeat(v, 3), "%.10g").tolist() == list(np.repeat(strings, 3))
    assert io._axis_strings(np.tile(v, 3), "%.10g").tolist() == strings * 3
    assert io._axis_strings(np.full(4, -0.0), "%.10g").tolist() == ["-0"] * 4
    assert io._axis_strings(np.tile(np.arange(4), 2), "%d").tolist() == ["0", "1", "2", "3"] * 2
    # a -0.0 in a run of 0.0, a NaN of another payload, a period one bit off: cell by cell
    run = np.repeat(v, 3)
    run[1] = -0.0
    assert io._axis_strings(run, "%.10g") is None
    run = np.repeat(v, 3)
    run.view(np.int64)[7] |= 1
    assert np.isnan(run[7]) and io._axis_strings(run, "%.10g") is None
    tiled = np.tile(v, 3)
    tiled.view(np.int64)[-2] ^= 1
    assert io._axis_strings(tiled, "%.10g") is None
    # the first value recurring inside the period, a column of other values, too short a
    # column and a column of another type are formatted cell by cell as well
    for column in (np.tile([1.0, 2.0, 1.0, 3.0], 3), np.arange(12.0), np.array([7.0]),
                   np.repeat(np.arange(4, dtype=np.int32), 3), np.repeat(v, 3).astype(np.float32)):
        assert io._axis_strings(column, "%.10g") is None


def test_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "payload.json"
    write_json(path, {"a": np.nan, "b": [1.5, np.float64(np.inf), (-np.inf, 2)],
                      "c": {"d": float("nan"), "e": "nan", "f": 0, "g": None}})

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    assert json.loads(path.read_text(), parse_constant=reject) == {
        "a": None, "b": [1.5, None, [None, 2]], "c": {"d": None, "e": "nan", "f": 0, "g": None}}
