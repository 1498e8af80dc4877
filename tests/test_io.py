import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvbsim.basis import Basis, Pair, PairLabel, PairState, pair_product_state, singlet_x
from rvbsim.dynamics import PulseSegment, SegmentKind
from rvbsim.hamiltonians import ExchangeConfig
from rvbsim import io
from rvbsim.io import load_sequence, parse_config, read_csv, sequence_from_text, write_csv

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
