import numpy as np
import pytest
from numpy.testing import assert_allclose

from rvbsim.basis import Basis
from rvbsim.dynamics import SegmentKind
from rvbsim.io import (
    format_config,
    load_sequence,
    parse_config,
    read_csv,
    sequence_from_text,
    sequence_to_text,
    write_csv,
)

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


def test_config_round_trip():
    cfg = {"a.x": 1, "a.y": 2.5, "b.name": "hello", "b.flag": False}
    assert parse_config(format_config(cfg)) == cfg


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
    text = sequence_to_text(seq)
    seq2 = sequence_from_text(text)
    assert seq2.segments == seq.segments
    assert seq2.dwell_times == seq.dwell_times
    assert_allclose(seq2.init.amplitudes, seq.init.amplitudes, atol=0)
    assert text.splitlines()[0] == "init state sx"


def test_sequence_product_init_round_trip():
    text = "init product S Q12 T- Q34\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=5\n"
    seq = sequence_from_text(text)
    out = sequence_to_text(seq)
    assert out.splitlines()[0] == "init product S Q12 T- Q34"
    seq2 = sequence_from_text(out)
    assert_allclose(seq2.init.amplitudes, seq.init.amplitudes, atol=0)


def test_sequence_amplitude_init_round_trip():
    amp = np.array([0.6, 0.8j], dtype=complex)
    text = "init amplitudes global_singlet_2 0.6:0 0:0.8\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=1\n"
    seq = sequence_from_text(text)
    assert_allclose(seq.init.amplitudes, amp, atol=0)
    seq2 = sequence_from_text(sequence_to_text(seq))
    assert_allclose(seq2.init.amplitudes, amp, atol=1e-12)


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
    assert sequence_from_text(sequence_to_text(seq)).segments == seq.segments
    with pytest.raises(ValueError, match="sequence line 3: ramp mode must be 'voltage'"):
        sequence_from_text(RAMP_TEXT.format(mode="linear"))


@pytest.mark.parametrize("grid", ["0 300 0", "300 0 2", "0 300 -2", "0 300 inf"])
def test_dwell_range_without_points_rejected(grid):
    text = f"init state sx\nsegment hold j12=1 j34=1 j23=1 j14=1 dur=0\ndwell range {grid}\n"
    with pytest.raises(ValueError, match="sequence line 3: dwell range .* makes no grid"):
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
