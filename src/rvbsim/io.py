"""Plain-text formats: flat key-value configs, pulse-sequence files, CSV tables.

Config files are flat ``section.key = value`` documents (one per line,
``#`` comments); values parse as int, float, bool, or string.

Pulse-sequence files (one directive per line; ``mode=voltage``, the only ramp
mode, may be left out, and other segments take no ``mode``)::

    init product S Q12 T- Q34        # pair states on two disjoint pairs
    init state swave                 # or: sx, sy, dwave
    init amplitudes triplet_minus_3 re:im re:im re:im   # or full16, global_singlet_2, ...
    segment diabatic j12=25 j34=25 j23=0 j14=0
    segment ramp j12=25 j34=25 j23=25 j14=25 dur=160 mode=voltage
    segment hold j12=25 j34=25 j23=25 j14=25 dur=0
    dwell 0 4 8 12                   # explicit dwell times (ns)
    dwell range 0 300 2              # start, start + step, ... up to stop, inclusive

``init amplitudes`` gives one re:im pair per coordinate of any
:class:`~rvbsim.basis.Basis`.  A file has one ``init`` line and at most one
``dwell`` line, and a segment line names each field once; a repeat is
rejected with its line number.  Couplings and times must be finite and >= 0,
and a ``dwell range`` makes at most :data:`MAX_DWELL_POINTS` points.

CSV emitters format floats with %.10g so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .basis import Basis, Pair, PairLabel, PairState, SpinState, pair_product_state
from .basis import d_wave, s_wave, singlet_x, singlet_y
from .dynamics import PulseSegment, PulseSequence, SegmentKind
from .hamiltonians import ExchangeConfig


# ---------------------------------------------------------------------------
# flat key-value configs


def parse_config(text: str) -> dict:
    """Parse a flat ``key = value`` document with dotted section keys."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        out[key] = _parse_scalar(value)
    return out


def _parse_scalar(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# CSV tables


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns to CSV: integer columns as %d, all others with stable %.10g."""
    names = list(columns)
    arrays = [np.asarray(columns[name]).ravel() for name in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("all columns must have the same length")
    row = ",".join("%d" if np.issubdtype(a.dtype, np.integer) else "%.10g" for a in arrays) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row % r for r in zip(*[a.tolist() for a in arrays]))


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a header + numeric-columns CSV written by :func:`write_csv`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return {name: np.empty(0) for name in header}
    return {name: data[:, k] for k, name in enumerate(header)}


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# pulse-sequence files

_NAMED_INITS = {
    "sx": singlet_x,
    "sy": singlet_y,
    "swave": lambda: s_wave(Basis.FULL16),
    "dwave": lambda: d_wave(Basis.FULL16),
}

_LABELS = {"S": PairLabel.S, "T0": PairLabel.T0, "T+": PairLabel.T_PLUS, "T-": PairLabel.T_MINUS}

#: Most points a ``dwell range`` line may make.
MAX_DWELL_POINTS = 100_000

_SEGMENT_KINDS = {
    "diabatic": SegmentKind.SET_DIABATIC,
    "hold": SegmentKind.HOLD,
    "pulse": SegmentKind.EXCHANGE_PULSE,
    "ramp": SegmentKind.LINEAR_RAMP,
}


def sequence_from_text(text: str) -> PulseSequence:
    init: SpinState | None = None
    segments: list[PulseSegment] = []
    dwell: tuple[float, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "init":
                if init is not None:
                    raise ValueError("repeated init directive")
                init = _parse_init(tokens[1:])
            elif tokens[0] == "segment":
                segments.append(_parse_segment(tokens[1:]))
            elif tokens[0] == "dwell":
                if dwell is not None:
                    raise ValueError("repeated dwell directive")
                dwell = _parse_dwell(tokens[1:])
            else:
                raise ValueError(f"unknown directive {tokens[0]!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"sequence line {lineno}: {exc}") from exc
    if init is None:
        raise ValueError("sequence file has no init line")
    return PulseSequence(init=init, segments=tuple(segments), dwell_times=dwell)


def load_sequence(path) -> PulseSequence:
    return sequence_from_text(Path(path).read_text())


def _parse_init(tokens: list[str]) -> SpinState:
    if tokens[0] == "state":
        return _NAMED_INITS[tokens[1].lower()]()
    if tokens[0] == "product":
        label_a, pair_a, label_b, pair_b = tokens[1:5]
        return pair_product_state(
            PairState(Pair[pair_a.upper()], _LABELS[label_a]),
            PairState(Pair[pair_b.upper()], _LABELS[label_b]),
        )
    if tokens[0] == "amplitudes":
        basis = Basis[tokens[1].upper()]
        amps = np.array([complex(*map(float, tok.split(":"))) for tok in tokens[2:]])
        return SpinState(basis, amps)
    raise ValueError(f"unknown init form {tokens[0]!r}")


def _parse_segment(tokens: list[str]) -> PulseSegment:
    kind = _SEGMENT_KINDS[tokens[0]]
    keys = [tok.split("=", 1)[0] for tok in tokens[1:]]
    kv = dict(tok.split("=", 1) for tok in tokens[1:])
    if len(kv) < len(keys):
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"repeated segment fields {repeated}")
    config = ExchangeConfig(
        j12=float(kv.pop("j12")),
        j34=float(kv.pop("j34")),
        j23=float(kv.pop("j23")),
        j14=float(kv.pop("j14")),
    )
    duration = float(kv.pop("dur", 0.0))
    if kind is SegmentKind.LINEAR_RAMP and kv.pop("mode", "voltage") != "voltage":
        raise ValueError("ramp mode must be 'voltage'")
    if kv:
        raise ValueError(f"unknown segment fields {sorted(kv)}")
    return PulseSegment(kind, config, duration)


def _parse_dwell(tokens: list[str]) -> tuple[float, ...]:
    if tokens[0] == "range":
        start, stop, step = map(float, tokens[1:4])
        if not (0 < step < np.inf and start <= stop):
            raise ValueError(f"dwell range {start:g} {stop:g} {step:g} makes no grid: it needs "
                             "start <= stop and a positive, finite step")
        # the grid ends at the last multiple of step that does not pass stop, up to round-off
        last = (stop - start) / step + 1e-9
        if not last < MAX_DWELL_POINTS:  # also an infinite or NaN count
            raise ValueError(f"dwell range {start:g} {stop:g} {step:g} makes more than "
                             f"{MAX_DWELL_POINTS} points")
        return tuple(start + step * k for k in range(math.floor(last) + 1))
    return tuple(float(tok) for tok in tokens)
