"""Plain-text formats: flat key-value configs, pulse-sequence files, CSV tables.

Config files are flat ``section.key = value`` documents (one per line,
``#`` comments); values parse as int, float, bool, or string.

Pulse-sequence files (one directive per line; ``mode=voltage``, the only ramp
mode, may be left out, and other segments take no ``mode``)::

    init product S Q12 T- Q34        # pair states on two disjoint pairs
    init state swave                 # or: sx, sy, dwave
    init amplitudes triplet_minus_3 re:im re:im re:im   # or full16, sz_zero_6, ...
    segment diabatic j12=25 j34=25 j23=0 j14=0
    segment ramp j12=25 j34=25 j23=25 j14=25 dur=160 mode=voltage
    segment hold j12=25 j34=25 j23=25 j14=25 dur=0
    dwell 0 4 8 12                   # explicit dwell times (ns)
    dwell range 0 300 2              # start, start + step, ... up to stop, inclusive

``init amplitudes`` gives one re:im pair per coordinate of any
:class:`~rvbsim.basis.Basis` (``full16``, ``global_singlet_2``,
``triplet_minus_3``, ``triplet_minus_plus_q_4`` or ``sz_zero_6``, with 16, 2, 3,
4 or 6 coordinates).  A file has one ``init`` line and at most one
``dwell`` line, and a segment line names each field once; a repeat is
rejected with its line number, as is an ``init state``, ``init product`` or
``dwell range`` line with a token past its form.  Couplings and times must
be finite and >= 0, and a ``dwell range`` makes at most
:data:`MAX_DWELL_POINTS` points.

CSV emitters format floats with %.10g so reruns are byte-identical, a block
of rows (``_CSV_BLOCK_ROWS``) in one ``%`` operation, so a long table
never holds more than one block as Python values and text; a map's axis
column, a shorter column repeated or tiled, formats each of its values once.
JSON files are strict JSON, with a NaN or infinite float written as
``null``, written in one piece.
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
    for convert in (int, float):
        try:
            return convert(value)
        except ValueError:
            pass
    return value


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# CSV tables


#: Rows :func:`write_csv` formats in one ``%`` operation.
_CSV_BLOCK_ROWS = 4096
#: Fewest rows at which :func:`write_csv` looks for repeated or tiled columns.
_CSV_AXIS_MIN_ROWS = 256


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns to CSV: integer columns as %d, all others with stable %.10g.

    Rows are formatted in blocks of ``_CSV_BLOCK_ROWS``: the block's
    values, interleaved row by row, fill the row format repeated once per row.
    In a table of at least ``_CSV_AXIS_MIN_ROWS`` rows, a float64 or int64
    column that is ``np.repeat`` or ``np.tile`` of a shorter one, bit for bit
    (a map's sweep and time axes), formats each value of that shorter column
    once and enters the row format as those strings (:func:`_axis_strings`);
    the bytes are the same.
    """
    names = list(columns)
    arrays = [np.asarray(columns[name]).ravel() for name in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("all columns must have the same length")
    formats = ["%d" if np.issubdtype(a.dtype, np.integer) else "%.10g" for a in arrays]
    if n >= _CSV_AXIS_MIN_ROWS:
        for k, (a, fmt) in enumerate(zip(arrays, formats)):
            strings = _axis_strings(a, fmt)
            if strings is not None:
                arrays[k], formats[k] = strings, "%s"
    row = ",".join(formats) + "\n"
    width = len(arrays)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            block = [a[lo:lo + _CSV_BLOCK_ROWS].tolist() for a in arrays]
            values = [None] * (width * len(block[0]))
            for k, column in enumerate(block):
                values[k::width] = column
            fh.write(row * len(block[0]) % tuple(values))


def _axis_strings(a: np.ndarray, fmt: str) -> np.ndarray | None:
    """``a``'s cells as ``fmt`` strings (an object array) if it repeats or tiles a shorter column.

    A float64 or int64 column ``a`` of n cells qualifies as ``np.repeat(v, k)``,
    k > 1 the length of its first run, or as ``np.tile(v, n // p)``, 1 < p < n
    the first place its first value recurs; each value of ``v`` is formatted
    once.  Cells compare as their int64 view, so -0.0 and each NaN payload
    are values of their own.  Any other column returns None and is formatted
    cell by cell.  The check is a few passes over ``a``.
    """
    if a.dtype not in (np.float64, np.int64) or len(a) < 2:
        return None
    bits = a.view(np.int64)
    n = len(bits)
    k = int(np.argmax(bits != bits[0])) or n  # no other value: one run of n
    if k > 1 and n % k == 0 and (bits.reshape(-1, k) == bits[::k, None]).all():
        return np.repeat(np.array([fmt % x for x in a[::k].tolist()], dtype=object), k)
    p = int(np.argmax(bits[1:] == bits[0])) + 1  # 1 also when the first value never recurs
    if p > 1 and n % p == 0 and np.array_equal(bits[p:], bits[:-p]):
        return np.tile(np.array([fmt % x for x in a[:p].tolist()], dtype=object), n // p)
    return None


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a header + numeric-columns CSV written by :func:`write_csv`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return {name: np.empty(0) for name in header}
    return {name: data[:, k] for k, name in enumerate(header)}


def _finite_or_none(value):
    """``value`` with every NaN or infinite float in it, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as strict JSON: a non-finite float becomes ``null``.

    The text, with its trailing newline, is built whole and written in one
    call (``json.dump`` writes each of its encoder's chunks on its own).
    """
    text = json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


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

#: The form of each directive, quoted in the error for a line short of a token.
_FORMS = {
    "init": "'init state <name>', 'init product <label> <pair> <label> <pair>' or "
            "'init amplitudes <basis> <re:im> ...'",
    "segment": "'segment <kind> j12=<MHz> j34=<MHz> j23=<MHz> j14=<MHz> [dur=<ns>]'",
    "dwell": "'dwell <t_ns> ...' or 'dwell range <start> <stop> <step>'",
}

#: Tokens on a line of each fixed-length form, by its first two; a line with more is malformed.
_FIXED_LENGTHS = {("init", "state"): 3, ("init", "product"): 6, ("dwell", "range"): 5}


def sequence_from_text(text: str) -> PulseSequence:
    init: SpinState | None = None
    segments: list[PulseSegment] = []
    dwell: tuple[float, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            if len(tokens) > _FIXED_LENGTHS.get(tuple(tokens[:2]), len(tokens)):
                raise IndexError  # reported as malformed, as a missing token is
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
        except IndexError:  # the line lacks a token its form needs
            raise ValueError(f"sequence line {lineno}: malformed {tokens[0]} line: expected "
                             f"{_FORMS[tokens[0]]}") from None
        except (KeyError, ValueError) as exc:
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
        return pair_product_state(*(PairState(Pair[tokens[k + 1].upper()], _LABELS[tokens[k]])
                                    for k in (1, 3)))
    if tokens[0] == "amplitudes":
        basis = Basis[tokens[1].upper()]
        for tok in tokens[2:]:
            if tok.count(":") > 1:
                raise ValueError(f"amplitude {tok!r} is neither re:im nor re")
        amps = np.array([complex(*map(float, tok.split(":"))) for tok in tokens[2:]])
        return SpinState(basis, amps)
    raise ValueError(f"unknown init form {tokens[0]!r}")


def _parse_segment(tokens: list[str]) -> PulseSegment:
    kind = _SEGMENT_KINDS[tokens[0]]
    fields = [tok.split("=", 1) for tok in tokens[1:]]
    kv = {f[0]: f[1] for f in fields}  # a field without "=" has no f[1]
    if len(kv) < len(fields):
        keys = [f[0] for f in fields]
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"repeated segment fields {repeated}")
    config = ExchangeConfig(**{k: float(kv.pop(k)) for k in ("j12", "j34", "j23", "j14")})
    duration = float(kv.pop("dur", 0.0))
    if kind is SegmentKind.LINEAR_RAMP and kv.pop("mode", "voltage") != "voltage":
        raise ValueError("ramp mode must be 'voltage'")
    if kv:
        raise ValueError(f"unknown segment fields {sorted(kv)}")
    return PulseSegment(kind, config, duration)


def _parse_dwell(tokens: list[str]) -> tuple[float, ...]:
    if tokens[0] == "range":
        start, stop, step = (float(tokens[k]) for k in (1, 2, 3))
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
