"""Outside-in tracing of rvbsim's layers for the benchmark's per-layer run.

:class:`Tracer` wraps the public functions listed in :data:`TARGETS`.  Each
wrapper replaces the function wherever a loaded ``rvbsim`` module refers to
it (a method is replaced on its class), and :meth:`Tracer.uninstall` puts
every original back.  Spans stay in memory as ``[name, parent, start, end]``
(``time.perf_counter`` seconds, ``parent`` an index or -1) and are written
out by the caller when the run ends.

Only the outermost call of a layer opens a span: ``SyntheticDevice.config``
calling ``SweepModel.config`` is one control span, and a calibration inside
the harness's own ``experiments.calibrate`` product span is not counted
twice.  A calibration inside a ``verify`` criterion does open its own
``experiments.calibrate`` span, as a child of ``acceptance.verify``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from rvbsim.basis import Basis, subspace_projector
from rvbsim.dynamics import SegmentKind


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _n_states(shape) -> int:
    return int(np.prod(shape[:-1], dtype=np.int64))


_SINGLET = subspace_projector(Basis.GLOBAL_SINGLET_2)


def _in_singlet_block(state) -> bool:
    if state.basis is Basis.GLOBAL_SINGLET_2:
        return True
    if state.basis is not Basis.FULL16:
        return False
    vec = state.amplitudes
    return bool(np.linalg.norm(_SINGLET.conj().T @ (_SINGLET @ vec) - vec) < 1e-10)


def sequence_class(args, kwargs) -> str:
    """Span name of a ``run_sequence`` call, from its arguments alone.

    A ramp segment makes it a ramp call: ``dynamics.ramp`` when the initial
    state lies in the global-singlet span and no Zeeman field is given,
    ``dynamics.ramp_full`` otherwise.  Calls without a ramp are
    ``dynamics.const_noisy`` or ``dynamics.const_clean`` by whether noise is
    given.  A ramp call's time includes its dwell.
    """
    seq = _arg(args, kwargs, 0, "seq")
    noise = _arg(args, kwargs, 1, "noise")
    if any(seg.kind is SegmentKind.LINEAR_RAMP for seg in seq.segments):
        plain = kwargs.get("zeeman") is None and _in_singlet_block(seq.init)
        return "dynamics.ramp" if plain else "dynamics.ramp_full"
    return "dynamics.const_noisy" if noise is not None else "dynamics.const_clean"


def _count_states_out(counts, args, kwargs, result):
    counts["dynamics.states_out"] += _n_states(result.states.shape)


def _count_batch_states(counts, args, kwargs, result):
    counts["readout.batch.states"] += _n_states(np.shape(result))


def _count_shots(counts, args, kwargs, result):
    counts["readout.shots.count"] += result.n_shots


def _count_bytes(counts, args, kwargs, result):
    counts["io.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _fixed(name):
    return lambda args, kwargs: name


#: (module = layer, attribute or Class.method, span name, counter after the call)
TARGETS = (
    # the harness opens each operation's product span itself; verify's
    # exchange-range criterion calibrates, which shows as a nested product
    ("experiments", "run_calibration", _fixed("experiments.calibrate"), None),
    ("dynamics", "run_sequence", sequence_class, _count_states_out),
    ("readout", "pair_probabilities_batch", _fixed("readout.batch"), _count_batch_states),
    ("readout", "sample_shots", _fixed("readout.shots"), _count_shots),
    ("fitting", "fit_damped_cosine", _fixed("fitting.cosine"), None),
    ("fitting", "find_ellipse_center", _fixed("fitting.ellipse"), None),
    ("fitting", "find_frequency_minimum", _fixed("fitting.fmin"), None),
    *(("control", attr, _fixed("control"), None) for attr in (
        "default_gate_matrix", "load_matrix_table", "virtual_to_physical",
        "exchange_from_voltages", "apply_compensation", "propagate_calibration_error",
        "SweepModel.sums", "SweepModel.config", "SweepModel.barrier_point",
        "SyntheticDevice.config",
    )),
    ("io", "write_csv", _fixed("io.write"), _count_bytes),
    ("io", "write_json", _fixed("io.write"), _count_bytes),
)


def all_restored(sites) -> bool:
    """True when every site from :meth:`Tracer.patched_sites` holds its original again."""
    return all(vars(owner).get(key) is original for owner, key, original in sites)


def _rvbsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rvbsim" or name.startswith("rvbsim."))]


class Tracer:
    """Span and counter recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open_layers: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record ``name`` (layer = its first dotted part) around a block."""
        layer = name.split(".", 1)[0]
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), None])
        self._stack.append(idx)
        self._open_layers[layer] += 1
        try:
            yield
        finally:
            self._open_layers[layer] -= 1
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def _wrap(self, fn, layer, namer, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open_layers[layer]:
                return fn(*args, **kwargs)
            name = namer(args, kwargs)
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".failed"] += 1
                raise
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded rvbsim module refers to it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _rvbsim_modules()
        for module, attr, namer, counter in TARGETS:
            owner = sys.modules["rvbsim." + module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(original, module, namer, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, module, namer, counter)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def patched_sites(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every replaced reference."""
        return list(self._patched)

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of the spans and counters recorded so far.

        ``<span>.calls`` and ``<span>.busy_s`` for every span name, product
        wall times ``<product>.wall_s`` from root spans, and ``<layer>.self_s``
        for the experiments and acceptance layers: product time that no child
        span covers.
        """
        out: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, parent, start, end) in enumerate(self.spans):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".busy_s"] += dur
            if parent < 0:
                out[name + ".wall_s"] += dur
            layer = name.split(".", 1)[0]
            if layer in ("experiments", "acceptance"):
                out[layer + ".self_s"] += dur - child_time[idx]
        out.update(self.counts)
        return dict(out)
