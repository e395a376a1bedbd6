"""Layer tracing from outside the program.

The traced run hosts the same entry points in-process and wraps the
public functions of each layer at their call sites: every module-level
binding of a wrapped function inside the ``repro`` package is replaced
for the duration of one traced op, and class methods are patched on
their defining classes.  Each wrapped call records a span (name, start,
end, parent span, thread) in memory; :func:`layer_metrics` turns the
spans into per-layer metrics once the run ends.

Store scans are generators, so a wrapper around the call would time
only the generator's creation.  Scans are therefore timed by the time
spent inside each ``next()``: one span per scan, with its busy time
and the store's ``io_bytes_read`` delta as attributes.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    #: The op (request) the span belongs to; shared by all its spans.
    op: str
    thread: int
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Layer name -> the workloads on which its wrapper must fire.
EXPECTED_FIRING: Dict[str, Tuple[str, ...]] = {
    "io.scan": ("cli-fig14", "append-remine"),
    "io.segments.append": ("append-remine",),
    "engine.database_matches": ("cli-fig14", "daemon-dense"),
    "engine.symbol_matches": ("cli-fig14", "daemon-dense"),
    "mining.counting": ("cli-fig14", "daemon-dense"),
    "mining.ambiguous": ("cli-fig14", "daemon-dense"),
    "mining.collapsing": ("cli-fig14", "daemon-dense"),
    "core.lattice.generate": ("daemon-dense",),
    "core.border.add": ("daemon-dense",),
    "core.border.covers": ("daemon-dense",),
    "mining.delta": ("append-remine",),
}


class Recorder:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0
        self._op = ""
        self._targets: List[Tuple[object, str, object, object]] = []

    # -- span bookkeeping -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._ids += 1
            span_id = self._ids
        return Span(span_id, name, stack[-1].id if stack else None, self._op,
                    threading.get_ident(), perf_counter())

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None):
        span = self._open(name)
        stack = self._stack()
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            self._close(span)
        if attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result

    def timed_scan(self, name: str, generator, store):
        span = self._open(name)
        bytes_before = store.io_bytes_read
        busy = 0.0
        try:
            while True:
                started = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    busy += perf_counter() - started
                    break
                busy += perf_counter() - started
                yield item
        finally:
            generator.close()
            span.attrs["busy_s"] = busy
            span.attrs["bytes"] = float(store.io_bytes_read - bytes_before)
            self._close(span)

    # -- patching -------------------------------------------------------------

    def _wrap_function(self, name: str, original: Callable,
                       attrs: Optional[Callable] = None) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, attrs)

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_scan(self, name: str, original: Callable) -> Callable:
        recorder = self

        def wrapper(store, *args, **kwargs):
            return recorder.timed_scan(name, original(store, *args, **kwargs),
                                       store)

        wrapper.__wrapped__ = original
        return wrapper

    def add_function(self, module_name: str, attr: str, name: str,
                     attrs: Optional[Callable] = None) -> None:
        """Wrap every binding of ``module_name.attr`` inside the
        ``repro`` package (the call sites import it by name)."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self._wrap_function(name, original, attrs)
        sites = [
            module for mod_name, module in list(sys.modules.items())
            if mod_name.split(".")[0] == "repro"
            and getattr(module, attr, None) is original
        ]
        if not sites:
            raise RuntimeError(f"no call site binds {module_name}.{attr}")
        for module in sites:
            self._targets.append((module, attr, original, wrapped))

    def add_method(self, cls: type, attr: str, name: str,
                   attrs: Optional[Callable] = None, scan: bool = False) -> None:
        original = cls.__dict__[attr]
        wrapped = (self._wrap_scan(name, original) if scan
                   else self._wrap_function(name, original, attrs))
        self._targets.append((cls, attr, original, wrapped))

    @contextlib.contextmanager
    def installed(self, op: str):
        """The wrappers in place for the duration of traced op *op*."""
        self._op = op
        for owner, attr, _original, wrapped in self._targets:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _wrapped in reversed(self._targets):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """The spans as Chrome trace-event JSON (Perfetto and
        ``chrome://tracing`` load it); span id, parent and op in args."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {"name": span.name, "ph": "X", "pid": 0, "tid": span.thread,
             "ts": (span.start - origin) * 1e6, "dur": span.duration * 1e6,
             "args": {"id": span.id, "parent": span.parent, "op": span.op,
                      **span.attrs}}
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def build_recorder() -> Recorder:
    """A recorder targeting every layer the benchmark attributes."""
    import repro.cli  # noqa: F401 - binds every call site
    import repro.mining.delta  # noqa: F401
    import repro.service  # noqa: F401
    from repro import engine
    from repro.core.border import Border
    from repro.io import PackedSequenceStore, SegmentedSequenceStore
    from repro.obs import SAMPLE_SCANS

    recorder = Recorder()
    for cls in (PackedSequenceStore, SegmentedSequenceStore):
        for attr in ("scan", "scan_chunks"):
            recorder.add_method(cls, attr, "io.scan", scan=True)
    recorder.add_method(SegmentedSequenceStore, "append", "io.segments.append")

    engine_classes = [
        getattr(engine, name) for name in engine.__all__
        if isinstance(getattr(engine, name), type)
        and hasattr(getattr(engine, name), "database_matches")
    ]
    for cls in engine_classes:
        if "database_matches" in cls.__dict__:
            recorder.add_method(cls, "database_matches",
                                "engine.database_matches")
        for attr in ("symbol_matches", "symbol_matches_rows"):
            if attr in cls.__dict__:
                recorder.add_method(cls, attr, "engine.symbol_matches")

    def counting_attrs(args, kwargs, result):
        sample = kwargs.get("scan_counter") == SAMPLE_SCANS
        return {"patterns": float(len(result)), "sample": float(sample)}

    recorder.add_function("repro.mining.counting", "count_matches_batched",
                          "mining.counting", counting_attrs)
    recorder.add_function("repro.mining.ambiguous", "classify_on_sample",
                          "mining.ambiguous")

    def collapse_attrs(args, kwargs, outcome):
        return {
            "probe_rounds": float(len(outcome.probe_rounds)),
            "probes": float(sum(len(r) for r in outcome.probe_rounds)),
        }

    recorder.add_function("repro.mining.collapsing", "collapse_borders",
                          "mining.collapsing", collapse_attrs)
    recorder.add_function("repro.core.lattice", "generate_candidates",
                          "core.lattice.generate",
                          lambda a, k, r: {"candidates": float(len(r))})
    recorder.add_method(Border, "add", "core.border.add",
                        lambda a, k, r: {"accepted": float(bool(r))})
    recorder.add_method(Border, "covers", "core.border.covers")

    def delta_attrs(args, kwargs, outcome):
        return {"full_scans": float(outcome.full_scans),
                "reprobed": float(outcome.reprobed)}

    recorder.add_function("repro.mining.delta", "delta_remine",
                          "mining.delta", delta_attrs)
    return recorder


# -- aggregation --------------------------------------------------------------


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def layer_metrics(spans: Sequence[Span], ops: int) -> Dict[str, float]:
    """Per-op layer metrics from a traced run's spans.

    A layer's time counts only its outermost spans (a span with an
    ancestor of the same name is already inside the layer's time).
    """
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def ancestors(span: Span):
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            yield parent
            parent = by_id.get(parent.parent) if parent.parent is not None else None

    def under(span: Span, name: str) -> bool:
        return any(a.name == name for a in ancestors(span))

    def outermost(name: str) -> List[Span]:
        return [s for s in spans if s.name == name and not under(s, name)]

    def total(name: str) -> float:
        return sum(s.duration for s in outermost(name))

    per_op = 1.0 / max(ops, 1)
    scans = outermost("io.scan")
    counting = outermost("mining.counting")
    classify = outermost("mining.ambiguous")
    collapse = outermost("mining.collapsing")
    adds = outermost("core.border.add")
    appends = outermost("io.segments.append")
    deltas = outermost("mining.delta")
    self_s = sum(
        s.duration - _union_length([(c.start, c.end)
                                    for c in children.get(s.id, ())])
        for s in classify
    )
    return {
        "io.scan_s": sum(s.attrs["busy_s"] for s in scans) * per_op,
        "io.scans": len(scans) * per_op,
        "io.bytes_read": sum(s.attrs["bytes"] for s in scans) * per_op,
        "io.segments.append_s": (
            sum(s.duration for s in appends) / len(appends) if appends else 0.0
        ),
        "io.segments.append_calls": float(len(appends)),
        "engine.database_matches_s": total("engine.database_matches") * per_op,
        "engine.database_matches_calls":
            len(outermost("engine.database_matches")) * per_op,
        "engine.symbol_matches_s": total("engine.symbol_matches") * per_op,
        "mining.counting.count_s": total("mining.counting") * per_op,
        "mining.counting.patterns_counted": sum(
            s.attrs["patterns"] for s in counting if not s.attrs["sample"]
        ) * per_op,
        "mining.counting.sample_patterns_counted": sum(
            s.attrs["patterns"] for s in counting if s.attrs["sample"]
        ) * per_op,
        "mining.ambiguous.classify_s": total("mining.ambiguous") * per_op,
        "mining.ambiguous.self_s": self_s * per_op,
        "mining.ambiguous.candidates_generated": sum(
            s.attrs["candidates"] for s in spans
            if s.name == "core.lattice.generate"
            and under(s, "mining.ambiguous")
        ) * per_op,
        "mining.collapsing.collapse_s": total("mining.collapsing") * per_op,
        "mining.collapsing.probes":
            sum(s.attrs["probes"] for s in collapse) * per_op,
        "mining.collapsing.probe_rounds":
            sum(s.attrs["probe_rounds"] for s in collapse) * per_op,
        "core.lattice.generate_s": total("core.lattice.generate") * per_op,
        "core.lattice.candidates": sum(
            s.attrs["candidates"] for s in outermost("core.lattice.generate")
        ) * per_op,
        "core.border.add_s": total("core.border.add") * per_op,
        "core.border.add_calls": len(adds) * per_op,
        "core.border.add_accept_ratio": (
            sum(s.attrs["accepted"] for s in adds) / len(adds) if adds else 0.0
        ),
        "core.border.covers_s": sum(
            s.duration for s in outermost("core.border.covers")
            if not under(s, "core.border.add")
        ) * per_op,
        "mining.delta.remine_s": total("mining.delta") * per_op,
        "mining.delta.full_scans":
            sum(s.attrs["full_scans"] for s in deltas) * per_op,
        "mining.delta.reprobed":
            sum(s.attrs["reprobed"] for s in deltas) * per_op,
        "mining.delta.patterns_counted": sum(
            s.attrs["patterns"] for s in spans
            if s.name == "mining.counting" and under(s, "mining.delta")
        ) * per_op,
    }


def missing_layers(workload: str, spans: Sequence[Span]) -> List[str]:
    """Wrapped layers that never fired on a workload that names them —
    a renamed or bypassed call site, reported instead of a zero."""
    fired = {span.name for span in spans}
    return [
        name for name, workloads in EXPECTED_FIRING.items()
        if workload in workloads and name not in fired
    ]
