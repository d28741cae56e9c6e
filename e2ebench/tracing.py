"""In-memory span recording for the traced benchmark run.

Spans are recorded only from the benchmark's own files: instance-level
wrappers around public calls into the program (``model.forward``,
``optimizer.step``, ``registry.acquire`` ...) and spans synthesized from
the trainer's public callbacks.  Nothing under ``src/`` is patched at class
level, and ``repro.profile`` stays disabled.

Storage is four typed arrays behind one lock, so recording allocates no
Python object per span (a list of tuples would feed the garbage collector
that ``gc.gen2_pause_ms`` measures).  Parentage is not tracked at record
time: spans on one thread nest, so :func:`self_times` recovers the tree
afterwards by interval containment.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from array import array

__all__ = [
    "Tracer",
    "self_times",
    "mean_ms",
    "supported_percentile",
    "percentile",
    "write_chrome_trace",
    "instrument_model",
    "GcPauses",
]


class Tracer:
    """Append-only span store: ``(name, thread, start, end)`` in seconds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("i")
        self.tid = array("q")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        # caller holds self._lock
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, tid: int | None = None) -> None:
        """Record one finished span (``tid`` defaults to the calling thread)."""
        if tid is None:
            tid = threading.get_ident()
        with self._lock:
            self.name_id.append(self._intern(name))
            self.tid.append(tid)
            self.start.append(start)
            self.end.append(end)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        clock = time.perf_counter
        add = self.add

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, t0, clock())

        return traced

    def spans(self, name: str) -> list[int]:
        """Indices of every span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [i for i, n in enumerate(self.name_id) if n == nid]

    def self_time_by_name(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, inclusive seconds, self seconds)``."""
        own = self_times(self.tid, self.start, self.end)
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name_id):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += own[i]
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}


def self_times(tids, starts, ends) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans on one thread are treated as a tree by containment: a span is a
    child of the innermost earlier-starting span on the same thread that
    has not ended by the time it starts.  A child that overhangs its parent
    only counts for the overlapping part, and overlapping children are
    counted once.
    """
    n = len(starts)
    order = sorted(range(n), key=lambda i: (tids[i], starts[i], -ends[i]))
    own = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n  # per span: end of the child coverage counted so far
    stack: list[int] = []
    for i in order:
        while stack and (tids[stack[-1]] != tids[i] or ends[stack[-1]] <= starts[i]):
            stack.pop()
        if stack:
            parent = stack[-1]
            lo = max(starts[i], covered[parent])
            hi = min(ends[i], ends[parent])
            if hi > lo:
                own[parent] -= hi - lo
                covered[parent] = hi
        covered[i] = starts[i]
        stack.append(i)
    return own


def mean_ms(table: dict, name: str) -> float:
    """Mean inclusive ms per span called ``name`` in a :meth:`Tracer.self_time_by_name`
    table (0 when there is none)."""
    calls, incl, _ = table.get(name, (0, 0.0, 0.0))
    return 1e3 * incl / calls if calls else 0.0


#: Percentiles considered for a timing's tail, highest first (per mille).
_TAIL_PERMILLE = (999, 990, 900, 500)


def supported_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of ``n`` samples above it.

    A sample lies beyond the q-th percentile when its rank exceeds
    ``ceil(q * n / 100)``; p99 of 1000 samples has exactly 10 beyond it,
    p99 of 999 samples has 9 and falls back to p90.  Returns ``None`` when
    not even the median is supported.
    """
    for pm in _TAIL_PERMILLE:
        at = (pm * n + 999) // 1000  # ceil(pm * n / 1000) without floats
        if n - at >= 10:
            return pm / 10.0
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def write_chrome_trace(path, tracer: Tracer, async_events=()) -> int:
    """Write spans as Chrome trace-event JSON; returns the event count.

    Thread spans become complete (``"X"``) events.  ``async_events`` is an
    iterable of ``(name, id, start, end)`` for work that crosses threads
    (one serving request, from due time to response), written as async
    ``"b"``/``"e"`` pairs keyed by id.  Times are microseconds from the
    earliest recorded instant.
    """
    async_events = list(async_events)
    t0 = min([*tracer.start, *(e[2] for e in async_events)], default=0.0)
    tids: dict[int, int] = {}
    events = []
    for i, nid in enumerate(tracer.name_id):
        tid = tids.setdefault(tracer.tid[i], len(tids) + 1)
        events.append({
            "name": tracer.names[nid],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": round((tracer.start[i] - t0) * 1e6, 3),
            "dur": round((tracer.end[i] - tracer.start[i]) * 1e6, 3),
        })
    for name, rid, start, end in async_events:
        common = {"name": name, "cat": "request", "id": int(rid), "pid": 1, "tid": 0}
        events.append({**common, "ph": "b", "ts": round((start - t0) * 1e6, 3)})
        events.append({**common, "ph": "e", "ts": round((end - t0) * 1e6, 3)})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return len(events)


# ---------------------------------------------------------------------- #
# hooks
# ---------------------------------------------------------------------- #


def instrument_model(tracer: Tracer, model) -> dict:
    """Wrap ``model.forward`` and every submodule's ``forward``.

    Span names carry the mode: ``nn.forward`` / ``nn.layer.<Type>`` in
    training mode, ``nn.forward.eval`` / ``nn.eval.<Type>`` in eval mode.
    Returns a dict whose ``"end"`` holds the end time of the last
    training-mode root forward on this process.
    """
    clock = time.perf_counter
    last = {"end": None}
    for mod in model.modules():
        fn = mod.forward
        if mod is model:
            def traced(x, _fn=fn, _mod=mod):
                t0 = clock()
                try:
                    return _fn(x)
                finally:
                    t1 = clock()
                    if _mod.training:
                        tracer.add("nn.forward", t0, t1)
                        last["end"] = t1
                    else:
                        tracer.add("nn.forward.eval", t0, t1)
        else:
            kind = type(mod).__name__

            def traced(x, _fn=fn, _mod=mod, _kind=kind):
                t0 = clock()
                try:
                    return _fn(x)
                finally:
                    mode = "nn.layer." if _mod.training else "nn.eval."
                    tracer.add(mode + _kind, t0, clock())
        mod.forward = traced
    return last


class GcPauses:
    """Gen-2 collection pauses, recorded through ``gc.callbacks`` while entered."""

    def __init__(self):
        self.pauses: list[tuple[float, float]] = []
        self._t0 = 0.0

    def __call__(self, phase, info):
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pauses.append((self._t0, time.perf_counter()))

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)

    def seconds_within(self, intervals) -> float:
        """Pause time that falls inside any of ``intervals`` (non-overlapping)."""
        return sum(max(0.0, min(e, b) - max(s, a))
                   for s, e in self.pauses for a, b in intervals)
