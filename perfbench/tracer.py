"""Span recording around the engine's public functions, from outside.

The tracer replaces a module or class attribute with a wrapper that
records one span per call: name, start, end and the name of the
enclosing traced span.  It wraps the attribute the CALLER resolves, so a
function imported into another module is wrapped in that module too
(``build_rows.merge_runs`` is not ``build.merge_runs``).  Only calls made
in this process are seen: Ray workers import their own copy of the
engine.  Spans stay in memory; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

# (owner path, attribute, span name).  Module functions are wrapped in
# every module that imported them under its own name.
TRACED = [
    ("jesterj_ray.index.build_rows", "build_index_rows", "build"),
    ("jesterj_ray.index.build_rows", "plan_row_partitions", "plan"),
    ("jesterj_ray.index.build_rows", "merge_runs", "merge_runs"),
    ("jesterj_ray.index.build_rows", "publish_epoch", "publish_epoch"),
    ("jesterj_ray.index.build_rows", "delta_reindex", "delta_reindex"),
    ("jesterj_ray.index.compact", "compact_index", "compact_index"),
    ("jesterj_ray.index.compact", "merge_runs", "merge_runs"),
    ("jesterj_ray.index.compact", "publish_epoch", "publish_epoch"),
    ("jesterj_ray.index.repartition", "repartition_for_serving",
     "repartition"),
    ("jesterj_ray.index.repartition", "publish_epoch", "publish_epoch"),
    ("jesterj_ray.state.manifest.Manifest", "all", "manifest_all"),
    ("jesterj_ray.index.query.IndexReader", "__init__", "reader_open"),
    ("jesterj_ray.index.query.IndexReader", "term_entry", "term_entry"),
    ("jesterj_ray.index.query.IndexReader", "topk_pruned", "or"),
    ("jesterj_ray.index.query.IndexReader", "topk_and", "and"),
    ("jesterj_ray.index.query.IndexReader", "phrase_topk", "phrase"),
    ("jesterj_ray.index.serving.ShardedQueryService", "topk",
     "sharded_topk"),
    ("jesterj_ray.index.serving.ShardedQueryService", "topk_many",
     "topk_many"),
]


def _resolve(path: str):
    """Module or class object for a dotted path."""
    import importlib
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for p in parts[i:]:
            obj = getattr(obj, p)
        return obj
    raise ImportError(path)


class Span:
    __slots__ = ("name", "start", "end", "parent", "result", "args")

    def __init__(self, name: str, start: float, parent: Optional[str],
                 args: tuple = ()):
        self.name = name
        self.args = args
        self.start = start
        self.end = start
        self.parent = parent
        self.result = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed.  Single-threaded: the benchmark
    drives the engine from one client thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        tracer._stack[-1] if tracer._stack else None, args)
            tracer._stack.append(name)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()
                tracer.spans.append(span)
        return traced

    def install(self) -> None:
        for owner_path, attr, name in TRACED:
            owner = _resolve(owner_path)
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # ---- queries over recorded spans ----

    def select(self, name: str, parent: Optional[str] = "*",
               window: Optional[Tuple[float, float]] = None) -> List[Span]:
        """Spans called ``name``; ``parent="*"`` accepts any parent,
        ``None`` only top-level spans; ``window`` keeps spans that start
        inside it."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            if parent != "*" and s.parent != parent:
                continue
            if window and not window[0] <= s.start < window[1]:
                continue
            out.append(s)
        return out

    def covered(self, window: Tuple[float, float],
                names: Optional[set] = None) -> float:
        """Seconds of ``window`` covered by top-level spans (optionally
        only those named in ``names``); overlaps count once."""
        iv = sorted((max(s.start, window[0]), min(s.end, window[1]))
                    for s in self.spans
                    if s.parent is None and (names is None or s.name in names)
                    and s.end > window[0] and s.start < window[1])
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in iv:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total


def child_time(tracer: Tracer, parents: List[Span], name: str) -> Dict[int, float]:
    """Per parent span (by index): summed duration of its direct children
    called ``name`` (children nest strictly inside their parent)."""
    out = {}
    kids = tracer.select(name)
    for i, p in enumerate(parents):
        out[i] = sum(k.dur for k in kids
                     if k.parent == p.name and p.start <= k.start
                     and k.end <= p.end)
    return out
