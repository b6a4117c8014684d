"""Span tracer for the traced benchmark run.

Timing wrappers are installed from outside the package, on the module
attributes that callers look up at call time (for example
`harness.bp_run`, which `harness._prg_average` resolves as a global on
every call).  Each wrapped call records one span: name, parent span,
start, end and an integer tag (for `_arow`, its row length n; for
`collect_stream`, its output length T).  Spans live in flat arrays in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, targets) -> None:
        """Wrap each (owner, attr, span name, tag function or None) target
        until unpatch(); the tag function maps call args to the span's tag."""
        for owner, attr, name, tag in targets:
            self._patch(owner, attr, name, tag)

    def _patch(self, owner, attr: str, name: str, tag) -> None:
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.tag.append(tag(args) if tag else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Per-name totals over the recorded spans.  A span's self time is its
    duration minus the durations of its direct children."""

    def __init__(self, names: list[str], a: dict[str, np.ndarray]) -> None:
        self._ids = {n: i for i, n in enumerate(names)}
        self._name = a["name"]
        self._tag = a["tag"]
        parent = a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self._dur = dur
        self._self = dur - child
        parent_name = np.full(dur.size, -1, dtype=np.int64)
        parent_name[has_parent] = self._name[parent[has_parent]]
        self._parent_name = parent_name

    def _mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name, -2)
        return self._name == nid

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def total_s(self, name: str) -> float:
        return float(np.sum(self._dur[self._mask(name)]))

    def self_s(self, name: str) -> float:
        return float(np.sum(self._self[self._mask(name)]))

    def tag_sum(self, name: str) -> int:
        return int(np.sum(self._tag[self._mask(name)]))

    def calls_with_tag(self, name: str, tag: int) -> int:
        return int(np.count_nonzero(self._mask(name) & (self._tag == tag)))

    def calls_under(self, name: str, parent: str) -> int:
        pid = self._ids.get(parent, -2)
        return int(np.count_nonzero(self._mask(name) & (self._parent_name == pid)))
