"""In-memory span tracing around the package's public functions.

Spans are recorded by wrappers that the traced run installs where each
function is looked up (``agent`` imports ``expected_free_energy``,
``bayes_update`` and ``policy_posterior`` by name, so those are patched in
``agent`` as well as in ``inference``).  Every original is restored by
``uninstall``, so untraced runs execute the unmodified functions.

A span is four int64 values in one flat array: name id, index of the parent
span (-1 at the root), start and end in ns.  Self time is a span's duration
minus the summed durations of its direct children; in a single thread the
children never overlap, so that sum is the time they cover.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

FIELDS = 4


class Recorder:
    """Holds spans in memory plus a few exact counts taken from call results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.active = True
        self.patched: list[tuple[object, str, object]] = []  # every site ever patched

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.spans) // FIELDS
        parent = self.stack[-1] if self.stack else -1
        self.spans.extend((nid, parent, time.perf_counter_ns(), 0))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx * FIELDS + 3] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) record nothing."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, on_result=None):
        """A stand-in for fn that records one span per call.

        name is a span name, or a function of the call's arguments that
        returns one.  on_result(recorder, args, kwargs, result) may add counts.
        """
        rec = self
        fixed = None if callable(name) else rec.name_id(name)

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else rec.name_id(name(args, kwargs))
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if on_result is not None:
                on_result(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attr: str, name, on_result=None) -> None:
        original = getattr(owner, attr)
        self.patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        """Put every original back, the last patch first."""
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched site holds its original again."""
        return all(getattr(owner, attr) is original for owner, attr, original in self.patched)

    @property
    def n_spans(self) -> int:
        return len(self.spans) // FIELDS

    def aggregate(self, start: int = 0, end: int | None = None) -> dict[str, dict[str, float]]:
        """Per name: calls, total ms and self ms over spans [start, end)."""
        return aggregate(self.names, np.frombuffer(self.spans, dtype=np.int64), start, end)

    def save(self, path, start: int = 0, end: int | None = None) -> None:
        flat = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)
        np.savez(path, names=np.array(self.names), spans=flat[start:end])


def aggregate(names, flat, start: int = 0, end: int | None = None) -> dict[str, dict[str, float]]:
    """Calls, inclusive ms and self ms per span name over spans [start, end).

    flat holds FIELDS int64 values per span, parents indexing the whole array.
    The range must be closed under children, which holds when it is cut at
    op boundaries.
    """
    spans = np.asarray(flat, dtype=np.int64).reshape(-1, FIELDS)
    if np.any(spans[:, 3] < spans[:, 2]):
        raise ValueError("a span is still open")
    n = len(spans)
    dur = (spans[:, 3] - spans[:, 2]).astype(np.float64)
    parent = spans[:, 1]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child
    sel = slice(start, end)
    nid = spans[sel, 0]
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur[sel], minlength=k)
    own = np.bincount(nid, weights=self_ns[sel], minlength=k)
    return {
        name: {"calls": int(calls[i]), "ms": total[i] / 1e6, "self_ms": own[i] / 1e6}
        for i, name in enumerate(names)
    }
