"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public ctlab names at run time from the benchmark's own
files; nothing inside the package changes.  Each wrapped call records
one span: name, start and end (perf_counter_ns), the enclosing span and
the request it belongs to.  Spans live in flat int64 arrays so a run of
a few hundred thousand calls stays a few tens of MiB, and are written
out once, when the run ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        self.set(owner, attr, make(owner.__dict__[attr]))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Span recorder.  ``wrap`` returns a traced stand-in for a callable."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._current_request = -1
        self._next_request = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, request_root: bool = False) -> tuple[int, int]:
        """Start a span; returns the token ``close`` needs."""
        outer = self._current_request
        if request_root:
            self._current_request = self._next_request
            self._next_request += 1
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._current_request)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx, outer

    def close(self, token: tuple[int, int]) -> None:
        idx, outer = token
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        self._current_request = outer

    def wrap(self, fn, name: str, *, request_root: bool = False, name_of=None, count=None):
        """Traced version of ``fn``.

        ``name_of(args)`` picks the span name per call (for example by
        countermeasure kind); ``count(result)`` adds to ``counts[name]``.
        """
        def traced(*args, **kwargs):
            span = name_of(args) if name_of is not None else name
            token = self.open(span, request_root)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if count is not None:
                self.counts[span] = self.counts.get(span, 0) + count(result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.name)

    def spans(self, lo: int = 0, hi: int | None = None) -> "Spans":
        hi = len(self.name) if hi is None else hi
        return Spans(
            self.names,
            np.frombuffer(self.name, dtype=np.int64)[lo:hi],
            np.frombuffer(self.start, dtype=np.int64)[lo:hi],
            np.frombuffer(self.end, dtype=np.int64)[lo:hi],
            np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo,
        )

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
        )


class Spans:
    """A contiguous slice of recorded spans, with durations and self times.

    ``parent`` indices are relative to the slice; a parent outside it is
    negative or past the end and counts as no parent.
    """

    def __init__(self, names, name, start, end, parent) -> None:
        self.names = names
        self.name = name
        self.dur = (end - start).astype(np.float64) / 1e3  # microseconds
        n = len(name)
        inside = (parent >= 0) & (parent < n)
        self.parent = np.where(inside, parent, -1)
        child = np.bincount(self.parent[inside], weights=self.dur[inside], minlength=n)
        self.self_us = self.dur - child[:n]

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def total_us(self, mask: np.ndarray) -> float:
        return float(self.dur[mask].sum())

    def count(self, mask: np.ndarray) -> int:
        return int(mask.sum())
