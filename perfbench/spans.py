"""In-memory spans recorded around calls into the library's layers.

The benchmark never edits the library: ``layers.py`` replaces public
functions and methods with the timing wrappers made here, at run time
and only in a traced run.  Each call becomes one span -- layer name, start, end, the
span open when it began (its parent) and the group it belongs to (one
id per test or monitor session).  Spans stay in flat arrays while the
workload runs and are written out when it ends.

A layer's *self* time is its span's duration minus the time covered by
its direct child spans, so the self times of every span recorded in a
process add up to the time its outermost spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

NO_PARENT = -1


class Tracer:
    """Flat span store plus the stack of spans currently open."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("i")
        self._stack: List[int] = []
        #: Group id stamped on every span opened from now on.
        self.current_group = NO_PARENT
        self.enabled = False
        #: Per-layer result counters filled by ``on_result`` hooks.
        self.counters: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else NO_PARENT)
        self.group.append(self.current_group)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call while enabled."""
        name_id = self.name_id(name)
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                index = tracer._open(name_id)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                if on_result is not None:
                    on_result(tracer, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- moving spans between processes -------------------------------

    def take_since(self, base: int) -> Tuple[bytes, ...]:
        """Remove and return the spans recorded from ``base`` on, with
        parent indices made relative to ``base`` (a forked pool worker
        ships them back to the parent inside the test's result)."""
        parents = array("i", (
            p - base if p >= base else NO_PARENT for p in self.parent[base:]
        ))
        packed = (
            self.name[base:].tobytes(), self.start[base:].tobytes(),
            self.end[base:].tobytes(), parents.tobytes(),
            self.group[base:].tobytes(),
        )
        for column in (self.name, self.start, self.end, self.parent,
                       self.group):
            del column[base:]
        return packed

    def absorb(self, packed: Tuple[bytes, ...]) -> None:
        """Append spans shipped by :meth:`take_since` from another
        process of the same fork tree (name ids agree)."""
        base = len(self.name)
        names, starts, ends, parents, groups = (
            array(code) for code in "iddii"
        )
        for column, raw in zip((names, starts, ends, parents, groups), packed):
            column.frombytes(raw)
        self.name.extend(names)
        self.start.extend(starts)
        self.end.extend(ends)
        self.parent.extend(
            array("i", (p + base if p >= 0 else NO_PARENT for p in parents))
        )
        self.group.extend(groups)

    # -- reading --------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, inclusive seconds and self seconds."""
        count = len(self.names)
        calls = [0] * count
        inclusive = [0.0] * count
        child = [0.0] * count
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        for index in range(len(names)):
            duration = ends[index] - starts[index]
            name_id = names[index]
            calls[name_id] += 1
            inclusive[name_id] += duration
            parent = parents[index]
            if parent >= 0:
                child[names[parent]] += duration
        return {
            name: {
                "calls": calls[i],
                "inclusive_s": inclusive[i],
                "self_s": inclusive[i] - child[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then the five span columns as raw
        native-endian arrays (read back with :func:`read_spans`)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        meta = dict(header, names=self.names, spans=len(self.name),
                    columns=["name:i", "start:d", "end:d", "parent:i",
                             "group:i"])
        with open(path, "wb") as handle:
            handle.write(json.dumps(meta).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent,
                           self.group):
                column.tofile(handle)


def read_spans(path: str) -> Tuple[dict, List[array]]:
    """Load a span file written by :meth:`Tracer.write`."""
    with open(path, "rb") as handle:
        meta = json.loads(handle.readline())
        columns = []
        for spec in meta["columns"]:
            column = array(spec.split(":")[1])
            column.fromfile(handle, meta["spans"])
            columns.append(column)
    return meta, columns
