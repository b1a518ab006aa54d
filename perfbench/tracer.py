"""In-memory span tracer that wraps the package's functions from outside.

Each wrapped function is replaced, at every module global and class
attribute through which a caller looks it up, by a wrapper that records
one span: name, start, end, parent span and run id. Spans live in flat
arrays while the benchmark runs and are written to one trace file at
exit. Self time (a span's duration minus the durations of its direct
children) is computed from those arrays, so the per-layer numbers and
the trace file come from the same records.

Trace file layout: one JSON header line (``names``, ``runs``, ``count``,
``columns``, ``byteorder``), then the raw bytes of each column array in
``columns`` order.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

TRACE_FORMAT = "perfbench-trace/1"
COLUMNS = (("name", "i"), ("parent", "i"), ("run", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._run = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_run(self, label: str) -> int:
        """Start a new run id; later spans carry it. Returns the index of
        the run's first span."""
        self.runs.append(label)
        self._run = len(self.runs) - 1
        return len(self.cols["start"])

    def _open(self, nid: int) -> int:
        """Append a span named ``nid``, started now, as a child of the
        open span; return its index."""
        c = self.cols
        idx = len(c["start"])
        c["name"].append(nid)
        c["parent"].append(self._stack[-1])
        c["run"].append(self._run)
        c["end"].append(0.0)
        self._stack.append(idx)
        c["start"].append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.cols["end"][idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable[[Counter, tuple, object], None]] = None) -> Callable:
        """Return a wrapper of ``fn`` recording one span named ``name`` per
        call; ``observe(counters, args, result)`` runs after a return."""
        nid = self.name_id(name)
        open_span, close_span = self._open, self._close
        counters = self.counters

        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if observe is not None:
                observe(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- installing wrappers ---------------------------------------------------

    def install_functions(self, layer: ModuleType, sites: list[ModuleType],
                          observers: dict[str, Callable]) -> None:
        """Wrap every public function defined in ``layer`` at each module
        in ``sites`` whose globals bind it, under ``<layer>.<function>``."""
        short = layer.__name__.rsplit(".", 1)[-1]
        for fname, fn in list(vars(layer).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != layer.__name__:
                continue
            name = f"{short}.{fname}"
            wrapper = self.wrap(fn, name, observers.get(name))
            for site in sites:
                for bound_as, value in list(vars(site).items()):
                    if value is fn:
                        self._replace(site, bound_as, wrapper)

    def install_method(self, layer: ModuleType, qualname: str,
                       observers: dict[str, Callable]) -> None:
        """Wrap ``Class.method`` of ``layer`` on the class itself, under
        ``<layer>.<Class>.<method>``; classmethods stay classmethods."""
        cls_name, meth = qualname.split(".")
        cls = getattr(layer, cls_name)
        raw = cls.__dict__[meth]
        name = f"{layer.__name__.rsplit('.', 1)[-1]}.{qualname}"
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, observers.get(name)))
        else:
            new = self.wrap(raw, name, observers.get(name))
        self._replace(cls, meth, new)

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every binding the install calls replaced."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis --------------------------------------------------------------

    def aggregate(self, lo: int) -> dict[tuple[str, str], list]:
        """(root span name, span name) -> [calls, self seconds] over the
        spans from index ``lo`` on; a span's root is its outermost ancestor."""
        return aggregate_spans(self.names, self.cols, lo, len(self.cols["start"]))

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        head = dict(header)
        head.update(
            format=TRACE_FORMAT,
            names=self.names,
            runs=self.runs,
            count=len(self.cols["start"]),
            columns=[[col, code] for col, code in COLUMNS],
            byteorder=sys.byteorder,
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode("utf-8") + b"\n")
            for col, _ in COLUMNS:
                self.cols[col].tofile(fh)


def aggregate_spans(names: list[str], cols: dict, lo: int, hi: int) -> dict[tuple[str, str], list]:
    name_c, parent_c, start_c, end_c = cols["name"], cols["parent"], cols["start"], cols["end"]
    child = [0.0] * (hi - lo)
    root = [0] * (hi - lo)
    for i in range(lo, hi):
        p = parent_c[i]
        root[i - lo] = root[p - lo] if p >= lo else name_c[i]
    out: dict[tuple[str, str], list] = {}
    for i in range(hi - 1, lo - 1, -1):
        dur = end_c[i] - start_c[i]
        p = parent_c[i]
        if p >= lo:
            child[p - lo] += dur
        key = (names[root[i - lo]], names[name_c[i]])
        entry = out.get(key)
        if entry is None:
            entry = out[key] = [0, 0.0]
        entry[0] += 1
        entry[1] += dur - child[i - lo]
    return out


def read_trace(path: Path) -> tuple[dict, dict]:
    """Load a trace file written by ``Tracer.write``: (header, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in header["columns"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            cols[col] = arr
    return header, cols
