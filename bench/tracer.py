"""In-memory span tracer for the benchmark.

The tracer wraps, from outside the library, the public functions that one
greedyrange module calls in another, and the ``MetricSpace`` distance
methods.  A wrapped call records one span: name, start, end, parent span,
query id, and the number of distance pairs it evaluated (kernel spans
only).  Spans live in compact arrays while the run lasts and are written
out and analysed when it ends.  Nothing in the library changes: a
function is wrapped by rebinding the name in the module that calls it, so
a call made inside a module through a name it does not import stays
untraced.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from greedyrange import cascade, cli, metrics, search, tree

# (module whose global name is rebound, name, span name).  The span name
# is "<layer>.<function>", the layer being the module that defines it.
_CALL_SITES = [
    (cli, "main", "cli.main"),
    (cli, "load_factor_specs", "dataset.load_factor_specs"),
    (cli, "load_dataset", "dataset.load_dataset"),
    (cli, "build_structure", "cli.build_structure"),
    (cli, "dataset_summary", "metrics.dataset_summary"),
    (cli, "save_index", "cli.save_index"),
    (cli, "load_index", "cli.load_index"),
    (cli, "greedy_permutation", "tree.greedy_permutation"),
    (cli, "build_greedy_tree", "tree.build_greedy_tree"),
    (cli, "build_grt", "cascade.build_grt"),
    (cli, "tree_to_obj", "tree.tree_to_obj"),
    (cli, "grt_to_obj", "cascade.grt_to_obj"),
    (cli, "tree_from_obj", "tree.tree_from_obj"),
    (cli, "grt_from_obj", "cascade.grt_from_obj"),
    (cascade, "build_grt", "cascade.build_grt"),
    (cascade, "greedy_permutation", "tree.greedy_permutation"),
    (cascade, "build_greedy_tree", "tree.build_greedy_tree"),
    (cascade, "merge", "tree.merge"),
    (cascade, "tree_to_obj", "tree.tree_to_obj"),
    (cascade, "grt_to_obj", "cascade.grt_to_obj"),
    (cascade, "tree_from_obj", "tree.tree_from_obj"),
    (cascade, "grt_from_obj", "cascade.grt_from_obj"),
    (cascade, "range_cover", "search.range_cover"),
    (cascade, "range_report", "search.range_report"),
    (cascade, "grt_query", "cascade.grt_query"),
    (tree, "greedy_permutation", "tree.greedy_permutation"),
    (tree, "build_greedy_tree", "tree.build_greedy_tree"),
    (search, "product_range_query", "search.product_range_query"),
    (search, "subtree_points", "tree.subtree_points"),
]

# Distance methods, wrapped on the base class so every factor kind is
# covered; ProductMetric calls through them, so it needs no span of its own.
_KERNELS = [
    ("dist", "metrics.dist", False),
    ("dist_many", "metrics.dist_many", True),
    ("dist_point", "metrics.dist_point", False),
    ("dist_point_many", "metrics.dist_point_many", True),
]
KERNEL_NAMES = frozenset(name for _, name, _ in _KERNELS)


class Tracer:
    """Records the spans of one traced phase of a run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.qid = array("i")
        self.pairs = array("q")
        self.stop = array("i")  # one past the last span opened inside this one
        self._stack = [-1]
        self.query = -1  # set by the caller around each query

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn: Callable[..., Any], name: str, bulk: bool | None) -> Callable[..., Any]:
        """``bulk`` is None for a non-kernel call, else whether ids are a sequence."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends, parents, qids, pairs, stops = (
            self.name, self.start, self.end, self.parent, self.qid, self.pairs, self.stop,
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            qids.append(self.query)
            pairs.append(0 if bulk is None else (len(args[2]) if bulk else 1))
            ends.append(0.0)
            stops.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                stops[idx] = len(starts)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for module, attr, name in _CALL_SITES:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name, None))
            for attr, name, bulk in _KERNELS:
                saved.append((metrics.MetricSpace, attr, getattr(metrics.MetricSpace, attr)))
                setattr(metrics.MetricSpace, attr, self._wrap(getattr(metrics.MetricSpace, attr), name, bulk))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Array view of a finished trace, with self times and subtree sums."""

    def __init__(self, tr: Tracer) -> None:
        self.names = list(tr.names)
        self.name = np.frombuffer(tr.name, dtype=np.int32).copy()
        self.start = np.frombuffer(tr.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tr.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).copy()
        self.qid = np.frombuffer(tr.qid, dtype=np.int32).copy()
        self.pairs = np.frombuffer(tr.pairs, dtype=np.int64).copy()
        self.stop = np.frombuffer(tr.stop, dtype=np.int32).copy()
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child
        self._cum_pairs = np.concatenate([[0], np.cumsum(self.pairs)])
        self.kernel = np.isin(self.name, [i for i, n in enumerate(self.names) if n in KERNEL_NAMES])

    def __len__(self) -> int:
        return len(self.dur)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def inclusive(self, name: str) -> float:
        """Summed duration of the outermost spans of ``name`` (a span whose
        parent has the same name is already inside its parent's time)."""
        m = self.mask(name)
        idx = np.flatnonzero(m)
        par = self.parent[idx]
        outer = (par < 0) | (self.name[np.maximum(par, 0)] != self.name[idx])
        return float(self.dur[idx[outer]].sum())

    def self_sum(self, names: Any, where: np.ndarray | None = None) -> float:
        m = np.zeros(len(self), dtype=bool)
        for name in [names] if isinstance(names, str) else names:
            m |= self.mask(name)
        if where is not None:
            m &= where
        return float(self.self_time[m].sum())

    def pairs_within(self, name: str) -> int:
        """Distance pairs evaluated inside spans of ``name``, which must not nest."""
        idx = np.flatnonzero(self.mask(name))
        return int((self._cum_pairs[self.stop[idx]] - self._cum_pairs[idx]).sum())

    def arrays(self) -> dict[str, np.ndarray]:
        """The raw spans, for writing out."""
        return {
            "names": np.array(self.names),
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "qid": self.qid,
            "pairs": self.pairs,
        }
