"""Span tracing from outside the package, for the benchmark's traced run.

The tracer rebinds public functions at the module attribute their caller
looks them up through, records one span per call and restores every
attribute afterwards. Spans stay in memory in flat arrays until the run
ends. Nothing under ``src/`` is changed.
"""
from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from treestealer import cart, channel, evaluate, extraction, phr, trees

# (module or class, attribute, span name). The span name is the layer
# (the module that defines the function) and the function.
REBINDS = (
    (channel, "infer_with_trace", "trees.infer_with_trace"),
    (trees, "infer_with_trace", "trees.infer_with_trace"),
    (trees, "generate_random_tree", "trees.generate_random_tree"),
    (channel, "observe", "channel.observe"),
    (channel, "decode_step_counters", "channel.decode_step_counters"),
    (channel.StepLayout, "events_for_trace", "channel.step_events"),
    (phr, "encode_inference", "phr.encode_inference"),
    (phr, "extract_via_collisions", "phr.extract_via_collisions"),
    (phr, "decode_branch_trace", "phr.decode_branch_trace"),
    (extraction, "dt_extraction", "extraction.dt_extraction"),
    (evaluate, "dt_extraction", "extraction.dt_extraction"),
    (evaluate, "fidelity", "evaluate.fidelity"),
    (evaluate, "infer", "evaluate.infer"),
    (evaluate, "boundary_margin_inputs", "evaluate.boundary_margin_inputs"),
    (evaluate, "pareto_sweep", "evaluate.pareto_sweep"),
    (evaluate, "api_attack_extract", "baseline.api_attack_extract"),
    (cart, "train_cart", "cart.train_cart"),
)

ROOT = "bench.item"


class Tracer:
    """Records spans: name, start, end, parent span and request id.

    The request id is (item, query): the work item being run and the
    number of oracle queries it has made so far.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.item = array("l")
        self.query = array("l")
        self._stack: list[int] = []
        self._item = -1
        self._query = 0
        self._saved: list[tuple[object, str, object]] = []
        self.readout_positions = 0

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.query.append(self._query)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def request(self, item: int):
        """Trace one work item under a root span of its own."""
        with self:
            self._item, self._query = item, 0
            index = self._open(self._name_id(ROOT))
            try:
                yield
            finally:
                self._close(index)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        is_observe = name == "channel.observe"
        is_readout = name == "phr.extract_via_collisions"

        def traced(*args, **kwargs):
            if is_observe:
                self._query += 1
            elif is_readout:
                self.readout_positions += len(args[0])
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self) -> None:
        for owner, attr, name in REBINDS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_times(self, items=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in ms.

        Self time is a span's duration minus the durations of its direct
        children. ``items`` restricts the sums to spans of those items.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if items is not None and self.item[i] not in items:
                continue
            row = out.setdefault(self.names[self.name[i]],
                                 {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += duration[i] / 1e6
            row["self_ms"] += (duration[i] - child[i]) / 1e6
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\tquery\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.item[i]}\t{self.query[i]}\n")
