"""Shadow-tree reconstruction from branch-trace observations.

``dt_extraction`` finishes shadow nodes from a FIFO backlog, so every
node is finished strictly after its ancestors. Passive tracking means
every observed traversal collects, for every node it crosses whose
feature is still unknown, the input on the side it went; once the
feature is found, the smallest of those values that went left and the
largest that went right are the bracket the threshold search starts
from, and the search alone narrows it.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .errors import (
    ChannelInconsistencyError,
    FeatureNotFoundError,
    PathDeviationError,
)
from .trees import (
    DecisionTree,
    TreeNode,
    _walk,
    assign_ids_breadth_first,
    check_ranges,
    midpoint,
    trace_text,
)

PHASE_EXPLORE = "explore"
PHASE_FEATURE = "feature"
PHASE_THRESHOLD = "threshold"

# Per feature, (largest left-going, smallest right-going) ancestor threshold.
Box = list[tuple[Optional[float], Optional[float]]]


class ShadowNode:
    """A target node as the attacker currently knows it.

    ``explore_input``/``explore_trace`` are the query that first reached
    this node, the input by reference (a probe input is never mutated).
    While its feature is unknown, ``went_left``/``went_right`` hold the
    inputs seen traversing it left and right, by reference. Once
    ``set_feature`` fixes the feature, ``t_left``/``t_right`` hold the
    minimal value of it seen on a left traversal and the maximal one seen
    on a right one, and the lists are dropped; left means ``x[f] > t``, so
    the true threshold always lies in ``[t_right, t_left)``, which
    ``find_threshold`` narrows. ``box`` is set by the parent when it
    finishes (the root's after the exploring query): per feature, the
    largest confirmed ancestor threshold the path went left of
    (``x > t``) and the smallest it went right of (``x <= t``), ``None``
    where none did. ``path``, set when the node is dequeued, is the trace
    prefix every probe of the node must repeat to re-reach it.
    """

    __slots__ = ("id", "feature", "threshold", "value", "left", "right",
                 "depth", "explore_input", "explore_trace",
                 "went_left", "went_right", "t_left", "t_right", "box", "path")

    def __init__(self, depth: int, explore_input: Sequence[float],
                 explore_trace: tuple[int, ...], node_id: int):
        self.id = node_id
        self.depth = depth
        self.explore_input = explore_input
        self.explore_trace = explore_trace
        self.feature: Optional[int] = None
        self.threshold: Optional[float] = None
        self.value: object = None
        self.left: Optional[ShadowNode] = None
        self.right: Optional[ShadowNode] = None
        self.went_left: Optional[list[Sequence[float]]] = []
        self.went_right: Optional[list[Sequence[float]]] = []
        self.t_left: Optional[float] = None
        self.t_right: Optional[float] = None
        self.box: Optional[Box] = None
        self.path: Optional[tuple[int, ...]] = None


class ShadowTree:
    """Shadow model under construction plus its backlog of incomplete nodes;
    its feature count is that of the ranges ``to_decision_tree`` takes."""

    def __init__(self):
        self.root: Optional[ShadowNode] = None
        self.backlog: deque[ShadowNode] = deque()
        self._next_id = 0

    def new_node(self, depth, x, trace) -> ShadowNode:
        node = ShadowNode(depth, x, trace, self._next_id)
        self._next_id += 1
        return node

    def nodes(self):
        """The shadow's nodes in pre-order, left child first."""
        if self.root is not None:
            for node, _ in _walk(self.root):
                yield node

    def to_decision_tree(self, ranges_low, ranges_high) -> DecisionTree:
        """Export the finished shadow as a plain decision tree; the first
        incomplete node in pre-order raises ``ChannelInconsistencyError``."""
        if self.root is None:
            raise ChannelInconsistencyError("shadow tree is empty")
        root = TreeNode()
        stack = [(self.root, root)]  # (shadow node, its unfilled copy)
        while stack:
            node, out = stack.pop()
            if node.value is not None:
                out.value = node.value
                continue
            if node.feature is None or node.threshold is None \
                    or node.left is None or node.right is None:
                raise ChannelInconsistencyError(
                    f"shadow node {node.id} is incomplete; extraction did not finish")
            out.feature, out.threshold = node.feature, node.threshold
            out.left, out.right = TreeNode(), TreeNode()
            stack += ((node.right, out.right), (node.left, out.left))
        assign_ids_breadth_first(root)
        return DecisionTree(root=root, ranges_low=list(ranges_low),
                            ranges_high=list(ranges_high))


def set_feature(node: ShadowNode, feature: int) -> None:
    """Fix the node's feature and resolve its bracket on it from the
    inputs seen so far, which are then dropped."""
    node.feature = feature
    if not node.went_left or not node.went_right:
        raise ChannelInconsistencyError(
            f"node {node.id} entered threshold search without both bounds")
    node.t_left = min(map(itemgetter(feature), node.went_left))
    node.t_right = max(map(itemgetter(feature), node.went_right))
    node.went_left = node.went_right = None


def add_nodes(shadow: ShadowTree, label: object, trace: tuple[int, ...],
              x: Sequence[float], start: Optional[ShadowNode] = None) -> None:
    """Walk the trace through the shadow, creating missing nodes.

    Each visited node whose feature is unknown collects the input on the
    way down, by reference, in the list of the side it went; the walk
    reads no bracket. Nodes the trace passes through join the backlog
    when created; the final node receives the label and never joins it.
    A trace that runs on past a labelled node contradicts the shadow.

    ``start`` resumes the walk at that node, at its depth, for a trace
    known to follow the node's path. Walking its ancestors would change
    nothing once they are finished, as they are whenever ``start`` has
    left the FIFO backlog.
    """
    last = len(trace) - 1
    if start is not None:
        node, depth = start, start.depth
    else:
        if shadow.root is None:
            shadow.root = shadow.new_node(0, x, trace)
            if trace:
                shadow.backlog.append(shadow.root)
        node, depth = shadow.root, 0
    for i in range(depth, last + 1):
        bit = trace[i]
        if node.feature is None:
            (node.went_left if bit == 0 else node.went_right).append(x)
        child = node.left if bit == 0 else node.right
        if child is None:
            if node.value is not None:
                raise ChannelInconsistencyError(
                    f"trace continues past shadow leaf {node.id} at depth {i}")
            child = shadow.new_node(i + 1, x, trace)
            if bit == 0:
                node.left = child
            else:
                node.right = child
            if i < last:
                shadow.backlog.append(child)
        node = child
    if node.value is not None:
        if node.value != label:
            raise ChannelInconsistencyError(
                f"shadow leaf {node.id} saw labels {node.value!r} and {label!r}")
        return
    # Every valueless node but a just-created final one has a child.
    if node.left is not None or node.right is not None:
        raise ChannelInconsistencyError(
            f"trace ends at shadow node {node.id} which already has children")
    node.value = label


def craft_inp_feature(node: ShadowNode, ranges_low: Sequence[float],
                      ranges_high: Sequence[float], beta: int,
                      epsilon: float) -> list[float]:
    """Craft an input that re-reaches the node and, if the node checks
    feature ``beta``, flips its branching decision.

    A feature untested on the path goes to the range limit opposite the
    node's exploring decision. A tested one goes just inside the path's
    box, on the side the node did not take: box low plus ``epsilon`` when
    the node went left, box high minus ``epsilon`` when it went right,
    with a range limit standing in for an untested side. The nudge is at
    least one ulp, so an ``epsilon`` below the float spacing there still
    moves the value off the box edge.
    """
    x = list(node.explore_input)
    low, high = node.box[beta]
    node_bit = node.explore_trace[node.depth]
    if low is None and high is None:
        value = ranges_low[beta] if node_bit == 0 else ranges_high[beta]
    elif node_bit == 0:
        base = ranges_low[beta] if low is None else low
        value = base + epsilon if base + epsilon > base else math.nextafter(base, math.inf)
    else:
        base = ranges_high[beta] if high is None else high
        value = base - epsilon if base - epsilon < base else math.nextafter(base, -math.inf)
    if value < ranges_low[beta] or value > ranges_high[beta]:
        # Routine at coarse resolutions (the epsilon nudge overshoots the
        # range); the query would be rejected out-of-domain, so clamp.
        value = min(max(value, ranges_low[beta]), ranges_high[beta])
    x[beta] = value
    return x


def find_feature(node: ShadowNode, ask: Callable[..., tuple[int, ...]],
                 ranges_low: Sequence[float], ranges_high: Sequence[float],
                 epsilon: float) -> None:
    """Feature phase: probe feature 0, 1, ... until the node's branch
    flips, at most ``m`` queries, then ``set_feature`` the one that did;
    ``FeatureNotFoundError`` if none does."""
    explored_bit = node.explore_trace[node.depth]
    for beta in range(len(ranges_low)):
        x = craft_inp_feature(node, ranges_low, ranges_high, beta, epsilon)
        if ask(x, PHASE_FEATURE, node)[node.depth] != explored_bit:
            set_feature(node, beta)
            return
    raise FeatureNotFoundError(
        f"no feature flips node {node.id}; every probe followed the "
        f"exploring path (epsilon too coarse, or inconsistent traces)",
        node_id=node.id)


def find_threshold(node: ShadowNode, ask: Callable[..., tuple[int, ...]],
                   epsilon: float) -> None:
    """Threshold phase: binary-search the node's bracket on its feature
    until it is at most ``epsilon`` wide, then set the threshold to its
    midpoint; at least 1 and at most ``ceil(log2(width / epsilon))``
    queries for a feature range ``width`` wider than ``epsilon``.

    Each probe re-reaches the node with the feature at the bracket's
    midpoint; a left answer lowers ``t_left`` to it and a right one
    raises ``t_right``. A bracket that empties raises
    ``ChannelInconsistencyError``. A bracket of two adjacent doubles ends
    the search at any ``epsilon`` and gives ``t_right``, the exact
    threshold.
    """
    mid = midpoint(node.t_right, node.t_left)
    while True:
        x = list(node.explore_input)
        x[node.feature] = mid
        if ask(x, PHASE_THRESHOLD, node)[node.depth] == 0:
            if mid < node.t_left:
                node.t_left = mid
        elif mid > node.t_right:
            node.t_right = mid
        width = node.t_left - node.t_right
        if width <= 0:
            # Consistent traces keep the truth inside the bracket.
            raise ChannelInconsistencyError(
                f"node {node.id} bracket [{node.t_right:g}, {node.t_left:g}) "
                f"on feature {node.feature} is empty")
        mid = midpoint(node.t_right, node.t_left)
        # No double strictly inside: left means x > t, so t is t_right.
        exact = not node.t_right < mid < node.t_left
        if exact or width <= epsilon:
            node.threshold = node.t_right if exact else mid
            return


@dataclass(slots=True)
class TranscriptEntry:
    query_index: int
    input: list[float]
    label: object
    trace: str
    phase: str
    target_node_id: Optional[int]

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class ExtractionResult:
    """The finished shadow and one record per query, in query order:
    ``(input, label, trace, phase, target node)``, the node ``None`` for
    the exploring query. The query count and the transcript are read from them."""

    shadow: ShadowTree
    records: list[tuple]

    @property
    def queries(self) -> int:
        return len(self.records)

    @property
    def transcript(self) -> list[TranscriptEntry]:
        """The records as entries, built on each read and sharing each input."""
        return [TranscriptEntry(i, x, label, trace_text(trace), phase,
                                None if node is None else node.id)
                for i, (x, label, trace, phase, node) in enumerate(self.records, 1)]

    def to_decision_tree(self, ranges_low, ranges_high) -> DecisionTree:
        return self.shadow.to_decision_tree(ranges_low, ranges_high)

    def write_transcript(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(entry.to_json() + "\n" for entry in self.transcript)


def dt_extraction(
    oracle: Callable[[Sequence[float]], tuple[object, tuple[int, ...]]],
    ranges_low: Sequence[float],
    ranges_high: Sequence[float],
    epsilon: float,
    passive_tracking: bool = True,
) -> ExtractionResult:
    """Extract the whole tree behind ``oracle``.

    The oracle takes one input vector and returns the pair ``(label,
    trace)``. Provided the target's per-path, per-feature threshold gaps
    (and the gaps to the range limits) exceed ``epsilon``, the shadow's
    features are exact and every threshold is within ``epsilon / 2`` of
    the truth. Each query is recorded once, in ``ExtractionResult.records``.

    One exploring query at the range maxima grows the first path; then
    each inner node, in FIFO backlog order, goes through
    ``find_feature`` and ``find_threshold``, and gives each child that
    is not a leaf its box.

    Every probe must re-reach its node; ``PathDeviationError`` is raised
    when its trace leaves the node's path instead. A trace that
    contradicts the shadow built so far, or a threshold bracket that
    empties, raises ``ChannelInconsistencyError`` in any phase.

    ``passive_tracking=False`` is the ablation: a node's traversal bounds
    are reseeded from its exploring query when it is dequeued, discarding
    what earlier queries collected, so every binary search starts from
    scratch.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    check_ranges(ranges_low, ranges_high)

    shadow = ShadowTree()
    records: list[tuple] = []

    def ask(x: list[float], phase: str, node: Optional[ShadowNode] = None) -> tuple[int, ...]:
        """Query, record, grow the shadow, and check ``node`` is re-reached.

        ``x`` is built for this query and never mutated after it, so the
        oracle, the record, the nodes' observation lists and the
        exploring input of any node it creates share it.
        """
        label, trace = oracle(x)
        records.append((x, label, trace, phase, node))
        if node is None or (len(trace) > node.depth and trace[:node.depth] == node.path):
            add_nodes(shadow, label, trace, x, node)
            return trace
        # A contradiction the walk from the root finds takes precedence.
        add_nodes(shadow, label, trace, x)
        raise PathDeviationError(
            f"crafted input deviated above node {node.id} (depth {node.depth}); "
            f"the extraction resolution is likely coarser than the threshold spacing",
            node_id=node.id)

    ask(list(ranges_high), PHASE_EXPLORE)
    shadow.root.box = [(None, None)] * len(ranges_low)
    while shadow.backlog:
        node = shadow.backlog.popleft()
        node.path = node.explore_trace[:node.depth]
        if not passive_tracking:
            # Ablation: forget passive history, reseed from the one
            # observation that defined this node.
            first = [node.explore_input]
            explored_bit = node.explore_trace[node.depth]
            node.went_left, node.went_right = ([], first) if explored_bit else (first, [])
        find_feature(node, ask, ranges_low, ranges_high, epsilon)
        find_threshold(node, ask, epsilon)
        # An inner child's box is this node's, narrowed by its own check.
        f, t = node.feature, node.threshold
        low, high = node.box[f]
        for child, edge in ((node.left, (t if low is None else max(low, t), high)),
                            (node.right, (low, t if high is None else min(high, t)))):
            if child.value is None:
                child.box = node.box.copy()
                child.box[f] = edge

    return ExtractionResult(shadow, records)
