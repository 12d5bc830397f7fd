"""Shadow-tree reconstruction from branch-trace observations.

``dt_extraction`` finishes shadow nodes from a FIFO backlog, so every
node is finished strictly after its ancestors. Passive tracking means
every observed traversal tightens, for every unfinished node it crosses,
the smallest input value that still went left and the largest that went
right, which is exactly the bracket a node's threshold search starts from.
A finished node's bracket is frozen: it still holds the true threshold.
"""
from __future__ import annotations

import json
import logging
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
    trace_text,
)

log = logging.getLogger(__name__)

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
    the true threshold always lies in ``[t_right, t_left)``. The bracket
    tightens only while ``threshold`` is unset; a finished node's is frozen.
    ``box`` and ``path`` are set when the node is dequeued: per feature,
    the largest confirmed ancestor threshold the path went left of
    (``x > t``) and the smallest it went right of (``x <= t``), ``None``
    where none did; and the trace prefix every probe of the node must
    repeat to re-reach it.
    """

    __slots__ = ("id", "feature", "threshold", "value", "left", "right",
                 "parent", "depth", "explore_input", "explore_trace",
                 "went_left", "went_right", "t_left", "t_right", "box", "path")

    def __init__(self, parent: Optional["ShadowNode"], depth: int,
                 explore_input: Sequence[float], explore_trace: tuple[int, ...],
                 node_id: int):
        self.id = node_id
        self.parent = parent
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

    def new_node(self, parent, depth, x, trace) -> ShadowNode:
        node = ShadowNode(parent, depth, x, trace, self._next_id)
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

    Each visited node without a threshold has its bracket tightened on the
    way down: while its feature is unknown the input joins the list of the
    side it went, by reference; once known, it lowers the left bound or
    raises the right one on that feature. A finished node's bracket is
    frozen. Nodes the trace passes through join the backlog when created;
    the final node receives the label and never joins it. A trace that
    runs on past a labelled node contradicts the shadow.

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
            shadow.root = shadow.new_node(None, 0, x, trace)
            if trace:
                shadow.backlog.append(shadow.root)
        node, depth = shadow.root, 0
    for i in range(depth, last + 1):
        bit = trace[i]
        if node.threshold is None:
            f = node.feature
            if f is None:
                (node.went_left if bit == 0 else node.went_right).append(x)
            elif bit == 0:
                if x[f] < node.t_left:
                    node.t_left = x[f]
            elif x[f] > node.t_right:
                node.t_right = x[f]
        child = node.left if bit == 0 else node.right
        if child is None:
            if node.value is not None:
                raise ChannelInconsistencyError(
                    f"trace continues past shadow leaf {node.id} at depth {i}")
            child = shadow.new_node(node, i + 1, x, trace)
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


def craft_inp_threshold(node: ShadowNode) -> list[float]:
    """One binary-search step: re-reach the node with its own feature set
    to the midpoint of the tracked bracket."""
    x = list(node.explore_input)
    lo, hi = node.t_right, node.t_left
    x[node.feature] = lo + (hi - lo) / 2
    return x


def craft_inp_feature(node: ShadowNode, ranges_high: Sequence[float],
                      ranges_low: Sequence[float], beta: int,
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
        clamped = min(max(value, ranges_low[beta]), ranges_high[beta])
        log.debug("feature probe value %g for node %d clamped to %g (outside range)",
                  value, node.id, clamped)
        value = clamped
    x[beta] = value
    return x


def path_box(node: ShadowNode, num_features: int) -> Box:
    """The node's box: its parent's, narrowed by the parent's own check.

    Runs when the node is dequeued; by the backlog's FIFO order the
    parent is complete and has its box by then.
    """
    parent = node.parent
    if parent is None:
        return [(None, None)] * num_features
    if parent.feature is None or parent.threshold is None:
        raise ChannelInconsistencyError(
            f"node {node.id} dequeued before ancestor {parent.id} was complete")
    box = list(parent.box)
    low, high = box[parent.feature]
    t = parent.threshold
    if node is parent.left:
        box[parent.feature] = (t if low is None else max(low, t), high)
    else:
        box[parent.feature] = (low, t if high is None else min(high, t))
    return box


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
    each inner node, in FIFO backlog order, goes through two phases:

    - feature phase: probe feature 0, 1, ... until the node's branch
      flips, at most ``m`` queries; ``FeatureNotFoundError`` if none does;
    - threshold phase: binary-search the tracked bracket on that feature
      until it is at most ``epsilon`` wide, then take its midpoint; at
      least 1 and at most ``ceil(log2(width / epsilon))`` queries for a
      feature range ``width`` wider than ``epsilon``. A bracket of two
      adjacent doubles ends the search at any ``epsilon`` and gives
      ``t_right``, the exact threshold.

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
    m = len(ranges_low)
    if len(ranges_high) != m:
        raise ValueError("feature ranges must match the feature count")
    for lo, hi in zip(ranges_low, ranges_high):
        if not lo < hi:
            raise ValueError("feature ranges must have low < high")

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
    while shadow.backlog:
        node = shadow.backlog.popleft()
        node.box = path_box(node, m)
        node.path = node.explore_trace[:node.depth]
        explored_bit = node.explore_trace[node.depth]
        if not passive_tracking:
            # Ablation: forget passive history, reseed from the one
            # observation that defined this node.
            first = [node.explore_input]
            node.went_left, node.went_right = ([], first) if explored_bit else (first, [])

        for beta in range(m):
            x = craft_inp_feature(node, ranges_high, ranges_low, beta, epsilon)
            if ask(x, PHASE_FEATURE, node)[node.depth] != explored_bit:
                set_feature(node, beta)
                break
        else:
            raise FeatureNotFoundError(
                f"no feature flips node {node.id}; every probe followed the "
                f"exploring path (epsilon too coarse, or inconsistent traces)",
                node_id=node.id)

        while True:
            ask(craft_inp_threshold(node), PHASE_THRESHOLD, node)
            width = node.t_left - node.t_right
            if width <= 0:
                # Consistent traces keep the truth inside the bracket.
                raise ChannelInconsistencyError(
                    f"node {node.id} bracket [{node.t_right:g}, {node.t_left:g}) "
                    f"on feature {node.feature} is empty")
            mid = node.t_right + width / 2
            # No double strictly inside: left means x > t, so t is t_right.
            exact = not node.t_right < mid < node.t_left
            if exact or width <= epsilon:
                break
        node.threshold = node.t_right if exact else mid

    return ExtractionResult(shadow, records)
