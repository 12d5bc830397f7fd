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
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

from .errors import (
    ChannelInconsistencyError,
    FeatureNotFoundError,
    PathDeviationError,
)
from .trees import (
    DecisionTree,
    TreeNode,
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
    this node. ``t_left``/``t_right`` hold, per feature, the minimal value
    seen on a left traversal of this node and the maximal value seen on a
    right one; left means ``x[f] > t``, so the node's true threshold on its
    own feature always lies in ``[t_right[f], t_left[f])``. They tighten
    only while ``threshold`` is unset; a finished node's bracket is frozen.
    ``box`` is set when the node is dequeued: per feature, the largest
    confirmed ancestor threshold the path went left of (``x > t``) and the
    smallest it went right of (``x <= t``); ``None`` where none did.
    """

    __slots__ = ("id", "feature", "threshold", "value", "left", "right",
                 "parent", "depth", "explore_input", "explore_trace",
                 "t_left", "t_right", "box")

    def __init__(self, parent: Optional["ShadowNode"], depth: int,
                 explore_input: Sequence[float], explore_trace: tuple[int, ...],
                 node_id: int):
        self.id = node_id
        self.parent = parent
        self.depth = depth
        self.explore_input = list(explore_input)
        self.explore_trace = explore_trace
        self.feature: Optional[int] = None
        self.threshold: Optional[float] = None
        self.value: object = None
        self.left: Optional[ShadowNode] = None
        self.right: Optional[ShadowNode] = None
        self.t_left: Optional[list[float]] = None
        self.t_right: Optional[list[float]] = None
        self.box: Optional[Box] = None


class ShadowTree:
    """Shadow model under construction plus its backlog of incomplete nodes."""

    def __init__(self, num_features: int):
        self.num_features = num_features
        self.root: Optional[ShadowNode] = None
        self.backlog: deque[ShadowNode] = deque()
        self._next_id = 0

    def new_node(self, parent, depth, x, trace) -> ShadowNode:
        node = ShadowNode(parent, depth, x, trace, self._next_id)
        self._next_id += 1
        return node

    def nodes(self):
        def walk(node):
            if node is None:
                return
            yield node
            yield from walk(node.left)
            yield from walk(node.right)
        yield from walk(self.root)

    def to_decision_tree(self, ranges_low, ranges_high) -> DecisionTree:
        """Export the finished shadow as a plain decision tree."""
        def convert(node: ShadowNode) -> TreeNode:
            if node.value is not None:
                return TreeNode(value=node.value)
            if node.feature is None or node.threshold is None \
                    or node.left is None or node.right is None:
                raise ChannelInconsistencyError(
                    f"shadow node {node.id} is incomplete; extraction did not finish")
            out = TreeNode(feature=node.feature, threshold=node.threshold)
            out.left = convert(node.left)
            out.right = convert(node.right)
            return out

        if self.root is None:
            raise ChannelInconsistencyError("shadow tree is empty")
        root = convert(self.root)
        assign_ids_breadth_first(root)
        return DecisionTree(root=root, num_features=self.num_features,
                            ranges_low=list(ranges_low), ranges_high=list(ranges_high))


def update_threshold_ranges(node: ShadowNode, bit: int, x: Sequence[float]) -> None:
    """Tighten the node's per-feature traversal bounds with one observation.

    The first observation on a side initializes the whole vector; later
    ones minimize (left) or maximize (right) element-wise.
    """
    if bit == 0:
        if node.t_left is None:
            node.t_left = list(x)
        else:
            t = node.t_left
            for i, v in enumerate(x):
                if v < t[i]:
                    t[i] = v
    else:
        if node.t_right is None:
            node.t_right = list(x)
        else:
            t = node.t_right
            for i, v in enumerate(x):
                if v > t[i]:
                    t[i] = v


def add_nodes(shadow: ShadowTree, label: object, trace: tuple[int, ...],
              x: Sequence[float], start: Optional[ShadowNode] = None) -> None:
    """Walk the trace through the shadow, creating missing nodes.

    Visited nodes without a threshold get their ranges updated on the way
    down; a finished node's bracket is frozen. Nodes the trace passes
    through join the backlog when created; the final node receives the
    label and never joins it. A trace that runs on past a labelled node
    contradicts the shadow.

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
            update_threshold_ranges(node, bit, x)
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
    f = node.feature
    if node.t_left is None or node.t_right is None:
        raise ChannelInconsistencyError(
            f"node {node.id} entered threshold search without both bounds")
    x = list(node.explore_input)
    lo, hi = node.t_right[f], node.t_left[f]
    x[f] = lo + (hi - lo) / 2
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
    with a range limit standing in for an untested side.
    """
    x = list(node.explore_input)
    low, high = node.box[beta]
    node_bit = node.explore_trace[node.depth]
    if low is None and high is None:
        value = ranges_low[beta] if node_bit == 0 else ranges_high[beta]
    elif node_bit == 0:
        value = (ranges_low[beta] if low is None else low) + epsilon
    else:
        value = (ranges_high[beta] if high is None else high) - epsilon
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
    shadow: ShadowTree
    queries: int
    transcript: list[TranscriptEntry] = field(default_factory=list)

    def to_decision_tree(self, ranges_low, ranges_high) -> DecisionTree:
        return self.shadow.to_decision_tree(ranges_low, ranges_high)

    def write_transcript(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(entry.to_json() + "\n" for entry in self.transcript)


def dt_extraction(
    oracle: Callable[[Sequence[float]], object],
    ranges_low: Sequence[float],
    ranges_high: Sequence[float],
    epsilon: float,
    passive_tracking: bool = True,
    record_transcript: bool = True,
) -> ExtractionResult:
    """Extract the whole tree behind ``oracle``.

    The oracle takes one input vector and returns an object with ``label``
    and ``trace`` attributes. Provided the target's per-path, per-feature
    threshold gaps (and the gaps to the range limits) exceed ``epsilon``,
    the shadow's features are exact and every threshold is within
    ``epsilon / 2`` of the truth.

    One exploring query at the range maxima grows the first path; then
    each inner node, in FIFO backlog order, goes through two phases:

    - feature phase: probe feature 0, 1, ... until the node's branch
      flips, at most ``m`` queries; ``FeatureNotFoundError`` if none does;
    - threshold phase: binary-search the tracked bracket on that feature
      until it is at most ``epsilon`` wide, then take its midpoint; at
      least 1 and at most ``ceil(log2(width / epsilon))`` queries for a
      feature range ``width`` wider than ``epsilon``.

    Every probe must re-reach its node; ``PathDeviationError`` is raised
    when its trace leaves the node's path instead. A trace that
    contradicts the shadow built so far, or a threshold bracket that
    empties, raises ``ChannelInconsistencyError`` in any phase.

    ``passive_tracking=False`` is the ablation: a node's traversal bounds
    are reseeded from its exploring query when it is dequeued, discarding
    what earlier queries collected, so every binary search starts from
    scratch.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = len(ranges_low)
    if len(ranges_high) != m:
        raise ValueError("feature ranges must match the feature count")
    for lo, hi in zip(ranges_low, ranges_high):
        if not lo < hi:
            raise ValueError("feature ranges must have low < high")

    shadow = ShadowTree(m)
    transcript: list[TranscriptEntry] = []
    texts: dict[tuple[int, ...], str] = {}  # trace -> its text, rendered once
    queries = 0

    def ask(x: list[float], phase: str, node: Optional[ShadowNode] = None) -> tuple[int, ...]:
        """Query, record, grow the shadow, and check ``node`` is re-reached."""
        nonlocal queries
        result = oracle(x)
        queries += 1
        trace = result.trace
        label = result.label
        if record_transcript:
            text = texts.get(trace)
            if text is None:
                text = texts[trace] = trace_text(trace)
            transcript.append(TranscriptEntry(
                queries, list(x), label, text, phase,
                node.id if node is not None else None))
        if node is None or (len(trace) > node.depth
                            and trace[:node.depth] == node.explore_trace[:node.depth]):
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
        explored_bit = node.explore_trace[node.depth]
        if not passive_tracking:
            # Ablation: forget passive history, reseed from the one
            # observation that defined this node.
            node.t_left = None
            node.t_right = None
            update_threshold_ranges(node, explored_bit, node.explore_input)

        for beta in range(m):
            x = craft_inp_feature(node, ranges_high, ranges_low, beta, epsilon)
            if ask(x, PHASE_FEATURE, node)[node.depth] != explored_bit:
                node.feature = beta
                break
        else:
            raise FeatureNotFoundError(
                f"no feature flips node {node.id}; every probe followed the "
                f"exploring path (epsilon too coarse, or inconsistent traces)",
                node_id=node.id)

        f = node.feature
        while True:
            ask(craft_inp_threshold(node), PHASE_THRESHOLD, node)
            width = node.t_left[f] - node.t_right[f]
            if width <= 0:
                # Consistent traces keep the truth inside the bracket.
                raise ChannelInconsistencyError(
                    f"node {node.id} bracket [{node.t_right[f]:g}, {node.t_left[f]:g}) "
                    f"on feature {f} is empty")
            if width <= epsilon:
                break
        node.threshold = node.t_right[f] + width / 2

    return ExtractionResult(shadow=shadow, queries=queries, transcript=transcript)
