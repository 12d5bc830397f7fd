"""Shadow-tree reconstruction from branch-trace observations.

The attack keeps a FIFO backlog of incomplete shadow nodes so every node
is finished strictly after its ancestors. Per node it first toggles one
feature after another in the node's exploring input until the branch at
the node's depth flips, which names the feature; then it binary-searches
the threshold inside the passively tracked bounds. Passive tracking means
every observed traversal tightens, for every node it crosses, the
smallest input value that still went left and the largest that went
right, which is exactly the bracket the later binary search starts from.
"""
from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import (
    ChannelInconsistencyError,
    FeatureNotFoundError,
    PathDeviationError,
)
from .trees import (
    BranchTrace,
    DecisionTree,
    TreeNode,
    assign_ids_breadth_first,
)

log = logging.getLogger(__name__)

PHASE_EXPLORE = "explore"
PHASE_FEATURE = "feature"
PHASE_THRESHOLD = "threshold"


class ShadowNode:
    """A target node as the attacker currently knows it.

    ``explore_input``/``explore_trace`` are the query that first reached
    this node. ``t_left``/``t_right`` hold, per feature, the minimal value
    seen on a left traversal of this node and the maximal value seen on a
    right one; left means ``x[f] > t``, so the node's true threshold on its
    own feature always lies in ``[t_right[f], t_left[f])``.
    ``feat_thresholds``/``feat_depths`` record the confirmed thresholds
    (and their depths) of path ancestors, indexed by feature; they are
    filled in when the node is dequeued.
    """

    __slots__ = ("id", "feature", "threshold", "value", "left", "right",
                 "parent", "depth", "explore_input", "explore_trace",
                 "t_left", "t_right", "feat_thresholds", "feat_depths")

    def __init__(self, parent: Optional["ShadowNode"], depth: int,
                 explore_input: Sequence[float], explore_trace: BranchTrace,
                 num_features: int, node_id: int):
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
        self.feat_thresholds: list[list[float]] = [[] for _ in range(num_features)]
        self.feat_depths: list[list[int]] = [[] for _ in range(num_features)]

    @property
    def is_complete(self) -> bool:
        return self.value is not None or (self.feature is not None
                                          and self.threshold is not None)


class ShadowTree:
    """Shadow model under construction plus its backlog of incomplete nodes."""

    def __init__(self, num_features: int):
        self.num_features = num_features
        self.root: Optional[ShadowNode] = None
        self.backlog: deque[ShadowNode] = deque()
        self._next_id = 0

    def new_node(self, parent, depth, x, trace) -> ShadowNode:
        node = ShadowNode(parent, depth, x, trace, self.num_features, self._next_id)
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
        def convert(node: ShadowNode, depth: int) -> TreeNode:
            if node.value is not None:
                return TreeNode(value=node.value, depth=depth)
            if node.feature is None or node.threshold is None \
                    or node.left is None or node.right is None:
                raise ChannelInconsistencyError(
                    f"shadow node {node.id} is incomplete; extraction did not finish")
            out = TreeNode(feature=node.feature, threshold=node.threshold, depth=depth)
            out.left = convert(node.left, depth + 1)
            out.right = convert(node.right, depth + 1)
            return out

        if self.root is None:
            raise ChannelInconsistencyError("shadow tree is empty")
        root = convert(self.root, 0)
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


def add_nodes(shadow: ShadowTree, label: object, trace: BranchTrace,
              x: Sequence[float]) -> None:
    """Walk the trace through the shadow, creating missing nodes.

    Every visited node's threshold ranges are updated on the way down.
    Nodes the trace passes through join the backlog when created; the
    final node receives the label and never joins it.
    """
    last = len(trace) - 1
    if shadow.root is None:
        shadow.root = shadow.new_node(None, 0, x, trace)
        if trace:
            shadow.backlog.append(shadow.root)
    node = shadow.root
    for i, bit in enumerate(trace):
        update_threshold_ranges(node, bit, x)
        child = node.left if bit == 0 else node.right
        if child is None:
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


def add_attack_info(shadow: ShadowTree, current: Optional[ShadowNode], label: object,
                    trace: BranchTrace, x: Sequence[float], beta: int,
                    epsilon: float) -> tuple[int, Optional[ShadowNode]]:
    """Fold one observation into the shadow; returns (beta', current').

    With no node under attack the observation only grows the shadow. In
    the feature phase, a flipped branch at the node's depth names the
    feature as the previously probed one. In the threshold phase the
    bracket is closed once it is within epsilon, the threshold set to its
    midpoint, and the node released.
    """
    add_nodes(shadow, label, trace, x)
    if current is None:
        return 0, None
    if len(trace) <= current.depth or trace[:current.depth] != current.explore_trace[:current.depth]:
        raise PathDeviationError(
            f"crafted input deviated above node {current.id} (depth {current.depth}); "
            f"the extraction resolution is likely coarser than the threshold spacing",
            node_id=current.id)
    if current.feature is None:
        if trace[current.depth] != current.explore_trace[current.depth]:
            current.feature = beta - 1
            return 0, current
        return beta, current
    f = current.feature
    delta = current.t_left[f] - current.t_right[f]
    if delta <= epsilon:
        current.threshold = current.t_right[f] + delta / 2
        return beta, None
    return beta, current


def craft_inp_threshold(current: ShadowNode) -> list[float]:
    """One binary-search step: re-reach the node with its own feature set
    to the midpoint of the tracked bracket."""
    f = current.feature
    if current.t_left is None or current.t_right is None:
        raise ChannelInconsistencyError(
            f"node {current.id} entered threshold search without both bounds")
    x = list(current.explore_input)
    lo, hi = current.t_right[f], current.t_left[f]
    x[f] = lo + (hi - lo) / 2
    return x


def craft_inp_feature(current: ShadowNode, shadow: ShadowTree,
                      ranges_high: Sequence[float], ranges_low: Sequence[float],
                      beta: int, epsilon: float) -> list[float]:
    """Craft an input that re-reaches the node and, if the node checks
    feature ``beta``, flips its branching decision.

    The root is probed by toggling the feature to its range minimum. For
    other nodes, a feature untested on the path is toggled to the range
    limit opposite the node's exploring decision; a feature with
    confirmed ancestor thresholds is nudged just past the tightest
    ancestor bound so the input still follows the exploring path.
    """
    if current is shadow.root:
        x = list(ranges_high)
        x[beta] = ranges_low[beta]
        return x
    x = list(current.explore_input)
    trace = current.explore_trace
    tt = current.feat_thresholds[beta]
    dd = current.feat_depths[beta]
    node_bit = trace[current.depth]
    if tt:
        last_bit = trace[dd[-1]]
        path_bits = [trace[d] for d in dd]
        if last_bit == 0 and node_bit == 0:
            value = tt[-1] + epsilon
        elif last_bit == 0:
            # Smallest threshold whose check went right still caps the
            # reachable values from above.
            minrt = min(t if b == 1 else ranges_high[beta]
                        for b, t in zip(path_bits, tt))
            value = minrt - epsilon
        elif node_bit == 0:
            maxlt = max(t if b == 0 else ranges_low[beta]
                        for b, t in zip(path_bits, tt))
            value = maxlt + epsilon
        else:
            value = tt[-1] - epsilon
    else:
        value = ranges_low[beta] if node_bit == 0 else ranges_high[beta]
    if value < ranges_low[beta] or value > ranges_high[beta]:
        # Routine at coarse resolutions (the epsilon nudge overshoots the
        # range); the query would be rejected out-of-domain, so clamp.
        clamped = min(max(value, ranges_low[beta]), ranges_high[beta])
        log.debug("feature probe value %g for node %d clamped to %g (outside range)",
                  value, current.id, clamped)
        value = clamped
    x[beta] = value
    return x


def craft_next_input(current: ShadowNode, shadow: ShadowTree,
                     ranges_low: Sequence[float], ranges_high: Sequence[float],
                     beta: int, epsilon: float) -> Optional[tuple[list[float], int, str]]:
    """(input, beta', phase) for the next probe, or None when the node
    needs no further queries."""
    if current.feature is None:
        if beta >= len(ranges_low):
            raise FeatureNotFoundError(
                f"no feature flips node {current.id}; every probe followed the "
                f"exploring path (epsilon too coarse, or inconsistent traces)",
                node_id=current.id)
        return (craft_inp_feature(current, shadow, ranges_high, ranges_low,
                                  beta, epsilon), beta + 1, PHASE_FEATURE)
    if current.threshold is None and current.value is None:
        return craft_inp_threshold(current), beta, PHASE_THRESHOLD
    return None


def _confirmed_path_thresholds(node: ShadowNode, num_features: int):
    """Fill in the ancestor-threshold records from the confirmed path.

    Runs when the node is dequeued; by the backlog's FIFO order every
    ancestor is complete by then.
    """
    tt: list[list[float]] = [[] for _ in range(num_features)]
    dd: list[list[int]] = [[] for _ in range(num_features)]
    chain = []
    anc = node.parent
    while anc is not None:
        chain.append(anc)
        anc = anc.parent
    for anc in reversed(chain):
        if anc.feature is None or anc.threshold is None:
            raise ChannelInconsistencyError(
                f"node {node.id} dequeued before ancestor {anc.id} was complete")
        tt[anc.feature].append(anc.threshold)
        dd[anc.feature].append(anc.depth)
    node.feat_thresholds = tt
    node.feat_depths = dd


@dataclass
class TranscriptEntry:
    query_index: int
    input: list[float]
    label: object
    trace: str
    phase: str
    target_node_id: Optional[int]

    def to_json(self) -> str:
        return json.dumps({
            "query_index": self.query_index,
            "input": self.input,
            "label": self.label,
            "trace": self.trace,
            "phase": self.phase,
            "target_node_id": self.target_node_id,
        })


@dataclass
class ExtractionResult:
    shadow: ShadowTree
    queries: int
    transcript: list[TranscriptEntry] = field(default_factory=list)

    def to_decision_tree(self, ranges_low, ranges_high) -> DecisionTree:
        return self.shadow.to_decision_tree(ranges_low, ranges_high)

    def write_transcript(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.transcript:
                fh.write(entry.to_json())
                fh.write("\n")


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
    queries = 0

    def ask(x: list[float], phase: str, target: Optional[ShadowNode]):
        nonlocal queries
        result = oracle(x)
        queries += 1
        if record_transcript:
            transcript.append(TranscriptEntry(
                query_index=queries, input=list(x), label=result.label,
                trace=result.trace.to_text(), phase=phase,
                target_node_id=target.id if target is not None else None))
        return result

    beta = 0
    current: Optional[ShadowNode] = None

    x = list(ranges_high)
    result = ask(x, PHASE_EXPLORE, None)
    beta, current = add_attack_info(shadow, current, result.label, result.trace,
                                    x, beta, epsilon)

    while not (current is None and not shadow.backlog):
        if current is None:
            current = shadow.backlog.popleft()
            _confirmed_path_thresholds(current, m)
            if not passive_tracking:
                # Ablation: forget passive history, reseed from the one
                # observation that defined this node.
                current.t_left = None
                current.t_right = None
                update_threshold_ranges(current, current.explore_trace[current.depth],
                                        current.explore_input)
            beta = 0
        crafted = craft_next_input(current, shadow, ranges_low, ranges_high,
                                   beta, epsilon)
        if crafted is None:
            current = None
            continue
        x, beta, phase = crafted
        result = ask(x, phase, current)
        beta, current = add_attack_info(
            shadow, current, result.label, result.trace, x, beta, epsilon)

    return ExtractionResult(shadow=shadow, queries=queries, transcript=transcript)
