"""Binary decision trees with exact branch-trace emission.

The single comparison convention used everywhere in this package:
``x[feature] > threshold`` sends the input to the *left* child (trace
bit 0), anything else (including equality) goes *right* (trace bit 1).
A branch trace is a plain ``tuple[int, ...]`` of those bits: bit ``i`` is
the decision at depth ``i``, and its length is the reached leaf's depth.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleGridError,
    MalformedTreeError,
    SchemaError,
    TreeSizeError,
    json_number,
    label_fault,
    read_json,
    require_arrays,
    require_keys,
    write_json,
)

LEFT = 0
RIGHT = 1
MAX_TREE_NODES = 100_000  # nodes one generate_random_tree call may build
_LR = bytes.maketrans(b"\x00\x01", b"LR")  # trace bits to their text letters


def trace_text(trace: tuple[int, ...]) -> str:
    """Render a trace as L/R letters, one per decision."""
    return bytes(trace).translate(_LR).decode()


def trace_from_text(text: str) -> tuple[int, ...]:
    """Parse L/R letters back into a trace; any other letter is rejected."""
    try:
        return tuple("LR".index(c) for c in text)
    except ValueError:
        raise ValueError(f"trace text may only contain L/R, got {text!r}")


def midpoint(lo: float, hi: float) -> float:
    """The double halfway between ``lo`` and ``hi``, also when ``hi - lo``
    overflows, as it does for a range such as ``[-DBL_MAX, DBL_MAX]``."""
    width = hi - lo
    return lo + width / 2 if math.isfinite(width) else lo / 2 + hi / 2


def check_ranges(ranges_low: Sequence[float], ranges_high: Sequence[float]) -> None:
    """Raise ``ValueError`` unless each feature's range has finite ends and
    ``low < high``: the one domain rule of every tree and both attacks."""
    if len(ranges_low) != len(ranges_high):
        raise ValueError("feature ranges must match the feature count")
    for lo, hi in zip(ranges_low, ranges_high):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid feature range ({lo}, {hi})")


@dataclass
class TreeNode:
    """One node of a binary decision tree.

    A node is a leaf iff ``value`` is set; inner nodes carry a feature
    index and threshold plus both children.
    """

    id: int = -1
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: object = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


@dataclass
class DecisionTree:
    """A binary tree plus one value range per feature; ``num_features``,
    the number of ranges, is set from ``ranges_low`` and not passed in.

    Every walk over a finished tree, from ``validate`` on, is one loop
    over an explicit stack, so a tree of any depth validates, walks and
    compares without touching the interpreter's recursion limit."""

    root: TreeNode
    ranges_low: list[float]
    ranges_high: list[float]
    num_features: int = field(init=False)

    def __post_init__(self):
        self.ranges_low = list(map(float, self.ranges_low))
        self.ranges_high = list(map(float, self.ranges_high))
        self.num_features = len(self.ranges_low)
        self.validate()

    def validate(self) -> None:
        """Raise ``check_ranges``'s ``ValueError``, else ``MalformedTreeError``
        naming the first bad node in pre-order, left child first.

        Each node is checked as ``_walk`` yields it, and the walk stops
        at the first repeated id, so a node that is its own descendant
        ends the walk instead of cycling through it forever.
        """
        check_ranges(self.ranges_low, self.ranges_high)
        low, high, m = self.ranges_low, self.ranges_high, self.num_features
        seen: set[int] = set()
        for node, _ in _walk(self.root):
            if node.id in seen:
                raise MalformedTreeError(f"duplicate node id {node.id}")
            seen.add(node.id)
            if node.value is not None:
                if node.feature is not None or node.threshold is not None \
                        or node.left is not None or node.right is not None:
                    raise MalformedTreeError(f"leaf {node.id} carries inner-node fields")
                fault = label_fault(node.value)
                if fault:
                    raise MalformedTreeError(f"leaf {node.id}: {fault}")
                continue
            if node.left is None or node.right is None:
                raise MalformedTreeError(f"inner node {node.id} is missing a child")
            f, t = node.feature, node.threshold
            if f is None or t is None:
                raise MalformedTreeError(f"inner node {node.id} lacks feature/threshold")
            if not 0 <= f < m:
                raise MalformedTreeError(f"node {node.id}: feature {f} outside [0, {m})")
            if not low[f] <= t <= high[f]:
                raise MalformedTreeError(
                    f"node {node.id}: threshold {t} outside range [{low[f]}, {high[f]}]")

    def nodes(self) -> Iterator[TreeNode]:
        return (node for node, _ in _walk(self.root))

    def inner_nodes(self) -> list[TreeNode]:
        return [node for node, _ in _walk(self.root) if node.value is None]

    def leaves(self) -> list[TreeNode]:
        return [node for node, _ in _walk(self.root) if node.value is not None]

    def depth(self) -> int:
        return max(depth for _, depth in _walk(self.root))


def _walk(root: TreeNode) -> Iterator[tuple[TreeNode, int]]:
    """(node, depth) pairs in pre-order, left child first, from one
    explicit stack. A node's ancestors are the last nodes yielded at each
    smaller depth."""
    stack = [(root, 0)]
    while stack:
        node, depth = pair = stack.pop()
        yield pair
        if node.right is not None:
            stack.append((node.right, depth + 1))
        if node.left is not None:
            stack.append((node.left, depth + 1))


def assign_ids_breadth_first(root: TreeNode) -> None:
    """Number nodes 0, 1, 2, ... level by level. Purely cosmetic."""
    nodes = [root]
    for i, node in enumerate(nodes):  # grows breadth first while it is read
        node.id = i
        if node.left is not None:
            nodes.append(node.left)
        if node.right is not None:
            nodes.append(node.right)


def infer_with_trace(tree: DecisionTree, x: Sequence[float]) -> tuple[object, tuple[int, ...]]:
    """Run one inference and return (leaf value, branch trace).

    Strict comparison: ``x[f] > t`` takes the left child (bit 0),
    ``x[f] <= t`` the right child (bit 1).
    """
    if len(x) != tree.num_features:
        raise DimensionMismatchError(
            f"input has {len(x)} features, tree expects {tree.num_features}")
    node = tree.root
    bits: list[int] = []
    while node.value is None:
        if x[node.feature] > node.threshold:
            bits.append(LEFT)
            node = node.left
        else:
            bits.append(RIGHT)
            node = node.right
        if node is None:
            raise MalformedTreeError("dangling child during inference")
    return node.value, tuple(bits)


def infer(tree: DecisionTree, x: Sequence[float]) -> object:
    """Run one inference and return only the leaf value.

    The walk of ``infer_with_trace`` (same ``x[f] > t`` rule, same
    errors) without building the trace.
    """
    if len(x) != tree.num_features:
        raise DimensionMismatchError(
            f"input has {len(x)} features, tree expects {tree.num_features}")
    node = tree.root
    while node.value is None:
        node = node.left if x[node.feature] > node.threshold else node.right
        if node is None:
            raise MalformedTreeError("dangling child during inference")
    return node.value


def input_rows(inputs) -> np.ndarray:
    """Input vectors as one float array, one row per input.

    Rows of unequal length raise ``DimensionMismatchError``, as running
    them one at a time through a tree would.
    """
    try:
        rows = np.asarray(inputs, dtype=float)
    except ValueError:
        widths = sorted({np.size(x) for x in inputs})
        if len(widths) > 1:
            raise DimensionMismatchError(
                f"input rows have unequal feature counts {widths}") from None
        raise
    if len(rows) == 0:
        return rows.reshape(0, 0)
    if rows.ndim != 2:
        raise DimensionMismatchError(
            f"inputs must form a 2-D array of rows, got shape {rows.shape}")
    return rows


class TreeDiff(NamedTuple):
    equal: bool
    first_mismatch: Optional[str]


def tree_equal(a: DecisionTree, b: DecisionTree, threshold_tol: float = 0.0) -> TreeDiff:
    """Structural comparison: same topology by left/right position, exact
    features and leaf values, thresholds within ``threshold_tol``.

    Both trees are walked in pre-order side by side. Until the first
    mismatch the two walks reach the same positions, since a pre-order
    of leaf and inner marks fixes a tree's shape, so the first mismatch
    is the first in pre-order, named by its path from the root."""
    if a.num_features != b.num_features:
        return TreeDiff(False, f"num_features {a.num_features} vs {b.num_features}")
    trail: list[TreeNode] = []  # the nodes of ``a`` from its root to ``na``
    for (na, depth), (nb, _) in zip(_walk(a.root), _walk(b.root)):
        trail[depth:] = (na,)
        va, vb = na.value, nb.value
        if (va is None) != (vb is None):
            mismatch = "leaf vs inner"
        elif va is not None:
            if type(va) is type(vb) and va == vb:
                continue
            mismatch = f"leaf value {va!r} vs {vb!r}"
        elif na.feature != nb.feature:
            mismatch = f"feature {na.feature} vs {nb.feature}"
        elif abs(na.threshold - nb.threshold) > threshold_tol:
            mismatch = f"threshold {na.threshold} vs {nb.threshold}"
        else:
            continue
        path = "".join("L" if node is parent.left else "R"
                       for parent, node in zip(trail, trail[1:]))
        return TreeDiff(False, f"node at path '{path or 'root'}': {mismatch}")
    return TreeDiff(True, None)


def min_path_separation(tree: DecisionTree) -> float:
    """Smallest per-feature gap between thresholds sharing a root-to-node
    path, and between any threshold and its feature's range limits.

    Extraction at resolution epsilon is exact when this exceeds epsilon;
    use it to pick epsilon for trained trees.
    """
    best = math.inf
    path: list[tuple[int, float]] = []  # (feature, threshold) of each ancestor
    for node, depth in _walk(tree.root):
        if node.value is not None:
            continue
        del path[depth:]
        f, t = node.feature, node.threshold
        best = min(best, t - tree.ranges_low[f], tree.ranges_high[f] - t)
        for pf, pt in path:
            if pf == f:
                best = min(best, abs(t - pt))
        path.append((f, t))
    return best


def _below(getrandbits, n: int) -> int:
    """A draw in ``[0, n)`` that takes from ``getrandbits``'s stream exactly
    the bits ``random.Random._randbelow(n)`` takes. ``shuffle``, ``choice``
    and ``randint`` draw through ``_randbelow``, so calling this in their
    place replays their draws without their per-call overhead."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def generate_random_tree(
    num_features: int,
    depth_min: int,
    depth_max: int,
    ranges: Sequence[tuple[float, float]],
    threshold_grid: float,
    seed: int,
    regression: bool = False,
    split_prob: float = 0.6,
) -> DecisionTree:
    """Sample a random tree with grid-aligned, well-separated thresholds.

    Thresholds live on the per-feature grid ``low + k * threshold_grid``,
    strictly inside the feature range, and any two thresholds sharing a
    feature on a root-to-node path differ by more than ``threshold_grid``.
    Every node's threshold is also strictly inside the interval its
    ancestors leave reachable, so no branch is dead. Leaf values are
    distinct (integers, or reals in regression mode). Deterministic
    under ``seed``.

    Nodes are filled in pre-order, left subtree first, from one explicit
    stack, so a tree of any depth builds without touching the recursion
    limit. Each node draws, in order: ``random()`` for an optional split,
    a shuffle of the feature order, then ``choice`` of a grid index (or,
    on a mandatory split, ``randint(-1, 1)`` around the middle one), all
    replayed bit for bit through ``_below``. A tree that would pass
    ``MAX_TREE_NODES`` nodes raises ``TreeSizeError``: at once when
    ``depth_min`` alone forces that many, else when the count passes it.
    """
    if not threshold_grid > 0:
        raise ValueError("threshold_grid must be positive")
    if not 0 <= split_prob <= 1:  # false for NaN
        raise ValueError(f"split_prob must lie in [0, 1], got {split_prob}")
    if depth_min < 1 or depth_max < depth_min:
        raise ValueError("need 1 <= depth_min <= depth_max")
    if len(ranges) != num_features:
        raise ValueError("one (low, high) pair per feature required")
    lows, highs = [lo for lo, _ in ranges], [hi for _, hi in ranges]
    check_ranges(lows, highs)

    grid = float(threshold_grid)
    steps = [(hi - lo) / grid for lo, hi in ranges]
    for (lo, hi), count in zip(ranges, steps):
        # Past 2 ** 53 steps, distinct indices k stop giving distinct
        # thresholds lo + k * grid.
        if not count <= 2 ** 53:  # also false for inf and NaN
            raise InfeasibleGridError(
                f"feature range ({lo}, {hi}) spans {count:g} grid steps, more than 2 ** 53")
    # Per feature, the grid indices k whose threshold keeps a one-step
    # margin to both range limits, as (first, last); index 0 is the lower
    # limit itself.
    root_bounds = tuple((1, int(math.floor(count + 1e-9)) - 1) for count in steps)
    if any(last < 1 for _, last in root_bounds):
        raise InfeasibleGridError("no grid point strictly inside some feature range")
    if 2 ** (min(depth_min, 64) + 1) - 1 > MAX_TREE_NODES:  # capped: no huge power
        raise TreeSizeError(
            f"depth_min {depth_min} forces at least 2 ** {depth_min + 1} - 1 nodes, "
            f"more than MAX_TREE_NODES = {MAX_TREE_NODES}")

    rng = random.Random(seed)
    getrandbits, draw_unit = rng.getrandbits, rng.random
    features = range(num_features)
    swaps = range(num_features - 1, 0, -1)
    leaf_count, node_count = 0, 1
    used_values: set[float] = set()
    root = TreeNode()
    stack = [(root, 0, root_bounds)]
    while stack:
        node, depth, bounds = stack.pop()
        must_split = depth < depth_min
        if must_split or (depth < depth_max and draw_unit() < split_prob):
            order = list(features)
            for i in swaps:  # rng.shuffle(order)
                j = _below(getrandbits, i + 1)
                order[i], order[j] = order[j], order[i]
            for f in order:
                first, last = bounds[f]
                n = last - first + 1
                if n <= 0:
                    continue
                if must_split and n > 4:
                    # Mandatory splits stay near the interval center so both
                    # children keep workable grid intervals on deep trees.
                    k = first + n // 2 + _below(getrandbits, 3) - 1
                else:
                    k = first + _below(getrandbits, n)
                node_count += 2
                if node_count > MAX_TREE_NODES:
                    raise TreeSizeError(
                        f"random tree passes MAX_TREE_NODES = {MAX_TREE_NODES} nodes")
                node.feature, node.threshold = f, lows[f] + k * grid
                node.left, node.right = left, right = TreeNode(), TreeNode()
                # Two grid steps from a path threshold keep separation
                # strictly above one grid unit: left keeps x > t, right x <= t.
                head, tail = bounds[:f], bounds[f + 1:]
                stack.append((right, depth + 1, head + ((first, k - 2),) + tail))
                stack.append((left, depth + 1, head + ((k + 2, last),) + tail))
                break
            else:
                if must_split:
                    raise InfeasibleGridError(
                        f"no feasible split at depth {depth}: grid exhausted on every feature")
        if node.left is None:
            if regression:
                value = round(rng.uniform(0.0, 1000.0), 6)
                while value in used_values:
                    value = round(rng.uniform(0.0, 1000.0), 6)
                used_values.add(value)
                node.value = float(value)
            else:
                node.value = leaf_count
                leaf_count += 1
    assign_ids_breadth_first(root)
    return DecisionTree(
        root=root,
        ranges_low=lows,
        ranges_high=highs,
    )


def tree_to_dict(tree: DecisionTree) -> dict:
    nodes = []
    for node in tree.nodes():
        nodes.append({
            "id": node.id,
            "feature": node.feature,
            "threshold": node.threshold,
            "left": node.left.id if node.left is not None else None,
            "right": node.right.id if node.right is not None else None,
            "value": node.value,
        })
    nodes.sort(key=lambda d: d["id"])
    return {
        "num_features": tree.num_features,
        "ranges_low": tree.ranges_low,
        "ranges_high": tree.ranges_high,
        "nodes": nodes,
        "root": tree.root.id,
    }


def tree_from_dict(data: dict) -> DecisionTree:
    require_keys(data, ("num_features", "ranges_low", "ranges_high", "nodes", "root"))
    require_arrays(data, ("ranges_low", "ranges_high", "nodes"))
    for key in ("ranges_low", "ranges_high"):
        for value in data[key]:
            json_number(value, key)
    if json_number(data["num_features"], "num_features", integer=True) != len(data["ranges_low"]):
        raise SchemaError(f'"num_features" is {data["num_features"]}, but "ranges_low" has '
                          f'{len(data["ranges_low"])} values', field="num_features")
    by_id: dict[int, TreeNode] = {}
    raw_nodes = data["nodes"]
    for i, raw in enumerate(raw_nodes):
        where = f"node {i}: "
        require_keys(raw, ("id", "feature", "threshold", "left", "right", "value"), where)
        node = TreeNode(
            id=json_number(raw["id"], "id", where, integer=True),
            feature=json_number(raw["feature"], "feature", where, integer=True, nullable=True),
            threshold=json_number(raw["threshold"], "threshold", where, nullable=True),
            value=raw["value"],
        )
        if node.id in by_id:
            raise SchemaError(f"duplicate node id {node.id}", field="id")
        by_id[node.id] = node
    for i, raw in enumerate(raw_nodes):
        node = by_id[raw["id"]]
        for side in ("left", "right"):
            child_id = json_number(raw[side], side, f"node {i}: ", integer=True, nullable=True)
            if child_id is not None:
                if child_id not in by_id:
                    raise SchemaError(f"node {node.id}: unknown {side} child {child_id}",
                                      field=side)
                setattr(node, side, by_id[child_id])
    root_id = json_number(data["root"], "root", integer=True)
    if root_id not in by_id:
        raise SchemaError(f'"root" references unknown node {root_id}', field="root")
    return DecisionTree(
        root=by_id[root_id],
        ranges_low=list(data["ranges_low"]),
        ranges_high=list(data["ranges_high"]),
    )


def save_tree(tree: DecisionTree, path) -> None:
    write_json(path, tree_to_dict(tree))


def load_tree(path) -> DecisionTree:
    return tree_from_dict(read_json(path))
