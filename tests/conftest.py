"""Shared fixtures: the worked-example target tree and corpus helpers."""
from __future__ import annotations

import math
import random
import sys

import pytest

from treestealer.errors import InfeasibleGridError, MalformedTreeError
from treestealer.trees import (
    DecisionTree,
    TreeNode,
    _walk,
    assign_ids_breadth_first,
    generate_random_tree,
    infer,
)


def leaf(value):
    return TreeNode(value=value)


def inner(feature, threshold, left, right):
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def leaf_depths(tree: DecisionTree) -> list[int]:
    """Depth of every leaf, counted down from the root."""
    return [depth for node, depth in _walk(tree.root) if node.is_leaf]


def region_contains(region, x) -> bool:
    """Whether the rule-set region's half-open box (low, high] holds x."""
    return all(lo < v <= hi for v, lo, hi in zip(x, region.low, region.high))


def predict_label(model, x) -> object:
    """Per-row reference prediction for a decision tree or a rule set: a
    tree's leaf value; a rule set's first region holding ``x`` or, in a
    gap, the region of its nearest witness.

    The nearest witness comes from ``RuleSetModel._nearest_witness``,
    which squares each coordinate difference with Python's ``** 2``. That
    calls C ``pow``, whose result differs from numpy's ``d * d`` on 1719
    of 2,000,000 uniform doubles in [-16, 16). A vectorised gap fallback
    can therefore match this reference bit for bit only if both square
    with ``d * d``.
    """
    if isinstance(model, DecisionTree):
        return infer(model, x)
    for region in model.regions:
        if region_contains(region, x):
            return region.label
    return model.regions[model._nearest_witness(x)].label


def stack_depth() -> int:
    """The number of frames on the interpreter stack at the caller."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def replay_trace(tree: DecisionTree, trace: tuple[int, ...]) -> TreeNode:
    """Walk the tree by a trace's bits and return the node reached."""
    node = tree.root
    for bit in trace:
        node = node.left if bit == 0 else node.right
        if node is None:
            raise MalformedTreeError("trace walks off the tree")
    return node


def build_example_target() -> DecisionTree:
    """Two-feature target with ranges [2,7] x [-2,3].

    Root checks feature 0 at 3.094, its left child checks feature 1, and
    the right-hand path checks feature 1 three times (-0.906 at depth 1,
    1.906 at depth 2, and again at depth 3), exercising duplicated-feature
    extraction.
    """
    n8 = inner(1, 0.094, leaf(3), leaf(4))
    n3 = inner(1, 1.906, leaf(2), n8)
    n2 = inner(1, -0.906, n3, leaf(5))
    n1 = inner(1, 0.594, leaf(0), leaf(1))
    root = inner(0, 3.094, n1, n2)
    assign_ids_breadth_first(root)
    return DecisionTree(root=root, ranges_low=[2, -2], ranges_high=[7, 3])


def chain_tree(depth: int, width: float = 4096.0) -> DecisionTree:
    """Left-spine tree: the leftmost leaf sits at the requested depth."""
    node = leaf(depth)
    for d in range(depth - 1, -1, -1):
        threshold = width / 2 ** (d + 1)
        node = inner(0, threshold, node, leaf(d))
    assign_ids_breadth_first(node)
    return DecisionTree(root=node, ranges_low=[0.0], ranges_high=[width])


def stump(low: float, high: float, threshold: float = 4.0) -> DecisionTree:
    """One split ``x0 > threshold`` on the feature range [low, high], leaf
    0 on the left and leaf 1 on the right."""
    root = inner(0, threshold, leaf(0), leaf(1))
    assign_ids_breadth_first(root)
    return DecisionTree(root=root, ranges_low=[low], ranges_high=[high])


def deep_chain(depth: int) -> DecisionTree:
    """One-feature chain of the given depth on the range [0, depth + 1]:
    the inner node at depth d tests x > d + 1, its right child is leaf d
    and its left child goes on down; leaf ``depth`` ends the chain.
    Thresholds sit 1 apart, so extraction at epsilon below 1 is exact."""
    node = leaf(depth)
    for d in range(depth - 1, -1, -1):
        node = inner(0, float(d + 1), node, leaf(d))
    assign_ids_breadth_first(node)
    return DecisionTree(root=node, ranges_low=[0.0], ranges_high=[float(depth + 1)])


def generate_random_tree_reference(
    num_features: int,
    depth_min: int,
    depth_max: int,
    ranges: list,
    threshold_grid: float,
    seed: int,
    regression: bool = False,
    split_prob: float = 0.6,
) -> DecisionTree:
    """The recursive builder ``trees.generate_random_tree`` replaced, kept
    unchanged as the reference its stack-built trees and errors must
    equal: one ``build`` call per node, drawing through ``rng.shuffle``,
    ``rng.choice`` and ``rng.randint``."""
    if not threshold_grid > 0:
        raise ValueError("threshold_grid must be positive")
    if depth_min < 1 or depth_max < depth_min:
        raise ValueError("need 1 <= depth_min <= depth_max")
    if len(ranges) != num_features:
        raise ValueError("one (low, high) pair per feature required")
    for lo, hi in ranges:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid feature range ({lo}, {hi})")

    rng = random.Random(seed)
    grid = float(threshold_grid)
    # Largest grid index whose threshold keeps a one-step margin to the
    # upper range limit; index 0 is the lower limit itself and excluded.
    k_max = [int(math.floor((hi - lo) / grid + 1e-9)) - 1 for lo, hi in ranges]
    if any(k < 1 for k in k_max):
        raise InfeasibleGridError("no grid point strictly inside some feature range")

    leaf_counter = 0
    used_values: set[float] = set()

    def next_leaf_value() -> object:
        nonlocal leaf_counter
        if not regression:
            value = leaf_counter
            leaf_counter += 1
            return value
        while True:
            value = round(rng.uniform(0.0, 1000.0), 6)
            if value not in used_values:
                used_values.add(value)
                return float(value)

    def feasible_indices(f: int, bounds: dict[int, tuple[int, int]]) -> range:
        klo, khi = bounds.get(f, (0, k_max[f] + 1))
        # Two grid steps from path-threshold bounds keeps separation
        # strictly above one grid unit; range limits need only one step.
        lo_k = klo + 2 if klo > 0 else 1
        hi_k = khi - 2 if khi <= k_max[f] else k_max[f]
        return range(lo_k, hi_k + 1)

    def build(depth: int, bounds: dict[int, tuple[int, int]]) -> TreeNode:
        must_split = depth < depth_min
        may_split = depth < depth_max
        want_split = must_split or (may_split and rng.random() < split_prob)
        if want_split:
            features = list(range(num_features))
            rng.shuffle(features)
            for f in features:
                candidates = feasible_indices(f, bounds)
                if len(candidates) == 0:
                    continue
                if must_split and len(candidates) > 4:
                    # Mandatory splits stay near the interval center so both
                    # children keep workable grid intervals on deep trees.
                    mid = len(candidates) // 2
                    k = candidates[mid + rng.randint(-1, 1)]
                else:
                    k = rng.choice(candidates)
                lo, _ = ranges[f]
                node = TreeNode(feature=f, threshold=lo + k * grid)
                klo, khi = bounds.get(f, (0, k_max[f] + 1))
                bounds[f] = (k, khi)          # left keeps x > t
                node.left = build(depth + 1, bounds)
                bounds[f] = (klo, k)          # right keeps x <= t
                node.right = build(depth + 1, bounds)
                bounds[f] = (klo, khi)
                return node
            if must_split:
                raise InfeasibleGridError(
                    f"no feasible split at depth {depth}: grid exhausted on every feature")
        return TreeNode(value=next_leaf_value())

    root = build(0, {})
    assign_ids_breadth_first(root)
    return DecisionTree(
        root=root,
        ranges_low=[lo for lo, _ in ranges],
        ranges_high=[hi for _, hi in ranges],
    )


@pytest.fixture
def example_target() -> DecisionTree:
    return build_example_target()


def random_grid_corpus(count, seed, m_range=(2, 8), depth_range=(2, 9),
                       width=8.0, grid=0.5, split_prob=0.5):
    """Deterministic corpus of grid-threshold trees for recovery tests."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        m = rng.randint(*m_range)
        depth_max = rng.randint(*depth_range)
        depth_min = min(2, depth_max)
        tree_seed = rng.randrange(2 ** 31)
        tree = generate_random_tree(
            m, depth_min, depth_max, [(0.0, width)] * m, grid, tree_seed,
            split_prob=split_prob)
        corpus.append(tree)
    return corpus


def query_upper_bound(tree: DecisionTree, epsilon: float) -> int:
    """1 + sum over inner nodes of (m + ceil(log2(width/eps)) + 2)."""
    m = tree.num_features
    total = 1
    for node in tree.inner_nodes():
        width = tree.ranges_high[node.feature] - tree.ranges_low[node.feature]
        total += m + math.ceil(math.log2(width / epsilon)) + 2
    return total
