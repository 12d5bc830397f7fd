"""Shared fixtures: the worked-example target tree and corpus helpers."""
from __future__ import annotations

import math
import random

import pytest

from treestealer.errors import MalformedTreeError
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
