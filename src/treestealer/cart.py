"""Greedy CART training for generating realistic target trees."""
from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .trees import DecisionTree, TreeNode, assign_ids_breadth_first

RANGE_MARGIN = 0.05  # feature ranges extend this fraction of the span past the data


def _gini(labels: np.ndarray) -> float:
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return 1.0 - float(np.sum(p * p))


def _variance(values: np.ndarray) -> float:
    return float(np.var(values)) if values.size else 0.0


def _impurity(y: np.ndarray, regression: bool) -> float:
    return _variance(y) if regression else _gini(y)


def _majority(y: np.ndarray, regression: bool):
    if regression:
        return float(np.mean(y))
    counts = Counter(y.tolist())
    # Deterministic tie break on the label itself.
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def _best_split(X: np.ndarray, y: np.ndarray, regression: bool):
    """Best (feature, threshold, gain) over midpoints of adjacent sorted
    feature values; None when no split reduces impurity."""
    n = y.size
    parent = _impurity(y, regression)
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="mergesort")
        xs, ys = X[order, f], y[order]
        distinct = np.nonzero(np.diff(xs) > 0)[0]
        for i in distinct:
            t = (xs[i] + xs[i + 1]) / 2.0
            # Convention x > t goes left, so the upper part is the left child.
            left, right = ys[i + 1:], ys[:i + 1]
            gain = parent - (left.size / n) * _impurity(left, regression) \
                - (right.size / n) * _impurity(right, regression)
            if best is None or gain > best[2] + 1e-15:
                best = (f, float(t), gain)
    if best is None or best[2] <= 1e-12:
        return None
    return best


def train_cart(
    dataset: Sequence[tuple[Sequence[float], object]],
    max_depth: int = 8,
) -> DecisionTree:
    """Train a binary CART on rows of (feature vector, label).

    Classification (Gini reduction) when labels are integers, regression
    (variance reduction) for float labels; candidate thresholds are the
    midpoints between adjacent sorted feature values. Feature ranges are
    the dataset min/max widened by ``RANGE_MARGIN`` times the span on each
    side.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    X = np.asarray([row[0] for row in dataset], dtype=float)
    if X.ndim != 2:
        raise ValueError("rows must share one feature dimensionality")
    raw_labels = [row[1] for row in dataset]
    regression = any(isinstance(v, float) for v in raw_labels)
    if regression:
        y = np.asarray([float(v) for v in raw_labels])
    else:
        y = np.asarray([int(v) for v in raw_labels])

    def _leaf_value(sub_y: np.ndarray):
        value = _majority(sub_y, regression)
        return float(value) if regression else int(value)

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        sub_y = y[idx]
        if depth >= max_depth or np.unique(sub_y).size == 1:
            return TreeNode(value=_leaf_value(sub_y))
        split = _best_split(X[idx], sub_y, regression)
        if split is None:
            return TreeNode(value=_leaf_value(sub_y))
        f, t, _ = split
        left_mask = X[idx, f] > t
        node = TreeNode(feature=f, threshold=t)
        node.left = build(idx[left_mask], depth + 1)
        node.right = build(idx[~left_mask], depth + 1)
        return node

    root = build(np.arange(y.size), 0)
    assign_ids_breadth_first(root)
    span = X.max(axis=0) - X.min(axis=0)
    span[span == 0] = 1.0
    lows = X.min(axis=0) - RANGE_MARGIN * span
    highs = X.max(axis=0) + RANGE_MARGIN * span
    return DecisionTree(root=root, ranges_low=lows.tolist(), ranges_high=highs.tolist())
