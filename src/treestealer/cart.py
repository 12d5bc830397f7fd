"""Greedy CART training for generating realistic target trees."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .trees import DecisionTree, TreeNode, assign_ids_breadth_first, input_rows

RANGE_MARGIN = 0.05  # feature ranges extend this fraction of the span past the data


def _variance(values: np.ndarray) -> float:
    return float(np.var(values)) if values.size else 0.0


def _gini_gains(codes: np.ndarray, order: np.ndarray, cuts: np.ndarray) -> list[float]:
    """Gini reduction of each cut ``i``, which sends the ``i + 1`` lowest
    rows in ``order`` right and the rest left.

    One cumulative count per class along the sorted rows gives every
    cut's child counts. Squared class shares are added one class at a
    time, left to right, which is how ``np.sum`` adds fewer than 8 terms,
    so each gain is bit-identical to a per-cut ``np.unique`` Gini.
    """
    n, ranked = codes.size, codes[order]
    n_right = cuts + 1
    n_left = n - n_right
    parent_sq = left_sq = right_sq = 0.0
    for c in np.unique(ranked):
        hits = np.cumsum(ranked == c)
        total, right = hits[-1], hits[cuts]
        p, p_left, p_right = total / n, (total - right) / n_left, right / n_right
        parent_sq += p * p
        left_sq += p_left * p_left
        right_sq += p_right * p_right
    gains = (1.0 - parent_sq) - (n_left / n) * (1.0 - left_sq) \
        - (n_right / n) * (1.0 - right_sq)
    return gains.tolist()


def _variance_gains(y: np.ndarray, order: np.ndarray, cuts: np.ndarray) -> list[float]:
    """Variance reduction of each cut, one ``np.var`` per child."""
    n, ranked = y.size, y[order]
    parent = _variance(y)
    return [parent - ((n - i - 1) / n) * _variance(ranked[i + 1:])
            - ((i + 1) / n) * _variance(ranked[:i + 1]) for i in cuts.tolist()]


def _best_split(X: np.ndarray, y: np.ndarray, gains):
    """Best (feature, threshold, gain) over midpoints of adjacent sorted
    feature values; None when no split reduces impurity. A later candidate
    wins only by more than 1e-15, so ties go to the lowest feature, then
    the lowest threshold."""
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="mergesort")
        xs = X[order, f]
        cuts = np.nonzero(np.diff(xs) > 0)[0]
        # Convention x > t goes left, so the upper part is the left child.
        for i, gain in zip(cuts.tolist(), gains(y, order, cuts)):
            if best is None or gain > best[2] + 1e-15:
                best = (f, float((xs[i] + xs[i + 1]) / 2.0), gain)
    if best is None or best[2] <= 1e-12:
        return None
    return best


def train_cart(
    dataset: Sequence[tuple[Sequence[float], object]],
    max_depth: int = 8,
) -> DecisionTree:
    """Train a binary CART on rows of (feature vector, label).

    Regression (variance reduction) when any label is a float,
    classification (Gini reduction) otherwise, on the labels as given:
    integers stay ints and class names stay strings in the leaves, and a
    mix of numbers and names raises ``ValueError``. Candidate thresholds
    are the midpoints between adjacent sorted feature values. The Gini
    search makes one sorted pass per feature with running class counts;
    its splits are bit-identical to scoring each cut with ``np.unique``
    whenever a node holds fewer than 8 classes. Ties go to the lowest
    feature, then the lowest threshold; a leaf takes the most frequent
    label, the lowest on a tie. Feature ranges are the dataset min/max
    widened by ``RANGE_MARGIN`` times the span on each side. ``max_depth``
    must be at least 0.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be at least 0")
    if not dataset:
        raise ValueError("dataset must be non-empty")
    X = input_rows([row[0] for row in dataset])
    raw_labels = [row[1] for row in dataset]
    names = [v for v in raw_labels if isinstance(v, str)]
    if names and len(names) < len(raw_labels):
        number = next(v for v in raw_labels if not isinstance(v, str))
        raise ValueError(
            f"labels mix numbers and class names, e.g. {number!r} and {names[0]!r}")
    if any(isinstance(v, float) for v in raw_labels):
        y = np.asarray([float(v) for v in raw_labels])
        gains = _variance_gains

        def leaf_value(sub_y: np.ndarray):
            return float(np.mean(sub_y))
    else:
        classes, y = np.unique(np.asarray(raw_labels), return_inverse=True)
        classes = classes.tolist()
        gains = _gini_gains

        def leaf_value(sub_y: np.ndarray):
            return classes[int(np.argmax(np.bincount(sub_y)))]

    # One explicit stack of (node to fill, its rows, its depth), so a
    # chain of any depth trains without touching the recursion limit.
    root = TreeNode()
    stack = [(root, np.arange(y.size), 0)]
    while stack:
        node, idx, depth = stack.pop()
        sub_y = y[idx]
        split = None
        if depth < max_depth and np.unique(sub_y).size > 1:
            split = _best_split(X[idx], sub_y, gains)
        if split is None:
            node.value = leaf_value(sub_y)
            continue
        node.feature, node.threshold, _ = split
        left_mask = X[idx, node.feature] > node.threshold
        node.left, node.right = TreeNode(), TreeNode()
        stack += ((node.right, idx[~left_mask], depth + 1),
                  (node.left, idx[left_mask], depth + 1))
    assign_ids_breadth_first(root)
    span = X.max(axis=0) - X.min(axis=0)
    span[span == 0] = 1.0
    lows = X.min(axis=0) - RANGE_MARGIN * span
    highs = X.max(axis=0) + RANGE_MARGIN * span
    return DecisionTree(root=root, ranges_low=lows.tolist(), ranges_high=highs.tolist())
