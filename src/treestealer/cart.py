"""Greedy CART training for generating realistic target trees."""
from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .trees import DecisionTree, TreeNode, assign_ids_breadth_first, input_rows

RANGE_MARGIN = 0.05  # feature ranges extend this fraction of the span past the data
_DBL_MAX = sys.float_info.max
RESCORE_TOLERANCE = 1e-8  # regression cuts this close (relative) to the best are rescored


def _feature_range(lo: float, hi: float) -> tuple[float, float]:
    """The data's ``[lo, hi]`` widened by ``RANGE_MARGIN`` times its span
    (1.0 for a constant column) on each side.

    Where finite data gives no finite range with ``low < high`` that way,
    the pad comes from half-ends so the span cannot overflow, an end the
    pad does not move steps one ulp outward, and both ends stop at
    +-DBL_MAX. Non-finite data keeps its non-finite range.
    """
    span = hi - lo or 1.0
    low, high = lo - RANGE_MARGIN * span, hi + RANGE_MARGIN * span
    if -_DBL_MAX <= low < high <= _DBL_MAX or not (math.isfinite(lo) and math.isfinite(hi)):
        return low, high
    pad = 2.0 * RANGE_MARGIN * (hi / 2.0 - lo / 2.0) if span == math.inf else RANGE_MARGIN * span
    low = lo - pad if lo - pad < lo else math.nextafter(lo, -math.inf)
    high = hi + pad if hi + pad > hi else math.nextafter(hi, math.inf)
    return max(low, -_DBL_MAX), min(high, _DBL_MAX)


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
    """Variance reduction of each cut ``i``, which sends the ``i + 1``
    lowest rows in ``order`` right and the rest left.

    A cut reduces the variance by ``n_left * n_right / n**2`` times the
    squared gap between its child means. One running sum of the labels,
    centred on the node's mean so that a large offset cancels first,
    gives every child mean in one sorted pass. Cuts within
    ``RESCORE_TOLERANCE`` (relative) of the feature's best are rescored
    with one ``np.var`` per child, so near-ties break exactly as that
    per-cut definition scores them.
    """
    if not cuts.size:
        return []
    n, ranked = y.size, y[order]
    sums = np.cumsum(ranked - np.mean(y))
    n_right = cuts + 1
    n_left = n - n_right
    gap = sums[cuts] / n_right - (sums[-1] - sums[cuts]) / n_left
    gains = (n_left * n_right / (n * n)) * gap * gap
    parent = float(np.var(y))
    for j in np.flatnonzero(gains >= gains.max() - RESCORE_TOLERANCE * parent).tolist():
        i = int(cuts[j])
        gains[j] = parent - ((n - i - 1) / n) * float(np.var(ranked[i + 1:])) \
            - ((i + 1) / n) * float(np.var(ranked[:i + 1]))
    return gains.tolist()


def _midpoint(a: float, b: float) -> float:
    """A threshold ``t`` with ``a <= t < b``, so ``x > t`` splits the two:
    ``(a + b) / 2``, from the halves where the sum overflows, and ``a``
    where it rounds up to ``b`` (two adjacent doubles)."""
    mid = (a + b) / 2.0
    if not math.isfinite(mid):
        mid = a / 2.0 + b / 2.0
    return mid if mid < b else a


def _best_split(X: np.ndarray, y: np.ndarray, gains):
    """Best (feature, threshold, gain) over midpoints of adjacent sorted
    feature values; None when no split reduces impurity. A later candidate
    wins only by more than 1e-15, so ties go to the lowest feature, then
    the lowest threshold."""
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="mergesort")
        xs = X[order, f]
        cuts = np.flatnonzero(xs[1:] > xs[:-1])
        # Convention x > t goes left, so the upper part is the left child.
        for i, gain in zip(cuts.tolist(), gains(y, order, cuts)):
            if best is None or gain > best[2] + 1e-15:
                best = (f, _midpoint(float(xs[i]), float(xs[i + 1])), gain)
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
    ranges = [_feature_range(lo, hi)
              for lo, hi in zip(X.min(axis=0).tolist(), X.max(axis=0).tolist())]
    return DecisionTree(root=root, ranges_low=[lo for lo, _ in ranges],
                        ranges_high=[hi for _, hi in ranges])
