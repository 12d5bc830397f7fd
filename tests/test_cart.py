import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestealer.cart import RANGE_MARGIN, _gini_gains, train_cart
from treestealer.errors import DimensionMismatchError
from treestealer.evaluate import load_dataset
from treestealer.trees import (
    DecisionTree,
    TreeNode,
    assign_ids_breadth_first,
    infer,
    min_path_separation,
    tree_to_dict,
)

from conftest import stack_depth

DBL_MAX = sys.float_info.max
IRIS_CSV = Path(__file__).resolve().parents[1] / "src" / "treestealer" / "data" / "iris.csv"


def test_single_class_collapses_to_leaf():
    tree = train_cart([([0.0], 1), ([1.0], 1), ([2.0], 1)])
    assert tree.root.is_leaf and tree.root.value == 1


def test_one_dimensional_split_found_by_brute_force():
    rows = [([0.0], 0), ([1.0], 0), ([2.0], 1), ([3.0], 1)]
    # Brute force: the only pure splits lie strictly between the classes.
    candidates = [(a + b) / 2 for a, b in zip([0, 1, 2], [1, 2, 3])]
    perfect = [t for t in candidates
               if len({y for x, y in rows if x[0] > t}) == 1
               and len({y for x, y in rows if x[0] <= t}) == 1]
    assert perfect and all(1 < t < 2 for t in perfect)

    tree = train_cart(rows)
    assert tree.root.feature == 0
    assert 1 < tree.root.threshold < 2
    assert all(infer(tree, x) == y for x, y in rows)


def test_regression_mode_uses_variance():
    rows = [([float(i)], float(i >= 5) * 10.0) for i in range(10)]
    tree = train_cart(rows)
    assert not tree.root.is_leaf
    assert all(isinstance(l.value, float) for l in tree.leaves())
    assert all(infer(tree, x) == y for x, y in rows)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train_cart([])


@pytest.mark.parametrize("rows, message", [
    ([([1.0, 2.0], 0), ([3.0], 1)], r"unequal feature counts \[1, 2\]"),
    ([([1.0, 2.0], 0), (3.0, 1)], r"unequal feature counts \[1, 2\]"),
    ([(1.0, 0), (2.0, 1)], r"2-D array of rows, got shape \(2,\)"),
], ids=["ragged", "vector-and-scalar", "one-dimensional"])
def test_rows_that_are_not_a_matrix_are_a_dimension_mismatch(rows, message):
    # The rows go through trees.input_rows, the reader fidelity uses.
    with pytest.raises(DimensionMismatchError, match=message):
        train_cart(rows)


def test_ranges_widened_by_margin():
    rows = [([0.0, 10.0], 0), ([4.0, 20.0], 1)]
    tree = train_cart(rows)
    assert tree.ranges_low[0] == pytest.approx(-0.2)
    assert tree.ranges_high[1] == pytest.approx(20.5)


def test_iris_ranges_are_the_margin_rule():
    # The data min/max padded by RANGE_MARGIN times the span, to the bit,
    # with the values the trainer has always written.
    X = np.asarray(load_dataset(IRIS_CSV).inputs())
    span = X.max(axis=0) - X.min(axis=0)
    tree = train_cart(load_dataset(IRIS_CSV).rows)
    assert tree.ranges_low == (X.min(axis=0) - RANGE_MARGIN * span).tolist()
    assert tree.ranges_high == (X.max(axis=0) + RANGE_MARGIN * span).tolist()
    assert tree.ranges_low == [4.12, 1.88, 0.705, -0.01999999999999999]
    assert tree.ranges_high == [8.08, 4.5200000000000005, 7.195, 2.62]


def test_pad_below_half_an_ulp_steps_one_ulp_outward():
    tree = train_cart([([1e17, 0.0], 0), ([1e17, 1.0], 1)])
    assert tree.ranges_low == [math.nextafter(1e17, -math.inf), -0.05]
    assert tree.ranges_high == [math.nextafter(1e17, math.inf), 1.05]


@pytest.mark.parametrize("lo, hi, low, high, threshold", [
    (-1e308, 1e308, -1.1e308, 1.1e308, 0.0),
    (-DBL_MAX, DBL_MAX, -DBL_MAX, DBL_MAX, 0.0),
    (-1.79e308, 0.0, -DBL_MAX, 8.95e306, -8.95e307),
    (DBL_MAX, DBL_MAX, math.nextafter(DBL_MAX, 0.0), DBL_MAX, None),
    (1e308, 1.7e308, 9.65e307, 1.735e308, 1.35e308),
], ids=["span-overflows", "span-of-the-doubles", "end-overflows", "constant-at-max",
        "midpoint-sum-overflows"])
def test_range_that_would_overflow_stops_at_the_largest_double(lo, hi, low, high, threshold):
    # Tier-1 makes any numpy overflow warning an error.
    tree = train_cart([([lo], 0.0), ([hi], 1.0)])
    assert (tree.ranges_low, tree.ranges_high) == ([low], [high])
    assert tree.root.threshold == threshold


@pytest.mark.parametrize("labels", [(0, 1), (0.0, 1.0)], ids=["classes", "regression"])
def test_split_between_adjacent_doubles_separates_them(labels):
    # (a + b) / 2 rounds to b here, which would send both rows right.
    a = math.nextafter(1.0, 2.0)
    b = math.nextafter(a, 2.0)
    tree = train_cart([([a], labels[0]), ([b], labels[1])])
    assert tree.root.threshold == a
    assert (infer(tree, [a]), infer(tree, [b])) == labels


def test_iris_tree_matches_reported_scale():
    dataset = load_dataset(IRIS_CSV)
    assert len(dataset.inputs()[0]) == 4
    assert len(dataset.rows) == 150
    assert len(set(dataset.labels())) == 3

    tree = train_cart(dataset.rows)
    nodes = len(list(tree.nodes()))
    leaves = len(tree.leaves())
    # Platform-default reference structure is 17 nodes / 9 leaves /
    # depth 5; exact reproduction is not expected, only the same scale.
    assert 9 <= nodes <= 60
    assert 5 <= leaves <= 30
    assert 3 <= tree.depth() <= 9
    accuracy = sum(1 for x, y in dataset.rows if infer(tree, x) == y) / 150
    assert accuracy >= 0.99
    assert min_path_separation(tree) > 0


def _reference_gini(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return 1.0 - float(np.sum(p * p))


def _reference_split(X, y, impurity=_reference_gini):
    """The per-candidate search: the impurity (Gini by default, one
    np.unique per side) of each side of each cut."""
    n = y.size
    parent = impurity(y)
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="mergesort")
        xs, ys = X[order, f], y[order]
        for i in np.nonzero(np.diff(xs) > 0)[0]:
            left, right = ys[i + 1:], ys[:i + 1]
            gain = parent - (left.size / n) * impurity(left) \
                - (right.size / n) * impurity(right)
            if best is None or gain > best[2] + 1e-15:
                best = (f, float((xs[i] + xs[i + 1]) / 2.0), gain)
    return None if best is None or best[2] <= 1e-12 else best


def _reference_tree(rows, max_depth, ranges_low, ranges_high):
    """The trainer as one recursive ``build`` per node: regression on
    float labels (variance, mean leaves), Gini and majority leaves else."""
    X = np.asarray([x for x, _ in rows], dtype=float)
    y = np.asarray([label for _, label in rows])
    regression = y.dtype.kind == "f"
    impurity = (lambda v: float(np.var(v))) if regression else _reference_gini

    def leaf_value(sub_y):
        if regression:
            return float(np.mean(sub_y))
        return sorted(Counter(sub_y.tolist()).items(), key=lambda kv: (-kv[1], kv[0]))[0][0]

    def build(idx, depth):
        sub_y = y[idx]
        split = None
        if depth < max_depth and np.unique(sub_y).size > 1:
            split = _reference_split(X[idx], sub_y, impurity)
        if split is None:
            return TreeNode(value=leaf_value(sub_y))
        f, t, _ = split
        left_mask = X[idx, f] > t
        return TreeNode(feature=f, threshold=t, left=build(idx[left_mask], depth + 1),
                        right=build(idx[~left_mask], depth + 1))

    root = build(np.arange(y.size), 0)
    assign_ids_breadth_first(root)
    return DecisionTree(root, ranges_low, ranges_high)


def _assert_matches_reference(rows, max_depth=8):
    tree = train_cart(rows, max_depth=max_depth)
    reference = _reference_tree(rows, max_depth, tree.ranges_low, tree.ranges_high)
    assert tree_to_dict(tree) == tree_to_dict(reference)


def test_iris_tree_matches_per_candidate_reference():
    _assert_matches_reference(load_dataset(IRIS_CSV).rows)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(5, 200), features=st.integers(1, 5), classes=st.integers(2, 7),
       levels=st.integers(1, 12), max_depth=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sorted_pass_matches_per_candidate_reference(rows, features, classes, levels,
                                                     max_depth, seed):
    # Few grid levels per feature give equal values and tied gains.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels + 1, size=(rows, features)) * 0.25
    y = rng.integers(0, classes, size=rows) * 3 - 4
    _assert_matches_reference([(x.tolist(), int(c)) for x, c in zip(X, y)], max_depth)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(5, 80), features=st.integers(1, 3), levels=st.integers(1, 12),
       max_depth=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_regression_tree_matches_recursive_reference(rows, features, levels, max_depth, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels + 1, size=(rows, features)) * 0.25
    y = rng.integers(0, 5, size=rows) * 1.5
    _assert_matches_reference([(x.tolist(), float(v)) for x, v in zip(X, y)], max_depth)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(5, 80), features=st.integers(1, 3), levels=st.integers(1, 12),
       max_depth=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_regression_near_a_large_offset_matches_recursive_reference(rows, features, levels,
                                                                    max_depth, seed):
    # Labels near 1e6 would lose the child variances to cancellation in
    # uncentred running sums of squares.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels + 1, size=(rows, features)) * 0.25
    y = 1e6 + rng.integers(0, 5, size=rows) * 1.5 + rng.random(rows) * 1e-3
    _assert_matches_reference([(x.tolist(), float(v)) for x, v in zip(X, y)], max_depth)


def test_chain_deeper_than_the_recursion_limit_trains():
    # Distinct labels on one feature tie every split, so each level peels
    # off the lowest row: a chain one level per row.
    rows = [([float(i)], i) for i in range(150)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        tree = train_cart(rows, max_depth=len(rows))
    finally:
        sys.setrecursionlimit(limit)
    assert tree.depth() == len(rows) - 1
    assert [infer(tree, x) for x, _ in rows] == list(range(len(rows)))


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 200), classes=st.integers(2, 7), levels=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gini_gains_bit_identical_below_eight_classes(rows, classes, levels, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels + 1, size=rows) * 0.25
    y = rng.integers(0, classes, size=rows)
    order = np.argsort(x, kind="mergesort")
    cuts = np.nonzero(np.diff(x[order]) > 0)[0]
    ys, parent = y[order], _reference_gini(y)
    expected = [parent - ((rows - i - 1) / rows) * _reference_gini(ys[i + 1:])
                - ((i + 1) / rows) * _reference_gini(ys[:i + 1]) for i in cuts]
    assert _gini_gains(y, order, cuts) == expected


def test_exact_tie_goes_to_lowest_feature_then_lowest_threshold():
    # Cuts 0.5 and 2.5 on feature 0 have the same gain to the bit, and
    # feature 1 repeats them 10 lower.
    rows = [([x, x - 10.0], label) for x, label in zip([0.0, 1.0, 2.0, 3.0], [0, 1, 1, 0])]
    tree = train_cart(rows, max_depth=1)
    assert (tree.root.feature, tree.root.threshold) == (0, 0.5)
    _assert_matches_reference(rows, max_depth=1)


def test_class_names_train_as_loaded(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,setosa\n2,1,setosa\n5,6,virginica\n6,5,virginica\n")
    tree = train_cart(load_dataset(path).rows)
    assert sorted(leaf.value for leaf in tree.leaves()) == ["setosa", "virginica"]
    assert infer(tree, [5.5, 5.5]) == "virginica"


def test_integer_labels_stay_ints():
    tree = train_cart([([0.0], np.int64(4)), ([1.0], np.int64(7))])
    assert [type(leaf.value) for leaf in tree.leaves()] == [int, int]


def test_labels_mixing_numbers_and_names_rejected():
    with pytest.raises(ValueError, match="numbers and class names, e.g. 1 and 'setosa'"):
        train_cart([([0.0], 1), ([1.0], "setosa")])


def test_negative_max_depth_rejected():
    with pytest.raises(ValueError, match="max_depth must be at least 0"):
        train_cart([([0.0], 0), ([1.0], 1)], max_depth=-1)
    assert train_cart([([0.0], 0), ([1.0], 1)], max_depth=0).root.is_leaf
