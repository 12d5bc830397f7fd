from pathlib import Path

import pytest

from treestealer.cart import train_cart
from treestealer.evaluate import load_dataset
from treestealer.trees import infer, min_path_separation

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


def test_ranges_widened_by_margin():
    rows = [([0.0, 10.0], 0), ([4.0, 20.0], 1)]
    tree = train_cart(rows)
    assert tree.ranges_low[0] == pytest.approx(-0.2)
    assert tree.ranges_high[1] == pytest.approx(20.5)


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
