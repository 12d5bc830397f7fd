import itertools
import json
import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestealer.baseline import LeafRegion, RuleSetModel, api_attack_extract
from treestealer.cart import train_cart
from treestealer.channel import ChannelModel, ChannelSession, label_only_oracle, make_oracle
from treestealer.errors import DimensionMismatchError, SchemaError
from treestealer.evaluate import (
    Dataset,
    RowSetScorer,
    SweepPoint,
    SweepResult,
    boundary_margin_inputs,
    emit_report,
    extraction_error,
    fidelity,
    load_dataset,
    load_report,
    pareto_frontier,
    pareto_sweep,
    sweep_from_dict,
    sweep_to_dict,
    threshold_margin,
    uniform_inputs,
)
from treestealer.extraction import dt_extraction
from treestealer.trees import (
    DecisionTree,
    assign_ids_breadth_first,
    generate_random_tree,
    infer,
    tree_from_dict,
    tree_to_dict,
)

from conftest import build_example_target, inner, leaf, predict_label, region_contains, stump


class TestExtractionError:
    def test_two_feature_tuple_rows_score_like_list_rows(self, example_target):
        flipped = build_example_target()
        flipped.root.left.left.value = 99
        rows = [(2.5, -1.0), (6.0, 2.0), (3.0, 2.5)]
        assert fidelity(example_target, example_target, rows) == 1.0
        assert fidelity(example_target, flipped, rows) == \
            fidelity(example_target, flipped, [list(r) for r in rows])
        assert fidelity(example_target, flipped, rows) < 1.0

    def test_identical_trees_have_zero_error(self, example_target):
        inputs = uniform_inputs(example_target.ranges_low,
                                example_target.ranges_high, 500, seed=0)
        assert extraction_error(example_target, example_target, inputs) == 0.0
        assert fidelity(example_target, example_target, inputs) == 1.0

    def test_flipped_leaf_error_equals_routed_fraction(self, example_target):
        flipped = build_example_target()
        flipped.root.left.left.value = 99
        inputs = uniform_inputs(example_target.ranges_low,
                                example_target.ranges_high, 1000, seed=1)
        # Independent oracle: count the rows the target routes to that leaf.
        routed = sum(1 for x in inputs if infer(example_target, x) == 0)
        expected = routed / len(inputs)
        assert extraction_error(example_target, flipped, inputs) == pytest.approx(expected)
        assert expected > 0.1  # the leftmost leaf covers a visible share

    def test_symmetric_in_argument_order(self, example_target):
        flipped = build_example_target()
        flipped.root.left.left.value = 99
        inputs = uniform_inputs(example_target.ranges_low,
                                example_target.ranges_high, 400, seed=2)
        assert extraction_error(example_target, flipped, inputs) == \
            extraction_error(flipped, example_target, inputs)

    def test_empty_dataset_rejected(self, example_target):
        with pytest.raises(ValueError):
            extraction_error(example_target, example_target, [])
        for empty in ([], Dataset(rows=[]).inputs(), np.empty((0, 2))):
            with pytest.raises(ValueError):
                fidelity(example_target, example_target, empty)

    def test_wrong_width_row_is_a_dimension_mismatch(self, example_target):
        rule_set = RuleSetModel(
            regions=[LeafRegion(label=0, witness=[7.0, 3.0], low=[1.0, -3.0],
                                high=[7.0, 3.0])],
            ranges_low=[2.0, -2.0], ranges_high=[7.0, 3.0])
        for shadow in (example_target, rule_set):
            with pytest.raises(DimensionMismatchError):
                fidelity(example_target, shadow, [[3.0, 0.0], [3.0, 0.0, 1.0]])
            with pytest.raises(DimensionMismatchError):
                fidelity(shadow, example_target, [[3.0, 0.0, 1.0]] * 3)
        with pytest.raises(DimensionMismatchError):
            fidelity(rule_set, rule_set, [[3.0]])

    def test_ragged_rows_are_a_dimension_mismatch(self, example_target):
        with pytest.raises(DimensionMismatchError):
            fidelity(example_target, example_target, [[3.0, 0.0], [3.0]])


IRIS_CSV = Path(__file__).resolve().parents[1] / "src" / "treestealer" / "data" / "iris.csv"
GRID = st.integers(0, 16).map(lambda k: k / 2)


def per_row(model, rows):
    return [predict_label(model, x) for x in rows]


def bulk_labels(scorer, model):
    """Each row's label read off ``scorer.label_sets(model)``, whose sets
    must split the rows."""
    pairs = scorer.label_sets(model)
    assert sum(row_set.bit_count() for _, row_set in pairs) == scorer.n
    labels = [None] * scorer.n
    for label, row_set in pairs:
        for i in np.flatnonzero(scorer.mask(row_set)).tolist():
            labels[i] = label
    return labels


def thresholds_of(tree):
    return sorted({n.threshold for n in tree.inner_nodes()})


@st.composite
def grid_trees_and_rows(draw, regression=False):
    """A random grid tree and rows, many coordinates exactly on a threshold;
    the first row sits on the root's threshold."""
    m = draw(st.integers(1, 4))
    tree = generate_random_tree(m, 1, draw(st.integers(1, 6)), [(0.0, 8.0)] * m, 0.5,
                                draw(st.integers(0, 2 ** 31 - 1)), regression=regression)
    value = st.one_of(st.floats(0.0, 8.0), st.sampled_from(thresholds_of(tree)))
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=40))
    on_root = list(rows[0])
    on_root[tree.root.feature] = tree.root.threshold
    return tree, [on_root] + rows


def relabel_left_subtree(tree):
    """A copy whose leaves under the root's left child carry new labels, so
    rows on the root threshold score only where they go right."""
    copy = tree_from_dict(tree_to_dict(tree))
    stack = [copy.root.left]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            node.value = ("left", node.value)
        else:
            stack += [node.left, node.right]
    return copy


@st.composite
def rule_sets_and_rows(draw, m=None, labels=None):
    """Random half-open boxes on a coarse grid, so rows often sit on a box
    face or tie between witnesses; the last row lies outside every box.
    ``m`` features (1-3 when None); region k is labelled ``f"r{k}"``, or
    from ``labels`` when given."""
    m = m or draw(st.integers(1, 3))
    regions = []
    for k in range(draw(st.integers(1, 5))):
        low = [draw(GRID) for _ in range(m)]
        high = [draw(st.integers(int(lo * 2), 16)) / 2 for lo in low]
        witness = [draw(GRID) for _ in range(m)]
        label = f"r{k}" if labels is None else draw(labels)
        regions.append(LeafRegion(label=label, witness=witness, low=low, high=high))
    model = RuleSetModel(regions=regions, ranges_low=[0.0] * m, ranges_high=[8.0] * m)
    rows = draw(st.lists(st.lists(GRID, min_size=m, max_size=m), min_size=1, max_size=40))
    return model, rows + [[9.0] * m]


@st.composite
def many_rule_sets_and_rows(draw, count):
    """``count`` overlapping boxes drawn from a seeded generator on the
    grid of ``rule_sets_and_rows``, labelled ``f"r{k}"``, and rows: grid
    rows (a 0 coordinate is in no box, as lows are exclusive), the low
    and high corners of a drawn region, a row only the last region holds,
    and a row outside every box."""
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = rng.integers(0, 17, size=(count, m)) / 2
    high = np.maximum(low, rng.integers(0, 17, size=(count, m)) / 2)
    low[-1], high[-1] = 8.0, 8.5
    witness = rng.integers(0, 18, size=(count, m)) / 2
    regions = [LeafRegion(label=f"r{k}", witness=witness[k].tolist(), low=low[k].tolist(),
                          high=high[k].tolist()) for k in range(count)]
    model = RuleSetModel(regions=regions, ranges_low=[0.0] * m, ranges_high=[8.5] * m)
    k = draw(st.integers(0, count - 1))
    rows = draw(st.lists(st.lists(GRID, min_size=m, max_size=m), min_size=1, max_size=40))
    return model, rows + [low[k].tolist(), high[k].tolist(), [8.5] * m, [9.0] * m]


class TestBulkPrediction:
    @settings(max_examples=60, deadline=None)
    @given(grid_trees_and_rows())
    def test_tree_matches_per_row_inference(self, case):
        tree, rows = case
        assert bulk_labels(RowSetScorer(rows), tree) == per_row(tree, rows)

    @settings(max_examples=30, deadline=None)
    @given(grid_trees_and_rows(regression=True))
    def test_regression_tree_matches_per_row_inference(self, case):
        tree, rows = case
        labels = bulk_labels(RowSetScorer(rows), tree)
        assert labels == per_row(tree, rows)
        assert all(type(v) is float for v in labels)

    def test_iris_cart_tree_matches_per_row_inference(self):
        dataset = load_dataset(IRIS_CSV)
        tree = train_cart(dataset.rows)
        for node in tree.leaves():
            node.value = ("setosa", "versicolor", "virginica")[node.value]
        rows = dataset.inputs()
        on_threshold = []
        for i, node in enumerate(tree.inner_nodes()):
            x = list(rows[i])
            x[node.feature] = node.threshold
            on_threshold.append(x)
        labels = bulk_labels(RowSetScorer(rows + on_threshold), tree)
        assert labels == per_row(tree, rows + on_threshold)
        assert all(isinstance(v, str) for v in labels)

    def test_single_leaf_tree(self):
        tree = DecisionTree(root=leaf(7), ranges_low=[0, 0], ranges_high=[1, 1])
        assert bulk_labels(RowSetScorer([[0.5, 0.5], [1.0, 0.0]]), tree) == [7, 7]
        assert bulk_labels(RowSetScorer([]), tree) == []

    @settings(max_examples=80, deadline=None)
    @given(rule_sets_and_rows())
    def test_rule_set_matches_per_row_predict(self, case):
        model, rows = case
        assert not any(region_contains(r, rows[-1]) for r in model.regions)
        assert bulk_labels(RowSetScorer(rows), model) == per_row(model, rows)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_many_overlapping_regions_match_per_row_predict(self, data):
        # Each row takes the first of hundreds of overlapping boxes that
        # holds it.
        model, rows = data.draw(many_rule_sets_and_rows(257))
        labels = bulk_labels(RowSetScorer(rows), model)
        assert labels[-2] == "r256"
        assert labels == per_row(model, rows)

    def test_baseline_rule_set_with_gaps_matches_per_row_predict(self):
        # A budget-exhausted run leaves boxes whose faces were never
        # searched, so grid rows fall in gaps between them.
        target = generate_random_tree(3, 3, 5, [(0.0, 16.0)] * 3, 0.5, seed=11)
        oracle = label_only_oracle(target, ChannelSession(ChannelModel(), seed=0))
        model = api_attack_extract(oracle, target.ranges_low, target.ranges_high, 0.5,
                                   max_queries=20).model
        grid = np.arange(0.0, 16.5, 0.5)
        rows = [[a, b, c] for a in grid[::3] for b in grid[::2] for c in grid]
        gaps = [x for x in rows if not any(region_contains(r, x) for r in model.regions)]
        assert gaps  # the nearest-witness fallback is exercised
        assert bulk_labels(RowSetScorer(rows), model) == per_row(model, rows)

    @settings(max_examples=40, deadline=None)
    @given(grid_trees_and_rows())
    def test_fidelity_matches_per_row_formula(self, case):
        tree, rows = case
        shadow = relabel_left_subtree(tree)
        mismatches = sum(1 for x in rows if predict_label(tree, x) != predict_label(shadow, x))
        assert fidelity(tree, shadow, rows) == 1.0 - mismatches / len(rows)
        assert fidelity(tree, shadow, np.asarray(rows)) == 1.0 - mismatches / len(rows)


# 1, 1.0 and True are equal to each other, as are 0, 0.0 and False; the
# strings are equal to none of them.
MIXED_LABELS = st.sampled_from([1, 1.0, True, "1", 0, 0.0, False, "0", 2])


def per_row_error(target, shadow, rows):
    """The scorer's reference: per-row predictions compared by ``!=``."""
    return sum(map(operator.ne, per_row(target, rows), per_row(shadow, rows))) / len(rows)


@st.composite
def mixed_label_models(draw):
    """Two grid trees of one shape and two rule sets over the same
    features, every leaf and region labelled from ``MIXED_LABELS``, and
    rows whose last one lies outside every region."""
    tree, rows = draw(grid_trees_and_rows())
    other = tree_from_dict(tree_to_dict(tree))
    for node in tree.leaves() + other.leaves():
        node.value = draw(MIXED_LABELS)
    m = tree.num_features
    rule_sets = [draw(rule_sets_and_rows(m, MIXED_LABELS))[0] for _ in range(2)]
    return [tree, other] + rule_sets, rows + [[9.0] * m]


# Threshold and box-face values shared by every feature; -0.0 and 0.0
# are one dict key and must give one row set.
SHARED = st.sampled_from([-0.0, 0.0, 1.0, 2.5])
ROW_VALUE = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.5, math.nan, math.inf, -math.inf]),
                      st.floats(-2.0, 4.0))


@st.composite
def shared_value_trees(draw, m):
    """A tree on [-2, 4]^m whose thresholds all come from ``SHARED``."""
    def node(depth):
        if depth == 0 or not draw(st.booleans()):
            return leaf(draw(st.integers(0, 3)))
        return inner(draw(st.integers(0, m - 1)), draw(SHARED), node(depth - 1), node(depth - 1))

    root = node(4)
    assign_ids_breadth_first(root)
    return DecisionTree(root=root, ranges_low=[-2.0] * m, ranges_high=[4.0] * m)


@st.composite
def shared_value_rule_sets(draw, m):
    """Boxes whose faces come from ``SHARED`` or are NaN (a low face may
    sit above its high one), labelled like ``shared_value_trees``' leaves."""
    face = SHARED | st.just(math.nan)
    regions = [LeafRegion(label=draw(st.integers(0, 3)),
                          witness=[draw(SHARED) for _ in range(m)],
                          low=[draw(face) for _ in range(m)],
                          high=[draw(face) for _ in range(m)])
               for _ in range(draw(st.integers(1, 4)))]
    return RuleSetModel(regions=regions, ranges_low=[-2.0] * m, ranges_high=[4.0] * m)


@st.composite
def model_sequences(draw):
    """Trees and rule sets for one scorer, and rows holding NaN, +-inf,
    -0.0 and values outside every box. The first tree tests feature 0
    and then feature 1 at one value, and the last two rows tell those
    features apart, so a row set cached by value alone misroutes them."""
    m = draw(st.integers(2, 3))
    v = draw(SHARED)
    root = inner(0, v, inner(1, v, leaf(0), leaf(1)), leaf(2))
    assign_ids_breadth_first(root)
    first = DecisionTree(root=root, ranges_low=[-2.0] * m, ranges_high=[4.0] * m)
    models = [first] + draw(st.lists(st.one_of(shared_value_trees(m), shared_value_rule_sets(m)),
                                     min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(ROW_VALUE, min_size=m, max_size=m), min_size=1, max_size=40))
    return models, rows + [[v + 1.0, v] + [9.0] * (m - 2), [v + 1.0] * m]


class TestScorer:
    @settings(max_examples=80, deadline=None)
    @given(mixed_label_models())
    def test_extraction_error_matches_per_row_reference(self, case):
        models, rows = case
        assert not any(region_contains(r, rows[-1]) for m in models[2:] for r in m.regions)
        for target in models:
            for shadow in models:
                assert extraction_error(target, shadow, rows) == \
                    per_row_error(target, shadow, rows)

    @settings(max_examples=80, deadline=None)
    @given(model_sequences())
    def test_one_scorer_scores_a_sequence_like_per_row(self, case):
        models, rows = case
        scorer = RowSetScorer(rows)
        for model in models:
            assert bulk_labels(scorer, model) == per_row(model, rows)
        for target, shadow in zip(models, models[1:]):
            assert scorer.error(scorer.by_label(target), shadow) == \
                per_row_error(target, shadow, rows)


def counted_packs(scorer) -> list:
    """Record each mask ``scorer`` packs: one per numpy compare ``above`` runs."""
    packed = []
    pack = scorer.pack

    def counting(mask):
        packed.append(mask)
        return pack(mask)

    scorer.pack = counting
    return packed


def row_set(*indices) -> int:
    return sum(1 << i for i in indices)


# Column minimum -1.5, maximum 7.25.
COLUMN = [3.0, -1.5, 7.25, 3.0, 0.0]


def baseline_model(target, epsilon, max_queries=1_000_000):
    oracle = label_only_oracle(target, ChannelSession(ChannelModel(), seed=0))
    return api_attack_extract(oracle, target.ranges_low, target.ranges_high, epsilon,
                              max_queries=max_queries).model


@st.composite
def baseline_models_and_wide_rows(draw):
    """A baseline rule set on a grid tree over [0, 8] (budget-cut, so with
    gaps, or complete) and rows on a half grid over [-2, 10]: below and
    above the ranges, on their ends and on the lower faces' ``-epsilon``."""
    m = draw(st.integers(1, 3))
    target = generate_random_tree(m, 1, 4, [(0.0, 8.0)] * m, 0.5,
                                  seed=draw(st.integers(0, 2 ** 31 - 1)))
    model = baseline_model(target, 0.5, draw(st.sampled_from([10, 1_000_000])))
    value = st.integers(-4, 20).map(lambda k: k / 2)
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=40))
    return model, rows


class TestAboveBounds:
    @pytest.mark.parametrize("v, rows, compared", [
        (-math.inf, row_set(0, 1, 2, 3, 4), False),
        (-2.0, row_set(0, 1, 2, 3, 4), False),
        (-1.5, row_set(0, 2, 3, 4), True),  # the minimum
        (3.0, row_set(2), True),
        (7.25, 0, False),  # the maximum
        (8.0, 0, False),
        (math.inf, 0, False),
        (math.nan, 0, True),
    ])
    def test_above_equals_the_packed_compare(self, v, rows, compared):
        scorer = RowSetScorer([[x] for x in COLUMN])
        packed = counted_packs(scorer)
        assert scorer.above(0, v) == rows == RowSetScorer.pack(scorer.columns[0] > v)
        assert len(packed) == compared

    def test_bounds_are_per_column(self):
        scorer = RowSetScorer([[x, x + 100.0] for x in COLUMN])
        packed = counted_packs(scorer)
        assert scorer.above(0, 50.0) == 0
        assert scorer.above(1, 50.0) == scorer.everything
        assert scorer.above(1, 7.25) == scorer.everything
        assert packed == []

    @pytest.mark.parametrize("v", [-math.inf, -5.0, 1.0, 2.0, 5.0, math.inf])
    def test_a_nan_in_the_column_turns_the_shortcuts_off(self, v):
        scorer = RowSetScorer([[math.nan, 1.0], [1.0, 1.0], [2.0, 1.0]])
        packed = counted_packs(scorer)
        assert scorer.above(0, v) == RowSetScorer.pack(scorer.columns[0] > v)
        assert len(packed) == 1
        # No x > v holds for NaN, so even -inf leaves out its row.
        assert scorer.above(0, -math.inf) == row_set(1, 2)

    def test_empty_scorer_labels_without_reading_bounds(self, example_target):
        scorer = RowSetScorer([])
        model = baseline_model(example_target, 0.25)
        assert scorer.lowest == scorer.highest == []
        assert all(rows == 0 for _, rows in scorer.label_sets(example_target))
        assert [rows for _, rows in scorer.label_sets(model)] == [0] * len(model.regions)

    @settings(max_examples=40, deadline=None)
    @given(baseline_models_and_wide_rows())
    def test_rule_set_labels_rows_outside_the_ranges_like_per_row(self, case):
        model, rows = case
        assert bulk_labels(RowSetScorer(rows), model) == per_row(model, rows)


class TestDatasets:
    def test_two_row_ranges(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n3,4,B\n")
        dataset = load_dataset(path)
        tree = train_cart(dataset.rows)
        assert tree.ranges_low == pytest.approx([0.9, 1.9])
        assert tree.ranges_high == pytest.approx([3.1, 4.1])
        assert dataset.labels() == ["A", "B"]

    def test_margin_widens_each_side_by_span_fraction(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,10,A\n4,20,B\n")
        tree = train_cart(load_dataset(path).rows)
        assert tree.ranges_low == pytest.approx([-0.2, 9.5])
        assert tree.ranges_high == pytest.approx([4.2, 20.5])

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n1,oops,B\n")
        with pytest.raises(SchemaError, match="row 2, column 2"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", " Infinity"])
    def test_non_finite_cell_reports_coordinates(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"1,2,A\n3,4,B\n5,{cell},A\n")
        with pytest.raises(SchemaError, match=f"row 3, column 2: non-finite feature '{cell}'"):
            load_dataset(path)

    @pytest.mark.parametrize("text, header", [("a,b,label\n", True), ("\n\n", False)],
                             ids=["header-only", "blank-lines"])
    def test_no_data_rows_rejected(self, tmp_path, text, header):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match="^dataset has no data rows$"):
            load_dataset(path, header=header)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n1,B\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_dataset(path)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "d.csv"
        # Blank lines before the header leave it the first record read.
        for text in ("a,b,label\n1,2,0\n3,4,1\n", "\n\na,b,label\n1,2,0\n\n3,4,1\n"):
            path.write_text(text)
            dataset = load_dataset(path, header=True)
            assert dataset.inputs() == [[1.0, 2.0], [3.0, 4.0]]
            assert dataset.labels() == [0, 1]


@st.composite
def stepped_datasets(draw):
    """Rows on a scaled, shifted grid whose class steps up at three or
    four cuts on feature 0, unevenly spaced (the gaps between cuts are
    distinct), with feature 1 seeded noise: a CART tree trained on them
    tests feature 0 at several unevenly spaced thresholds."""
    gaps = draw(st.lists(st.integers(3, 30), min_size=4, max_size=5, unique=True))
    scale, offset = draw(st.floats(0.01, 100.0)), draw(st.floats(-100.0, 100.0))
    cuts = np.cumsum(gaps)[:-1]
    noise = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-1, 1, sum(gaps))
    return [([offset + scale * v, w], int(np.searchsorted(cuts, v, side="right")))
            for v, w in enumerate(noise.tolist())]


def generator_uniform(tree, n, seed):
    """``n`` samples from ``Generator.uniform`` itself, as lists."""
    return np.random.default_rng(seed).uniform(
        tree.ranges_low, tree.ranges_high, size=(n, tree.num_features)).tolist()


def assert_nudged_like_per_coordinate_loop(tree, n, seed):
    """``boundary_margin_inputs`` equals the per-coordinate nudge of the
    same ``Generator.uniform`` draw, value for value."""
    expected = nudged_per_coordinate(tree, generator_uniform(tree, n, seed),
                                     threshold_margin(tree))
    assert boundary_margin_inputs(tree, n, seed=seed).tolist() == expected


def thresholds_hit(tree, f, n, seed):
    """The thresholds on feature ``f`` that some of those ``n`` samples
    lie within the margin of, before the nudge."""
    margin, samples = threshold_margin(tree), generator_uniform(tree, n, seed)
    return {t for t in thresholds_of_feature(tree, f)
            if any(abs(x[f] - t) < margin for x in samples)}


class TestSamplers:
    def test_uniform_respects_ranges_and_seed(self):
        a = uniform_inputs([0, -2], [1, 3], 100, seed=5)
        b = uniform_inputs([0, -2], [1, 3], 100, seed=5)
        assert a.shape == (100, 2) and np.array_equal(a, b)
        assert all(0 <= x[0] <= 1 and -2 <= x[1] <= 3 for x in a)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(1e-9, 1e300)),
                    min_size=1, max_size=6),
           st.integers(0, 300), st.integers(0, 2 ** 128))
    def test_uniform_is_generator_uniform_bit_for_bit(self, bounds, n, seed):
        # Holds while numpy computes low + width * u in two roundings; a
        # build that fuses them into one FMA fails here.
        lows = [low for low, _ in bounds]
        highs = [low + width for low, width in bounds]
        expected = np.random.default_rng(seed).uniform(lows, highs, size=(n, len(bounds)))
        drawn = uniform_inputs(lows, highs, n, seed)
        assert drawn.shape == expected.shape and drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lows, highs, feature, shown", [
        ([-1e308], [1e308], 0, "[-1e+308, 1e+308]"),
        ([0.0, -1.5e308, 0.0], [1.0, 1.7e308, 1.0], 1, "[-1.5e+308, 1.7e+308]"),
    ], ids=["only-feature", "middle-feature"])
    def test_range_wider_than_a_double_is_a_value_error(self, lows, highs, feature, shown):
        # Any RuntimeWarning from the width check would fail this test too.
        message = f"feature {feature} range {shown} cannot be sampled"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            uniform_inputs(lows, highs, 10, seed=0)

    def test_margin_sampler_avoids_boundaries(self, example_target):
        margin = threshold_margin(example_target)
        assert margin > 0
        samples = boundary_margin_inputs(example_target, 500, seed=6)
        thresholds = {0: [3.094], 1: [0.594, -0.906, 1.906, 0.094]}
        for x in samples:
            for f, ts in thresholds.items():
                for t in ts:
                    assert abs(x[f] - t) >= margin - 1e-12

    def test_leaf_only_tree_falls_back_to_uniform(self):
        tree = DecisionTree(root=leaf(1), ranges_low=[0], ranges_high=[1])
        samples = boundary_margin_inputs(tree, 50, seed=7)
        assert samples.tobytes() == uniform_inputs([0], [1], 50, seed=7).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 31 - 1),
           st.integers(0, 80), st.integers(0, 1000))
    def test_margin_sampler_matches_per_coordinate_loop(self, m, depth, tree_seed, n, seed):
        tree = generate_random_tree(m, 1, depth, [(0.0, 8.0)] * m, 0.5, tree_seed)
        assert_nudged_like_per_coordinate_loop(tree, n, seed)

    def test_iris_cart_margin_sampler_matches_per_coordinate_loop(self):
        tree = train_cart(load_dataset(IRIS_CSV).rows)
        # Petal length (feature 2) is tested at 2.45, 4.85 and 4.95, and
        # samples fall within the margin of each of them.
        assert thresholds_of_feature(tree, 2) == [2.45, 4.85, 4.95]
        assert thresholds_hit(tree, 2, 1000, 11) == {2.45, 4.85, 4.95}
        assert_nudged_like_per_coordinate_loop(tree, 1000, 11)

    @settings(max_examples=40, deadline=None)
    @given(stepped_datasets(), st.integers(0, 2 ** 32 - 1))
    def test_cart_margin_sampler_matches_per_coordinate_loop(self, rows, seed):
        tree = train_cart(rows)
        thresholds = thresholds_of_feature(tree, 0)
        assert len(thresholds) >= 3 and len(set(np.diff(thresholds).tolist())) > 1
        assert len(thresholds_hit(tree, 0, 2000, seed)) >= 2
        assert_nudged_like_per_coordinate_loop(tree, 2000, seed)


def thresholds_of_feature(tree, f):
    return sorted({n.threshold for n in tree.inner_nodes() if n.feature == f})


def nudged_per_coordinate(tree, samples, margin):
    """The boundary-margin nudge one coordinate at a time: the first
    ascending threshold closer than ``margin`` pushes the coordinate to
    exactly ``margin`` from it, on the side it started (ties go down)."""
    if not margin > 0 or margin == float("inf"):
        return samples
    for f in range(tree.num_features):
        thresholds = thresholds_of_feature(tree, f)
        for x in samples:
            v = x[f]
            for t in thresholds:
                if abs(v - t) < margin:
                    x[f] = t + margin if v > t else t - margin
                    break
    return samples


class TestSweep:
    def test_single_leaf_target_single_point(self):
        tree = DecisionTree(root=leaf(3), ranges_low=[0], ranges_high=[1])
        rows = boundary_margin_inputs(tree, 50, seed=0)
        result = pareto_sweep(tree, "extractor", eps_start=100.0, eval_inputs=rows, seed=0)
        assert len(result.points) == 1
        point = result.points[0]
        assert point.epsilon == 100.0
        assert point.queries == 1
        assert point.fidelity == 1.0
        assert point.status == "ok"

    def test_example_tree_perfect_at_first_point(self, example_target):
        rows = boundary_margin_inputs(example_target, 500, seed=0)
        result = pareto_sweep(example_target, "extractor", eps_start=0.5,
                              eval_inputs=rows, seed=0)
        assert result.points[0].fidelity == 1.0
        assert len(result.points) == 1

    def test_plateau_terminates(self):
        # Duplicate leaf labels cap the baseline's fidelity below 1.0, so
        # halving epsilon cannot help and the sweep must plateau out.
        from treestealer.trees import assign_ids_breadth_first
        from conftest import inner
        root = inner(0, 2.0,
                     inner(0, 6.0, leaf(0), leaf(1)),
                     leaf(0))
        assign_ids_breadth_first(root)
        target = DecisionTree(root=root, ranges_low=[0.0], ranges_high=[8.0])
        rows = boundary_margin_inputs(target, 200, seed=0)
        result = pareto_sweep(target, "baseline", eps_start=0.25,
                              plateau_limit=3, eval_inputs=rows, seed=0)
        assert result.points[-1].status == "plateau"
        assert result.points[-1].fidelity < 1.0
        tail = [p.fidelity for p in result.points[-3:]]
        assert len(set(tail)) == 1

    @pytest.mark.parametrize("attack", ["extractor", "baseline"])
    def test_timeout_ends_the_sweep_at_its_first_point(self, example_target, attack):
        rows = boundary_margin_inputs(example_target, 100, seed=0)
        result = pareto_sweep(example_target, attack, rows, eps_start=8.0, timeout=1e-9)
        assert [(p.epsilon, p.status) for p in result.points] == [(8.0, "timeout")]
        assert result.points[0].wall_time > 1e-9

    @pytest.mark.parametrize("setting, message", [
        ({"plateau_limit": 0}, "plateau_limit must be at least 1"),
        ({"plateau_limit": -1}, "plateau_limit must be at least 1"),
        ({"timeout": 0.0}, "timeout must be positive"),
        ({"timeout": -1.0}, "timeout must be positive"),
        ({"timeout": math.nan}, "timeout must be positive"),
    ], ids=["plateau-0", "plateau-neg", "timeout-0", "timeout-neg", "timeout-nan"])
    def test_settings_that_turn_a_stop_rule_off_are_rejected(self, example_target,
                                                              setting, message):
        rows = boundary_margin_inputs(example_target, 50, seed=0)
        with pytest.raises(ValueError, match=message):
            pareto_sweep(example_target, "baseline", rows, **setting)

    def test_unknown_attack_and_empty_eval_inputs_are_rejected(self, example_target):
        rows = boundary_margin_inputs(example_target, 50, seed=0)
        with pytest.raises(ValueError, match="^unknown attack 'both'$"):
            pareto_sweep(example_target, "both", rows)
        with pytest.raises(ValueError, match="^eval_inputs must be non-empty$"):
            pareto_sweep(example_target, "extractor", [])

    def test_infinite_timeout_and_one_point_plateau_are_allowed(self, example_target):
        rows = boundary_margin_inputs(example_target, 50, seed=0)
        result = pareto_sweep(example_target, "baseline", rows, eps_start=8.0,
                              timeout=math.inf, plateau_limit=1)
        assert [p.status for p in result.points] == ["plateau"]

    def test_point_queries_are_the_runs_query_counts(self, example_target):
        rows = boundary_margin_inputs(example_target, 100, seed=3)
        low, high = example_target.ranges_low, example_target.ranges_high
        for attack in ("extractor", "baseline"):
            points = pareto_sweep(example_target, attack, rows, eps_start=8.0, seed=3).points
            answered = [p for p in points if p.status != "path_deviation"]
            assert answered
            for point in answered:
                session = ChannelSession(ChannelModel(), seed=3)
                if attack == "extractor":
                    run = dt_extraction(make_oracle(example_target, session), low, high,
                                        point.epsilon)
                else:
                    run = api_attack_extract(label_only_oracle(example_target, session),
                                             low, high, point.epsilon)
                assert point.queries == run.queries == session.queries_observed

    def test_target_labelled_once_and_points_score_like_fidelity(self, example_target,
                                                                  monkeypatch):
        from treestealer import evaluate
        inputs = boundary_margin_inputs(example_target, 300, seed=2)
        labelled = []
        label_sets = RowSetScorer.label_sets

        def counting_label_sets(scorer, model):
            labelled.append((scorer, model))
            return label_sets(scorer, model)

        monkeypatch.setattr(evaluate.RowSetScorer, "label_sets", counting_label_sets)
        result = pareto_sweep(example_target, "baseline", eps_start=8.0,
                              eval_inputs=inputs, seed=2)
        monkeypatch.undo()
        # One scorer labels the target once, then each point's shadow.
        assert all(scorer is labelled[0][0] for scorer, _ in labelled)
        assert [model is example_target for _, model in labelled] == \
            [True] + [False] * len(result.points)
        assert len({p.fidelity for p in result.points}) > 2
        for point in result.points:
            oracle = label_only_oracle(example_target, ChannelSession(ChannelModel(), seed=2))
            shadow = api_attack_extract(
                oracle, example_target.ranges_low, example_target.ranges_high,
                point.epsilon, max_queries=200_000).model
            assert point.fidelity == fidelity(example_target, shadow, inputs)

    def test_list_and_array_eval_inputs_give_identical_points(self, example_target):
        rows = boundary_margin_inputs(example_target, 300, seed=4)
        for attack in ("extractor", "baseline"):
            runs = [pareto_sweep(example_target, attack, eps_start=8.0, eval_inputs=inputs,
                                 seed=4) for inputs in (rows, rows.tolist())]
            a, b = (sweep_to_dict(r, include_timing=False) for r in runs)
            assert len(a["points"]) > 1
            assert a == b

    def test_determinism(self, example_target):
        rows = boundary_margin_inputs(example_target, 200, seed=9)
        a = pareto_sweep(example_target, "extractor", eps_start=2.0, eval_inputs=rows, seed=9)
        b = pareto_sweep(example_target, "extractor", eps_start=2.0, eval_inputs=rows, seed=9)
        assert sweep_to_dict(a, include_timing=False) == sweep_to_dict(b, include_timing=False)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("attack", ["extractor", "baseline", "sweep"])
def test_non_finite_resolution_is_rejected(attack, value):
    target = generate_random_tree(2, 2, 2, [(0.0, 8.0)] * 2, 0.5, seed=1)
    session = ChannelSession(ChannelModel(), seed=0)
    queries = itertools.count()

    def bounded(oracle):
        # A run that never stops fails here instead of hanging the suite.
        def query(x):
            if next(queries) == 10_000:
                raise RuntimeError("the run did not stop")
            return oracle(x)
        return query

    with pytest.raises(ValueError, match="must be finite and positive"):
        if attack == "extractor":
            dt_extraction(bounded(make_oracle(target, session)), target.ranges_low,
                          target.ranges_high, value)
        elif attack == "baseline":
            api_attack_extract(bounded(label_only_oracle(target, session)),
                               target.ranges_low, target.ranges_high, value)
        else:
            pareto_sweep(target, "baseline", boundary_margin_inputs(target, 50, seed=0),
                         eps_start=value)


@pytest.mark.parametrize("low, high, message", [
    ([-math.inf], [math.inf], r"invalid feature range \(-inf, inf\)"),
    ([0.0], [math.inf], r"invalid feature range \(0.0, inf\)"),
    ([math.nan], [8.0], r"invalid feature range \(nan, 8.0\)"),
    ([4.0], [4.0], r"invalid feature range \(4.0, 4.0\)"),
    ([8.0], [0.0], r"invalid feature range \(8.0, 0.0\)"),
    ([0.0, 0.0], [8.0], "feature ranges must match the feature count"),
    ([0.0], [8.0, 8.0], "feature ranges must match the feature count"),
], ids=["both-infinite", "high-infinite", "low-nan", "empty", "inverted", "more-lows",
        "more-highs"])
@pytest.mark.parametrize("attack", ["extractor", "baseline"])
def test_invalid_domain_is_rejected_before_any_query(attack, low, high, message):
    # Bisection cannot narrow an infinite end to a threshold, and an empty
    # or inverted range holds none, so each domain is refused unasked.
    target = stump(0.0, 8.0)
    session = ChannelSession(ChannelModel(), seed=0)
    calls = []

    def counted(oracle):
        def query(x):
            calls.append(x)
            if len(calls) == 10_000:
                raise RuntimeError("the run did not stop")
            return oracle(x)
        return query

    with pytest.raises(ValueError, match=message):
        if attack == "extractor":
            dt_extraction(counted(make_oracle(target, session)), low, high, 0.25)
        else:
            api_attack_extract(counted(label_only_oracle(target, session)), low, high, 0.25)
    assert calls == []


class TestParetoFrontier:
    def test_non_dominated_sorted(self):
        points = [
            SweepPoint(1.0, 10, 0.5, 0.0, "ok"),
            SweepPoint(0.5, 20, 0.4, 0.0, "ok"),   # dominated
            SweepPoint(0.25, 30, 0.9, 0.0, "ok"),
            SweepPoint(0.125, 25, 0.9, 0.0, "ok"),  # same fidelity, cheaper
            SweepPoint(0.0625, 40, 1.0, 0.0, "ok"),
        ]
        frontier = pareto_frontier(points)
        queries = [p.queries for p in frontier]
        fidelities = [p.fidelity for p in frontier]
        assert queries == sorted(queries)
        assert fidelities == sorted(fidelities)
        for i, a in enumerate(frontier):
            for b in frontier[i + 1:]:
                assert b.queries > a.queries and b.fidelity > a.fidelity


class TestReports:
    def test_empty_sweep_emits_headers(self, tmp_path):
        json_path, csv_path = emit_report({"extractor": SweepResult(attack="extractor")},
                                          tmp_path)
        assert json.loads(json_path.read_text())["attacks"]["extractor"]["points"] == []
        assert csv_path.read_text().splitlines() == \
            ["attack,epsilon,queries,fidelity,status"]

    def test_json_round_trip_exact(self, tmp_path, example_target):
        rows = boundary_margin_inputs(example_target, 100, seed=1)
        result = pareto_sweep(example_target, "extractor", eps_start=1.0,
                              eval_inputs=rows, seed=1)
        emit_report({"extractor": result}, tmp_path)
        loaded = load_report(tmp_path / "report.json")
        assert sweep_to_dict(loaded["extractor"]) == sweep_to_dict(result)

    def test_paired_report_keyed_by_attack(self, tmp_path, example_target):
        inputs = boundary_margin_inputs(example_target, 100, seed=1)
        results = {
            "extractor": pareto_sweep(example_target, "extractor", eps_start=0.5,
                                      eval_inputs=inputs, seed=1),
            "baseline": pareto_sweep(example_target, "baseline", eps_start=0.5,
                                     eval_inputs=inputs, seed=1, plateau_limit=3),
        }
        json_path, csv_path = emit_report(results, tmp_path)
        doc = json.loads(json_path.read_text())
        assert set(doc["attacks"]) == {"extractor", "baseline"}
        rows = csv_path.read_text().splitlines()
        assert any(r.startswith("extractor,") for r in rows[1:])
        assert any(r.startswith("baseline,") for r in rows[1:])

    def test_missing_attacks_key_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{}")
        with pytest.raises(SchemaError, match="attacks"):
            load_report(path)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", "100"), ("queries", 12.0), ("queries", True), ("fidelity", None),
        ("status", "done"), ("wall_time", "0.5"),
    ])
    def test_mistyped_point_field_rejected(self, field, value):
        good = {"epsilon": 1.0, "queries": 12, "fidelity": 0.5, "status": "ok",
                "wall_time": 0.5}
        bad = {**good, field: value}
        with pytest.raises(SchemaError, match=f'^point 1: "{field}" must be') as exc:
            sweep_from_dict({"attack": "x", "points": [good, bad]})
        assert exc.value.field == field
