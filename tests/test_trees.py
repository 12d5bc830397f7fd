import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestealer.channel import ChannelModel, ChannelSession, make_oracle
from treestealer.errors import (
    ChannelInconsistencyError,
    DimensionMismatchError,
    InfeasibleGridError,
    MalformedTreeError,
    SchemaError,
    TreeSizeError,
    TreeStealerError,
)
from treestealer.extraction import dt_extraction
from treestealer import trees
from treestealer.trees import (
    LEFT,
    MAX_TREE_NODES,
    RIGHT,
    DecisionTree,
    TreeNode,
    _below,
    assign_ids_breadth_first,
    generate_random_tree,
    infer,
    infer_with_trace,
    input_rows,
    load_tree,
    min_path_separation,
    save_tree,
    trace_from_text,
    trace_text,
    tree_equal,
    tree_from_dict,
    tree_to_dict,
)

from conftest import (
    build_example_target,
    generate_random_tree_reference,
    inner,
    leaf,
    leaf_depths,
    replay_trace,
    stack_depth,
)


class TestInference:
    def test_example_initial_input_goes_leftmost(self, example_target):
        label, trace = infer_with_trace(example_target, [7, 3])
        assert label == 0
        assert trace == (0, 0)
        assert infer(example_target, [7, 3]) == 0

    def test_single_leaf_tree(self):
        tree = DecisionTree(root=leaf(42), ranges_low=[0], ranges_high=[1])
        label, trace = infer_with_trace(tree, [0.5])
        assert label == 42
        assert len(trace) == 0

    def test_boundary_input_goes_right(self):
        root = inner(0, 5.0, leaf(1), leaf(2))
        assign_ids_breadth_first(root)
        tree = DecisionTree(root=root, ranges_low=[0], ranges_high=[10])
        label, trace = infer_with_trace(tree, [5.0])
        assert trace == (1,)
        assert label == 2

    def test_dimension_mismatch(self, example_target):
        with pytest.raises(Exception, match="features"):
            infer(example_target, [1.0])

    def test_infer_agrees_with_traced_inference(self):
        tree = generate_random_tree(4, 2, 6, [(0, 8)] * 4, 0.5, seed=11)
        rng = random.Random(3)
        for _ in range(1000):
            x = [rng.uniform(0, 8) for _ in range(4)]
            label, trace = infer_with_trace(tree, x)
            assert infer(tree, x) == label
            reached = replay_trace(tree, trace)
            assert reached.is_leaf and reached.value == label

    def test_trace_length_within_leaf_depth_band(self):
        tree = generate_random_tree(3, 2, 6, [(0, 8)] * 3, 0.5, seed=5)
        depths = leaf_depths(tree)
        rng = random.Random(9)
        for _ in range(200):
            x = [rng.uniform(0, 8) for _ in range(3)]
            _, trace = infer_with_trace(tree, x)
            assert min(depths) <= len(trace) <= max(depths)


class TestBranchTrace:
    def test_text_round_trip(self):
        assert trace_text((0, 1, 0)) == "LRL"
        assert trace_from_text("LRL") == (0, 1, 0)
        assert trace_from_text("") == ()

    @pytest.mark.parametrize("length", range(9))
    def test_text_matches_letters(self, length):
        for bits in itertools.product((0, 1), repeat=length):
            text = trace_text(bits)
            assert text == "".join("LR"[b] for b in bits)
            assert trace_from_text(text) == bits

    def test_from_text_rejects_other_letters(self):
        for text in ("LX", "lr", "0"):
            with pytest.raises(ValueError):
                trace_from_text(text)

    @given(st.lists(st.integers(0, 1), max_size=32))
    def test_text_round_trip_property(self, bits):
        trace = tuple(bits)
        assert trace_from_text(trace_text(trace)) == trace


class TestGenerateRandomTree:
    def test_forced_grid_shape(self):
        tree = generate_random_tree(2, 2, 2, [(0, 1), (0, 1)], 0.25, seed=1)
        assert len(tree.inner_nodes()) == 3
        assert len(tree.leaves()) == 4
        assert all(n.threshold in (0.25, 0.5, 0.75) for n in tree.inner_nodes())

    def test_deterministic_under_seed(self):
        a = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=7)
        b = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=7)
        assert json.dumps(tree_to_dict(a)) == json.dumps(tree_to_dict(b))

    def test_path_separation_exceeds_grid(self):
        tree = generate_random_tree(3, 3, 5, [(0, 8)] * 3, 0.5, seed=7)

        def walk(node, path):
            if node.is_leaf:
                return
            for f, t in path:
                if f == node.feature:
                    assert abs(t - node.threshold) > 0.5
            walk(node.left, path + [(node.feature, node.threshold)])
            walk(node.right, path + [(node.feature, node.threshold)])

        walk(tree.root, [])
        # Range-limit distance may be exactly one grid step.
        assert min_path_separation(tree) >= 0.5 - 1e-9

    def test_leaf_values_distinct(self):
        tree = generate_random_tree(2, 2, 4, [(0, 8)] * 2, 0.5, seed=2)
        values = [l.value for l in tree.leaves()]
        assert len(values) == len(set(values))
        regression = generate_random_tree(2, 2, 4, [(0, 8)] * 2, 0.5, seed=2,
                                          regression=True)
        rvalues = [l.value for l in regression.leaves()]
        assert all(isinstance(v, float) for v in rvalues)
        assert len(rvalues) == len(set(rvalues))

    @pytest.mark.parametrize("grid", [0.0, -0.5, math.nan])
    def test_non_positive_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="threshold_grid must be positive"):
            generate_random_tree(1, 1, 1, [(0, 1)], grid, seed=0)

    def test_infeasible_grid(self):
        with pytest.raises(InfeasibleGridError):
            generate_random_tree(1, 4, 4, [(0, 1)], 0.25, seed=0)

    def test_range_without_an_inner_grid_point_rejected(self):
        # 0.75 is the only grid point past 0, and it lies within one step of 1.
        with pytest.raises(InfeasibleGridError,
                           match="^no grid point strictly inside some feature range$"):
            generate_random_tree(1, 1, 2, [(0, 1)], 0.75, seed=0)

    @pytest.mark.parametrize("features, depths, ranges, message", [
        (1, (0, 2), [(0, 8)], r"need 1 <= depth_min <= depth_max"),
        (1, (3, 2), [(0, 8)], r"need 1 <= depth_min <= depth_max"),
        (2, (1, 2), [(0, 8)], r"one \(low, high\) pair per feature required"),
        (1, (1, 2), [(0, math.inf)], r"invalid feature range \(0, inf\)"),
        (2, (1, 2), [(0, 8), (8, 8)], r"invalid feature range \(8, 8\)"),
    ], ids=["depth-min-0", "depth-band-inverted", "too-few-ranges", "infinite-range",
            "empty-range"])
    def test_bad_recipe_arguments_rejected(self, features, depths, ranges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_random_tree(features, *depths, ranges, 0.5, seed=0)

    def test_leaf_depths_within_band(self):
        tree = generate_random_tree(3, 3, 5, [(0, 8)] * 3, 0.5, seed=13)
        assert all(3 <= d <= 5 for d in leaf_depths(tree))

    @pytest.mark.parametrize("split_prob", [-0.1, 1.5, math.nan])
    def test_split_prob_outside_the_unit_interval_rejected(self, split_prob):
        with pytest.raises(ValueError, match=r"^split_prob must lie in \[0, 1\]"):
            generate_random_tree(1, 1, 2, [(0, 8)], 0.5, seed=0, split_prob=split_prob)

    @pytest.mark.parametrize("ranges, grid, message", [
        ([(0, 8)], 1e-300, "feature range (0, 8) spans 8e+300 grid steps"),
        ([(0, 1e308)], 1e-300, "feature range (0, 1e+308) spans inf grid steps"),
        ([(0, 8), (0, 2.0 ** 54)], 1, "feature range (0, 1.8014398509481984e+16) "
                                      "spans 1.80144e+16 grid steps"),
    ])
    def test_more_than_2_53_grid_steps_rejected(self, ranges, grid, message):
        with pytest.raises(InfeasibleGridError) as raised:
            generate_random_tree(len(ranges), 1, 2, ranges, grid, seed=0)
        assert str(raised.value) == message + ", more than 2 ** 53"

    def test_2_53_grid_steps_still_build(self):
        # lo + k * grid stays exact up to k = 2 ** 53.
        tree = generate_random_tree(1, 1, 2, [(0, 2.0 ** 53)], 1, seed=0)
        assert all(t.threshold == int(t.threshold) for t in tree.inner_nodes())

    def test_depth_min_forcing_more_nodes_than_the_bound_raises_at_once(self):
        depth_min = MAX_TREE_NODES.bit_length()  # 2 ** (depth_min + 1) - 1 > bound
        with pytest.raises(TreeSizeError, match=rf"^depth_min {depth_min} forces .* "
                                                rf"more than MAX_TREE_NODES = {MAX_TREE_NODES}$"):
            generate_random_tree(2, depth_min, depth_min, [(0, 2.0 ** 40)] * 2, 1, seed=0)

    def test_node_count_may_reach_the_bound_but_not_pass_it(self, monkeypatch):
        # split_prob 1 on a wide grid fills depth 2: exactly 7 nodes.
        recipe = (2, 1, 2, [(0, 64)] * 2, 1, 0)
        monkeypatch.setattr(trees, "MAX_TREE_NODES", 7)
        assert len(list(generate_random_tree(*recipe, split_prob=1.0).nodes())) == 7
        monkeypatch.setattr(trees, "MAX_TREE_NODES", 6)
        with pytest.raises(TreeSizeError, match="^random tree passes MAX_TREE_NODES = 6 nodes$"):
            generate_random_tree(*recipe, split_prob=1.0)

    def test_tree_deeper_than_the_recursion_limit_builds(self):
        # A critical split probability on a wide grid: this seed's tree is
        # 152 levels deep on 1857 nodes, equal to the recursive builder's.
        recipe = (8, 1, 1000, [(0.0, 1e12)] * 8, 1.0, 891)
        expected = tree_to_dict(generate_random_tree_reference(*recipe, split_prob=0.5))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 100)
        try:
            tree = generate_random_tree(*recipe, split_prob=0.5)
        finally:
            sys.setrecursionlimit(limit)
        assert tree.depth() == 152
        assert tree_to_dict(tree) == expected


def _outcome(build, *args, **kwargs):
    """A built tree as its dict, or the type and message of what it raised."""
    try:
        return tree_to_dict(build(*args, **kwargs))
    except TreeStealerError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 8),
       depths=st.integers(1, 5).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 10))),
       width=st.sampled_from([4, 8, 16, 64]), grid=st.sampled_from([0.25, 0.5, 1]),
       split_prob=st.sampled_from([0.15, 0.5, 0.6, 0.9]), regression=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1))
def test_stack_builder_matches_the_recursive_reference(m, depths, width, grid, split_prob,
                                                        regression, seed):
    # depth_min up to 5 runs the mandatory-split randint draw; narrow
    # ranges and deep minimums exhaust the grid and raise.
    recipe = (m, *depths, [(0.0, float(width))] * m, grid, seed)
    options = {"regression": regression, "split_prob": split_prob}
    assert _outcome(generate_random_tree, *recipe, **options) == \
        _outcome(generate_random_tree_reference, *recipe, **options)


def test_below_replays_the_stdlib_draws():
    # shuffle, choice and randint draw through Random._randbelow; _below
    # must take the same bits, so both streams end in the same state.
    lengths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 65, 1000, 2 ** 53, 2 ** 53 + 1]
    for seed in range(200):
        theirs, mine = random.Random(seed), random.Random(seed)
        bits = mine.getrandbits
        for n in lengths:
            if n <= 1000:
                expected = list(range(n))
                theirs.shuffle(expected)
                order = list(range(n))
                for i in range(n - 1, 0, -1):
                    j = _below(bits, i + 1)
                    order[i], order[j] = order[j], order[i]
                assert order == expected, (seed, n)
            assert _below(bits, n) == theirs.choice(range(n)), (seed, n)
            assert _below(bits, 3) - 1 == theirs.randint(-1, 1), (seed, n)
        assert mine.random() == theirs.random(), seed


class TestTreeEqual:
    def test_reflexive(self, example_target):
        assert tree_equal(example_target, example_target, 0.0).equal

    def test_leaf_label_mismatch_located(self, example_target):
        other = build_example_target()
        other.root.left.left.value = 99
        diff = tree_equal(example_target, other, 0.0)
        assert not diff.equal
        assert "LL" in diff.first_mismatch and "99" in diff.first_mismatch

    def test_feature_counts_compared_first(self, example_target):
        other = DecisionTree(root=leaf(0), ranges_low=[0, 0, 0], ranges_high=[1, 1, 1])
        assert tree_equal(example_target, other) == (False, "num_features 2 vs 3")

    def test_threshold_tolerance(self, example_target):
        other = build_example_target()
        other.root.threshold = 3.094 + 0.2
        assert tree_equal(example_target, other, 0.25).equal
        assert not tree_equal(example_target, other, 0.1).equal


class TestInputRows:
    def test_a_non_numeric_cell_raises_numpys_value_error(self):
        with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
            input_rows([[1.0, "a"], [2.0, 3.0]])

    def test_one_dimensional_inputs_are_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"2-D array of rows, got shape \(2,\)"):
            input_rows([1.0, 2.0])


def _assert_schema_fault(path, value, message):
    """Set the field at ``path`` of a valid tree document to ``value`` and
    check that loading it raises ``SchemaError`` with ``message`` and the
    field's name."""
    doc = tree_to_dict(generate_random_tree(2, 2, 2, [(0, 8)] * 2, 0.5, seed=1))
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    with pytest.raises(SchemaError) as info:
        tree_from_dict(doc)
    assert str(info.value) == message
    assert info.value.field == next(s for s in reversed(path) if isinstance(s, str))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        tree = generate_random_tree(3, 2, 4, [(0, 8)] * 3, 0.5, seed=3)
        path = tmp_path / "t.json"
        save_tree(tree, path)
        again = load_tree(path)
        assert tree_equal(tree, again, 0.0).equal

    def test_missing_root_key(self, tmp_path):
        path = tmp_path / "broken.json"
        doc = tree_to_dict(build_example_target())
        del doc["root"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="root"):
            load_tree(path)

    def test_hand_written_example_tree(self, tmp_path, example_target):
        path = tmp_path / "example.json"
        save_tree(example_target, path)
        loaded = load_tree(path)
        assert infer(loaded, [7, 3]) == 0

    def test_leaf_value_types_survive(self, tmp_path):
        tree = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=4,
                                    regression=True)
        path = tmp_path / "r.json"
        save_tree(tree, path)
        again = load_tree(path)
        assert all(isinstance(l.value, float) for l in again.leaves())
        assert tree_equal(tree, again, 0.0).equal

    def test_node_that_is_its_own_child_is_rejected(self):
        doc = tree_to_dict(build_example_target())
        doc["nodes"][0]["left"] = doc["root"]
        with pytest.raises(MalformedTreeError, match="duplicate node id"):
            tree_from_dict(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("nodes", 0, "feature"), 1.7, 'node 0: "feature" must be an integer, got 1.7'),
        (("nodes", 0, "feature"), True, 'node 0: "feature" must be an integer, got true'),
        (("nodes", 0, "feature"), "1", 'node 0: "feature" must be an integer, got "1"'),
        (("nodes", 0, "id"), 0.5, 'node 0: "id" must be an integer, got 0.5'),
        (("nodes", 0, "threshold"), "4.5", 'node 0: "threshold" must be a number, got "4.5"'),
        (("nodes", 0, "threshold"), "abc", 'node 0: "threshold" must be a number, got "abc"'),
        (("nodes", 0, "threshold"), True, 'node 0: "threshold" must be a number, got true'),
        (("nodes", 0, "left"), 1.0, 'node 0: "left" must be an integer, got 1.0'),
        (("nodes", 0, "right"), True, 'node 0: "right" must be an integer, got true'),
        (("num_features",), 2.9, '"num_features" must be an integer, got 2.9'),
        (("root",), 0.0, '"root" must be an integer, got 0.0'),
        (("ranges_low", 0), "0", '"ranges_low" must be a number, got "0"'),
        (("ranges_high", 1), True, '"ranges_high" must be a number, got true'),
    ], ids=["feature-float", "feature-bool", "feature-string", "id-float", "threshold-numeral",
            "threshold-word", "threshold-bool", "left-float", "right-bool",
            "num-features-float", "root-float", "ranges-low-string", "ranges-high-bool"])
    def test_mistyped_numbers_are_rejected_not_coerced(self, path, value, message):
        _assert_schema_fault(path, value, message)

    @pytest.mark.parametrize("path, value, message", [
        (("nodes", 2, "id"), 1, "duplicate node id 1"),
        (("nodes", 0, "left"), 99, "node 0: unknown left child 99"),
        (("root",), 99, '"root" references unknown node 99'),
    ], ids=["duplicate-id", "unknown-child", "unknown-root"])
    def test_references_to_missing_or_repeated_ids_are_rejected(self, path, value, message):
        _assert_schema_fault(path, value, message)

    def test_feature_count_must_match_the_ranges(self):
        doc = tree_to_dict(build_example_target())
        doc["num_features"] = 3
        with pytest.raises(SchemaError, match='"num_features" is 3, but "ranges_low" has 2') \
                as info:
            tree_from_dict(doc)
        assert info.value.field == "num_features"

    def test_feature_count_is_the_number_of_ranges(self):
        assert DecisionTree(root=leaf(1), ranges_low=[0, 0], ranges_high=[1, 1]).num_features == 2
        with pytest.raises(MalformedTreeError, match="one entry per feature"):
            DecisionTree(root=leaf(1), ranges_low=[0, 0], ranges_high=[1])

    @pytest.mark.parametrize("node, message", [
        (TreeNode(value=1, feature=0), "leaf 0 carries inner-node fields"),
        (TreeNode(feature=0, left=leaf(0), right=leaf(1)), "inner node 0 lacks feature/threshold"),
        (TreeNode(threshold=0.5, left=leaf(0), right=leaf(1)),
         "inner node 0 lacks feature/threshold"),
        (TreeNode(feature=1, threshold=0.5, left=leaf(0), right=leaf(1)),
         r"node 0: feature 1 outside \[0, 1\)"),
        (TreeNode(feature=0, threshold=1.5, left=leaf(0), right=leaf(1)),
         r"node 0: threshold 1.5 outside range \[0.0, 1.0\]"),
    ], ids=["leaf-with-feature", "missing-threshold", "missing-feature", "feature-out-of-range",
            "threshold-out-of-range"])
    def test_validation_rejects_malformed_nodes(self, node, message):
        assign_ids_breadth_first(node)
        with pytest.raises(MalformedTreeError, match=message):
            DecisionTree(root=node, ranges_low=[0], ranges_high=[1])

    def test_validation_names_the_first_bad_node_in_pre_order(self):
        # Node 3 (under the left child) comes first in pre-order, node 2
        # (the right child) first breadth first; both carry a stray feature.
        bad = TreeNode(value=2, feature=0)
        root = TreeNode(feature=0, threshold=0.5,
                        left=TreeNode(feature=0, threshold=0.75, left=bad, right=leaf(3)),
                        right=TreeNode(value=1, feature=0))
        assign_ids_breadth_first(root)
        assert (root.right.id, bad.id) == (2, 3)
        with pytest.raises(MalformedTreeError, match="^leaf 3 carries inner-node fields$"):
            DecisionTree(root=root, ranges_low=[0], ranges_high=[1])

    def test_validation_rejects_dangling_child(self):
        node = TreeNode(feature=0, threshold=0.5)
        node.left = leaf(1)
        with pytest.raises(MalformedTreeError):
            DecisionTree(root=node, ranges_low=[0], ranges_high=[1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_trace_replay_property(seed, data):
    tree = generate_random_tree(2, 1, 4, [(0, 8), (0, 8)], 0.5, seed=seed)
    x = [data.draw(st.floats(0, 8, allow_nan=False)) for _ in range(2)]
    label, trace = infer_with_trace(tree, x)
    node = tree.root
    for bit in trace:
        assert not node.is_leaf
        expected = 0 if x[node.feature] > node.threshold else 1
        assert bit == expected
        node = node.left if bit == 0 else node.right
    assert node.is_leaf and node.value == label


def _inference_outcome(walk, tree, x):
    """The label one inference walk returns, or the type and message it raised."""
    try:
        return "label", walk(tree, x)
    except TreeStealerError as exc:
        return type(exc), str(exc)


def _traced_label(tree, x):
    return infer_with_trace(tree, x)[0]


@st.composite
def inference_cases(draw):
    """A random grid tree, maybe with one child cut off after validation,
    and an input (a list or a tuple, maybe of the wrong width) whose
    coordinates often sit exactly on a threshold of their feature."""
    tree = draw(walked_trees())
    inner_nodes = tree.inner_nodes()
    if inner_nodes and draw(st.booleans()):
        setattr(draw(st.sampled_from(inner_nodes)), draw(st.sampled_from(["left", "right"])),
                None)
    width = tree.num_features + draw(st.sampled_from([0, 0, 0, -1, 1]))
    x = []
    for f in range(width):
        on_threshold = sorted({n.threshold for n in inner_nodes if n.feature == f})
        edges = [0.0, 8.0, -math.inf, math.inf, math.nan] + on_threshold
        x.append(draw(st.one_of(st.floats(-1.0, 9.0), st.sampled_from(edges))))
    return tree, draw(st.sampled_from([list, tuple]))(x)


class TestInferAgreesWithTrace:
    @settings(max_examples=300, deadline=None)
    @given(inference_cases())
    def test_same_label_or_same_error(self, case):
        tree, x = case
        kind, label = outcome = _inference_outcome(infer, tree, x)
        assert outcome == _inference_outcome(_traced_label, tree, x)
        if kind == "label":
            # Left means x[f] > t, so a coordinate on a threshold goes right.
            node = tree.root
            for bit in infer_with_trace(tree, x)[1]:
                assert bit == (LEFT if x[node.feature] > node.threshold else RIGHT)
                node = node.left if bit == LEFT else node.right
            assert node.value == label

    @pytest.mark.parametrize("container", [list, tuple])
    def test_input_on_a_threshold_goes_right(self, container):
        root = inner(1, 5.0, leaf("left"), inner(0, 2.0, leaf("right-left"), leaf("right")))
        assign_ids_breadth_first(root)
        tree = DecisionTree(root=root, ranges_low=[0, 0], ranges_high=[10, 10])
        x = container([2.0, 5.0])
        assert infer(tree, x) == "right"
        assert infer_with_trace(tree, x) == ("right", (RIGHT, RIGHT))

    @pytest.mark.parametrize("walk", [infer, _traced_label])
    def test_both_walks_raise_the_same_errors(self, walk, example_target):
        with pytest.raises(DimensionMismatchError, match="input has 3 features"):
            walk(example_target, (1.0, 2.0, 3.0))
        example_target.root.left = None
        with pytest.raises(MalformedTreeError, match="dangling child during inference"):
            walk(example_target, [7.0, 3.0])


def preorder_reference(node, depth=0):
    """(node, depth) pairs in pre-order, left child first, by recursion."""
    if node is None:
        return []
    return [(node, depth)] + preorder_reference(node.left, depth + 1) \
        + preorder_reference(node.right, depth + 1)


def first_mismatch_reference(na, nb, tol, path=""):
    """``tree_equal``'s first mismatch, found by recursion."""
    where = f"node at path '{path or 'root'}'"
    if na.is_leaf != nb.is_leaf:
        return f"{where}: leaf vs inner"
    if na.is_leaf:
        if type(na.value) is not type(nb.value) or na.value != nb.value:
            return f"{where}: leaf value {na.value!r} vs {nb.value!r}"
        return None
    if na.feature != nb.feature:
        return f"{where}: feature {na.feature} vs {nb.feature}"
    if abs(na.threshold - nb.threshold) > tol:
        return f"{where}: threshold {na.threshold} vs {nb.threshold}"
    return (first_mismatch_reference(na.left, nb.left, tol, path + "L")
            or first_mismatch_reference(na.right, nb.right, tol, path + "R"))


def change_node(node, how):
    """Make ``node`` differ: a new leaf value, or for an inner node a new
    feature, a moved threshold or a leaf in its place."""
    if node.is_leaf:
        node.value = ("changed", 1.5, -1)[how]
    elif how == 0:
        node.feature += 1
    elif how == 1:
        node.threshold += 0.75
    else:
        node.feature = node.threshold = node.left = node.right = None
        node.value = -1


@st.composite
def walked_trees(draw):
    m = draw(st.integers(1, 4))
    return generate_random_tree(m, 1, draw(st.integers(1, 9)), [(0.0, 8.0)] * m, 0.5,
                                seed=draw(st.integers(0, 2 ** 31 - 1)))


class TestWalkOrder:
    @settings(max_examples=60, deadline=None)
    @given(walked_trees())
    def test_walks_follow_the_recursive_preorder(self, tree):
        walk = preorder_reference(tree.root)
        assert [id(n) for n in tree.nodes()] == [id(n) for n, _ in walk]
        assert [id(n) for n in tree.inner_nodes()] == [id(n) for n, _ in walk if not n.is_leaf]
        assert [id(n) for n in tree.leaves()] == [id(n) for n, _ in walk if n.is_leaf]
        assert tree.depth() == max(d for _, d in walk)
        nodes = sorted(({"id": n.id, "feature": n.feature, "threshold": n.threshold,
                         "left": n.left and n.left.id, "right": n.right and n.right.id,
                         "value": n.value} for n, _ in walk), key=lambda d: d["id"])
        assert tree_to_dict(tree)["nodes"] == nodes

    @settings(max_examples=80, deadline=None)
    @given(walked_trees(), st.data())
    def test_first_mismatch_matches_the_recursive_compare(self, tree, data):
        other = tree_from_dict(tree_to_dict(tree))
        nodes = [n for n, _ in preorder_reference(other.root)]
        for _ in range(data.draw(st.integers(1, 3))):
            change_node(data.draw(st.sampled_from(nodes)), data.draw(st.integers(0, 2)))
        for a, b in ((tree, other), (other, tree)):
            diff = tree_equal(a, b, 0.5)
            expected = first_mismatch_reference(a.root, b.root, 0.5)
            assert diff.first_mismatch == expected
            assert diff.equal == (expected is None)

    @settings(max_examples=40, deadline=None)
    @given(walked_trees(), st.data())
    def test_unfinished_shadow_names_its_first_incomplete_node(self, tree, data):
        session = ChannelSession(ChannelModel(), seed=0)
        shadow = dt_extraction(make_oracle(tree, session), tree.ranges_low,
                               tree.ranges_high, 0.25).shadow
        walk = [n for n, _ in preorder_reference(shadow.root)]
        assert [id(n) for n in shadow.nodes()] == [id(n) for n in walk]
        inner_nodes = [n for n in walk if n.value is None]
        if not inner_nodes:
            return
        for node in data.draw(st.lists(st.sampled_from(inner_nodes), min_size=1, max_size=3)):
            node.threshold = None
        first = next(n for n in walk if n.value is None and n.threshold is None)
        with pytest.raises(ChannelInconsistencyError,
                           match=f"^shadow node {first.id} is incomplete"):
            shadow.to_decision_tree(tree.ranges_low, tree.ranges_high)
