import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestealer.channel import ChannelModel, ChannelSession, make_oracle
from treestealer.errors import (
    ChannelInconsistencyError,
    InfeasibleGridError,
    MalformedTreeError,
    SchemaError,
)
from treestealer.extraction import dt_extraction
from treestealer.trees import (
    DecisionTree,
    TreeNode,
    assign_ids_breadth_first,
    generate_random_tree,
    infer,
    infer_with_trace,
    load_tree,
    min_path_separation,
    save_tree,
    trace_from_text,
    trace_text,
    tree_equal,
    tree_from_dict,
    tree_to_dict,
)

from conftest import build_example_target, inner, leaf, leaf_depths, replay_trace


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

    def test_infeasible_grid(self):
        with pytest.raises(InfeasibleGridError):
            generate_random_tree(1, 4, 4, [(0, 1)], 0.25, seed=0)

    def test_leaf_depths_within_band(self):
        tree = generate_random_tree(3, 3, 5, [(0, 8)] * 3, 0.5, seed=13)
        assert all(3 <= d <= 5 for d in leaf_depths(tree))


class TestTreeEqual:
    def test_reflexive(self, example_target):
        assert tree_equal(example_target, example_target, 0.0).equal

    def test_leaf_label_mismatch_located(self, example_target):
        other = build_example_target()
        other.root.left.left.value = 99
        diff = tree_equal(example_target, other, 0.0)
        assert not diff.equal
        assert "LL" in diff.first_mismatch and "99" in diff.first_mismatch

    def test_threshold_tolerance(self, example_target):
        other = build_example_target()
        other.root.threshold = 3.094 + 0.2
        assert tree_equal(example_target, other, 0.25).equal
        assert not tree_equal(example_target, other, 0.1).equal


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
        doc = tree_to_dict(generate_random_tree(2, 2, 2, [(0, 8)] * 2, 0.5, seed=1))
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
        with pytest.raises(SchemaError) as info:
            tree_from_dict(doc)
        assert str(info.value) == message
        assert info.value.field == next(s for s in reversed(path) if isinstance(s, str))

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
