import copy
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestealer import extraction
from treestealer.channel import ChannelModel, ChannelSession, make_oracle
from treestealer.errors import (
    ChannelInconsistencyError,
    FeatureNotFoundError,
    PathDeviationError,
    TreeStealerError,
)
from treestealer.extraction import (
    ShadowTree,
    add_nodes,
    craft_inp_feature,
    craft_inp_threshold,
    dt_extraction,
    path_box,
    update_threshold_ranges,
)
from treestealer.trees import (
    DecisionTree,
    assign_ids_breadth_first,
    generate_random_tree,
    tree_equal,
)

from conftest import inner, leaf, random_grid_corpus, replay_trace


def extract(target, epsilon, **kwargs):
    session = ChannelSession(ChannelModel(), seed=0)
    return dt_extraction(make_oracle(target, session), target.ranges_low,
                         target.ranges_high, epsilon, **kwargs)


class TestWorkedExample:
    """The reference extraction transcript at resolution 0.5."""

    def test_full_transcript_and_recovery(self, example_target):
        started = time.perf_counter()
        result = extract(example_target, 0.5)
        elapsed = time.perf_counter() - started
        inputs = [entry.input for entry in result.transcript]

        # Initial exploration and the root node's probes.
        assert inputs[0] == [7, 3]
        assert result.transcript[0].label == 0
        assert result.transcript[0].trace == "LL"
        assert inputs[1] == [2.0, 3.0]
        assert inputs[2] == [4.5, 3.0]
        assert inputs[3] == [3.25, 3.0]
        assert inputs[4] == [2.625, 3.0]
        assert inputs[5] == [2.9375, 3.0]

        shadow = result.shadow
        assert shadow.root.feature == 0
        assert shadow.root.threshold == 3.09375

        # Left child: rule out feature 0 via the recorded root threshold,
        # then toggle feature 1 to its minimum.
        assert inputs[6] == [3.59375, 3.0]
        assert inputs[7] == [7, -2.0]
        assert shadow.root.left.feature == 1

        # The thrice-checked feature on the right-hand path.
        dup = shadow.root.right.left.right
        assert dup.feature == 1
        # Left at -0.90625 (depth 1), right at 1.90625 (depth 2).
        assert dup.box[1] == (-0.90625, 1.90625)
        dup_probe = [e for e in result.transcript
                     if e.target_node_id == dup.id and e.phase == "feature"]
        assert dup_probe[-1].input[1] == -0.40625

        recovered = result.to_decision_tree(example_target.ranges_low,
                                            example_target.ranges_high)
        assert tree_equal(example_target, recovered, 0.25).equal
        assert elapsed < 1.0

    def test_creation_order_matches_reference_numbering(self, example_target):
        result = extract(example_target, 0.5)
        # Node ids count every shadow node in exploration order; the
        # duplicated-feature node is the ninth one created.
        dup = result.shadow.root.right.left.right
        assert dup.id == 8

    def test_single_leaf_target_needs_one_query(self):
        tree = DecisionTree(root=leaf(7), num_features=1,
                            ranges_low=[0], ranges_high=[1])
        result = extract(tree, 0.5)
        assert result.queries == 1
        assert result.shadow.root.value == 7
        assert not result.shadow.backlog


class TestAddNodes:
    def test_first_path_builds_two_inner_nodes_and_a_leaf(self):
        shadow = ShadowTree(2)
        add_nodes(shadow, 0, (0, 0), [7, 3])
        assert [n.id for n in shadow.backlog] == [0, 1]
        nodes = list(shadow.nodes())
        assert len(nodes) == 3
        assert shadow.root.left.left.value == 0
        assert shadow.root.explore_input == [7, 3]

    def test_replay_is_idempotent(self):
        shadow = ShadowTree(2)
        for _ in range(2):
            add_nodes(shadow, 0, (0, 0), [7, 3])
        assert len(list(shadow.nodes())) == 3
        assert shadow.root.t_left == [7, 3]
        assert shadow.root.t_right is None

    def test_backlog_collects_inner_nodes_in_first_visit_order(self):
        tree = generate_random_tree(2, 2, 4, [(0, 8)] * 2, 0.5, seed=6)
        shadow = ShadowTree(2)
        rng = random.Random(0)
        from treestealer.trees import infer_with_trace
        seen = 0
        for _ in range(200):
            x = [rng.uniform(0, 8), rng.uniform(0, 8)]
            label, trace = infer_with_trace(tree, x)
            add_nodes(shadow, label, trace, x)
        assert len(shadow.backlog) == len(tree.inner_nodes())
        ids = [n.id for n in shadow.backlog]
        assert ids == sorted(ids)

    def test_conflicting_leaf_label_raises(self):
        shadow = ShadowTree(1)
        add_nodes(shadow, 5, (0,), [1.0])
        with pytest.raises(ChannelInconsistencyError):
            add_nodes(shadow, 6, (0,), [1.0])

    def test_finished_node_bounds_freeze(self):
        shadow = ShadowTree(2)
        add_nodes(shadow, 0, (0, 0), [7, 3])
        root, child = shadow.root, shadow.root.left
        root.feature, root.threshold = 0, 5.0
        add_nodes(shadow, 0, (0, 0), [6, 2])
        add_nodes(shadow, 1, (1,), [4, 2])
        assert (root.t_left, root.t_right) == ([7, 3], None)
        assert child.t_left == [6, 2]

    def test_trace_ending_at_inner_node_raises(self):
        shadow = ShadowTree(1)
        add_nodes(shadow, 5, (0, 1), [1.0])
        for trace in ((), (0,)):  # the root, then its left child: both inner nodes
            with pytest.raises(ChannelInconsistencyError):
                add_nodes(shadow, 5, trace, [1.0])


    def test_trace_past_a_leaf_raises(self):
        shadow = ShadowTree(1)
        add_nodes(shadow, 5, (0,), [1.0])
        with pytest.raises(ChannelInconsistencyError):
            add_nodes(shadow, 5, (0, 1), [1.0])


class TestUpdateThresholdRanges:
    def test_initializes_whole_vector(self):
        shadow = ShadowTree(2)
        node = shadow.new_node(None, 0, [7, 3], (0,))
        update_threshold_ranges(node, 0, [7, 3])
        assert node.t_left == [7, 3]
        assert node.t_right is None

    def test_left_minimizes_elementwise(self):
        shadow = ShadowTree(2)
        node = shadow.new_node(None, 0, [7, 3], (0,))
        update_threshold_ranges(node, 0, [7, 3])
        update_threshold_ranges(node, 0, [4.5, 3])
        assert node.t_left == [4.5, 3]

    def test_equal_value_leaves_right_bound_unchanged(self):
        shadow = ShadowTree(1)
        node = shadow.new_node(None, 0, [2.0], (1,))
        update_threshold_ranges(node, 1, [2.0])
        update_threshold_ranges(node, 1, [2.0])
        assert node.t_right == [2.0]


class TestCrafting:
    def _shadow_with_root(self):
        shadow = ShadowTree(2)
        add_nodes(shadow, 0, (0, 0), [7, 3])
        return shadow

    def test_root_probe_toggles_to_minimum(self):
        shadow = self._shadow_with_root()
        shadow.root.box = path_box(shadow.root, 2)
        x = craft_inp_feature(shadow.root, [7, 3], [2, -2], 0, 0.5)
        assert x == [2, 3]

    def test_threshold_probe_is_bracket_midpoint(self):
        shadow = self._shadow_with_root()
        root = shadow.root
        root.feature = 0
        update_threshold_ranges(root, 1, [2, 3])
        x = craft_inp_threshold(root)
        assert x == [4.5, 3]
        update_threshold_ranges(root, 0, [3.25, 3])
        update_threshold_ranges(root, 1, [2.625, 3])
        assert craft_inp_threshold(root) == [2.9375, 3]

    def test_duplicated_feature_probe_value(self):
        # Ancestor checks on the same feature went left at -0.90625
        # (depth 1) and right at 1.90625 (depth 2); the node itself went
        # left. The probe lands just above the largest left threshold.
        shadow = ShadowTree(2)
        add_nodes(shadow, 3, (1, 0, 1, 0), [2.0, 0.5])
        node = shadow.root.right.left.right
        node.box = [(None, None), (-0.90625, 1.90625)]
        x = craft_inp_feature(node, [7, 3], [2, -2], 1, 0.5)
        assert x == [2.0, -0.40625]

    def test_untested_feature_toggles_to_opposite_limit(self):
        shadow = self._shadow_with_root()
        node = shadow.root.left
        node.box = [(None, None), (None, None)]
        x = craft_inp_feature(node, [7, 3], [2, -2], 1, 0.5)
        assert x == [7, -2]


class TestRandomRecovery:
    def test_exact_recovery_on_grid_corpus(self):
        corpus = random_grid_corpus(30, seed=77, m_range=(2, 5), depth_range=(2, 6))
        epsilon = 0.25
        for target in corpus:
            result = extract(target, epsilon, record_transcript=False)
            shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
            diff = tree_equal(target, shadow, epsilon / 2)
            assert diff.equal, diff.first_mismatch

    def test_backlog_fifo_means_ancestors_complete_first(self):
        # path_box raises if a node's parent is incomplete at dequeue
        # time, so a clean run is itself the evidence.
        target = generate_random_tree(3, 3, 6, [(0, 8)] * 3, 0.5, seed=15)
        result = extract(target, 0.25, record_transcript=False)
        assert not result.shadow.backlog


def shadow_state(shadow):
    """Every node's brackets, children and value, and the backlog order."""
    nodes = [(n.id, n.t_left, n.t_right, n.left and n.left.id, n.right and n.right.id,
              n.value) for n in shadow.nodes()]
    return nodes, [n.id for n in shadow.backlog]


@pytest.mark.parametrize("flip_noise", [0.0, 0.01])
def test_resumed_walk_matches_a_walk_from_the_root(monkeypatch, flip_noise):
    """A probe that re-reaches its node grows the shadow from that node;
    a walk from the root over a copy must end in the same shadow, the
    same backlog and the same error, if any."""
    walk = extraction.add_nodes
    resumed = 0

    def compared(shadow, label, trace, x, start=None):
        nonlocal resumed
        if start is None:
            return walk(shadow, label, trace, x)
        ancestor = start.parent
        while ancestor is not None:
            assert (ancestor.threshold is not None and ancestor.left is not None
                    and ancestor.right is not None and ancestor.value is None), \
                f"node {start.id} probed while ancestor {ancestor.id} is unfinished"
            ancestor = ancestor.parent
        twin = copy.deepcopy(shadow)
        errors = []
        for tree, begin in ((twin, None), (shadow, start)):
            try:
                walk(tree, label, trace, x, begin)
                errors.append(None)
            except ChannelInconsistencyError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        assert shadow_state(twin) == shadow_state(shadow)
        resumed += 1
        if errors[1] is not None:
            raise ChannelInconsistencyError(errors[1])

    monkeypatch.setattr(extraction, "add_nodes", compared)
    for seed, target in enumerate(random_grid_corpus(20, seed=7)):
        session = ChannelSession(ChannelModel(flip_noise=flip_noise), seed=seed)
        try:
            dt_extraction(make_oracle(target, session), target.ranges_low,
                          target.ranges_high, 0.25, record_transcript=False)
        except TreeStealerError:
            assert flip_noise > 0
    assert resumed > 100


class TestResolutionTooCoarse:
    def _tight_tree(self):
        # Path thresholds on feature 0 separated by less than epsilon.
        root = inner(0, 4.0,
                     inner(0, 4.2, leaf(0), leaf(1)),
                     leaf(2))
        assign_ids_breadth_first(root)
        return DecisionTree(root=root, num_features=1,
                            ranges_low=[0.0], ranges_high=[8.0])

    def test_sub_epsilon_spacing_aborts_instead_of_corrupting(self):
        target = self._tight_tree()
        with pytest.raises((PathDeviationError, FeatureNotFoundError)):
            extract(target, 0.5, record_transcript=False)

    def test_halved_epsilon_succeeds(self):
        target = self._tight_tree()
        result = extract(target, 0.05, record_transcript=False)
        shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
        assert tree_equal(target, shadow, 0.025).equal


class TestNoisyFeatureProbe:
    def test_empty_bracket_raises(self):
        # Root on feature 0; its right child checks feature 1. Flipping the
        # child's bit on its first feature probe (query 8, feature 0 at
        # 0.25 against an exploring value of 0) gives the child feature 0
        # with the bracket [0.25, 0), which no consistent trace can leave.
        root = inner(0, 4.0, leaf(0),
                     inner(1, 4.0, leaf(1), leaf(2)))
        assign_ids_breadth_first(root)
        target = DecisionTree(root=root, num_features=2,
                              ranges_low=[0.0, 0.0], ranges_high=[8.0, 8.0])
        oracle = make_oracle(target, ChannelSession(ChannelModel(), seed=0))
        inputs = []

        def flip_child_on_query_8(x):
            inputs.append(list(x))
            result = oracle(x)
            if len(inputs) == 8:
                result.trace = (result.trace[0], result.trace[1] ^ 1)
            return result

        with pytest.raises(ChannelInconsistencyError, match="bracket .* is empty"):
            dt_extraction(flip_child_on_query_8, target.ranges_low,
                          target.ranges_high, 0.25)
        assert inputs[7] == [0.25, 8.0]


class TestAblation:
    def test_tracking_never_costs_more(self):
        corpus = random_grid_corpus(12, seed=5, m_range=(2, 4), depth_range=(3, 6))
        for target in corpus:
            tracked = extract(target, 0.25, record_transcript=False)
            ablated = extract(target, 0.25, passive_tracking=False,
                              record_transcript=False)
            assert ablated.queries >= tracked.queries
            shadow = ablated.to_decision_tree(target.ranges_low, target.ranges_high)
            assert tree_equal(target, shadow, 0.125).equal


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 4), depth=st.integers(2, 6),
       passive=st.booleans())
def test_bracket_holds_the_true_threshold(seed, m, depth, passive):
    # Left means x[f] > t, so every left observation bounds t from above
    # strictly and every right one from below inclusively. A finished
    # bracket is frozen at the width where its search stopped. The
    # recovered threshold is the bracket's midpoint, and each node's
    # probes stay within the per-phase query bounds.
    epsilon = 0.25
    target = generate_random_tree(m, 2, depth, [(0, 8)] * m, 0.5, seed=seed)
    result = extract(target, epsilon, passive_tracking=passive)
    probes = Counter((e.target_node_id, e.phase) for e in result.transcript)
    for node in result.shadow.nodes():
        if node.value is not None:
            continue
        truth = replay_trace(target, node.explore_trace[:node.depth])
        f = node.feature
        assert f == truth.feature
        assert node.t_right[f] <= truth.threshold < node.t_left[f]
        assert node.t_left[f] - node.t_right[f] <= epsilon
        assert abs(node.threshold - truth.threshold) <= epsilon / 2
        assert probes[node.id, "feature"] <= m
        width = target.ranges_high[f] - target.ranges_low[f]
        assert 1 <= probes[node.id, "threshold"] <= math.ceil(math.log2(width / epsilon))


class TestDeterminism:
    def test_identical_runs_identical_transcripts(self, example_target):
        a = extract(example_target, 0.5)
        b = extract(example_target, 0.5)
        assert [e.to_json() for e in a.transcript] == [e.to_json() for e in b.transcript]


class TestTranscript:
    def test_phases_and_schema(self, example_target, tmp_path):
        result = extract(example_target, 0.5)
        assert result.transcript[0].phase == "explore"
        phases = {e.phase for e in result.transcript}
        assert phases == {"explore", "feature", "threshold"}
        path = tmp_path / "t.jsonl"
        result.write_transcript(path)
        import json
        lines = path.read_text().splitlines()
        assert len(lines) == result.queries
        first = json.loads(lines[0])
        assert set(first) == {"query_index", "input", "label", "trace",
                              "phase", "target_node_id"}
