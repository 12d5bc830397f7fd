import copy
import math
import random
import sys
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
    dt_extraction,
    find_threshold,
    set_feature,
)
from treestealer.trees import (
    DecisionTree,
    assign_ids_breadth_first,
    generate_random_tree,
    trace_from_text,
    tree_equal,
)

from conftest import deep_chain, inner, leaf, random_grid_corpus, replay_trace, stump


def brackets(node, m):
    """Per feature, the node's (largest right-going, smallest left-going)
    value, None where no input went that way; a node whose feature is
    known reports that feature alone."""
    if node.feature is not None:
        return {node.feature: (node.t_right, node.t_left)}
    return {f: (max((x[f] for x in node.went_right), default=None),
                min((x[f] for x in node.went_left), default=None))
            for f in range(m)}


def scripted_ask(bits):
    """An ``ask`` stand-in answering each probe with the next of ``bits``
    at the node's depth; it records the probes it was sent."""
    probes, answers = [], iter(bits)

    def ask(x, phase, node):
        probes.append(x)
        return (0,) * node.depth + (next(answers),)

    return ask, probes


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
        tree = DecisionTree(root=leaf(7), ranges_low=[0], ranges_high=[1])
        result = extract(tree, 0.5)
        assert result.queries == 1
        assert result.shadow.root.value == 7
        assert not result.shadow.backlog


class TestAddNodes:
    def test_first_path_builds_two_inner_nodes_and_a_leaf(self):
        shadow = ShadowTree()
        add_nodes(shadow, 0, (0, 0), [7, 3])
        assert [n.id for n in shadow.backlog] == [0, 1]
        nodes = list(shadow.nodes())
        assert len(nodes) == 3
        assert shadow.root.left.left.value == 0
        assert shadow.root.explore_input == [7, 3]

    def test_replay_is_idempotent(self):
        shadow = ShadowTree()
        for _ in range(2):
            add_nodes(shadow, 0, (0, 0), [7, 3])
        assert len(list(shadow.nodes())) == 3
        assert brackets(shadow.root, 2) == {0: (None, 7), 1: (None, 3)}

    def test_backlog_collects_inner_nodes_in_first_visit_order(self):
        tree = generate_random_tree(2, 2, 4, [(0, 8)] * 2, 0.5, seed=6)
        shadow = ShadowTree()
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
        shadow = ShadowTree()
        add_nodes(shadow, 5, (0,), [1.0])
        with pytest.raises(ChannelInconsistencyError):
            add_nodes(shadow, 6, (0,), [1.0])

    def test_finished_node_bounds_freeze(self):
        shadow = ShadowTree()
        add_nodes(shadow, 0, (0, 0), [7, 3])
        add_nodes(shadow, 1, (1,), [2, 3])
        root, child = shadow.root, shadow.root.left
        set_feature(root, 0)
        root.threshold = 5.0
        # Each would tighten an unfinished root's bracket on feature 0.
        add_nodes(shadow, 0, (0, 0), [6, 2])
        add_nodes(shadow, 1, (1,), [4, 2])
        assert brackets(root, 2) == {0: (2, 7)}
        assert brackets(child, 2) == {0: (None, 6), 1: (None, 2)}

    def test_walk_leaves_a_resolved_bracket_alone(self):
        # Once the feature is known, only the threshold search narrows
        # the bracket, even before the threshold is set.
        shadow = ShadowTree()
        add_nodes(shadow, 0, (0,), [7, 3])
        add_nodes(shadow, 1, (1,), [2, 3])
        root = shadow.root
        set_feature(root, 0)
        add_nodes(shadow, 0, (0,), [6, 3])
        add_nodes(shadow, 1, (1,), [4, 3])
        assert (root.t_right, root.t_left) == (2, 7)

    def test_trace_ending_at_inner_node_raises(self):
        shadow = ShadowTree()
        add_nodes(shadow, 5, (0, 1), [1.0])
        for trace in ((), (0,)):  # the root, then its left child: both inner nodes
            with pytest.raises(ChannelInconsistencyError):
                add_nodes(shadow, 5, trace, [1.0])


    def test_trace_past_a_leaf_raises(self):
        shadow = ShadowTree()
        add_nodes(shadow, 5, (0,), [1.0])
        with pytest.raises(ChannelInconsistencyError):
            add_nodes(shadow, 5, (0, 1), [1.0])


class TestUpdateThresholdRanges:
    """The walk collects, driven by one-decision traces (the root takes
    bit 0 to its left leaf, label 0, and bit 1 to its right leaf, label
    1); ``set_feature`` resolves the bracket, and ``find_threshold``,
    answered by a script, narrows it."""

    def test_initializes_whole_vector(self):
        shadow = ShadowTree()
        x = [7, 3]
        add_nodes(shadow, 0, (0,), x)
        node = shadow.root
        assert node.went_left == [x] and node.went_left[0] is x
        assert brackets(node, 2) == {0: (None, 7), 1: (None, 3)}
        # Any feature can still be resolved from the whole input.
        add_nodes(shadow, 1, (1,), [2, -1])
        set_feature(node, 1)
        assert brackets(node, 2) == {1: (-1, 3)}
        assert node.went_left is None and node.went_right is None

    def test_left_minimizes_elementwise(self):
        # Each left answer lowers t_left to its probe; the right one
        # raises t_right.
        searched = {0: ([3.25, 2.625, 2.3125, 2.46875], (2.3125, 2.46875)),
                    1: ([0.5, -0.75, -1.375, -1.0625, -1.21875], (-1.375, -1.21875))}
        for feature, (values, bracket) in searched.items():
            shadow = ShadowTree()
            add_nodes(shadow, 0, (0,), [7, 3])
            node = shadow.root
            add_nodes(shadow, 0, (0,), [4.5, 3])
            add_nodes(shadow, 1, (1,), [2, -2])
            assert brackets(node, 2) == {0: (2, 4.5), 1: (-2, 3)}
            set_feature(node, feature)
            assert node.t_left == [4.5, 3][feature]
            ask, probes = scripted_ask([0, 0, 1, 0, 0])
            find_threshold(node, ask, 0.25)
            assert [x[feature] for x in probes] == values
            assert (node.t_right, node.t_left) == bracket

    def test_equal_value_leaves_right_bound_unchanged(self):
        shadow = ShadowTree()
        add_nodes(shadow, 1, (1,), [2.0])
        node = shadow.root
        add_nodes(shadow, 1, (1,), [2.0])
        assert brackets(node, 1) == {0: (2.0, None)}
        # Two adjacent doubles: the midpoint rounds to t_right, a right
        # answer there leaves it unchanged, and the search stops at it.
        add_nodes(shadow, 0, (0,), [math.nextafter(2.0, math.inf)])
        set_feature(node, 0)
        ask, probes = scripted_ask([1])
        find_threshold(node, ask, 1e-300)
        assert probes == [[2.0]]
        assert node.t_right == 2.0 and node.threshold == 2.0

    def test_empty_bracket_stops_the_search(self):
        shadow = ShadowTree()
        add_nodes(shadow, 0, (0,), [2.0])
        add_nodes(shadow, 1, (1,), [2.0])
        node = shadow.root
        set_feature(node, 0)
        ask, _ = scripted_ask([0])
        with pytest.raises(ChannelInconsistencyError, match=r"bracket \[2, 2\) .* empty"):
            find_threshold(node, ask, 0.25)

    def test_feature_without_both_sides_raises(self):
        shadow = ShadowTree()
        add_nodes(shadow, 1, (1,), [2.0])
        with pytest.raises(ChannelInconsistencyError, match="without both bounds"):
            set_feature(shadow.root, 0)


class TestCrafting:
    def _shadow_with_root(self):
        shadow = ShadowTree()
        add_nodes(shadow, 0, (0, 0), [7, 3])
        return shadow

    def test_root_probe_toggles_to_minimum(self):
        shadow = self._shadow_with_root()
        shadow.root.box = [(None, None)] * 2
        x = craft_inp_feature(shadow.root, [2, -2], [7, 3], 0, 0.5)
        assert x == [2, 3]

    def test_threshold_probe_is_bracket_midpoint(self):
        # The worked example's root: bracket [2, 7) on feature 0, probes
        # answered left, left, right, right, with only feature 0 moved.
        shadow = self._shadow_with_root()
        root = shadow.root
        add_nodes(shadow, 1, (1,), [2, 3])
        set_feature(root, 0)
        ask, probes = scripted_ask([0, 0, 1, 1])
        find_threshold(root, ask, 0.5)
        assert probes == [[4.5, 3], [3.25, 3], [2.625, 3], [2.9375, 3]]
        assert (root.t_right, root.t_left) == (2.9375, 3.25)
        assert root.threshold == 3.09375
        assert root.explore_input == [7, 3]

    def test_duplicated_feature_probe_value(self):
        # Ancestor checks on the same feature went left at -0.90625
        # (depth 1) and right at 1.90625 (depth 2); the node itself went
        # left. The probe lands just above the largest left threshold.
        shadow = ShadowTree()
        add_nodes(shadow, 3, (1, 0, 1, 0), [2.0, 0.5])
        node = shadow.root.right.left.right
        node.box = [(None, None), (-0.90625, 1.90625)]
        x = craft_inp_feature(node, [2, -2], [7, 3], 1, 0.5)
        assert x == [2.0, -0.40625]

    def test_sub_ulp_epsilon_still_leaves_the_box_edge(self):
        # Below the float spacing at the edge, the nudge is one ulp, on
        # the side the node did not take.
        shadow = ShadowTree()
        add_nodes(shadow, 3, (1, 0, 1, 0), [2.0, 0.5])
        node = shadow.root.right.left.right
        node.box = [(None, None), (-0.90625, 1.90625)]
        x = craft_inp_feature(node, [2, -2], [7, 3], 1, 1e-20)
        assert x == [2.0, math.nextafter(-0.90625, math.inf)]
        node = shadow.root.right.left
        node.box = [(None, None), (-0.90625, 1.90625)]
        x = craft_inp_feature(node, [2, -2], [7, 3], 1, 1e-20)
        assert x == [2.0, math.nextafter(1.90625, -math.inf)]

    def test_untested_feature_toggles_to_opposite_limit(self):
        shadow = self._shadow_with_root()
        node = shadow.root.left
        node.box = [(None, None), (None, None)]
        x = craft_inp_feature(node, [2, -2], [7, 3], 1, 0.5)
        assert x == [7, -2]


def clamp_target():
    """Root ``x0 > 7.5``, its left child ``x1 > 4``, both features on [0, 8]."""
    root = inner(0, 7.5, inner(1, 4.0, leaf(0), leaf(1)), leaf(2))
    assign_ids_breadth_first(root)
    return DecisionTree(root=root, ranges_low=[0.0, 0.0], ranges_high=[8.0, 8.0])


@pytest.mark.parametrize("epsilon, probe", [(1.0, [8.0, 8.0]), (0.25, [7.875, 8.0])])
def test_feature_probe_past_the_range_end_is_clamped(epsilon, probe):
    # Node 1 lies left of the root, so its x0 probe is the extracted root
    # threshold plus epsilon: 7.5 + 1 overshoots the range end and is
    # clamped to 8, while 7.625 + 0.25 stays inside.
    target = clamp_target()
    result = extract(target, epsilon)
    probes = [x for x, _, _, phase, node in result.records
              if phase == extraction.PHASE_FEATURE and node.id == 1]
    assert probes[0] == probe
    shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
    assert tree_equal(target, shadow, epsilon / 2).equal


@pytest.mark.parametrize("epsilon", [1.0, 2.0])
def test_every_probe_stays_inside_the_ranges(epsilon):
    # At coarse resolutions the feature-phase nudge often overshoots a
    # range end. Every query, feature probes included, must still lie in
    # the domain, also in runs that end in a typed error. The corpus is
    # acceptance criterion 2's.
    corpus = random_grid_corpus(200, seed=2024, m_range=(2, 8), depth_range=(2, 9))
    outside = []
    for target in corpus:
        oracle = make_oracle(target, ChannelSession(ChannelModel(), seed=0))
        low, high = target.ranges_low, target.ranges_high

        def ask(x):
            if not all(lo <= v <= hi for v, lo, hi in zip(x, low, high)):
                outside.append(list(x))
            return oracle(x)

        try:
            dt_extraction(ask, low, high, epsilon)
        except TreeStealerError:
            pass
    assert outside == []


class TestRandomRecovery:
    def test_exact_recovery_on_grid_corpus(self):
        corpus = random_grid_corpus(30, seed=77, m_range=(2, 5), depth_range=(2, 6))
        epsilon = 0.25
        for target in corpus:
            result = extract(target, epsilon)
            shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
            diff = tree_equal(target, shadow, epsilon / 2)
            assert diff.equal, diff.first_mismatch

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 4), depth=st.integers(2, 6),
           passive=st.booleans())
    def test_backlog_fifo_means_ancestors_complete_first(self, seed, m, depth, passive):
        # Each inner node's box, rebuilt from its finished ancestors along
        # its path: per feature, the largest threshold the path went left
        # of and the smallest it went right of.
        target = generate_random_tree(m, 2, depth, [(0, 8)] * m, 0.5, seed=seed)
        shadow = extract(target, 0.25, passive_tracking=passive).shadow
        assert not shadow.backlog
        for node in shadow.nodes():
            if node.value is not None:
                continue
            box = [(None, None)] * m
            ancestor = shadow.root
            for bit in node.path:
                f, t = ancestor.feature, ancestor.threshold
                low, high = box[f]
                if bit == 0:
                    box[f] = (t if low is None else max(low, t), high)
                else:
                    box[f] = (low, t if high is None else min(high, t))
                ancestor = ancestor.right if bit else ancestor.left
            assert ancestor is node
            assert node.box == box


def shadow_state(shadow):
    """Every node's feature, observations, brackets, children and value,
    and the backlog order."""
    nodes = [(n.id, n.feature, n.went_left, n.went_right, n.t_left, n.t_right,
              n.left and n.left.id, n.right and n.right.id, n.value)
             for n in shadow.nodes()]
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
        ancestor = shadow.root
        for bit in start.path:
            assert (ancestor.threshold is not None and ancestor.left is not None
                    and ancestor.right is not None and ancestor.value is None), \
                f"node {start.id} probed while ancestor {ancestor.id} is unfinished"
            ancestor = ancestor.right if bit else ancestor.left
        assert ancestor is start
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
                          target.ranges_high, 0.25)
        except TreeStealerError:
            assert flip_noise > 0
    assert resumed > 100


def test_shadow_deeper_than_the_recursion_limit_walks_and_converts():
    target = deep_chain(1200)
    shadow = extract(target, 0.25).shadow
    nodes = list(shadow.nodes())
    assert len(nodes) == 2401
    # Pre-order, left child first: the spine's inner nodes come first.
    assert [n.depth for n in nodes[:1201]] == list(range(1201))
    assert tree_equal(target, shadow.to_decision_tree([0.0], [1201.0]), 0.125).equal
    nodes[1199].threshold = None
    with pytest.raises(ChannelInconsistencyError, match=f"shadow node {nodes[1199].id} "):
        shadow.to_decision_tree([0.0], [1201.0])


def test_empty_shadow_does_not_convert():
    with pytest.raises(ChannelInconsistencyError, match="^shadow tree is empty$"):
        ShadowTree().to_decision_tree([0.0], [1.0])


def test_range_whose_width_overflows_extracts_exact():
    # [-DBL_MAX, DBL_MAX] is wider than the largest double; the search
    # must still halve the bracket rather than probe at inf and take the
    # overflowed midpoint for a bracket with no double inside.
    target = stump(-sys.float_info.max, sys.float_info.max)
    session = ChannelSession(ChannelModel(), seed=0)
    result = dt_extraction(make_oracle(target, session), target.ranges_low,
                           target.ranges_high, 0.25)
    shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
    assert tree_equal(target, shadow, 0.125).equal
    assert result.queries == 1029


class TestResolutionTooCoarse:
    def _tight_tree(self):
        # Path thresholds on feature 0 separated by less than epsilon.
        root = inner(0, 4.0,
                     inner(0, 4.2, leaf(0), leaf(1)),
                     leaf(2))
        assign_ids_breadth_first(root)
        return DecisionTree(root=root, ranges_low=[0.0], ranges_high=[8.0])

    def test_sub_epsilon_spacing_aborts_instead_of_corrupting(self):
        target = self._tight_tree()
        with pytest.raises((PathDeviationError, FeatureNotFoundError)):
            extract(target, 0.5)

    def test_halved_epsilon_succeeds(self):
        target = self._tight_tree()
        result = extract(target, 0.05)
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
        target = DecisionTree(root=root, ranges_low=[0.0, 0.0], ranges_high=[8.0, 8.0])
        oracle = make_oracle(target, ChannelSession(ChannelModel(), seed=0))
        inputs = []

        def flip_child_on_query_8(x):
            inputs.append(list(x))
            label, trace = oracle(x)
            if len(inputs) == 8:
                trace = (trace[0], trace[1] ^ 1)
            return label, trace

        with pytest.raises(ChannelInconsistencyError, match="bracket .* is empty"):
            dt_extraction(flip_child_on_query_8, target.ranges_low,
                          target.ranges_high, 0.25)
        assert inputs[7] == [0.25, 8.0]


class TestAblation:
    def test_tracking_never_costs_more(self):
        corpus = random_grid_corpus(12, seed=5, m_range=(2, 4), depth_range=(3, 6))
        for target in corpus:
            tracked = extract(target, 0.25)
            ablated = extract(target, 0.25, passive_tracking=False)
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
        assert node.t_right <= truth.threshold < node.t_left
        assert node.t_left - node.t_right <= epsilon
        assert abs(node.threshold - truth.threshold) <= epsilon / 2
        assert probes[node.id, "feature"] <= m
        width = target.ranges_high[f] - target.ranges_low[f]
        assert 1 <= probes[node.id, "threshold"] <= math.ceil(math.log2(width / epsilon))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 4), depth=st.integers(2, 6),
       passive=st.booleans())
def test_bracket_is_the_transcript_extremes(seed, m, depth, passive):
    # Rebuilt from the transcript alone: the entries up to the node's
    # last threshold probe whose trace passes through the node's position
    # (only the exploring one before the node's own probes when the
    # tracking is ablated), smallest left-going and largest right-going
    # value of the node's feature.
    target = generate_random_tree(m, 2, depth, [(0, 8)] * m, 0.5, seed=seed)
    result = extract(target, 0.25, passive_tracking=passive)
    transcript = result.transcript
    traces = [trace_from_text(e.trace) for e in transcript]
    for node in result.shadow.nodes():
        if node.value is not None:
            continue
        d, path = node.depth, node.explore_trace[:node.depth]
        f = replay_trace(target, path).feature
        own = [i for i, e in enumerate(transcript) if e.target_node_id == node.id]
        last = max(i for i in own if transcript[i].phase == "threshold")
        through = [i for i in range(last + 1)
                   if len(traces[i]) > d and traces[i][:d] == path]
        if not passive:
            through = through[:1] + [i for i in through if i >= own[0]]
        xs = [(traces[i][d], transcript[i].input[f]) for i in through]
        expected = (max(v for bit, v in xs if bit == 1), min(v for bit, v in xs if bit == 0))
        assert (node.t_right, node.t_left) == expected


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


@pytest.mark.parametrize("passive", [True, False], ids=["tracked", "ablated"])
def test_transcript_is_read_from_the_records(passive):
    # The transcript is built from the one record per query on each read:
    # indices run 1..n, rereading gives equal entries, and an entry's
    # input is the very list its record holds.
    for target in random_grid_corpus(6, seed=9, m_range=(2, 4), depth_range=(3, 6)):
        result = extract(target, 0.25, passive_tracking=passive)
        transcript = result.transcript
        assert [e.query_index for e in transcript] == list(range(1, result.queries + 1))
        assert result.transcript == transcript
        for entry, (x, label, _, phase, node) in zip(transcript, result.records):
            assert entry.input is x
            assert (entry.label, entry.phase) == (label, phase)
            assert entry.target_node_id == (None if node is None else node.id)


@pytest.mark.parametrize("passive", [True, False], ids=["tracked", "ablated"])
def test_explore_input_is_the_recorded_input(passive):
    # A node keeps the input of the query that created it, the first one
    # whose trace reached its position, as the very list the transcript
    # recorded for that query.
    for target in random_grid_corpus(6, seed=9, m_range=(2, 4), depth_range=(3, 6)):
        result = extract(target, 0.25, passive_tracking=passive)
        transcript = result.transcript
        traces = [trace_from_text(e.trace) for e in transcript]
        for node in result.shadow.nodes():
            d, path = node.depth, node.explore_trace[:node.depth]
            first = next(i for i, t in enumerate(traces) if len(t) >= d and t[:d] == path)
            assert node.explore_input is transcript[first].input
            assert node.explore_trace == traces[first]
