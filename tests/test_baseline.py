import sys

import pytest

from treestealer.baseline import RuleSetModel, api_attack_extract
from treestealer.channel import ChannelModel, ChannelSession, label_only_oracle, make_oracle
from treestealer.evaluate import boundary_margin_inputs, fidelity
from treestealer.extraction import dt_extraction
from treestealer.trees import DecisionTree, assign_ids_breadth_first, generate_random_tree

from conftest import inner, leaf, predict_label, random_grid_corpus, stump


def run_baseline(target, epsilon, max_queries=1_000_000):
    session = ChannelSession(ChannelModel(), seed=0)
    return api_attack_extract(label_only_oracle(target, session), target.ranges_low,
                              target.ranges_high, epsilon, max_queries)


def test_depth_one_boundary_within_six_queries():
    root = inner(0, 4.0, leaf(0), leaf(1))
    assign_ids_breadth_first(root)
    target = DecisionTree(root=root, ranges_low=[0.0], ranges_high=[8.0])
    result = run_baseline(target, epsilon=0.5)
    assert result.queries <= 6
    inputs = boundary_margin_inputs(target, 500, seed=1)
    assert fidelity(target, result.model, inputs) == 1.0


def test_range_whose_width_overflows_maps_both_regions():
    # The face bisection across [-DBL_MAX, DBL_MAX] must not stop at the
    # overflowed midpoint and map region 1 as empty.
    result = run_baseline(stump(-sys.float_info.max, sys.float_info.max), epsilon=0.25)
    assert not result.exhausted
    regions = {region.label: region for region in result.model.regions}
    assert 4.0 - 0.25 <= regions[0].low[0] <= 4.0
    assert 4.0 - 0.25 <= regions[1].high[0] <= 4.0
    assert regions[0].high == [sys.float_info.max]


def test_distinct_leaf_trees_fidelity_and_dominance():
    corpus = random_grid_corpus(10, seed=31, m_range=(2, 4), depth_range=(3, 5),
                                width=16.0)
    corpus = [t for t in corpus if len(t.leaves()) >= 4]
    assert len(corpus) >= 8
    epsilon = 0.125
    for target in corpus:
        base = run_baseline(target, epsilon)
        inputs = boundary_margin_inputs(target, 500, seed=2)
        assert fidelity(target, base.model, inputs) == 1.0

        session = ChannelSession(ChannelModel(), seed=0)
        ext = dt_extraction(make_oracle(target, session), target.ranges_low,
                            target.ranges_high, epsilon)
        assert ext.queries < base.queries


def test_duplicate_labels_degrade_fidelity_without_error():
    # Outer leaves share label 0; the rule-set merges their cells.
    root = inner(0, 2.0,
                 inner(0, 6.0, leaf(0), leaf(1)),
                 leaf(0))
    assign_ids_breadth_first(root)
    target = DecisionTree(root=root, ranges_low=[0.0], ranges_high=[8.0])
    result = run_baseline(target, epsilon=0.25)
    inputs = boundary_margin_inputs(target, 500, seed=3)
    fid = fidelity(target, result.model, inputs)
    assert fid < 1.0


def test_budget_exhaustion_flags_partial_result():
    target = generate_random_tree(3, 3, 5, [(0, 8)] * 3, 0.5, seed=44)
    result = run_baseline(target, epsilon=0.01, max_queries=20)
    assert result.exhausted
    assert result.queries <= 20
    assert result.model.regions  # partial but usable


def test_query_count_monotone_in_epsilon():
    corpus = random_grid_corpus(8, seed=13, m_range=(2, 3), depth_range=(2, 4))
    for target in corpus:
        epsilon = 0.5
        previous = run_baseline(target, epsilon).queries
        for _ in range(3):
            epsilon /= 2
            current = run_baseline(target, epsilon).queries
            assert current >= previous
            previous = current


def test_rule_set_serialization_round_trip():
    target = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=3)
    result = run_baseline(target, epsilon=0.25)
    doc = result.model.to_dict()
    again = RuleSetModel.from_dict(doc)
    inputs = boundary_margin_inputs(target, 200, seed=4)
    assert all(predict_label(again, x) == predict_label(result.model, x) for x in inputs)


def test_argument_validation():
    target = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=3)
    with pytest.raises(ValueError, match="epsilon"):
        run_baseline(target, epsilon=0.0)
    with pytest.raises(ValueError, match="max_queries"):
        run_baseline(target, epsilon=0.5, max_queries=0)


@pytest.mark.parametrize("epsilon, budget", [(0.5, 1_000_000), (0.01, 1_000_000),
                                             (0.125, 40), (2.0, 7)])
def test_oracle_is_asked_once_per_distinct_input(epsilon, budget):
    # Every answer is cached, so the call count is the query count, and
    # an input handed to the oracle is never changed afterwards.
    corpus = random_grid_corpus(4, seed=13, m_range=(2, 3), depth_range=(2, 4))
    for target in corpus:
        session = ChannelSession(ChannelModel(), seed=0)
        oracle = label_only_oracle(target, session)
        received = []

        def counting(x):
            received.append((x, list(x)))
            return oracle(x)

        result = api_attack_extract(counting, target.ranges_low, target.ranges_high,
                                    epsilon, max_queries=budget)
        asked = [tuple(copy) for _, copy in received]
        assert len(received) == result.queries == session.queries_observed
        assert len(set(asked)) == len(asked)
        assert all(list(x) == copy for x, copy in received)
        if result.exhausted:
            assert result.queries == budget
        else:
            assert result.queries <= budget
