"""What the benchmark under ``bench/`` reads from the package by name.

The traced run rebinds each attribute in ``tracer.REBINDS``, and the
workloads build their sessions with ``strict=True``, read a session's
mispredict and query counters and its model's register capacity, score
shadows with ``fidelity`` on a dataset's input rows and sweep the
baseline with ``pareto_sweep``. The corpus builds its grid targets with
``generate_random_tree`` and its iris target with ``train_cart``. A
rename, deletion or changed result here would otherwise only show as a
crash of ``bench/run.py``.
"""
import importlib
from pathlib import Path

import pytest

from treestealer import channel, evaluate, extraction, trees
from treestealer.cart import train_cart
from treestealer.channel import (
    PHR_SGX,
    STEP_COUNTER_SEV,
    ChannelModel,
    ChannelSession,
    observe,
)
from treestealer.phr import PHR_CAPACITY
from treestealer.trees import generate_random_tree, tree_to_dict

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


@pytest.fixture
def corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("corpus")


def test_corpus_recipe_builds_the_generators_tree(corpus):
    # Every grid and register-edge target of the workloads is a Recipe.
    recipe = corpus.Recipe(3, 2, 5, 8.0, 0.5, 11, 0.5)
    expected = generate_random_tree(3, 2, 5, [(0.0, 8.0)] * 3, 0.5, 11, split_prob=0.5)
    assert tree_to_dict(recipe.build()) == tree_to_dict(expected)


def test_corpus_iris_target_labels_its_dataset(corpus):
    # extract-fast's CART target: trained on the bundled iris rows, it
    # gives every row its own label.
    dataset, tree, epsilon = corpus.iris_target()
    assert tree_to_dict(tree) == tree_to_dict(train_cart(dataset.rows))
    assert sum(trees.infer(tree, x) == y for x, y in dataset.rows) == len(dataset.rows) == 150
    assert epsilon == min(0.08, 0.8 * trees.min_path_separation(tree)) > 0


def test_every_rebound_attribute_exists(tracer):
    missing = [(owner.__name__, attr)
               for owner, attr, _ in tracer.REBINDS if attr not in owner.__dict__]
    assert missing == []


def test_oracle_made_while_traced_counts_every_query(tracer):
    # The workloads make their oracle inside the traced request, so the
    # traced run's query count is the rebound channel.observe's call count.
    target = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=1)
    session = ChannelSession(ChannelModel(), seed=0)
    with tracer.Tracer() as traced:
        oracle = channel.make_oracle(target, session)
        result = extraction.dt_extraction(oracle, target.ranges_low, target.ranges_high, 0.25)
    assert result.queries > 10
    assert traced.self_times()["channel.observe"]["calls"] == result.queries


def test_oracle_made_before_tracing_counts_every_query(tracer):
    # The oracle looks channel.observe up on each query, so tracing that
    # starts after the oracle is made still sees all of its queries.
    target = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=1)
    session = ChannelSession(ChannelModel(), seed=0)
    oracle = channel.make_oracle(target, session)
    with tracer.Tracer() as traced:
        result = extraction.dt_extraction(oracle, target.ranges_low, target.ranges_high, 0.25)
    assert result.queries > 10
    assert traced.self_times()["channel.observe"]["calls"] == result.queries


def test_oracle_answers_with_a_pair(tracer):
    # The workloads' extraction unpacks each answer as (label, trace),
    # whether the oracle was made before tracing started or inside it.
    target = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=1)
    x = [4.0, 2.5, 6.0]
    before = channel.make_oracle(target, ChannelSession(ChannelModel(), seed=0))
    with tracer.Tracer():
        inside = channel.make_oracle(target, ChannelSession(ChannelModel(), seed=0))
        answers = [before(x), inside(x)]
    for answer in answers:
        assert type(answer) is tuple and len(answer) == 2
        assert answer == trees.infer_with_trace(target, x)


def test_extraction_result_fields_the_workloads_read(monkeypatch):
    # The extraction workloads count queries and tally the transcript's
    # phases and distinct traces outside the timed run.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    target = generate_random_tree(3, 2, 5, [(0, 8)] * 3, 0.5, seed=1)
    oracle = channel.make_oracle(target, ChannelSession(ChannelModel(), seed=0))
    result = extraction.dt_extraction(oracle, target.ranges_low, target.ranges_high, 0.25)
    assert type(result.queries) is int and result.queries == len(result.transcript)
    for entry in result.transcript:
        assert entry.phase in workloads.PHASES
        assert type(entry.trace) is str and set(entry.trace) <= {"L", "R"}


def test_traced_register_query_records_each_phr_layer_once(tracer):
    # The channel reaches the register code through the phr module, and
    # register_image reaches encode_inference by its module-global name,
    # so the rebound functions see every call of a cold register query.
    channel._register_image.cache_clear()
    channel._decode_register.cache_clear()
    session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
    target = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=1)
    with tracer.Tracer() as traced:
        observe(target, [4.0, 4.0], session)
    spans = traced.self_times()
    layers = ("phr.encode_inference", "phr.extract_via_collisions", "phr.decode_branch_trace")
    assert [spans.get(name, {}).get("calls", 0) for name in layers] == [1, 1, 1]
    assert traced.readout_positions == PHR_CAPACITY


def test_traced_step_query_records_each_step_layer_once(tracer):
    # The replay calls events_for_trace through the StepLayout class and
    # decode_step_counters by its module-global name, so the rebound
    # functions see every call of a cold step query.
    channel._step_replay.cache_clear()
    session = ChannelSession(ChannelModel(kind=STEP_COUNTER_SEV), seed=0)
    target = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=1)
    with tracer.Tracer() as traced:
        observe(target, [4.0, 4.0], session)
    spans = traced.self_times()
    layers = ("channel.step_events", "channel.decode_step_counters")
    assert [spans.get(name, {}).get("calls", 0) for name in layers] == [1, 1]


def test_session_takes_the_workloads_strict_keyword():
    # The keyword selects nothing: only its default value is accepted.
    ChannelSession(ChannelModel(kind=PHR_SGX), seed=0, strict=True)
    with pytest.raises(ValueError, match="non-strict sessions were removed"):
        ChannelSession(ChannelModel(kind=PHR_SGX), seed=0, strict=False)


def test_register_capacity_is_readable_on_the_model():
    assert ChannelModel(kind=PHR_SGX).phr_capacity == 194


def test_session_counters_the_workloads_read_are_ints():
    session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
    tree = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=1)
    observe(tree, [4.0, 4.0], session)
    assert type(session.pht_mispredicts) is int and session.pht_mispredicts > 0
    assert type(session.queries_observed) is int and session.queries_observed == 1
    assert type(session.model.phr_capacity) is int and session.model.phr_capacity == 194


def test_fidelity_takes_a_datasets_input_rows():
    path = Path(trees.__file__).parent / "data" / "iris.csv"
    dataset = evaluate.load_dataset(path)
    tree = train_cart(dataset.rows)
    assert evaluate.fidelity(tree, tree, dataset.inputs()) == 1.0


def test_baseline_sweep_call_shape():
    target = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=1)
    rows = evaluate.boundary_margin_inputs(target, 100, seed=3)
    last = evaluate.pareto_sweep(target, "baseline", eps_start=100.0, eval_inputs=rows,
                                 seed=3).points[-1]
    assert last.fidelity == 1.0
    assert type(last.queries) is int and last.queries > 0
    assert last.status == "ok"


def test_traced_baseline_sweep_runs_its_label_queries_untraced(tracer):
    # Each sweep point is one api_attack_extract span; its label queries
    # walk the tree through trees.infer, which builds no trace and so
    # records no trees.infer_with_trace span.
    target = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=1)
    rows = evaluate.boundary_margin_inputs(target, 100, seed=3)
    with tracer.Tracer() as traced:
        points = evaluate.pareto_sweep(target, "baseline", eps_start=100.0, eval_inputs=rows,
                                       seed=3).points
    spans = traced.self_times()
    assert len(points) > 1 and sum(p.queries for p in points) > 0
    assert spans["baseline.api_attack_extract"]["calls"] == len(points)
    assert "trees.infer_with_trace" not in spans
