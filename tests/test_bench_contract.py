"""What the benchmark under ``bench/`` reads from the package by name.

The traced run rebinds each attribute in ``tracer.REBINDS``, and the
workloads build their sessions with ``strict=True``, read a session's
mispredict and query counters and its model's register capacity, score
shadows with ``fidelity`` on a dataset's input rows and sweep the
baseline with ``pareto_sweep``; a rename or deletion here would
otherwise only show as a crash of ``bench/run.py``.
"""
import importlib
from pathlib import Path

import pytest

from treestealer import channel, evaluate, extraction, trees
from treestealer.cart import train_cart
from treestealer.channel import PHR_SGX, ChannelModel, ChannelSession, observe
from treestealer.trees import generate_random_tree

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


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


def test_traced_register_query_records_each_phr_layer_once(tracer):
    # The channel reaches the register code through the phr module, and
    # register_image reaches encode_inference by its module-global name,
    # so the rebound functions see every call of a register query.
    channel._decode_register.cache_clear()
    session = ChannelSession(ChannelModel(kind=PHR_SGX), seed=0)
    target = generate_random_tree(2, 2, 3, [(0, 8)] * 2, 0.5, seed=1)
    with tracer.Tracer() as traced:
        observe(target, [4.0, 4.0], session)
    spans = traced.self_times()
    layers = ("phr.encode_inference", "phr.extract_via_collisions", "phr.decode_branch_trace")
    assert [spans.get(name, {}).get("calls", 0) for name in layers] == [1, 1, 1]


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
