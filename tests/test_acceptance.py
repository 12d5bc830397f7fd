"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion
verdict lines are echoed in the terminal summary.
"""
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from treestealer.baseline import api_attack_extract
from treestealer.cart import train_cart
from treestealer.channel import (
    PERFECT,
    PHR_SGX,
    STEP_COUNTER_SEV,
    ChannelModel,
    ChannelSession,
    label_only_oracle,
    make_oracle,
)
from treestealer.cli import run as cli_run
from treestealer.evaluate import boundary_margin_inputs, fidelity, load_dataset
from treestealer.extraction import dt_extraction
from treestealer.phr import (
    DOUBLETS_PER_NODE,
    EXIT_DOUBLETS,
    MAX_DEPTH,
    PHR_CAPACITY,
    decode_branch_trace,
    extract_via_collisions,
    readout_counts,
    register_image,
)
from treestealer.trees import (
    generate_random_tree,
    min_path_separation,
    save_tree,
    tree_equal,
)

from conftest import build_example_target, query_upper_bound, random_grid_corpus

IRIS_CSV = Path(__file__).resolve().parents[1] / "src" / "treestealer" / "data" / "iris.csv"

_VERDICTS = []


def record(criterion: int, line: str):
    _VERDICTS.append(f"ACCEPTANCE {criterion}: PASS - {line}")


def extract_perfect(target, epsilon, **kwargs):
    session = ChannelSession(ChannelModel(), seed=0)
    return dt_extraction(make_oracle(target, session), target.ranges_low,
                         target.ranges_high, epsilon, **kwargs)


def test_criterion_1_worked_example_transcript():
    target = build_example_target()
    started = time.perf_counter()
    result = extract_perfect(target, 0.5)
    elapsed = time.perf_counter() - started

    inputs = [e.input for e in result.transcript]
    assert inputs[0] == [7, 3]
    assert (result.transcript[0].label, result.transcript[0].trace) == (0, "LL")
    assert inputs[1] == [2.0, 3.0]
    assert inputs[2] == [4.50, 3.00]
    assert inputs[3] == [3.25, 3.00]
    assert inputs[4] == [2.625, 3.00]
    assert inputs[5] == [2.9375, 3.00]
    assert result.shadow.root.threshold == 3.09375
    assert inputs[6] == [3.59375, 3.00]
    assert inputs[7] == [7, -2.00]

    dup = result.shadow.root.right.left.right
    dup_probes = [e.input[1] for e in result.transcript
                  if e.target_node_id == dup.id and e.phase == "feature"]
    assert dup_probes[-1] == -0.40625

    # Ordering: every pinned element appears in transcript order.
    order = [inputs.index([7, 3]), inputs.index([2.0, 3.0]), inputs.index([4.5, 3.0]),
             inputs.index([3.25, 3.0]), inputs.index([2.625, 3.0]),
             inputs.index([2.9375, 3.0]), inputs.index([3.59375, 3.0]),
             inputs.index([7, -2.0]), inputs.index([2.0, -0.40625])]
    assert order == sorted(order)

    shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
    assert tree_equal(target, shadow, 0.25).equal
    assert elapsed < 1.0
    record(1, f"worked-example transcript reproduced in {result.queries} queries "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_exact_recovery_200_trees():
    epsilon = 0.25
    corpus = random_grid_corpus(200, seed=2024, m_range=(2, 8),
                                depth_range=(2, 9), grid=2 * epsilon)
    started = time.perf_counter()
    recovered = 0
    for i, target in enumerate(corpus):
        result = extract_perfect(target, epsilon)
        shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
        diff = tree_equal(target, shadow, epsilon / 2)
        assert diff.equal, f"tree {i}: {diff.first_mismatch}"
        inputs = boundary_margin_inputs(target, 1000, seed=i)
        assert fidelity(target, shadow, inputs) == 1.0, f"tree {i}"
        recovered += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    record(2, f"{recovered}/200 grid trees recovered exactly, fidelity 1.0 "
              f"on 1000 samples each ({elapsed:.1f} s)")


def test_criterion_3_query_complexity():
    epsilon = 0.25
    corpus = random_grid_corpus(120, seed=99, m_range=(2, 8), depth_range=(2, 9),
                                grid=2 * epsilon)
    xs, ys = [], []
    width = 8.0
    for target in corpus:
        result = extract_perfect(target, epsilon)
        n_inner = len(target.inner_nodes())
        assert result.queries <= query_upper_bound(target, epsilon)
        xs.append(n_inner * (target.num_features + math.log2(width / epsilon)))
        ys.append(result.queries)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * np.asarray(xs) + intercept
    residual = np.asarray(ys) - predicted
    r2 = 1.0 - float(residual @ residual) / float(
        np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    assert r2 >= 0.9

    # Realistic target: CART on the bundled iris data.
    dataset = load_dataset(IRIS_CSV)
    iris_tree = train_cart(dataset.rows)
    eps_iris = min(0.08, 0.8 * min_path_separation(iris_tree))
    result = extract_perfect(iris_tree, eps_iris)
    shadow = result.to_decision_tree(iris_tree.ranges_low, iris_tree.ranges_high)
    assert result.queries < 500
    assert fidelity(iris_tree, shadow, dataset.inputs()) == 1.0
    record(3, f"query bound holds on 120 trees, R^2 {r2:.3f} >= 0.9; "
              f"iris CART at fidelity 1.0 in {result.queries} queries")


def test_criterion_4_passive_tracking_ablation():
    corpus = random_grid_corpus(60, seed=404, m_range=(2, 4), depth_range=(2, 7))
    epsilon = 0.25
    strict_wins = 0
    deep = 0
    for target in corpus:
        tracked = extract_perfect(target, epsilon)
        ablated = extract_perfect(target, epsilon, passive_tracking=False)
        assert ablated.queries >= tracked.queries
        if target.depth() >= 4:
            deep += 1
            if ablated.queries > tracked.queries:
                strict_wins += 1
    assert deep >= 20
    assert strict_wins / deep >= 0.80
    record(4, f"tracking never loses on 60 trees; strictly cheaper on "
              f"{strict_wins}/{deep} trees of depth >= 4")


def test_criterion_5_baseline_dominance():
    epsilon = 0.125
    corpus = [t for t in random_grid_corpus(100, seed=31, m_range=(2, 4),
                                            depth_range=(3, 5), width=16.0)
              if len(t.leaves()) >= 4][:50]
    assert len(corpus) == 50
    wins = 0
    for target in corpus:
        ext = extract_perfect(target, epsilon)
        session = ChannelSession(ChannelModel(), seed=0)
        base = api_attack_extract(label_only_oracle(target, session),
                                  target.ranges_low, target.ranges_high, epsilon)
        assert ext.queries < base.queries, \
            f"extractor {ext.queries} vs baseline {base.queries}"
        wins += 1
    record(5, f"extractor strictly cheaper than the label-only baseline in "
              f"{wins}/50 paired runs at equal epsilon")


def test_criterion_6_register_round_trip_and_readout():
    assert PHR_CAPACITY == 194
    assert EXIT_DOUBLETS == 103
    assert PHR_CAPACITY - EXIT_DOUBLETS == 91
    assert DOUBLETS_PER_NODE == 9
    assert MAX_DEPTH == 11

    rng = random.Random(6)
    for _ in range(500):
        bits = [rng.randrange(2) for _ in range(rng.randint(0, 11))]
        decoded = decode_branch_trace(register_image(tuple(bits)))
        assert decoded.trace == tuple(bits)

    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(12)]
        decoded = decode_branch_trace(register_image(tuple(bits)))
        assert decoded.truncated
        assert decoded.trace == tuple(bits[1:])  # root decision lost first

    spikes_checked = 0
    for _ in range(100):
        victim = [rng.randrange(4) for _ in range(rng.randint(1, 24))]
        assert extract_via_collisions(victim)[0] == bytes(victim)
        for winner in victim:
            row = readout_counts(winner)
            assert row[winner] > max(c for x, c in enumerate(row) if x != winner)
            spikes_checked += 1
    record(6, f"500 round trips exact, depth-12 truncation drops the root "
              f"decision, readout identity on 100 victims with strict "
              f"mispredict spikes at {spikes_checked} positions")


def test_criterion_7_channel_equivalence():
    rng = random.Random(1234)
    corpus = []
    for _ in range(47):
        m = rng.randint(2, 3)
        depth_max = rng.randint(2, 4)
        corpus.append(generate_random_tree(
            m, min(2, depth_max), depth_max, [(0.0, 8.0)] * m, 0.5,
            rng.randrange(2 ** 31)))
    for deep_seed in (11, 22, 33):  # stress the register budget edge
        corpus.append(generate_random_tree(
            2, 6, 11, [(0.0, 64.0)] * 2, 0.5, deep_seed, split_prob=0.15))
    assert len(corpus) == 50
    assert max(t.depth() for t in corpus) >= 8

    for i, target in enumerate(corpus):
        assert target.depth() <= 11
        shadows = {}
        for kind in (PERFECT, PHR_SGX, STEP_COUNTER_SEV):
            session = ChannelSession(ChannelModel(kind=kind), seed=0)
            result = dt_extraction(make_oracle(target, session),
                                   target.ranges_low, target.ranges_high, 0.25)
            shadows[kind] = result.to_decision_tree(target.ranges_low,
                                                    target.ranges_high)
        assert tree_equal(shadows[PERFECT], shadows[PHR_SGX], 0.0).equal, f"tree {i}"
        assert tree_equal(shadows[PERFECT], shadows[STEP_COUNTER_SEV], 0.0).equal, f"tree {i}"
    record(7, "register and step-counter channels reproduce the perfect-channel "
              "shadow on 50/50 trees (depths up to 11)")


def test_criterion_8_determinism(tmp_path):
    tree_path = tmp_path / "t.json"
    save_tree(build_example_target(), tree_path)

    transcripts, shadows = [], []
    for name in ("a", "b"):
        shadow = tmp_path / f"{name}.json"
        transcript = tmp_path / f"{name}.jsonl"
        code = cli_run(["--seed", "7", "attack", "--tree", str(tree_path),
                        "--epsilon", "0.5", "--transcript", str(transcript),
                        "--out", str(shadow)])
        assert code == 0
        transcripts.append(transcript.read_bytes())
        shadows.append(shadow.read_bytes())
    assert transcripts[0] == transcripts[1]
    assert shadows[0] == shadows[1]

    reports = []
    for name in ("ra", "rb"):
        out = tmp_path / name
        code = cli_run(["--seed", "7", "sweep", "--tree", str(tree_path),
                        "--attack", "both", "--eps-start", "4", "--samples",
                        "300", "--no-timing", "--out", str(out)])
        assert code in (0, 2)
        reports.append(((out / "report.json").read_bytes(),
                        (out / "report.csv").read_bytes()))
    assert reports[0] == reports[1]
    record(8, "identical seeds give byte-identical transcripts, shadows, "
              "and sweep reports")


@pytest.fixture(scope="session", autouse=True)
def _print_verdicts(request):
    yield
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    if _VERDICTS:
        with capmanager.global_and_fixture_disabled():
            print()
            for line in _VERDICTS:
                print(line)
