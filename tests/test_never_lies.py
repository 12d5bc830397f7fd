"""The "never silently wrong" gate.

Every extraction must end in a shadow that is exact within epsilon/2 or
in a typed error. This module runs a fixed grid over each channel
(perfect, step counter, register) with i.i.d. trace bit flips and
classifies each run as exact, a typed error, or silently wrong (a shadow
that ``tree_equal`` rejects): ``random_grid_corpus(50, seed=1..8)`` x
flip noise 0.001, 0.003, 0.01, 0.03 x session seeds 1 and 2 at epsilon
0.25, 3200 runs per channel. The corpus trees fit the register budget,
and the flips land on the trace each channel recovered, so every channel
must classify every run alike.

The same grid runs once more at the coarser epsilon 1.0 on the perfect
channel alone, since ``test_channels_classify_every_run_alike`` ties the
other two channels to the perfect one.

Today some runs are silently wrong: a node gets the wrong feature from a
flipped feature-probe bit while its bracket stays non-empty, which no
consistency check sees. The gates are therefore marked ``xfail(strict=True)``
and turn into failures as soon as extraction stops lying on their grid,
at which point the marker must go. At epsilon 1.0 the wrong runs are
named one by one: every other run of that grid must already be exact or
a typed error.

A third gate is exhaustive over one fault: for every query of a
noiseless perfect-channel run and every bit of its trace, the run is
repeated with that bit alone flipped (the first 10 trees of the anchor
corpus ``random_grid_corpus(40, seed=2024)`` at epsilon 0.25, and the
first 4 of them whose noiseless run is exact at epsilon 1.0). Its lies
are grouped by phase and by whether the flipped bit lies above, at or
below the query's node; it is ``xfail(strict=True)`` for the same cause.

A last gate draws one-split trees on feature ranges whose ends reach up
to the largest double, so a range's width may overflow: the extractor
must end exact within epsilon/2 or in a typed error, and the label-only
baseline must put the face within epsilon of the threshold.
"""
import math
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treestealer.baseline import api_attack_extract
from treestealer.channel import (PERFECT, PHR_SGX, STEP_COUNTER_SEV, ChannelModel,
                                 ChannelSession, label_only_oracle, make_oracle)
from treestealer.errors import TreeStealerError
from treestealer.extraction import dt_extraction
from treestealer.trees import infer_with_trace, tree_equal

from conftest import random_grid_corpus, stump

CORPUS_SEEDS = range(1, 9)
CORPUS_SIZE = 50
FLIP_NOISE = (0.001, 0.003, 0.01, 0.03)
SESSION_SEEDS = (1, 2)
EPSILON = 0.25
CHANNELS = (PERFECT, STEP_COUNTER_SEV, PHR_SGX)
COARSE_EPSILON = 1.0
# The runs of the epsilon-1.0 grid that end in a wrong shadow today.
COARSE_LIES = frozenset(
    f"corpus {c} / flip {f} / seed {s} / tree {t}" for c, f, s, t in (
        (1, 0.03, 2, 14), (1, 0.03, 2, 34), (1, 0.03, 2, 37), (1, 0.03, 2, 39),
        (2, 0.003, 1, 26), (2, 0.01, 1, 26), (2, 0.03, 2, 17), (2, 0.03, 2, 33),
        (2, 0.03, 2, 40), (3, 0.03, 2, 2), (3, 0.03, 2, 32), (4, 0.03, 2, 41),
        (5, 0.003, 1, 10), (5, 0.01, 1, 10), (5, 0.03, 2, 22), (6, 0.003, 1, 1),
        (6, 0.003, 1, 48), (6, 0.01, 1, 1), (6, 0.01, 1, 48), (8, 0.03, 2, 4)))


def classify(target, kind, flip_noise, session_seed, epsilon=EPSILON):
    """"exact", the name of the typed error raised, or "wrong: <mismatch>"."""
    session = ChannelSession(ChannelModel(kind=kind, flip_noise=flip_noise),
                             seed=session_seed)
    try:
        result = dt_extraction(make_oracle(target, session), target.ranges_low,
                               target.ranges_high, epsilon)
        shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
    except TreeStealerError as exc:
        return type(exc).__name__
    diff = tree_equal(target, shadow, epsilon / 2)
    return "exact" if diff.equal else f"wrong: {diff.first_mismatch}"


def run_grid(kinds, epsilon):
    """Channel kind -> run name -> classification, for every run of the grid."""
    runs = {kind: {} for kind in kinds}
    for corpus_seed in CORPUS_SEEDS:
        corpus = random_grid_corpus(CORPUS_SIZE, seed=corpus_seed)
        for flip_noise in FLIP_NOISE:
            for session_seed in SESSION_SEEDS:
                for i, target in enumerate(corpus):
                    name = (f"corpus {corpus_seed} / flip {flip_noise} / "
                            f"seed {session_seed} / tree {i}")
                    for kind in kinds:
                        runs[kind][name] = classify(target, kind, flip_noise, session_seed,
                                                    epsilon)
    return runs


@pytest.fixture(scope="module")
def outcomes():
    return run_grid(CHANNELS, EPSILON)


@pytest.fixture(scope="module")
def coarse_outcomes():
    """Run name -> classification on the perfect channel at epsilon 1.0."""
    return run_grid((PERFECT,), COARSE_EPSILON)[PERFECT]



def test_grid_runs_every_tree(outcomes):
    for runs in outcomes.values():
        assert len(runs) == (len(CORPUS_SEEDS) * CORPUS_SIZE * len(FLIP_NOISE)
                             * len(SESSION_SEEDS))
        assert "exact" in runs.values()


def test_channels_classify_every_run_alike(outcomes):
    perfect = outcomes[PERFECT]
    for kind in CHANNELS:
        differ = [f"{name}: {perfect[name]} on {PERFECT}, {outcome} on {kind}"
                  for name, outcome in outcomes[kind].items() if outcome != perfect[name]]
        assert not differ, f"{len(differ)} runs differ:\n" + "\n".join(differ)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a flipped feature-probe bit can pick the wrong feature "
                          "while the bracket stays non-empty")
def test_no_run_is_silently_wrong(outcomes):
    wrong = [f"{kind} / {name}: {outcome[len('wrong: '):]}"
             for kind, runs in outcomes.items()
             for name, outcome in runs.items() if outcome.startswith("wrong: ")]
    assert not wrong, f"{len(wrong)} silently wrong runs:\n" + "\n".join(wrong)


def test_coarse_grid_runs_every_tree(coarse_outcomes):
    assert len(coarse_outcomes) == (len(CORPUS_SEEDS) * CORPUS_SIZE * len(FLIP_NOISE)
                                    * len(SESSION_SEEDS))
    assert "exact" in coarse_outcomes.values()


def test_coarse_runs_lie_only_where_named(coarse_outcomes):
    unnamed = [f"{name}: {outcome}" for name, outcome in coarse_outcomes.items()
               if outcome.startswith("wrong: ") and name not in COARSE_LIES]
    assert not unnamed, f"{len(unnamed)} unnamed wrong runs:\n" + "\n".join(unnamed)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a flipped feature-probe bit can pick the wrong feature "
                          "while the bracket stays non-empty")
def test_no_coarse_run_is_silently_wrong(coarse_outcomes):
    wrong = [f"{name}: {coarse_outcomes[name]}" for name in sorted(COARSE_LIES)
             if coarse_outcomes[name].startswith("wrong: ")]
    assert not wrong, f"{len(wrong)} silently wrong runs:\n" + "\n".join(wrong)


# The single-fault census: every (query, trace bit) of a noiseless run,
# flipped alone. Runs are deterministic, so the census is exact.
CENSUS_CORPUS_SEED = 2024  # the anchor corpus's recipe
CENSUS_TREES = 10
CENSUS_COARSE_TREES = 4


def flip_one_bit_oracle(target, query, bit):
    """A perfect-channel oracle that flips ``bit`` of query ``query``'s
    trace (0-based) and no other."""
    asked = 0

    def oracle(x):
        nonlocal asked
        label, trace = infer_with_trace(target, x)
        if asked == query:
            trace = trace[:bit] + (trace[bit] ^ 1,) + trace[bit + 1:]
        asked += 1
        return label, trace
    return oracle


@pytest.fixture(scope="module")
def census_runs():
    """(epsilon, [(tree index, target, noiseless run)]) for each census
    grid."""
    corpus = list(enumerate(random_grid_corpus(CENSUS_TREES, seed=CENSUS_CORPUS_SEED)))
    coarse = [(i, t) for i, t in corpus
              if classify(t, PERFECT, 0.0, 0, COARSE_EPSILON) == "exact"]
    return [(epsilon, [(i, t, dt_extraction(make_oracle(t, ChannelSession(ChannelModel())),
                                            t.ranges_low, t.ranges_high, epsilon))
                       for i, t in targets])
            for epsilon, targets in ((EPSILON, corpus),
                                     (COARSE_EPSILON, coarse[:CENSUS_COARSE_TREES]))]


def test_census_noiseless_runs_are_exact(census_runs):
    # Checked apart from the census, whose xfail would swallow a failure.
    for epsilon, runs in census_runs:
        for i, target, clean in runs:
            shadow = clean.to_decision_tree(target.ranges_low, target.ranges_high)
            assert tree_equal(target, shadow, epsilon / 2).equal, \
                f"tree {i} at epsilon {epsilon}"


def single_flip_lies(runs, epsilon):
    """(run count, lies) over every single-bit flip of each target's
    noiseless run; each lie is ``(phase, where, name)``, ``where`` the
    flipped bit's place relative to the query's node: ``above``, ``at``
    or ``below`` (``-`` for the exploring query, which has no node)."""
    count, lies = 0, []
    for i, target, clean in runs:
        low, high = target.ranges_low, target.ranges_high
        for k, (_, _, trace, phase, node) in enumerate(clean.records):
            for j in range(len(trace)):
                count += 1
                try:
                    shadow = dt_extraction(flip_one_bit_oracle(target, k, j), low, high,
                                           epsilon).to_decision_tree(low, high)
                except TreeStealerError:
                    continue
                if tree_equal(target, shadow, epsilon / 2).equal:
                    continue
                where = "-" if node is None else (
                    "above" if j < node.depth else "at" if j == node.depth else "below")
                lies.append((phase, where, f"tree {i} / query {k + 1} / bit {j}"))
    return count, lies


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a flipped feature-probe bit can pick the wrong feature "
                          "while the bracket stays non-empty")
def test_no_single_flip_lies(census_runs):
    report, lie_count = [], 0
    for epsilon, runs in census_runs:
        count, lies = single_flip_lies(runs, epsilon)
        lie_count += len(lies)
        groups = Counter((phase, where) for phase, where, _ in lies)
        report.append(f"epsilon {epsilon}: {len(lies)} of {count} single-flip runs lie")
        report += [f"  {phase} / bit {where} the node: {n}"
                   for (phase, where), n in sorted(groups.items())]
        report += [f"  {name} ({phase}, bit {where})" for phase, where, name in lies]
    assert not lie_count, "\n".join(report)


# A double of either sign with a binary exponent up to the largest finite
# one, half of them within 4 of it, where a range's width can overflow.
# Every end stays finite: both attacks reject an infinite end through
# ``trees.check_ranges`` before their first query, which
# ``test_invalid_domain_is_rejected_before_any_query`` checks, so a
# ``[-inf, inf]`` example here would reach no bisection.
wide_ends = st.builds(lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
                      st.sampled_from((-1.0, 1.0)), st.floats(0.5, 1.0, exclude_max=True),
                      st.integers(1020, 1024) | st.integers(-8, 1024))


@settings(max_examples=40, deadline=None)
@given(st.lists(wide_ends, min_size=3, max_size=3, unique=True).map(sorted))
@example([-sys.float_info.max, 4.0, sys.float_info.max])
@example([-1e308, -1.5e307, 9e307])
def test_wide_ranges_are_exact_or_typed_errors(ends):
    low, threshold, high = ends
    target = stump(low, high, threshold)
    oracle = make_oracle(target, ChannelSession(ChannelModel(), seed=0))
    try:
        result = dt_extraction(oracle, [low], [high], EPSILON)
    except TreeStealerError:
        pass
    else:
        shadow = result.to_decision_tree([low], [high])
        assert tree_equal(target, shadow, EPSILON / 2).equal
    query = label_only_oracle(target, ChannelSession(ChannelModel(), seed=0))
    regions = {r.label: r for r in api_attack_extract(query, [low], [high], EPSILON).model.regions}
    assert set(regions) == {0, 1}
    assert threshold - EPSILON <= regions[1].high[0] <= threshold
