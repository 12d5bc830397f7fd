"""Label-only baseline runs hash exactly as recorded in ``tests/golden/``.

In ``baseline_digests.json`` each (tree, epsilon, budget) key maps to the
sha256 of the run's ``(queries, exhausted, model.to_dict())`` as
sorted-key JSON, so every boundary estimate must stay bit for bit the
same. ``baseline_query_digests.json`` maps the same keys to the sha256
of the inputs the label oracle received, in order, each as a list of
floats, so the attack must also ask the same questions in the same
order. Re-record both after a deliberate behaviour change with
``PYTHONPATH=src python tests/test_golden_baseline.py``.
"""
import functools
import hashlib
import json
from pathlib import Path

from treestealer.baseline import api_attack_extract
from treestealer.channel import ChannelModel, ChannelSession, label_only_oracle

from conftest import build_example_target, random_grid_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "baseline_digests.json"
QUERY_GOLDEN = GOLDEN.with_name("baseline_query_digests.json")
EPSILONS = (2.0, 0.5, 0.125, 0.01)
BUDGETS = (20, 200, 1_000_000)


def _folded(tree, classes):
    """The tree with leaf labels folded onto ``classes`` shared values."""
    for node in tree.leaves():
        node.value %= classes
    return tree


def corpora() -> dict[str, list]:
    return {
        # Criterion 5's recipe: distinct leaf labels on a 0.5 grid.
        "grid16": [t for t in random_grid_corpus(10, seed=31, m_range=(2, 4),
                                                 depth_range=(3, 5), width=16.0)
                   if len(t.leaves()) >= 4][:6],
        # Shared labels merge regions; off-grid thresholds bisect to centres.
        "folded": [_folded(t, 3) for t in random_grid_corpus(5, seed=13, m_range=(2, 3),
                                                             depth_range=(2, 4))],
        "example": [build_example_target()],
    }


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _run_digests(target, epsilon, budget):
    """(result digest, query-order digest) of one run."""
    asked = []
    oracle = label_only_oracle(target, ChannelSession(ChannelModel(), seed=0))

    def recording(x):
        asked.append([float(v) for v in x])
        return oracle(x)

    result = api_attack_extract(recording, target.ranges_low, target.ranges_high,
                                epsilon, max_queries=budget)
    return (_sha256([result.queries, result.exhausted, result.model.to_dict()]),
            _sha256(asked))


@functools.cache
def compute_digests() -> tuple[dict[str, str], dict[str, str]]:
    """Result digests and query-order digests, keyed alike."""
    results, queries = {}, {}
    for name, trees in corpora().items():
        for i, target in enumerate(trees):
            for epsilon in EPSILONS:
                for budget in BUDGETS:
                    key = f"{name}/{i}/eps{epsilon:g}/q{budget}"
                    results[key], queries[key] = _run_digests(target, epsilon, budget)
    return results, queries


def _assert_matches(got: dict[str, str], path: Path):
    expected = json.loads(path.read_text())
    assert list(got) == list(expected)
    diverged = [key for key in got if got[key] != expected[key]]
    assert not diverged, (f"first diverging run {diverged[0]}: "
                          f"{got[diverged[0]]} != {expected[diverged[0]]}")


def test_baseline_digests_match_golden():
    _assert_matches(compute_digests()[0], GOLDEN)


def test_baseline_query_order_matches_golden():
    _assert_matches(compute_digests()[1], QUERY_GOLDEN)


if __name__ == "__main__":
    for path, digests in zip((GOLDEN, QUERY_GOLDEN), compute_digests()):
        path.write_text(json.dumps(digests, indent=1) + "\n")
