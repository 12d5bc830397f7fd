"""Label-only baseline runs hash exactly as recorded in ``tests/golden/baseline_digests.json``.

Each (tree, epsilon, budget) key maps to the sha256 of the run's
``(queries, exhausted, model.to_dict())`` as sorted-key JSON, so every
boundary estimate must stay bit for bit the same. Re-record after a
deliberate behaviour change with
``PYTHONPATH=src python tests/test_golden_baseline.py``.
"""
import hashlib
import json
from pathlib import Path

from treestealer.baseline import api_attack_extract
from treestealer.channel import ChannelModel, ChannelSession, label_only_oracle

from conftest import build_example_target, random_grid_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "baseline_digests.json"
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


def _run_digest(target, epsilon, budget):
    session = ChannelSession(ChannelModel(), seed=0)
    result = api_attack_extract(label_only_oracle(target, session), target.ranges_low,
                                target.ranges_high, epsilon, max_queries=budget)
    blob = json.dumps([result.queries, result.exhausted, result.model.to_dict()],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    digests = {}
    for name, trees in corpora().items():
        for i, target in enumerate(trees):
            for epsilon in EPSILONS:
                for budget in BUDGETS:
                    digests[f"{name}/{i}/eps{epsilon:g}/q{budget}"] = \
                        _run_digest(target, epsilon, budget)
    return digests


def test_baseline_digests_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert list(got) == list(expected)
    diverged = [key for key in got if got[key] != expected[key]]
    assert not diverged, (f"first diverging run {diverged[0]}: "
                          f"{got[diverged[0]]} != {expected[diverged[0]]}")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1) + "\n")
