"""Extraction runs hash exactly as recorded in ``tests/golden/extraction_digests.json``.

Each run's key maps to the sha256 of its transcript JSONL followed by its
exported shadow JSON, or to ``"<ErrorType> after <n> queries"`` when the
run ends in a typed error. Re-record after a deliberate behaviour change
with ``PYTHONPATH=src python tests/test_golden_extraction.py``.
"""
import hashlib
import json
from pathlib import Path

from treestealer.channel import (
    PERFECT,
    PHR_SGX,
    STEP_COUNTER_SEV,
    ChannelModel,
    ChannelSession,
    make_oracle,
)
from treestealer.errors import TreeStealerError
from treestealer.extraction import dt_extraction
from treestealer.trees import tree_to_dict

from conftest import random_grid_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "extraction_digests.json"
EPSILON = 0.25


def _run_digest(target, model, passive_tracking=True):
    session = ChannelSession(model, seed=1)
    try:
        result = dt_extraction(make_oracle(target, session), target.ranges_low,
                               target.ranges_high, EPSILON,
                               passive_tracking=passive_tracking)
        shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
    except TreeStealerError as exc:
        return f"{type(exc).__name__} after {session.queries_observed} queries"
    blob = "".join(e.to_json() + "\n" for e in result.transcript)
    blob += json.dumps(tree_to_dict(shadow), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    setups = [
        ("perfect", ChannelModel(PERFECT), {}),
        ("perfect-untracked", ChannelModel(PERFECT), {"passive_tracking": False}),
        ("step", ChannelModel(STEP_COUNTER_SEV), {}),
        ("perfect-flip0.01", ChannelModel(PERFECT, flip_noise=0.01), {}),
    ]
    digests = {}
    grid = random_grid_corpus(40, seed=2024)
    for name, model, kwargs in setups:
        for i, target in enumerate(grid):
            digests[f"{name}/{i:02d}"] = _run_digest(target, model, **kwargs)
    small = random_grid_corpus(12, seed=9, m_range=(2, 3), depth_range=(2, 6))
    for i, target in enumerate(small):
        digests[f"phr-strict/{i:02d}"] = _run_digest(target, ChannelModel(PHR_SGX))
    return digests


def test_extraction_digests_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert list(got) == list(expected)
    diverged = [key for key in got if got[key] != expected[key]]
    assert not diverged, (f"first diverging run {diverged[0]}: "
                          f"{got[diverged[0]]} != {expected[diverged[0]]}")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1) + "\n")
