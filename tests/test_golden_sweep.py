"""Sweep reports hash exactly as recorded in ``tests/golden/sweep_digests.json``.

Each (corpus, tree, attack) key maps to the sha256 of
``sweep_to_dict(include_timing=False)`` as sorted-key JSON, so every
point's query count, status and fidelity must stay bit for bit the
same; the baseline's fidelities are the rule-set scorer's output. The
trees are the ``grid16`` and ``folded`` corpora of the baseline golden
(``folded`` shares labels, so its regions merge and leave gaps) scored
on 1000 margin samples each. Re-record after a deliberate behaviour
change with ``PYTHONPATH=src python tests/test_golden_sweep.py``.
"""
import hashlib
import json
from pathlib import Path

from treestealer.evaluate import boundary_margin_inputs, pareto_sweep, sweep_to_dict

from test_golden_baseline import corpora

GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep_digests.json"
ATTACKS = ("extractor", "baseline")


def _sweep_digest(target, attack, seed):
    inputs = boundary_margin_inputs(target, 1000, seed=seed)
    result = pareto_sweep(target, attack, inputs, seed=seed)
    blob = json.dumps(sweep_to_dict(result, include_timing=False), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    digests = {}
    for name, trees in corpora().items():
        if name not in ("grid16", "folded"):
            continue
        for i, target in enumerate(trees):
            for attack in ATTACKS:
                digests[f"{name}/{i}/{attack}"] = _sweep_digest(target, attack, seed=i)
    return digests


def test_sweep_digests_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert list(got) == list(expected)
    diverged = [key for key in got if got[key] != expected[key]]
    assert not diverged, (f"first diverging sweep {diverged[0]}: "
                          f"{got[diverged[0]]} != {expected[diverged[0]]}")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1) + "\n")
