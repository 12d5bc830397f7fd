"""The benchmark's workloads.

A workload chooses its inputs from the seed in ``choose``, the bench's
own work; ``setup`` builds the work items from that choice through
treestealer's public functions, the part set-up time counts; ``run``
does one item's timed work, and ``check`` inspects the result outside
the timed region. Every item's
exact counts must repeat bit for bit wherever the item runs again.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import corpus
from treestealer import channel, evaluate, extraction, trees

PHASES = ("explore", "feature", "threshold")


@dataclass
class Item:
    label: str
    target: object
    kind: str                 # the channel, or "sweep"
    epsilon: float = 0.25
    eval_inputs: list = field(default_factory=list)
    seed: int = 0


@dataclass
class Outcome:
    queries: int
    counts: dict            # exact counts that must repeat bit for bit
    exact: bool             # the output equals its target where it must
    why: str = ""           # the first mismatch when not exact


class ExtractWorkload:
    """Whole-tree extractions with transcripts on, as ``attack`` runs them."""

    def __init__(self, name: str, choose, build, kinds: tuple[str, ...]):
        self.name = name
        self.choose = choose
        self._build = build
        self.kinds = kinds

    def setup(self, plan) -> list[Item]:
        """One item per target and channel; ``build`` gives (name, tree,
        epsilon, rows the shadow must match with fidelity 1.0)."""
        return [Item(f"{name}/{kind}", target, kind, epsilon, rows)
                for name, target, epsilon, rows in self._build(plan)
                for kind in self.kinds]

    @staticmethod
    def run(item: Item):
        session = channel.ChannelSession(channel.ChannelModel(kind=item.kind),
                                         seed=0, strict=True)
        oracle = channel.make_oracle(item.target, session)
        target = item.target
        result = extraction.dt_extraction(oracle, target.ranges_low, target.ranges_high,
                                          item.epsilon)
        return result, session

    @staticmethod
    def check(item: Item, raw) -> Outcome:
        result, session = raw
        target = item.target
        shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
        diff = trees.tree_equal(target, shadow, item.epsilon / 2)
        exact, why = diff.equal, diff.first_mismatch or ""
        if exact and item.eval_inputs:
            fid = evaluate.fidelity(target, shadow, item.eval_inputs)
            exact, why = fid == 1.0, f"fidelity {fid} on the dataset rows"
        phases = {p: 0 for p in PHASES}
        for entry in result.transcript:
            phases[entry.phase] += 1
        is_phr = item.kind == channel.PHR_SGX
        counts = {
            "queries": result.queries,
            **{f"extraction.queries.{p}": n for p, n in phases.items()},
            "distinct_traces": len({e.trace for e in result.transcript}),
            "phr.pht_mispredicts": session.pht_mispredicts,
            "phr.readout_positions": (session.queries_observed * session.model.phr_capacity
                                      if is_phr else 0),
        }
        return Outcome(result.queries, counts, exact, why)


class SweepWorkload:
    """One extractor and one baseline epsilon-halving sweep per tree."""

    name = "sweep"

    def __init__(self, count: int):
        self.count = count

    def choose(self, seed: int) -> tuple[int, list]:
        return seed, corpus.matched_corpus(self.count, seed, m_range=(2, 4), depth_range=(3, 5),
                                           width=16.0, min_leaves=4)

    @staticmethod
    def setup(plan) -> list[Item]:
        seed, recipes = plan
        items = []
        for i, recipe in enumerate(recipes):
            target = recipe.build()
            sample_seed = seed * 1000 + i
            inputs = evaluate.boundary_margin_inputs(target, 1000, seed=sample_seed)
            items.append(Item(f"tree{i}/sweep", target, "sweep", eval_inputs=inputs,
                              seed=sample_seed))
        return items

    @staticmethod
    def run(item: Item):
        return tuple(evaluate.pareto_sweep(item.target, attack, eps_start=100.0,
                                           eval_inputs=item.eval_inputs, seed=item.seed)
                     for attack in ("extractor", "baseline"))

    @staticmethod
    def check(item: Item, raw) -> Outcome:
        ext, base = raw
        points = ext.points + base.points
        exact = ext.points[-1].fidelity >= 1.0 and base.points[-1].fidelity >= 1.0
        counts = {
            "queries": sum(p.queries for p in points),
            "extractor.queries": sum(p.queries for p in ext.points),
            "baseline.queries": sum(p.queries for p in base.points),
            "evaluate.pareto_sweep.points": len(points),
            "evaluate.pareto_sweep.ok_points": sum(p.status == "ok" for p in points),
            "extractor.final_queries": ext.points[-1].queries,
            "baseline.final_queries": base.points[-1].queries,
        }
        why = "" if exact else (f"final fidelity extractor {ext.points[-1].fidelity}, "
                                f"baseline {base.points[-1].fidelity}")
        return Outcome(counts["queries"], counts, exact, why)


FAST_TREES = 1000
PHR_SMALL_TREES = 39
PHR_EDGE_TREES = 1
SWEEP_TREES = 100


def _fast_recipes(seed: int) -> list:
    return corpus.matched_corpus(FAST_TREES, seed)


def _fast_targets(recipes: list) -> list:
    dataset, iris, iris_eps = corpus.iris_target()
    grid = [(f"tree{i}", r.build(), 0.25, []) for i, r in enumerate(recipes)]
    return grid + [("iris", iris, iris_eps, dataset.inputs())]


def _phr_recipes(seed: int) -> list:
    return (corpus.matched_corpus(PHR_SMALL_TREES, seed, m_range=(2, 3), depth_range=(2, 4),
                                  split_prob=0.6)
            + corpus.register_edge_trees(PHR_EDGE_TREES, seed))


def _phr_targets(recipes: list) -> list:
    return [(f"tree{i}", r.build(), 0.25, []) for i, r in enumerate(recipes)]


WORKLOADS = {
    "extract-fast": ExtractWorkload(
        "extract-fast", _fast_recipes, _fast_targets, (channel.PERFECT, channel.STEP_COUNTER_SEV)),
    "extract-phr": ExtractWorkload(
        "extract-phr", _phr_recipes, _phr_targets, (channel.PHR_SGX,)),
    "sweep": SweepWorkload(SWEEP_TREES),
}
