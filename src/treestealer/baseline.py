"""Label-only reference attack for query-cost comparison.

No side channel: the attacker sees only predictions. Assuming leaves
carry pairwise-distinct labels (regression trees, or classification
trees with differentiable leaves), each label identifies one leaf whose
region is an axis-aligned box. Starting from one witness input, the
attack binary-searches every box face along every feature; label changes
discovered on the way seed searches for the new leaves until the closure
is mapped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import require_keys
from .trees import input_rows


@dataclass
class BaselineConfig:
    epsilon: float
    max_queries: int = 1_000_000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_queries <= 0:
            raise ValueError("max_queries must be positive")


@dataclass
class LeafRegion:
    """One recovered leaf cell: half-open per-feature intervals (low, high]."""

    label: object
    witness: list[float]
    low: list[float]
    high: list[float]

    def contains(self, x: Sequence[float]) -> bool:
        return all(lo < v <= hi for v, lo, hi in zip(x, self.low, self.high))


@dataclass
class RuleSetModel:
    """Rule-set approximation of the target; consistent with every query
    issued while building it."""

    regions: list[LeafRegion]
    ranges_low: list[float]
    ranges_high: list[float]

    def predict(self, x: Sequence[float]) -> object:
        for region in self.regions:
            if region.contains(x):
                return region.label
        return self._nearest_witness_label(x)

    def _nearest_witness_label(self, x: Sequence[float]) -> object:
        # Boundary-estimate gaps: fall back to the nearest witness.
        best = min(self.regions,
                   key=lambda r: sum((a - b) ** 2 for a, b in zip(x, r.witness)))
        return best.label

    def predict_batch(self, inputs) -> list:
        """``predict`` for many inputs at once: the first region in list
        order that contains a row gives its label, and rows no region
        contains take the per-row nearest-witness fallback."""
        width = len(self.ranges_low)
        rows = input_rows(inputs, width)
        low = np.array([r.low for r in self.regions], dtype=float).reshape(-1, width)
        high = np.array([r.high for r in self.regions], dtype=float).reshape(-1, width)
        # inside[r, i]: region r contains row i. Regions x rows keeps each
        # reduction below running along the long axis.
        inside = np.ones((len(self.regions), len(rows)), dtype=bool)
        for f in range(width):
            column = rows[:, f]
            inside &= (low[:, f, None] < column) & (column <= high[:, f, None])
        labels = [r.label for r in self.regions]
        out = [labels[r] for r in inside.argmax(axis=0).tolist()]
        for i in np.flatnonzero(~inside.any(axis=0)).tolist():
            out[i] = self._nearest_witness_label(rows[i].tolist())
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "rule_set",
            "ranges_low": self.ranges_low,
            "ranges_high": self.ranges_high,
            "regions": [
                {"label": r.label, "witness": r.witness, "low": r.low, "high": r.high}
                for r in self.regions
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuleSetModel":
        require_keys(data, ("regions", "ranges_low", "ranges_high"))
        for i, r in enumerate(data["regions"]):
            require_keys(r, ("label", "witness", "low", "high"), f"region {i}: ")
        regions = [LeafRegion(label=r["label"], witness=list(r["witness"]),
                              low=list(r["low"]), high=list(r["high"]))
                   for r in data["regions"]]
        return cls(regions=regions, ranges_low=list(data["ranges_low"]),
                   ranges_high=list(data["ranges_high"]))


@dataclass
class BaselineResult:
    model: RuleSetModel
    queries: int
    exhausted: bool = False


class _BudgetExceeded(Exception):
    pass


class _CachedOracle:
    """Counts unique queries; repeats are answered from cache for free."""

    def __init__(self, oracle: Callable, max_queries: int):
        self.oracle = oracle
        self.max_queries = max_queries
        self.cache: dict[tuple, object] = {}
        self.queries = 0

    def __call__(self, x: Sequence[float]):
        key = tuple(x)
        if key in self.cache:
            return self.cache[key]
        if self.queries >= self.max_queries:
            raise _BudgetExceeded
        self.queries += 1
        label = self.oracle(list(x))
        self.cache[key] = label
        return label


def api_attack_extract(
    label_oracle: Callable[[Sequence[float]], object],
    ranges_low: Sequence[float],
    ranges_high: Sequence[float],
    num_features: int,
    config: BaselineConfig,
) -> BaselineResult:
    """Map every leaf region reachable from the initial witness.

    Boundary estimates are the query-consistent bracket endpoints, so on
    targets whose thresholds sit on an epsilon-aligned grid they are
    exact. Duplicate leaf labels merge regions and only degrade fidelity,
    never raise.
    """
    rl = [float(v) for v in ranges_low]
    ru = [float(v) for v in ranges_high]
    oracle = _CachedOracle(label_oracle, config.max_queries)
    eps = config.epsilon

    regions: dict[object, LeafRegion] = {}
    worklist: list[object] = []

    def witness_label(x: list[float]) -> object:
        label = oracle(x)
        if label not in regions:
            regions[label] = LeafRegion(label=label, witness=list(x),
                                        low=list(rl), high=list(ru))
            worklist.append(label)
        return label

    def lattice_mid(lo_val: float, hi_val: float, origin: float) -> float:
        """Bisection point snapped onto the attacker's epsilon lattice;
        exact boundary recovery when target thresholds share the lattice."""
        center = lo_val + (hi_val - lo_val) / 2
        snapped = origin + round((center - origin) / eps) * eps
        if lo_val < snapped < hi_val:
            return snapped
        return center

    exhausted = False
    try:
        witness_label(list(ru))
        while worklist:
            label = worklist.pop(0)
            region = regions[label]
            for f in range(num_features):
                base = list(region.witness)
                probe = list(base)
                # Upper face: largest x[f] keeping this label.
                inside = base[f]
                probe[f] = ru[f]
                if witness_label(probe) == label:
                    region.high[f] = ru[f]
                else:
                    outside = ru[f]
                    while outside - inside > eps:
                        mid = lattice_mid(inside, outside, rl[f])
                        probe[f] = mid
                        if witness_label(probe) == label:
                            inside = mid
                        else:
                            outside = mid
                    region.high[f] = inside
                # Lower face: region intervals are half-open (low, high],
                # so the boundary estimate is the known-outside endpoint.
                inside = base[f]
                probe = list(base)
                probe[f] = rl[f]
                if witness_label(probe) == label:
                    region.low[f] = rl[f] - eps  # range edge stays inside
                else:
                    outside = rl[f]
                    while inside - outside > eps:
                        mid = lattice_mid(outside, inside, rl[f])
                        probe[f] = mid
                        if witness_label(probe) == label:
                            inside = mid
                        else:
                            outside = mid
                    region.low[f] = outside
    except _BudgetExceeded:
        exhausted = True

    model = RuleSetModel(regions=list(regions.values()),
                         ranges_low=rl, ranges_high=ru)
    return BaselineResult(model=model, queries=oracle.queries, exhausted=exhausted)
