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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    SchemaError,
    json_number,
    label_fault,
    require_arrays,
    require_keys,
    require_lengths,
)
from .trees import check_ranges, midpoint

QUERY_BUDGET = 200_000  # distinct label queries per baseline run, by default


@dataclass
class LeafRegion:
    """One recovered leaf cell: half-open per-feature intervals (low, high]."""

    label: object
    witness: list[float]
    low: list[float]
    high: list[float]


@dataclass
class RuleSetModel:
    """Rule-set approximation of the target; consistent with every query
    issued while building it."""

    regions: list[LeafRegion]
    ranges_low: list[float]
    ranges_high: list[float]

    def _nearest_witness(self, x: Sequence[float]) -> int:
        # Boundary-estimate gaps: fall back to the nearest witness.
        return min(range(len(self.regions)), key=lambda k: sum(
            (a - b) ** 2 for a, b in zip(x, self.regions[k].witness)))

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
        require_arrays(data, ("regions", "ranges_low", "ranges_high"))
        if not data["regions"]:
            raise SchemaError('"regions" must hold at least one region', field="regions")
        # One value per feature everywhere, or scoring misreads bounds.
        width = len(data["ranges_low"])
        require_lengths(data, ("ranges_high",), width)
        for key in ("ranges_low", "ranges_high"):
            for value in data[key]:
                json_number(value, key)
        for i, r in enumerate(data["regions"]):
            where = f"region {i}: "
            require_keys(r, ("label", "witness", "low", "high"), where)
            require_arrays(r, ("witness", "low", "high"), where)
            require_lengths(r, ("witness", "low", "high"), width, where)
            for key in ("witness", "low", "high"):
                for value in r[key]:
                    json_number(value, key, where)
            fault = label_fault(r["label"])
            if fault:
                raise SchemaError(f"{where}{fault}", field="label")
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


_UNASKED = object()  # marks an input not yet in the answer cache


def api_attack_extract(
    label_oracle: Callable[[Sequence[float]], object],
    ranges_low: Sequence[float],
    ranges_high: Sequence[float],
    epsilon: float,
    max_queries: int = QUERY_BUDGET,
) -> BaselineResult:
    """Map every leaf region reachable from the initial witness.

    Answers are cached per input, so a repeated input is free and
    ``max_queries`` (default ``QUERY_BUDGET``) bounds the number of
    distinct inputs sent to the oracle; reaching it returns the regions
    mapped so far with ``exhausted`` set. The oracle receives each input
    as the tuple of floats that keys its cached answer, so it is called
    once per distinct input and must not rely on getting a list. Each
    bisection point is the bracket's centre snapped onto the lattice
    ``ranges_low[f] + k * epsilon`` when that stays strictly inside the
    bracket. Boundary estimates are the query-consistent bracket
    endpoints, so on targets whose thresholds sit on an epsilon-aligned
    grid they are exact. Duplicate leaf labels merge regions and only
    degrade fidelity, never raise.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    if max_queries <= 0:
        raise ValueError("max_queries must be positive")
    isfinite = math.isfinite
    rl = [float(v) for v in ranges_low]
    ru = [float(v) for v in ranges_high]
    check_ranges(rl, ru)
    answers: dict[tuple, object] = {}
    regions: dict[object, LeafRegion] = {}
    worklist: list[object] = []

    def witness_label(x: list[float]) -> object:
        key = tuple(x)
        label = answers.get(key, _UNASKED)
        if label is not _UNASKED:
            return label
        if len(answers) >= max_queries:
            raise _BudgetExceeded
        label = answers[key] = label_oracle(key)
        if label not in regions:
            regions[label] = LeafRegion(label=label, witness=list(key),
                                        low=list(rl), high=list(ru))
            worklist.append(label)
        return label

    def face(witness: list[float], f: int, limit: float, label: object):
        """Bisect feature ``f`` from the witness toward ``limit`` for the
        face of ``label``'s region; None when ``limit`` keeps the label.

        Otherwise the result is the low end of the final bracket: the
        last value keeping the label on an upper face, the last one
        losing it on a lower face, matching the half-open (low, high].
        """
        probe = list(witness)
        probe[f] = limit
        if witness_label(probe) == label:
            return None
        upper = limit > witness[f]
        lo, hi = (witness[f], limit) if upper else (limit, witness[f])
        origin = rl[f]
        while hi - lo > epsilon:
            mid = midpoint(lo, hi)
            # Snap onto the epsilon lattice: exact boundaries when the
            # target's thresholds share it.
            steps = (mid - origin) / epsilon
            if isfinite(steps):  # not so for a subnormal epsilon
                snapped = origin + round(steps) * epsilon
                if lo < snapped < hi:
                    mid = snapped
            if not lo < mid < hi:
                break  # too narrow for floats to bisect
            probe[f] = mid
            if (witness_label(probe) == label) == upper:
                lo = mid
            else:
                hi = mid
        return lo

    exhausted = False
    try:
        witness_label(list(ru))
        while worklist:
            label = worklist.pop(0)
            region = regions[label]
            for f in range(len(rl)):
                high = face(region.witness, f, ru[f], label)
                region.high[f] = ru[f] if high is None else high
                low = face(region.witness, f, rl[f], label)
                # A lower range edge that keeps the label stays inside (low, high].
                region.low[f] = rl[f] - epsilon if low is None else low
    except _BudgetExceeded:
        exhausted = True

    model = RuleSetModel(regions=list(regions.values()),
                         ranges_low=rl, ranges_high=ru)
    return BaselineResult(model=model, queries=len(answers), exhausted=exhausted)
