"""Datasets, fidelity metrics, epsilon-halving sweeps, and reports."""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baseline import api_attack_extract
from .channel import ChannelModel, ChannelSession, label_only_oracle, make_oracle
from .errors import (DimensionMismatchError, FeatureNotFoundError, PathDeviationError,
                     SchemaError, TruncatedTraceError, json_number, read_json,
                     require_arrays, require_keys, write_json)
from .extraction import dt_extraction
# ``infer`` is unused here, but bench/tracer.py times calls through
# ``evaluate.infer`` and needs the name to exist.
from .trees import DecisionTree, infer, input_rows

SWEEP_MAX_POINTS = 64  # epsilon halvings a sweep tries at most
SWEEP_STATUSES = ("ok", "timeout", "plateau", "path_deviation", "truncated", "exhausted")


@dataclass
class Dataset:
    """Rows of (feature vector, label)."""

    rows: list[tuple[list[float], object]]

    def inputs(self) -> list[list[float]]:
        return [row[0] for row in self.rows]

    def labels(self) -> list[object]:
        return [row[1] for row in self.rows]


def load_dataset(path, header: bool = False) -> Dataset:
    """Read a CSV whose last column is the label; features are finite
    numbers (``nan`` or ``inf`` raise ``SchemaError`` naming the cell).

    Integer-looking labels load as ints, other numerics as floats, and
    anything else as strings (class names). ``header`` skips the first
    non-empty row.
    """
    rows: list[tuple[list[float], object]] = []
    width: Optional[int] = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record:
                continue
            if header:
                header = False
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise SchemaError(
                    f"row {lineno}: {len(record)} columns, expected {width}")
            features = []
            for col, cell in enumerate(record[:-1]):
                try:
                    value = float(cell)
                except ValueError:
                    raise SchemaError(
                        f"row {lineno}, column {col + 1}: non-numeric feature {cell!r}")
                if not math.isfinite(value):
                    raise SchemaError(
                        f"row {lineno}, column {col + 1}: non-finite feature {cell!r}")
                features.append(value)
            rows.append((features, _parse_label(record[-1])))
    if not rows:
        raise SchemaError("dataset has no data rows")
    return Dataset(rows=rows)


def _parse_label(cell: str) -> object:
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def uniform_inputs(ranges_low: Sequence[float], ranges_high: Sequence[float],
                   n: int, seed: int = 0) -> np.ndarray:
    """n inputs sampled uniformly inside the feature ranges, as one
    ``(n, m)`` float array.

    One ``Generator.random`` block scaled by the range widths, element by
    element ``low + width * u``: the arithmetic ``Generator.uniform``
    does, so the samples equal ``uniform(lows, highs, size=(n, m))`` bit
    for bit without its per-element broadcast of array bounds. A range
    whose width is not a finite double raises ``ValueError`` naming the
    feature.
    """
    lows = np.asarray(ranges_low, dtype=float)
    highs = np.asarray(ranges_high, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        span = highs - lows
    wide = np.flatnonzero(~np.isfinite(span))
    if wide.size:
        f = int(wide[0])
        raise ValueError(f"feature {f} range [{float(lows[f])!r}, {float(highs[f])!r}] "
                         f"cannot be sampled: its width is not a finite double")
    X = np.random.default_rng(seed).random((n, len(lows)))
    X *= span
    X += lows
    return X


def _thresholds_by_feature(tree: DecisionTree) -> dict[int, list[float]]:
    """Each tested feature's distinct thresholds, ascending."""
    per_feature: dict[int, set[float]] = {}
    for node in tree.inner_nodes():
        per_feature.setdefault(node.feature, set()).add(node.threshold)
    return {f: sorted(values) for f, values in per_feature.items()}


def threshold_margin(tree: DecisionTree) -> float:
    """Half the smallest same-feature gap between the tree's thresholds
    (and between thresholds and range limits)."""
    return _half_smallest_gap(tree, _thresholds_by_feature(tree))


def _half_smallest_gap(tree: DecisionTree, by_feature: dict[int, list[float]]) -> float:
    """``threshold_margin`` from the tree's thresholds as already collected."""
    best = np.inf
    for f, values in by_feature.items():
        best = min(best, values[0] - tree.ranges_low[f],
                   tree.ranges_high[f] - values[-1])
        for a, b in zip(values, values[1:]):
            best = min(best, b - a)
    return float(best / 2) if np.isfinite(best) else np.inf


def boundary_margin_inputs(tree: DecisionTree, n: int, seed: int = 0) -> np.ndarray:
    """Uniform samples nudged off the target's decision boundaries, as
    one ``(n, m)`` float array.

    Training rows never sit on a trained tree's thresholds (those are
    midpoints between data values), so dataset-style fidelity is immune
    to sub-margin threshold error. This sampler reproduces that property
    for synthetic targets: any coordinate closer than the margin to one
    of the tree's thresholds on that feature is pushed to exactly the
    margin away, on the side it started (ties push right-side, i.e.
    down). The margin is ``threshold_margin(tree)``, half the minimal
    threshold separation, so no coordinate lies within it of two
    thresholds and pushing never crosses a neighboring boundary.
    """
    by_feature = _thresholds_by_feature(tree)
    margin = _half_smallest_gap(tree, by_feature)
    X = uniform_inputs(tree.ranges_low, tree.ranges_high, n, seed)
    for f, thresholds in by_feature.items():
        column = X[:, f]  # a view: writes land in X
        t = np.asarray(thresholds)
        # (k, n): the reductions run along the long row axis.
        near = np.abs(t[:, None] - column) < margin
        rows = np.flatnonzero(near.any(axis=0))
        # At most one threshold lies within the margin; argmax finds it.
        nearest = t[near[:, rows].argmax(axis=0)]
        column[rows] = np.where(column[rows] > nearest, nearest + margin, nearest - margin)
    return X


class RowSetScorer:
    """Scores models on one fixed block of input rows, each prediction a
    set of rows held as a Python int: bit ``i`` stands for row ``i``.

    ``above(f, v)``, the rows with ``x[f] > v``, is every row when ``v``
    lies below column ``f``'s minimum and none when it is at or above its
    maximum (both read once, at construction; a column holding a NaN
    takes neither shortcut). Otherwise it is built on first use from one
    numpy compare over a contiguous copy of column ``f`` and kept for the
    scorer's life, ``n / 8`` bytes per distinct ``(feature, value)``. A
    sweep scores every point through one scorer, so each distinct
    threshold meets the rows once per sweep and every later split is a
    big-int ``&``: the saving rests on points reusing thresholds. A
    one-shot score reuses none and pays one compare per distinct
    threshold, which the contiguous columns keep cheap.
    """

    def __init__(self, inputs):
        self.rows = input_rows(inputs)
        self.columns = np.ascontiguousarray(self.rows.T)
        self.n = len(self.rows)
        self.everything = (1 << self.n) - 1
        # Per column; NaN when the column holds one, which no compare passes.
        self.lowest = self.columns.min(axis=1).tolist() if self.n else []
        self.highest = self.columns.max(axis=1).tolist() if self.n else []
        self._above: dict[tuple[int, float], int] = {}

    def above(self, f: int, v: float) -> int:
        """The rows whose feature ``f`` is greater than ``v``."""
        if v < self.lowest[f]:
            return self.everything
        if v >= self.highest[f]:
            return 0
        key = (f, v)
        rows = self._above.get(key)
        if rows is None:
            rows = self._above[key] = self.pack(self.columns[f] > v)
        return rows

    @staticmethod
    def pack(mask: np.ndarray) -> int:
        """A bool array, one entry per row, as a row set."""
        return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")

    def mask(self, rows: int) -> np.ndarray:
        """A row set as a bool array, one entry per row."""
        packed = np.frombuffer(rows.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little").view(bool)

    def label_sets(self, model) -> list[tuple[object, int]]:
        """(label, rows) pairs splitting the rows by ``model``'s
        prediction: a tree's leaves, or a rule set's regions in list order.

        A tree's rows descend one explicit stack, each node's set split
        into ``x > t`` (left) and the rest (right). A rule set's row
        belongs to the first region whose box (low, high] holds it; rows
        no region holds go to ``RuleSetModel._nearest_witness``'s region.
        """
        is_tree = isinstance(model, DecisionTree)
        width = model.num_features if is_tree else len(model.ranges_low)
        if self.n and self.rows.shape[1] != width:
            raise DimensionMismatchError(
                f"input has {self.rows.shape[1]} features, model expects {width}")
        return self._tree_sets(model) if is_tree else self._rule_sets(model)

    def _tree_sets(self, tree: DecisionTree) -> list[tuple[object, int]]:
        pairs = []
        stack = [(tree.root, self.everything)]
        while stack:
            node, rows = stack.pop()
            if node.value is not None:
                pairs.append((node.value, rows))
            elif rows:
                left = rows & self.above(node.feature, node.threshold)
                stack += ((node.right, rows ^ left), (node.left, left))
        return pairs

    def _rule_sets(self, model) -> list[tuple[object, int]]:
        remaining = self.everything
        boxes = []
        for region in model.regions:
            box = remaining
            for f, (low, high) in enumerate(zip(region.low, region.high)):
                if not box:
                    break
                # No x has x <= high when high is NaN.
                box &= (self.above(f, low) & ~self.above(f, high)) if high == high else 0
            remaining ^= box
            boxes.append(box)
        if remaining:
            gaps = np.flatnonzero(self.mask(remaining))
            nearest = np.array([model._nearest_witness(x) for x in self.rows[gaps].tolist()])
            for k in np.unique(nearest).tolist():
                fill = np.zeros(self.n, dtype=bool)
                fill[gaps[nearest == k]] = True
                boxes[k] |= self.pack(fill)
        return [(region.label, box) for region, box in zip(model.regions, boxes)]

    def by_label(self, model) -> dict:
        """Each label ``model`` gives, mapped to the rows it gives it;
        equal labels share one entry (``1``, ``1.0`` and ``True`` are one
        label, ``"1"`` is another)."""
        rows_of: dict = {}
        for label, rows in self.label_sets(model):
            rows_of[label] = rows_of.get(label, 0) | rows
        return rows_of

    def error(self, target: dict, shadow) -> float:
        """Fraction of the rows where ``shadow`` disagrees with the target
        given as ``by_label(target)``."""
        agree = sum((rows & target.get(label, 0)).bit_count()
                    for label, rows in self.label_sets(shadow))
        return (self.n - agree) / self.n


def extraction_error(target, shadow, inputs) -> float:
    """Fraction of input rows (a list of rows or a 2-D array) where target
    and shadow predictions differ.

    The 0-1 mismatch average; fidelity is 1 minus this. Symmetric in
    which model is which.
    """
    scorer = RowSetScorer(inputs)
    if scorer.n == 0:
        raise ValueError("inputs must be non-empty")
    return scorer.error(scorer.by_label(target), shadow)


def fidelity(target, shadow, inputs) -> float:
    return 1.0 - extraction_error(target, shadow, inputs)


@dataclass
class SweepPoint:
    epsilon: float
    queries: int
    fidelity: float
    wall_time: Optional[float]  # None when loaded from an untimed report
    status: str  # one of SWEEP_STATUSES


@dataclass
class SweepResult:
    attack: str
    points: list[SweepPoint] = field(default_factory=list)


def pareto_frontier(points: Sequence[SweepPoint]) -> list[SweepPoint]:
    """Non-dominated (queries, fidelity) points, queries ascending and
    fidelity strictly increasing along the frontier."""
    frontier: list[SweepPoint] = []
    best_fidelity = -1.0
    for point in sorted(points, key=lambda p: (p.queries, -p.fidelity)):
        if point.fidelity > best_fidelity:
            frontier.append(point)
            best_fidelity = point.fidelity
    return frontier


def _extractor_shadow(target: DecisionTree, epsilon: float, session: ChannelSession):
    result = dt_extraction(make_oracle(target, session), target.ranges_low,
                           target.ranges_high, epsilon)
    return result.to_decision_tree(target.ranges_low, target.ranges_high)


def _baseline_shadow(target: DecisionTree, epsilon: float, session: ChannelSession):
    return api_attack_extract(label_only_oracle(target, session), target.ranges_low,
                              target.ranges_high, epsilon).model


def pareto_sweep(
    target: DecisionTree,
    attack: str,
    eval_inputs: Sequence[Sequence[float]],
    channel: ChannelModel = ChannelModel(),
    eps_start: float = 100.0,
    timeout: float = 60.0,
    plateau_limit: int = 10,
    seed: int = 0,
) -> SweepResult:
    """Run an attack at halving resolutions until it is perfect, too slow,
    or stuck.

    One point per epsilon records (queries answered by the oracle,
    fidelity on ``eval_inputs``, wall time, status); the sweep stops at
    fidelity 1.0, a run exceeding ``timeout`` seconds (positive; ``inf``
    never fires), or ``plateau_limit`` (at least 1) consecutive runs with
    identical fidelity. Runs aborted by a path deviation or an
    undetectable feature score fidelity 0 and the sweep halves epsilon,
    the same response as any other imperfect run. A run aborted by
    register truncation scores fidelity 0 and ends the sweep: no epsilon
    shortens a leaf path. The halving stops before epsilon underflows to
    0, so a subnormal ``eps_start`` gives fewer points; a sweep that runs
    out of epsilons marks its last point ``exhausted`` if it was ``ok``.
    """
    if attack not in ("extractor", "baseline"):
        raise ValueError(f"unknown attack {attack!r}")
    if not 0 < eps_start < math.inf:
        raise ValueError("eps_start must be finite and positive")
    if not timeout > 0:
        raise ValueError("timeout must be positive")
    if plateau_limit < 1:
        raise ValueError("plateau_limit must be at least 1")
    scorer = RowSetScorer(eval_inputs)
    if scorer.n == 0:
        raise ValueError("eval_inputs must be non-empty")
    # The target and the samples are fixed for the whole sweep.
    target_rows = scorer.by_label(target)
    shadow_at = _extractor_shadow if attack == "extractor" else _baseline_shadow
    result = SweepResult(attack=attack)
    for epsilon in (eps_start / (2 ** i) for i in range(SWEEP_MAX_POINTS)):
        if epsilon == 0:
            break
        started = time.perf_counter()
        session = ChannelSession(channel, seed=seed)
        try:
            shadow = shadow_at(target, epsilon, session)
            fid = 1.0 - scorer.error(target_rows, shadow)
            status = "ok"
        except (PathDeviationError, FeatureNotFoundError):
            # Resolution too coarse for this target; halve and retry.
            fid, status = 0.0, "path_deviation"
        except TruncatedTraceError:
            fid, status = 0.0, "truncated"
        wall = time.perf_counter() - started
        point = SweepPoint(epsilon=epsilon, queries=session.queries_observed, fidelity=fid,
                           wall_time=wall, status="timeout" if wall > timeout else status)
        result.points.append(point)
        if point.status in ("timeout", "truncated") or fid >= 1.0:
            return result
        tail = result.points[-plateau_limit:]
        if len(tail) == plateau_limit and len({p.fidelity for p in tail}) == 1:
            if point.status == "ok":
                point.status = "plateau"
            return result
    if point.status == "ok":
        point.status = "exhausted"
    return result


def sweep_to_dict(result: SweepResult, include_timing: bool = True) -> dict:
    points = []
    for p in result.points:
        entry = {"epsilon": p.epsilon, "queries": p.queries,
                 "fidelity": p.fidelity, "status": p.status}
        if include_timing and p.wall_time is not None:
            entry["wall_time"] = p.wall_time
        points.append(entry)
    frontier = [{"epsilon": p.epsilon, "queries": p.queries, "fidelity": p.fidelity}
                for p in pareto_frontier(result.points)]
    return {"attack": result.attack, "points": points, "pareto_frontier": frontier}


def sweep_from_dict(data: dict) -> SweepResult:
    require_keys(data, ("attack", "points"))
    require_arrays(data, ("points",))
    for i, p in enumerate(data["points"]):
        where = f"point {i}: "
        require_keys(p, ("epsilon", "queries", "fidelity", "status"), where)
        json_number(p["epsilon"], "epsilon", where)
        json_number(p["queries"], "queries", where, integer=True)
        json_number(p["fidelity"], "fidelity", where)
        if "wall_time" in p:
            json_number(p["wall_time"], "wall_time", where)
        if p["status"] not in SWEEP_STATUSES:
            raise SchemaError(f'{where}"status" must be one of {", ".join(SWEEP_STATUSES)}, '
                              f"got {json.dumps(p['status'])}", field="status")
    points = [SweepPoint(epsilon=p["epsilon"], queries=p["queries"],
                         fidelity=p["fidelity"], wall_time=p.get("wall_time"),
                         status=p["status"])
              for p in data["points"]]
    return SweepResult(attack=data["attack"], points=points)


def emit_report(results: dict[str, SweepResult], out_dir,
                include_timing: bool = True) -> tuple[Path, Path]:
    """Write report.json (full) and report.csv (one row per point) for
    sweeps keyed by attack name.

    ``include_timing=False`` omits wall-clock fields so reruns with the
    same seed emit byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    doc = {"attacks": {name: sweep_to_dict(res, include_timing)
                       for name, res in sorted(results.items())}}
    write_json(json_path, doc)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["attack", "epsilon", "queries", "fidelity", "status"])
        for name, res in sorted(results.items()):
            for p in res.points:
                writer.writerow([name, repr(p.epsilon), p.queries,
                                 repr(p.fidelity), p.status])
    return json_path, csv_path


def load_report(path) -> dict[str, SweepResult]:
    doc = read_json(path)
    require_keys(doc, ("attacks",))
    require_keys(doc["attacks"], (), '"attacks": ')
    return {name: sweep_from_dict(data) for name, data in doc["attacks"].items()}
