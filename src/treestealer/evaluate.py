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
from .errors import (FeatureNotFoundError, PathDeviationError, SchemaError, TruncatedTraceError,
                     json_number, read_json, require_arrays, require_keys, write_json)
from .extraction import dt_extraction
# ``infer`` is unused here, but bench/tracer.py times calls through
# ``evaluate.infer`` and needs the name to exist.
from .trees import DecisionTree, infer, input_rows, leaf_index

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
    row.
    """
    rows: list[tuple[list[float], object]] = []
    width: Optional[int] = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record:
                continue
            if header and lineno == 1:
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
    ``(n, m)`` float array."""
    lows = np.asarray(ranges_low, dtype=float)
    highs = np.asarray(ranges_high, dtype=float)
    return np.random.default_rng(seed).uniform(lows, highs, size=(n, len(lows)))


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
        hit = near.any(axis=0)
        # At most one threshold lies within the margin; argmax finds it.
        nearest = t[near.argmax(axis=0)][hit]
        column[hit] = np.where(column[hit] > nearest, nearest + margin, nearest - margin)
    return X


def label_index(model, inputs) -> tuple[list, np.ndarray]:
    """(labels, index) for a decision tree or a rule-set model, with
    ``labels[index[i]]`` the prediction for input row ``i``."""
    if isinstance(model, DecisionTree):
        return leaf_index(model, inputs)
    return model.region_index(inputs)


def predict_labels(model, inputs) -> list:
    """Each input row's predicted label, computed in bulk: a tree's leaf
    value, or a rule set's first region holding the row (the nearest
    witness's region in a gap)."""
    labels, index = label_index(model, inputs)
    return [labels[i] for i in index.tolist()]


def extraction_error(target, shadow, inputs) -> float:
    """Fraction of input rows (a list of rows or a 2-D array) where target
    and shadow predictions differ.

    The 0-1 mismatch average; fidelity is 1 minus this. Symmetric in
    which model is which.
    """
    rows = input_rows(inputs)
    if len(rows) == 0:
        raise ValueError("inputs must be non-empty")
    return _label_error(*_target_codes(target, rows), shadow, rows)


def _target_codes(target, rows: np.ndarray) -> tuple[dict, np.ndarray]:
    """The target's label for each of ``rows`` as an integer code, and the
    dict from each distinct label to its code (equal labels share one)."""
    labels, index = label_index(target, rows)
    codes: dict = {}
    label_codes = np.array([codes.setdefault(v, len(codes)) for v in labels], dtype=np.intp)
    return codes, label_codes[index]


def _label_error(codes: dict, target_codes: np.ndarray, shadow, rows: np.ndarray) -> float:
    """Fraction of ``rows`` where ``shadow`` disagrees with the target's
    coded labels for them; a label the target never gives codes as -1."""
    labels, index = label_index(shadow, rows)
    label_codes = np.array([codes.get(v, -1) for v in labels], dtype=np.intp)
    return int(np.count_nonzero(label_codes[index] != target_codes)) / len(rows)


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
    eval_inputs = input_rows(eval_inputs)
    if len(eval_inputs) == 0:
        raise ValueError("eval_inputs must be non-empty")
    # The target and the samples are fixed for the whole sweep.
    codes, target_codes = _target_codes(target, eval_inputs)
    shadow_at = _extractor_shadow if attack == "extractor" else _baseline_shadow
    result = SweepResult(attack=attack)
    for epsilon in (eps_start / (2 ** i) for i in range(SWEEP_MAX_POINTS)):
        if epsilon == 0:
            break
        started = time.perf_counter()
        session = ChannelSession(channel, seed=seed)
        try:
            shadow = shadow_at(target, epsilon, session)
            fid = 1.0 - _label_error(codes, target_codes, shadow, eval_inputs)
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
