"""treestealer benchmark: host cost of extraction, per channel, and of sweeps.

Run from the repository root:

    python3 bench/run.py --workload extract-fast --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py``, the metric names and units
in ``BENCHMARK.json`` at the repository root. With ``--trace 0`` the
timed passes repeat the workload's items until ``--seconds`` have passed
(at least one full pass) and the end-to-end metrics are printed; times are
scaled to a host of fixed speed (``hostspeed.py``). With
``--trace 1`` each item runs once untraced and once traced, and the per-layer
metrics are printed; the spans and a layer report are written to
``bench/out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. All times are host
wall-clock time of this single process.
"""
from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 50
BLOCK_SECONDS = 0.4
ANCHOR = {"trees": 40, "seed": 2024, "epsilon": 0.25, "queries": 2981, "distinct": 423}
TRACE_ITEMS = {"extract-fast": None, "extract-phr": None, "sweep": 16}
LAYERS = ("trees", "channel", "phr", "extraction", "evaluate", "baseline", "bench")


def load_package():
    """Import treestealer from this checkout's ``src`` or exit."""
    src = ROOT / "src"
    if not (src / "treestealer" / "__init__.py").is_file():
        sys.exit(f"bench: no treestealer sources under {src}")
    sys.path.insert(0, str(src))
    import treestealer
    if Path(treestealer.__file__).resolve().parent != (src / "treestealer").resolve():
        sys.exit(f"bench: imported treestealer from {treestealer.__file__}, not {src}")


def load_spec() -> tuple[dict, dict, dict]:
    """(workload reasons, end-to-end units, per-layer units) by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({w["name"]: w["why"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tail_percentile(n: int) -> int:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            return p
    return 50


def percentile(values, p: int) -> float:
    return statistics.median(values) if p == 50 else statistics.quantiles(values, n=100)[p - 1]


class Pass:
    """Per-item host times and outcomes over one or more passes."""

    def __init__(self, items):
        self.items = items
        self.times = [[] for _ in items]
        self.outcomes = [None] * len(items)
        self.errors: dict[int, str] = {}
        self.unrepeatable: list[str] = []
        self.attempted = 0
        self.passes = 0
        self.speed: HostSpeed | None = None

    def run_item(self, workload, i, tracer=None) -> float | None:
        """Run and check item ``i``; its host seconds, or None on a typed error."""
        from treestealer.errors import TreeStealerError
        item = self.items[i]
        self.attempted += 1
        started = perf_counter()
        try:
            if tracer is None:
                raw = workload.run(item)
            else:
                with tracer.request(i):
                    raw = workload.run(item)
        except TreeStealerError as exc:
            self.errors[i] = f"{type(exc).__name__}: {exc}"
            return None
        elapsed = perf_counter() - started
        outcome = workload.check(item, raw)
        first = self.outcomes[i]
        if first is None:
            self.outcomes[i] = outcome
        elif outcome.counts != first.counts or outcome.exact != first.exact:
            self.unrepeatable.append(item.label)
        return elapsed

    def run(self, workload, seconds: float) -> "Pass":
        """Repeat passes over the items until ``seconds`` have passed and
        one full pass is done, recording host-speed-scaled item times."""
        gc.collect()
        deadline = perf_counter() + seconds
        self.speed = speed = HostSpeed()
        blocks: list[tuple[int, int, list[tuple[int, float]]]] = []
        block: list[tuple[int, float]] = []
        block_start = perf_counter()
        while not (self.passes >= 1 and perf_counter() >= deadline):
            for i in range(len(self.items)):
                if i in self.errors:
                    continue
                elapsed = self.run_item(workload, i)
                if elapsed is not None:
                    block.append((i, elapsed))
                if perf_counter() - block_start >= BLOCK_SECONDS:
                    end = speed.sample()
                    blocks.append((end - 1, end, block))
                    block, block_start = [], perf_counter()
                if self.passes >= 1 and perf_counter() >= deadline:
                    break
            else:
                self.passes += 1
        end = speed.sample()
        blocks.append((end - 1, end, block))
        for start, end, timed in blocks:
            factor = speed.factor(start, end)
            for i, elapsed in timed:
                self.times[i].append(elapsed * factor)
        return self

    @property
    def done(self) -> list[int]:
        return [i for i, o in enumerate(self.outcomes) if o is not None]

    def item_seconds(self, i: int) -> float:
        """The median of the item's scaled repeats."""
        return statistics.median(self.times[i])

    def total(self, key: str) -> int:
        return sum(self.outcomes[i].counts.get(key, 0) for i in self.done)

    def silently_wrong(self) -> list[str]:
        return [f"{self.items[i].label}: {self.outcomes[i].why}"
                for i in self.done if not self.outcomes[i].exact]


def run_setup(workload, seed: int, repeats: int):
    """Choose the inputs once, then build the items at least ``repeats``
    times and for at least ``SETUP_SECONDS``; (choice, items, median
    set-up seconds). Only building counts: how long the bench's choice
    takes varies with the seed and is no work of the program's."""
    started = perf_counter()
    plan = workload.choose(seed)
    print(f"# inputs chosen in {perf_counter() - started:.3f} s (not counted in setup_s)")
    raw = []
    speed = HostSpeed()
    while len(raw) < repeats or (sum(raw) < SETUP_SECONDS and len(raw) < SETUP_MAX_REPEATS):
        gc.collect()
        started = perf_counter()
        items = workload.setup(plan)
        raw.append(perf_counter() - started)
        speed.sample()
    times = [t * speed.factor(k, k + 1) for k, t in enumerate(raw)]
    print(f"# set-up: {len(times)} repeats, median {statistics.median(times):.4f} s "
          f"(host-speed scaled; {speed.describe()})")
    return plan, items, statistics.median(times)


def anchor_check() -> list[str]:
    """The grid recipe must reproduce the recorded anchor corpus."""
    import corpus
    from workloads import ExtractWorkload, Item
    targets = corpus.grid_corpus(ANCHOR["trees"], ANCHOR["seed"])
    p = Pass([Item(f"anchor/tree{i}", t, "perfect", ANCHOR["epsilon"])
              for i, t in enumerate(targets)])
    for i in range(len(p.items)):
        p.run_item(ExtractWorkload, i)
    queries, distinct = p.total("queries"), p.total("distinct_traces")
    print(f"# anchor: grid corpus of {ANCHOR['trees']} trees, seed {ANCHOR['seed']}: "
          f"{queries} queries, {distinct} distinct (tree, trace) pairs "
          f"(recorded {ANCHOR['queries']}, {ANCHOR['distinct']})")
    if p.errors or p.silently_wrong() or (queries, distinct) != (ANCHOR["queries"],
                                                                  ANCHOR["distinct"]):
        return [f"anchor corpus: {len(p.errors)} failed, {len(p.silently_wrong())} "
                f"silently wrong, {queries} queries, {distinct} distinct traces"]
    return []


def gate(p: Pass, name: str) -> tuple[list[str], int]:
    """(problems that make the run incorrect, typed-error count)."""
    problems = [f"silently wrong: {w}" for w in p.silently_wrong()]
    problems += [f"counts did not repeat: {label}" for label in p.unrepeatable]
    for i, err in sorted(p.errors.items()):
        print(f"# failed: {p.items[i].label}: {err}")
    attempts = len(p.items)
    print(f"# {name} outcomes: exact_share {len(p.done) - len(p.silently_wrong())}/{attempts}, "
          f"failed_share {len(p.errors)}/{attempts}, "
          f"silently_wrong {len(p.silently_wrong())}")
    keys = sorted({k for i in p.done for k in p.outcomes[i].counts})
    print(f"# {name} exact counts: " + json.dumps({k: p.total(k) for k in keys}))
    return problems, len(p.errors)


def end_to_end(workload, p: Pass, setup_s: float) -> dict:
    done = p.done
    seconds = [p.item_seconds(i) for i in done]
    queries = [p.outcomes[i].queries for i in done]
    tail = tail_percentile(len(seconds))
    by_kind: dict[str, list[float]] = {}
    for i in done:
        acc = by_kind.setdefault(p.items[i].kind, [0.0, 0])
        acc[0] += p.item_seconds(i)
        acc[1] += p.outcomes[i].queries
    for kind, (sec, q) in by_kind.items():
        print(f"# {kind}: {1e6 * sec / q:.2f} us/query over {q} queries")
    print(f"# items: {len(done)} (each timed {min(len(p.times[i]) for i in done)}-"
          f"{max(len(p.times[i]) for i in done)} times, median taken), "
          f"{p.passes} full passes; tree_ms_tail is p{tail}")
    print(f"# host speed: {p.speed.describe()}")
    return {
        "setup_s": setup_s,
        "us_per_query": 1e6 * sum(seconds) / sum(queries),
        "tree_ms_p50": 1e3 * statistics.median(seconds),
        "tree_ms_tail": 1e3 * percentile(seconds, tail),
        "queries_per_tree": sum(queries) / len(queries),
    }


def per_layer(workload, untraced: Pass, traced: Pass, tracer, out_stem: Path) -> dict:
    items = set(range(len(traced.items)))
    rows = tracer.self_times(items)
    setup_rows = tracer.self_times({-1})
    total_self = sum(r["self_ms"] for r in rows.values())

    def stat(name, key, table=rows):
        return table.get(name, {}).get(key, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in rows.items():
        layer_self[name.split(".", 1)[0]] += row["self_ms"]

    total = traced.total
    queries = total("queries")
    ratios = [traced.outcomes[i].counts["baseline.final_queries"]
              / traced.outcomes[i].counts["extractor.final_queries"]
              for i in traced.done if "baseline.final_queries" in traced.outcomes[i].counts]
    untraced_ms = 1e3 * sum(sum(t) for t in untraced.times)
    traced_ms = 1e3 * sum(sum(t) for t in traced.times)
    points = total("evaluate.pareto_sweep.points")
    metrics = {
        "trees.infer_with_trace.calls": stat("trees.infer_with_trace", "calls"),
        "trees.infer_with_trace.self_ms": stat("trees.infer_with_trace", "self_ms"),
        "trees.generate_random_tree.self_ms":
            stat("trees.generate_random_tree", "self_ms", setup_rows),
        "channel.observe.calls": stat("channel.observe", "calls"),
        "channel.observe.self_ms": stat("channel.observe", "self_ms"),
        "channel.step_events.self_ms": stat("channel.step_events", "self_ms"),
        "channel.decode_step_counters.self_ms": stat("channel.decode_step_counters", "self_ms"),
        "channel.repeat_trace_share":
            1 - total("distinct_traces") / queries if total("distinct_traces") else 0.0,
        "phr.encode_inference.self_ms": stat("phr.encode_inference", "self_ms"),
        "phr.extract_via_collisions.calls": stat("phr.extract_via_collisions", "calls"),
        "phr.extract_via_collisions.self_ms": stat("phr.extract_via_collisions", "self_ms"),
        "phr.decode_branch_trace.self_ms": stat("phr.decode_branch_trace", "self_ms"),
        "phr.readout_positions": tracer.readout_positions,
        "phr.pht_mispredicts": total("phr.pht_mispredicts"),
        "extraction.dt_extraction.self_ms": stat("extraction.dt_extraction", "self_ms"),
        "extraction.queries.explore": total("extraction.queries.explore"),
        "extraction.queries.feature": total("extraction.queries.feature"),
        "extraction.queries.threshold": total("extraction.queries.threshold"),
        "evaluate.fidelity.calls": stat("evaluate.fidelity", "calls"),
        "evaluate.fidelity.self_ms": stat("evaluate.fidelity", "self_ms"),
        "evaluate.infer.self_ms": stat("evaluate.infer", "self_ms"),
        "evaluate.boundary_margin_inputs.self_ms":
            stat("evaluate.boundary_margin_inputs", "self_ms", setup_rows),
        "evaluate.pareto_sweep.self_ms": stat("evaluate.pareto_sweep", "self_ms"),
        "evaluate.pareto_sweep.points": points,
        "evaluate.pareto_sweep.ok_share":
            total("evaluate.pareto_sweep.ok_points") / points if points else 0.0,
        "baseline.api_attack_extract.self_ms": stat("baseline.api_attack_extract", "self_ms"),
        "baseline.queries": total("baseline.queries"),
        "baseline.query_ratio": statistics.median(ratios) if ratios else 0.0,
        "cart.train_cart.self_ms": stat("cart.train_cart", "self_ms", setup_rows),
        **{f"layer.{layer}.self_share": layer_self[layer] / total_self for layer in LAYERS},
        "trace.spans": len(tracer),
        "trace.untraced_ms": untraced_ms,
        "trace.traced_ms": traced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_share": (traced_ms - untraced_ms) / untraced_ms,
    }
    print(f"# traced pass: {len(traced.items)} items, {queries} queries, "
          f"{len(tracer)} spans; untraced {untraced_ms:.1f} ms, traced {traced_ms:.1f} ms, "
          f"overhead {metrics['trace.overhead_share']:.1%}")
    print("# layer self time (share of the traced pass):")
    for layer in sorted(LAYERS, key=layer_self.get, reverse=True):
        print(f"#   {layer:<11} {layer_self[layer]:10.1f} ms  {layer_self[layer] / total_self:6.1%}")
    print("# function self time:")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"#   {name:<32} {row['calls']:8d} calls {row['self_ms']:10.1f} ms "
              f"{row['self_ms'] / total_self:6.1%}")
    report = {
        "workload": workload.name,
        "items": [it.label for it in traced.items],
        "pass": rows,
        "setup": setup_rows,
        "layer_self_ms": layer_self,
        "metrics": metrics,
    }
    out_stem.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{out_stem}-trace.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    tracer.write(f"{out_stem}-spans.tsv.gz")
    return metrics


def traced_run(workload, items, plan, out_stem: Path):
    """(untraced pass, traced pass, per-layer metrics, problems).

    Each item runs untraced and then traced, so that both runs of an
    item see the same state of the host.
    """
    from tracer import Tracer
    count = TRACE_ITEMS[workload.name]
    subset = items if count is None else items[:count]
    untraced, traced, tracer = Pass(subset), Pass(subset), Tracer()
    with tracer:
        workload.setup(plan)
    gc.collect()
    for i in range(len(subset)):
        for p, t in ((untraced, None), (traced, tracer)):
            elapsed = p.run_item(workload, i, t)
            if elapsed is not None:
                p.times[i].append(elapsed)
    problems = []
    for i, (a, b) in enumerate(zip(untraced.outcomes, traced.outcomes)):
        if a is not None and b is not None and a.counts != b.counts:
            problems.append(f"traced counts differ: {subset[i].label}")
    readout = untraced.total("phr.readout_positions")
    if tracer.readout_positions != readout:
        problems.append(f"readout positions: traced {tracer.readout_positions}, "
                        f"untraced {readout}")
    metrics = per_layer(workload, untraced, traced, tracer, out_stem)
    return untraced, traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    whys, e2e_units, layer_units = load_spec()
    load_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS or args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    workload = WORKLOADS[args.workload]
    print(f"# workload {workload.name}: {whys[workload.name]}")

    plan, items, setup_s = run_setup(workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    problems = []
    if args.trace:
        stem = BENCH / "out" / f"{workload.name}-seed{args.seed}"
        untraced, traced, metrics, problems = traced_run(workload, items, plan, stem)
        runs = {"untraced": untraced, "traced": traced}
        units = layer_units
    else:
        timed = Pass(items).run(workload, args.seconds)
        metrics = end_to_end(workload, timed, setup_s)
        runs = {"timed": timed}
        units = e2e_units
    failed = 0
    for name, p in runs.items():
        more, errors = gate(p, name)
        problems += more
        failed += errors
    problems += anchor_check()
    if set(metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for problem in problems[:20]:
        print(f"# PROBLEM: {problem}")
    if len(problems) > 20:
        print(f"# PROBLEM: ... and {len(problems) - 20} more")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in runs.values()),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
