"""Query cost versus fidelity: trace-guided attack against the label-only
baseline.

Both attacks run at halving resolutions until perfect, too slow, or
stuck, exactly like a cost/accuracy sweep. The trace-guided extractor
needs one pass per node; the baseline must box in every leaf region with
per-feature binary searches, so it pays more for the same fidelity.
"""
from treestealer import (
    boundary_margin_inputs,
    emit_report,
    generate_random_tree,
    pareto_frontier,
    pareto_sweep,
)

target = generate_random_tree(3, 3, 5, [(0.0, 16.0)] * 3, 0.5, seed=12)
print(f"target: {len(target.inner_nodes())} inner nodes, "
      f"{len(target.leaves())} leaves, depth {target.depth()}")

eval_inputs = boundary_margin_inputs(target, 1000, seed=0)
results = {}
for attack in ("extractor", "baseline"):
    sweep = pareto_sweep(target, attack, eps_start=100.0, eval_inputs=eval_inputs, seed=0)
    results[attack] = sweep
    print(f"\n[{attack}]")
    print(f"  {'epsilon':>12} {'queries':>8} {'fidelity':>9} status")
    for p in sweep.points:
        print(f"  {p.epsilon:>12g} {p.queries:>8} {p.fidelity:>9.4f} {p.status}")
    frontier = pareto_frontier(sweep.points)
    print("  pareto frontier:",
          ", ".join(f"({p.queries} queries, {p.fidelity:.3f})" for p in frontier))

ext = results["extractor"].points[-1]
base = results["baseline"].points[-1]
print(f"\nat full fidelity: extractor {ext.queries} queries "
      f"vs baseline {base.queries}")

json_path, csv_path = emit_report(results, "/tmp/treestealer_report")
print(f"report written to {json_path} and {csv_path}")
