"""Decision trees with traced inference.

Every inner node compares one feature against a threshold: values above
the threshold go left (trace bit 0), everything else goes right (bit 1).
The branch trace is the whole point of this package: it is what a
side channel leaks about each query.
"""
from treestealer import (
    generate_random_tree,
    infer_with_trace,
    load_tree,
    min_path_separation,
    save_tree,
    trace_text,
    train_cart,
    tree_equal,
)

# A random tree with thresholds on a 0.5 grid, well separated along every
# path, so later demos can extract it exactly.
tree = generate_random_tree(
    num_features=3,
    depth_min=2,
    depth_max=4,
    ranges=[(0.0, 8.0)] * 3,
    threshold_grid=0.5,
    seed=7,
)
print(f"random tree: {len(tree.inner_nodes())} inner nodes, "
      f"{len(tree.leaves())} leaves, depth {tree.depth()}")
print(f"minimal threshold separation along paths: {min_path_separation(tree):g}")

for x in ([8.0, 8.0, 8.0], [0.0, 0.0, 0.0], [4.2, 1.0, 7.7]):
    label, trace = infer_with_trace(tree, x)
    print(f"  input {x} -> label {label}, trace {trace_text(trace) or '(root is leaf)'}")

# Round-trip through the JSON schema.
save_tree(tree, "/tmp/demo_tree.json")
again = load_tree("/tmp/demo_tree.json")
print("serialization round trip:", tree_equal(tree, again, 0.0).equal)

# CART training for realistic targets: thresholds are midpoints between
# adjacent data values, which is what keeps dataset fidelity meaningful.
rows = [([float(i), float(i % 3)], int(i >= 5)) for i in range(10)]
cart = train_cart(rows, max_depth=4)
print(f"CART on a toy dataset: {len(cart.inner_nodes())} splits, "
      f"root at feature {cart.root.feature} <= {cart.root.threshold}")
