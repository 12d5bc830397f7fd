"""Three views of the same oracle: perfect, register, step counters.

The extractor never touches the tree directly; it sees an oracle that
returns the true prediction plus a trace observed through one channel
model. With zero noise and depths within the register budget all three
channels are interchangeable, and the attack produces identical shadows.
"""
from treestealer import (
    PERFECT,
    PHR_SGX,
    STEP_COUNTER_SEV,
    ChannelModel,
    ChannelSession,
    TruncatedTraceError,
    dt_extraction,
    generate_random_tree,
    make_oracle,
    observe,
    tree_equal,
)
from treestealer.phr import MAX_DEPTH

tree = generate_random_tree(2, 2, 4, [(0.0, 8.0)] * 2, 0.5, seed=21)
print(f"target: {len(tree.inner_nodes())} inner nodes, depth {tree.depth()}")

shadows = {}
for kind in (PERFECT, PHR_SGX, STEP_COUNTER_SEV):
    session = ChannelSession(ChannelModel(kind=kind), seed=0)
    result = dt_extraction(make_oracle(tree, session), tree.ranges_low,
                           tree.ranges_high, epsilon=0.25,
                           record_transcript=False)
    shadows[kind] = result.to_decision_tree(tree.ranges_low, tree.ranges_high)
    print(f"  {kind:<17} {result.queries} queries")
print("register shadow == perfect shadow:",
      tree_equal(shadows[PERFECT], shadows[PHR_SGX], 0.0).equal)
print("step-counter shadow == perfect shadow:",
      tree_equal(shadows[PERFECT], shadows[STEP_COUNTER_SEV], 0.0).equal)

# The register budget: 194 doublets minus 103 for the exit code is 91,
# enough for ten full per-node patterns plus the root's direction.
model = ChannelModel(kind=PHR_SGX)
print(f"\nregister channel supports depths up to {MAX_DEPTH}")

deep = generate_random_tree(1, 12, 12, [(0.0, 65536.0)], 1.0, seed=3)
try:
    observe(deep, [65536.0], ChannelSession(model, seed=0))
except TruncatedTraceError as exc:
    print(f"register readout of a depth-12 path: {exc}")

# Measurement noise flips trace bits, never the prediction.
noisy = ChannelSession(ChannelModel(flip_noise=0.3), seed=5)
flips = 0
for _ in range(50):
    r = observe(tree, [8.0, 8.0], noisy)
    assert r.label == observe(tree, [8.0, 8.0],
                              ChannelSession(ChannelModel(), seed=0)).label
    flips += sum(b != e for b, e in zip(r.trace, [0] * len(r.trace)))
print(f"\nnoise 0.3: {flips} flipped bits across 50 observations "
      f"of the all-left path")
