"""The branch-history register and its collision-based readout.

A taken branch shifts a 2-bit footprint of (branch, target) addresses
into a 194-doublet register; not-taken branches leave it alone. One tree
node costs nine doublets: eight fixed loop branches plus one whose value
says left (3) or right (2). The readout loop recovers the register one
doublet at a time by forcing predictor collisions and watching the
mispredict counter spike.
"""
from treestealer import (
    decode_branch_trace,
    encode_inference,
    extract_via_collisions,
    footprint,
    format_doublets,
    trace_from_text,
    trace_text,
)
from treestealer.phr import readout_counts, register_image

print("footprint(0x4ab4, 0x4ab4 ^ 2) =", footprint(0x4AB4, 0x4AB4 ^ 2))

for text in ("LLLLL", "RLRLR"):
    stream = encode_inference(trace_from_text(text))
    # Drop the root's fixed block to show the distinctive part, newest first.
    print(f"path {text}: register content {format_doublets(stream[:-8])} <- root")

# What the attacker actually faces: the traversal doublets buried under
# 103 enclave-exit doublets. Read the register back through predictor
# collisions, then parse the per-node patterns.
trace = trace_from_text("RLLRL")
register = register_image(trace)

recovered, _ = extract_via_collisions(register)
print("collision readout recovered the register:", recovered == register)
print("mispredict counts while probing doublet 0:", list(readout_counts(register[0])),
      f"(spike at candidate {register[0]})")

decoded = decode_branch_trace(recovered)
print(f"decoded trace: {trace_text(decoded.trace)} "
      f"(truncated: {decoded.truncated})")

# Deeper than 11 decisions does not fit: 103 exit doublets leave 91,
# which is ten 9-doublet patterns plus a single doublet for the decision
# after the root. The twelfth-from-last decision is pushed out first.
deep = (1,) + (0,) * 11
decoded = decode_branch_trace(register_image(deep))
print(f"depth-12 traversal: recovered {len(decoded.trace)} of 12 decisions, "
      f"truncated={decoded.truncated} (the root's R is gone: "
      f"{trace_text(decoded.trace)})")
