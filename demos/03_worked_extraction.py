"""Step-by-step extraction of the reference two-feature target.

The target: root checks feature 0 at 3.094; its left child checks
feature 1; the right-hand path checks feature 1 at three different
depths (-0.906, 1.906, then 0.094), so the attack must handle a feature
reused along one path. Feature ranges are [2, 7] and [-2, 3], extraction
resolution 0.5.
"""
from treestealer import (
    ChannelModel,
    ChannelSession,
    dt_extraction,
    make_oracle,
    tree_equal,
)
from treestealer.trees import DecisionTree, TreeNode, assign_ids_breadth_first


def leaf(value):
    return TreeNode(value=value)


def inner(feature, threshold, left, right):
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


n8 = inner(1, 0.094, leaf(3), leaf(4))
n3 = inner(1, 1.906, leaf(2), n8)
n2 = inner(1, -0.906, n3, leaf(5))
n1 = inner(1, 0.594, leaf(0), leaf(1))
root = inner(0, 3.094, n1, n2)
assign_ids_breadth_first(root)
target = DecisionTree(root=root, ranges_low=[2, -2], ranges_high=[7, 3])

session = ChannelSession(ChannelModel(), seed=0)
result = dt_extraction(make_oracle(target, session),
                       target.ranges_low, target.ranges_high, epsilon=0.5)

print("query  phase      target  input                    label  trace")
for e in result.transcript:
    print(f"{e.query_index:>5}  {e.phase:<9}  {str(e.target_node_id):>6}  "
          f"{str([round(v, 5) for v in e.input]):<23}  {e.label!s:>5}  {e.trace}")

shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
print(f"\ntotal queries: {result.queries}")
print(f"recovered root: feature {shadow.root.feature}, "
      f"threshold {shadow.root.threshold}")
diff = tree_equal(target, shadow, threshold_tol=0.25)
print(f"shadow equals target within epsilon/2 = 0.25: {diff.equal}")

# The highlights of the run: query 1 explores the leftmost path; query 2
# toggles feature 0 to its minimum and flips the root; queries 3-6 binary
# search the root threshold down to 3.09375; queries 7-8 find the left
# child's feature; the last feature probe of the deepest node lands at
# -0.40625, just past the largest left-going ancestor threshold on the
# same feature.
