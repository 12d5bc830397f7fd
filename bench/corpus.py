"""Seeded target corpora for the benchmark.

The corpora take their seed as an argument. Everything here calls only
treestealer's public functions, looked up through their modules at call
time so that a traced run sees them. The recipes follow the acceptance
criteria: the grid recipe is criterion 2's, the register recipes are
criterion 7's and the sweep recipe is criterion 5's.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from treestealer import cart, evaluate, trees

# The seed of the reference corpus whose size mix every seed's corpus matches.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Recipe:
    """The arguments of one ``generate_random_tree`` call, which rebuild
    the same tree every time."""
    m: int
    depth_min: int
    depth_max: int
    width: float
    grid: float
    seed: int
    split_prob: float

    def build(self):
        return trees.generate_random_tree(
            self.m, self.depth_min, self.depth_max, [(0.0, self.width)] * self.m,
            self.grid, self.seed, split_prob=self.split_prob)


def grid_draws(seed: int, m_range=(2, 8), depth_range=(2, 9), width: float = 8.0,
               grid: float = 0.5, split_prob: float = 0.5,
               min_leaves: int = 0) -> Iterator[tuple[Recipe, object]]:
    """Endless (recipe, tree) pairs of grid-threshold trees with m and
    depth drawn per tree.

    Trees with fewer than ``min_leaves`` leaves are skipped. With the
    defaults the draw sequence matches the test suite's grid corpus, which
    the anchor self-check relies on.
    """
    rng = random.Random(seed)
    while True:
        m = rng.randint(*m_range)
        depth_max = rng.randint(*depth_range)
        recipe = Recipe(m, min(2, depth_max), depth_max, width, grid,
                        rng.randrange(2 ** 31), split_prob)
        tree = recipe.build()
        if len(tree.leaves()) >= min_leaves:
            yield recipe, tree


def grid_corpus(count: int, seed: int, **recipe) -> list:
    draws = grid_draws(seed, **recipe)
    return [next(draws)[1] for _ in range(count)]


def size_class(tree) -> tuple[int, int]:
    """(feature count, inner-node count); counts above 8 are bucketed by
    powers of two so that large trees share a class."""
    n = len(tree.inner_nodes())
    return tree.num_features, n if n <= 8 else 8 + (n - 8).bit_length()


def matched_corpus(count: int, seed: int, **recipe) -> list[Recipe]:
    """Recipes of ``count`` trees of the recipe drawn under ``seed``, kept
    only while their size class is still wanted by the reference corpus.

    The reference is the recipe's corpus under ``REFERENCE_SEED``. Query
    counts and host time follow tree size, so fixing the size mix keeps
    per-tree medians and tails from moving with the seed, while the seed
    still chooses every feature, threshold and branch of every tree.
    How many draws the choice takes varies by seed, which is why it
    returns recipes: set-up time counts only building the chosen trees.
    """
    wanted = Counter(size_class(t) for t in grid_corpus(count, REFERENCE_SEED, **recipe))
    chosen = []
    for found, tree in grid_draws(seed, **recipe):
        if len(chosen) == count:
            return chosen
        key = size_class(tree)
        if wanted[key]:
            wanted[key] -= 1
            chosen.append(found)


def register_edge_trees(count: int, seed: int) -> list[Recipe]:
    """Recipes of criterion 7's register-edge trees: m 2, depth 6-11,
    range [0, 64], split probability 0.15. Only trees of depth 9 or 10 are
    kept, so the traces that nearly fill the register are always there."""
    rng = random.Random(seed)
    chosen = []
    while len(chosen) < count:
        recipe = Recipe(2, 6, 11, 64.0, 0.5, rng.randrange(2 ** 31), 0.15)
        if recipe.build().depth() in (9, 10):
            chosen.append(recipe)
    return chosen


def iris_target():
    """(dataset, CART tree, epsilon) for the bundled iris data.

    Epsilon is criterion 3's: min(0.08, 0.8 * min_path_separation).
    """
    path = Path(trees.__file__).parent / "data" / "iris.csv"
    dataset = evaluate.load_dataset(path)
    tree = cart.train_cart(dataset.rows)
    return dataset, tree, min(0.08, 0.8 * trees.min_path_separation(tree))
