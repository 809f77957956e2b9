"""Significance-driven best-first tree growth.

The paper controls its trees through "a series of modeling tests ... to
determine a suitable tree size that did not significantly truncate the
tree" — i.e. a leaf budget plus the split test's significance gate.
:func:`grow_tree` implements that: candidate splits across features are
ranked by adjusted p-value, the globally most significant expansion is
applied first, and growth stops when the leaf budget, depth limit,
minimum node sizes or the significance threshold bite.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mining.features import Feature, FeatureSet
from repro.mining.tree.splitting import (
    SplitCandidate,
    best_categorical_split_chi2,
    best_categorical_split_f,
    best_sorted_split_chi2,
    best_sorted_split_f,
)
from repro.mining.tree.structure import Branch, TreeNode, partition_indices

__all__ = ["TreeConfig", "GrownTree", "grow_tree"]


@dataclass(frozen=True)
class TreeConfig:
    """Growth hyper-parameters shared by the tree family.

    Attributes
    ----------
    alpha:
        Maximum adjusted p-value for a split to be applied.
    max_depth / max_leaves:
        Structural budgets; ``max_leaves`` is the paper's "tree size"
        control (its models report between 6 and 160 leaves).
    min_split / min_leaf:
        Minimum rows to attempt a split / to allow in a child.
    max_candidates:
        Cap on numeric threshold candidates per feature per node.
    merge_alpha:
        CHAID level-merging significance for nominal features.
    bonferroni:
        Apply the multiplicity adjustment to split p-values.
    """

    alpha: float = 0.05
    max_depth: int = 14
    max_leaves: int = 160
    min_split: int = 60
    min_leaf: int = 25
    max_candidates: int = 64
    merge_alpha: float = 0.10
    bonferroni: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.min_leaf < 1 or self.min_split < 2 * self.min_leaf:
            raise ConfigurationError(
                "need min_leaf >= 1 and min_split >= 2*min_leaf "
                f"(got min_leaf={self.min_leaf}, min_split={self.min_split})"
            )
        if self.max_leaves < 2:
            raise ConfigurationError(f"max_leaves must be >= 2, got {self.max_leaves}")


@dataclass
class GrownTree:
    """Result of :func:`grow_tree`."""

    root: TreeNode
    n_leaves: int
    n_nodes: int
    depth: int


def _best_split(
    features: FeatureSet,
    y: np.ndarray,
    idx: np.ndarray,
    sorted_rows: list[np.ndarray | None],
    config: TreeConfig,
    mode: str,
) -> SplitCandidate | None:
    """Most significant candidate over all features for rows ``idx``.

    ``sorted_rows`` holds, per numeric feature, the rows of ``idx``
    with a present value in stable value order (None for nominal
    features).
    """
    best: SplitCandidate | None = None
    y_sub = y[idx]
    if mode == "chi2" and (y_sub.min() == y_sub.max()):
        return None  # pure node
    if mode == "chi2":
        numeric_split, nominal_split = (
            best_sorted_split_chi2, best_categorical_split_chi2
        )
    else:
        numeric_split, nominal_split = (
            best_sorted_split_f, best_categorical_split_f
        )
    for feature, rows in zip(features.features, sorted_rows):
        if rows is not None:
            candidate = numeric_split(
                feature.name, feature.values[rows], y[rows],
                idx.size - rows.size, config.min_leaf,
                config.max_candidates, config.bonferroni,
            )
        else:
            candidate = nominal_split(
                feature.name, feature.values[idx], feature.n_levels, y_sub,
                config.min_leaf, config.merge_alpha, config.bonferroni,
            )
        if candidate is None:
            continue
        if best is None or (candidate.p_value, -candidate.statistic) < (
            best.p_value, -best.statistic
        ):
            best = candidate
    return best


def _presort(features: FeatureSet) -> list[np.ndarray | None]:
    """Each numeric feature's rows with a present value, in stable value
    order (NaNs sort last and are cut off); None for nominal features."""
    sorted_rows: list[np.ndarray | None] = []
    for feature in features.features:
        if not feature.is_numeric:
            sorted_rows.append(None)
            continue
        order = np.argsort(feature.values, kind="stable")
        sorted_rows.append(order[: np.count_nonzero(~np.isnan(feature.values))])
    return sorted_rows


def _build_branches(
    node: TreeNode,
    split: SplitCandidate,
    feature: Feature,
    next_id: "itertools.count[int]",
) -> None:
    """Attach (empty) child nodes for every arm of ``split``."""
    children: list[Branch] = []
    if split.is_numeric:
        children.append(
            Branch("le", _child(node, next_id), threshold=split.threshold)
        )
        children.append(
            Branch("gt", _child(node, next_id), threshold=split.threshold)
        )
    else:
        for group in split.groups:
            children.append(
                Branch("in", _child(node, next_id), codes=frozenset(group))
            )
    if split.has_missing_branch:
        children.append(Branch("missing", _child(node, next_id)))
    node.split = split
    node.branches = children


def _child(parent: TreeNode, next_id: "itertools.count[int]") -> TreeNode:
    return TreeNode(
        node_id=next(next_id),
        depth=parent.depth + 1,
        n_samples=0,
        prediction=parent.prediction,
    )


def grow_tree(
    features: FeatureSet,
    y: np.ndarray,
    config: TreeConfig,
    mode: str,
) -> GrownTree:
    """Grow a tree on target ``y`` (0/1 for 'chi2', floats for 'f').

    Growth is best-first on (adjusted p-value, −statistic): the most
    significant available expansion anywhere in the tree is applied
    next, so a leaf budget truncates the least important structure —
    mirroring how an analyst sizes a SAS tree.  A single-leaf result
    on a mixed target is not an error: the significance gate can
    legitimately refuse every split, and callers see a single-leaf
    majority model.

    Numeric features are sorted once, here.  An open node carries each
    numeric feature's present rows in value order, and expanding it
    splits those arrays among its children with a stable boolean
    partition.  Child rows keep the root's order, which sorts by
    (value, row index) — the order a stable sort of the node's rows
    would give, since a node's row indices ascend.
    """
    if mode not in ("chi2", "f"):
        raise ConfigurationError(f"mode must be 'chi2' or 'f', got {mode!r}")
    n = features.n_rows
    if n < config.min_split:
        root = TreeNode(0, 0, n, float(np.mean(y)) if n else 0.0)
        return GrownTree(root, n_leaves=1, n_nodes=1, depth=0)

    ids = itertools.count(0)
    root = TreeNode(next(ids), 0, n, float(np.mean(y)))
    heap: list[
        tuple[
            float, float, int, TreeNode, np.ndarray,
            list[np.ndarray | None], SplitCandidate,
        ]
    ] = []
    tiebreak = itertools.count()
    branch_of = np.empty(n, dtype=np.int64)  # child index of each row

    def splittable(node: TreeNode, idx: np.ndarray) -> bool:
        return idx.size >= config.min_split and node.depth < config.max_depth

    def consider(
        node: TreeNode, idx: np.ndarray, sorted_rows: list[np.ndarray | None]
    ) -> None:
        split = _best_split(features, y, idx, sorted_rows, config, mode)
        if split is None or split.p_value > config.alpha:
            return
        heapq.heappush(
            heap,
            (
                split.p_value,
                -split.statistic,
                next(tiebreak),
                node,
                idx,
                sorted_rows,
                split,
            ),
        )

    all_idx = np.arange(n, dtype=np.int64)
    if splittable(root, all_idx):
        consider(root, all_idx, _presort(features))
    n_leaves = 1
    n_nodes = 1
    max_depth_seen = 0
    while heap:
        _p, _s, _t, node, idx, sorted_rows, split = heapq.heappop(heap)
        feature = next(
            f for f in features.features if f.name == split.feature
        )
        added = (
            (2 if split.is_numeric else len(split.groups))
            + (1 if split.has_missing_branch else 0)
            - 1
        )
        if n_leaves + added > config.max_leaves:
            continue  # cannot afford this expansion; try cheaper ones
        _build_branches(node, split, feature, ids)
        parts = partition_indices(node, features, idx)
        # A degenerate partition (an arm got every row) cannot stand.
        if sum(1 for _b, sub in parts if sub.size > 0) < 2:
            node.make_leaf()
            continue
        n_leaves += added
        n_nodes += added + 1
        for k, (branch, sub) in enumerate(parts):
            branch_of[sub] = k
            child = branch.child
            child.n_samples = int(sub.size)
            if sub.size:
                child.prediction = float(np.mean(y[sub]))
            max_depth_seen = max(max_depth_seen, child.depth)
        growing = [
            (k, branch.child, sub)
            for k, (branch, sub) in enumerate(parts)
            if splittable(branch.child, sub)
        ]
        if not growing:
            continue
        labels = [
            None if rows is None else branch_of[rows] for rows in sorted_rows
        ]
        for k, child, sub in growing:
            consider(child, sub, [
                None if rows is None else rows[label == k]
                for rows, label in zip(sorted_rows, labels)
            ])
    return GrownTree(
        root=root, n_leaves=n_leaves, n_nodes=n_nodes, depth=max_depth_seen
    )
