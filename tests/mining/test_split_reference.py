"""Parity of the split-search kernel with its scalar reference.

The kernel evaluates p-values with the ``scipy.special`` ufuncs, scores
every CHAID merge pair of a round in one array expression and hands
tree growth presorted node rows.  The reference below is the scalar
formulation it replaces: ``scipy.stats`` survival functions, nested
pair loops and a stable ``argsort`` of every node.  The properties pin
the kernel to it exactly — equal split candidates, identically
serialised trees — so a drift in tie order, NaN handling or the last
bit of a statistic fails here.
"""

import heapq
import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.mining.features import FeatureSet
from repro.mining.tree import TreeConfig, grow_tree
from repro.mining.tree.growth import _build_branches
from repro.mining.tree.serialize import node_to_dict
from repro.mining.tree.splitting import (
    SplitCandidate,
    _bonferroni,
    _merge_groups_chi2,
    _merge_groups_f,
    _pair_chi2,
    _pair_f,
    best_categorical_split_chi2,
    best_categorical_split_f,
    best_numeric_split_chi2,
    best_numeric_split_f,
    chi_square_2x2,
    f_statistic,
)
from repro.mining.tree.structure import TreeNode, partition_indices

# -- reference: scalar split search ----------------------------------------


def _candidate_positions(sorted_values, min_leaf, max_candidates):
    n = sorted_values.shape[0]
    if n < 2 * min_leaf:
        return np.empty(0, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(sorted_values) > 0)
    lo, hi = min_leaf - 1, n - min_leaf - 1
    boundaries = boundaries[(boundaries >= lo) & (boundaries <= hi)]
    if boundaries.size > max_candidates:
        picks = np.linspace(0, boundaries.size - 1, max_candidates).astype(int)
        boundaries = boundaries[np.unique(picks)]
    return boundaries


def _ref_numeric_chi2(name, values, y, min_leaf, max_candidates, bonferroni):
    present = ~np.isnan(values)
    x = values[present]
    t = y[present]
    if x.shape[0] < 2 * min_leaf:
        return None
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]
    t_sorted = t[order]
    positions = _candidate_positions(x_sorted, min_leaf, max_candidates)
    if positions.size == 0:
        return None
    cum_pos = np.cumsum(t_sorted)
    total_pos = int(cum_pos[-1])
    total_n = x_sorted.shape[0]
    left_n = positions + 1
    left_pos = cum_pos[positions]
    a = left_pos
    b = left_n - left_pos
    c = total_pos - left_pos
    d = (total_n - left_n) - c
    chi2 = chi_square_2x2(a, b, c, d)
    best = int(np.argmax(chi2))
    statistic = float(chi2[best])
    raw_p = float(stats.chi2.sf(statistic, 1))
    p = _bonferroni(raw_p, positions.size) if bonferroni else raw_p
    threshold = float(
        (x_sorted[positions[best]] + x_sorted[positions[best] + 1]) / 2.0
    )
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=name,
        is_numeric=True,
        statistic=statistic,
        p_value=p,
        n_candidates=int(positions.size),
        threshold=threshold,
        has_missing_branch=n_missing >= min_leaf,
    )


def _ref_numeric_f(name, values, y, min_leaf, max_candidates, bonferroni):
    present = ~np.isnan(values)
    x = values[present]
    t = y[present]
    if x.shape[0] < 2 * min_leaf:
        return None
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]
    t_sorted = t[order]
    positions = _candidate_positions(x_sorted, min_leaf, max_candidates)
    if positions.size == 0:
        return None
    cum_sum = np.cumsum(t_sorted)
    total_sum = float(cum_sum[-1])
    total_ss = float((t_sorted**2).sum())
    total_n = x_sorted.shape[0]
    left_n = (positions + 1).astype(np.float64)
    left_sum = cum_sum[positions]
    group_sums = np.stack([left_sum, total_sum - left_sum], axis=-1)
    group_counts = np.stack([left_n, total_n - left_n], axis=-1)
    f, df1, df2 = f_statistic(
        group_sums, group_counts, total_ss, total_sum, total_n
    )
    best = int(np.argmax(f))
    statistic = float(f[best])
    raw_p = float(stats.f.sf(statistic, df1, df2))
    p = _bonferroni(raw_p, positions.size) if bonferroni else raw_p
    threshold = float(
        (x_sorted[positions[best]] + x_sorted[positions[best] + 1]) / 2.0
    )
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=name,
        is_numeric=True,
        statistic=statistic,
        p_value=p,
        n_candidates=int(positions.size),
        threshold=threshold,
        has_missing_branch=n_missing >= min_leaf,
    )


def _ref_merge_chi2(groups, pos, neg, merge_alpha):
    while len(groups) > 2:
        best_pair = None
        best_p = -1.0
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                a = pos[groups[i]].sum()
                b = neg[groups[i]].sum()
                c = pos[groups[j]].sum()
                d = neg[groups[j]].sum()
                chi2 = float(chi_square_2x2(a, b, c, d))
                p = float(stats.chi2.sf(chi2, 1))
                if p > best_p:
                    best_p = p
                    best_pair = (i, j)
        if best_pair is None or best_p < merge_alpha:
            break
        i, j = best_pair
        groups[i] = groups[i] + groups[j]
        del groups[j]
    return groups


def _ref_merge_f(groups, sums, sqsums, counts, merge_alpha):
    while len(groups) > 2:
        best_pair = None
        best_p = -1.0
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                gi, gj = groups[i], groups[j]
                n = counts[gi].sum() + counts[gj].sum()
                s = sums[gi].sum() + sums[gj].sum()
                ss = sqsums[gi].sum() + sqsums[gj].sum()
                f, df1, df2 = f_statistic(
                    np.array([sums[gi].sum(), sums[gj].sum()]),
                    np.array([counts[gi].sum(), counts[gj].sum()]),
                    float(ss),
                    float(s),
                    int(n),
                )
                p = float(stats.f.sf(float(f), df1, df2))
                if p > best_p:
                    best_p = p
                    best_pair = (i, j)
        if best_pair is None or best_p < merge_alpha:
            break
        i, j = best_pair
        groups[i] = groups[i] + groups[j]
        del groups[j]
    return groups


def _fold_small(groups, size_of, min_leaf):
    sizes = [size_of(g) for g in groups]
    while len(groups) > 2 and min(sizes) < min_leaf:
        small = int(np.argmin(sizes))
        large = int(np.argmax(sizes))
        if small == large:
            break
        groups[large] = groups[large] + groups[small]
        del groups[small]
        sizes = [size_of(g) for g in groups]
    return groups, sizes


def _ref_categorical_chi2(name, codes, n_levels, y, min_leaf, merge_alpha,
                          bonferroni):
    present = codes >= 0
    c = codes[present]
    t = y[present]
    if c.shape[0] < 2 * min_leaf:
        return None
    pos = np.bincount(c[t == 1], minlength=n_levels).astype(np.float64)
    neg = np.bincount(c[t == 0], minlength=n_levels).astype(np.float64)
    observed = np.flatnonzero(pos + neg > 0)
    if observed.size < 2:
        return None
    groups = _ref_merge_chi2(
        [[int(level)] for level in observed], pos, neg, merge_alpha
    )
    groups, sizes = _fold_small(
        groups, lambda g: int((pos[g] + neg[g]).sum()), min_leaf
    )
    if len(groups) < 2 or min(sizes) < min_leaf:
        return None
    table = np.array(
        [[pos[g].sum(), neg[g].sum()] for g in groups], dtype=np.float64
    )
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    total = table.sum()
    if total <= 0:
        chi2, raw_p = 0.0, 1.0
    else:
        expected = row @ col / total
        mask = expected > 0
        chi2 = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
        dof = max(
            1,
            (np.count_nonzero(row > 0) - 1) * (np.count_nonzero(col > 0) - 1),
        )
        raw_p = float(stats.chi2.sf(chi2, dof))
    n_candidates = max(1, observed.size - 1)
    p = _bonferroni(raw_p, n_candidates) if bonferroni else raw_p
    return SplitCandidate(
        feature=name,
        is_numeric=False,
        statistic=chi2,
        p_value=p,
        n_candidates=n_candidates,
        groups=tuple(tuple(sorted(g)) for g in groups),
        has_missing_branch=int((~present).sum()) >= min_leaf,
    )


def _ref_categorical_f(name, codes, n_levels, y, min_leaf, merge_alpha,
                       bonferroni):
    present = codes >= 0
    c = codes[present]
    t = y[present]
    if c.shape[0] < 2 * min_leaf:
        return None
    counts = np.bincount(c, minlength=n_levels).astype(np.float64)
    sums = np.bincount(c, weights=t, minlength=n_levels)
    sqsums = np.bincount(c, weights=t**2, minlength=n_levels)
    observed = np.flatnonzero(counts > 0)
    if observed.size < 2:
        return None
    groups = _ref_merge_f(
        [[int(level)] for level in observed], sums, sqsums, counts,
        merge_alpha,
    )
    groups, sizes = _fold_small(
        groups, lambda g: int(counts[g].sum()), min_leaf
    )
    if len(groups) < 2 or min(sizes) < min_leaf:
        return None
    f, df1, df2 = f_statistic(
        np.array([sums[g].sum() for g in groups]),
        np.array([counts[g].sum() for g in groups]),
        float(sqsums.sum()),
        float(sums.sum()),
        int(counts.sum()),
    )
    statistic = float(f)
    raw_p = float(stats.f.sf(statistic, df1, df2))
    n_candidates = max(1, observed.size - 1)
    p = _bonferroni(raw_p, n_candidates) if bonferroni else raw_p
    return SplitCandidate(
        feature=name,
        is_numeric=False,
        statistic=statistic,
        p_value=p,
        n_candidates=n_candidates,
        groups=tuple(tuple(sorted(g)) for g in groups),
        has_missing_branch=int((~present).sum()) >= min_leaf,
    )


def _ref_best_split(features, y, idx, config, mode):
    best = None
    y_sub = y[idx]
    if mode == "chi2" and (y_sub.min() == y_sub.max()):
        return None
    for feature in features.features:
        values = feature.values[idx]
        if feature.is_numeric:
            search = _ref_numeric_chi2 if mode == "chi2" else _ref_numeric_f
            candidate = search(
                feature.name, values, y_sub, config.min_leaf,
                config.max_candidates, config.bonferroni,
            )
        else:
            search = (
                _ref_categorical_chi2 if mode == "chi2" else _ref_categorical_f
            )
            candidate = search(
                feature.name, values, feature.n_levels, y_sub,
                config.min_leaf, config.merge_alpha, config.bonferroni,
            )
        if candidate is None:
            continue
        if best is None or (candidate.p_value, -candidate.statistic) < (
            best.p_value, -best.statistic
        ):
            best = candidate
    return best


def _ref_grow_tree(features, y, config, mode):
    """Best-first growth re-running the split search from scratch,
    with a per-node sort, at every node."""
    n = features.n_rows
    if n < config.min_split:
        return TreeNode(0, 0, n, float(np.mean(y)) if n else 0.0)
    ids = itertools.count(0)
    root = TreeNode(next(ids), 0, n, float(np.mean(y)))
    heap = []
    tiebreak = itertools.count()

    def consider(node, idx):
        if idx.size < config.min_split or node.depth >= config.max_depth:
            return
        split = _ref_best_split(features, y, idx, config, mode)
        if split is None or split.p_value > config.alpha:
            return
        heapq.heappush(
            heap,
            (split.p_value, -split.statistic, next(tiebreak), node, idx, split),
        )

    consider(root, np.arange(n, dtype=np.int64))
    n_leaves = 1
    while heap:
        _p, _s, _t, node, idx, split = heapq.heappop(heap)
        feature = next(
            f for f in features.features if f.name == split.feature
        )
        added = (
            (2 if split.is_numeric else len(split.groups))
            + (1 if split.has_missing_branch else 0)
            - 1
        )
        if n_leaves + added > config.max_leaves:
            continue
        _build_branches(node, split, feature, ids)
        parts = partition_indices(node, features, idx)
        if sum(1 for _b, sub in parts if sub.size > 0) < 2:
            node.make_leaf()
            continue
        n_leaves += added
        for branch, sub in parts:
            child = branch.child
            child.n_samples = int(sub.size)
            if sub.size:
                child.prediction = float(np.mean(y[sub]))
            consider(child, sub)
    return root


def _same(a, b):
    """Exact equality of candidates, NaN-safe and sign-of-zero aware."""
    return repr(a) == repr(b)


# -- strategies ---------------------------------------------------------------

_PROPS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def numeric_nodes(draw):
    n = draw(st.integers(min_value=0, max_value=160))
    # Few distinct values force ties; many force candidate thinning.
    n_distinct = draw(st.sampled_from([1, 2, 3, 7, 40, 1000]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = gen.integers(0, n_distinct, n).astype(np.float64)
    if draw(st.booleans()):
        values = values * gen.uniform(0.5, 2.0) - 0.25 * n_distinct
    nan_share = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))
    values[gen.random(n) < nan_share] = np.nan
    min_leaf = draw(st.integers(min_value=0, max_value=40))
    max_candidates = draw(st.integers(min_value=1, max_value=80))
    return values, gen, min_leaf, max_candidates


@st.composite
def categorical_nodes(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    n_levels = draw(st.sampled_from([1, 2, 3, 5, 12, 25]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = gen.dirichlet(np.full(n_levels, 0.7))
    codes = gen.choice(n_levels, size=n, p=weights).astype(np.int64)
    missing_share = draw(st.sampled_from([0.0, 0.1, 0.6]))
    codes[gen.random(n) < missing_share] = -1
    min_leaf = draw(st.integers(min_value=0, max_value=30))
    merge_alpha = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    return codes, n_levels, gen, min_leaf, merge_alpha


@st.composite
def f_levels(draw):
    """Per-level counts, target sums and sums of squares with full
    mantissas, from a few units up to a node of millions of rows."""
    k = draw(st.integers(min_value=2, max_value=25))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(min_value=0, max_value=6))
    counts = gen.integers(1, 1000, k) * scale
    means = gen.normal(0.0, draw(st.sampled_from([1.0, 30.0, 1e6])), k)
    sums = counts * means
    sqsums = counts * (means**2 + gen.gamma(1.0, 1.0, k))
    return counts.astype(np.float64), sums, sqsums


def _binary_target(gen, n, codes=None):
    # Tie the target to the feature sometimes so splits are significant.
    base = gen.random(n)
    if codes is not None:
        base = base + 0.05 * (codes % 3)
    return (base > gen.uniform(0.2, 0.8)).astype(np.int64)


def _interval_target(gen, n, codes=None):
    y = gen.gamma(1.5, 2.0, n)
    if codes is not None:
        y = y + 0.3 * (codes % 4)
    return y


# -- split candidates ---------------------------------------------------------


class TestNumericParity:
    @given(numeric_nodes(), st.booleans())
    @_PROPS
    def test_chi2_equals_reference(self, node, bonferroni):
        values, gen, min_leaf, max_candidates = node
        y = _binary_target(gen, values.size)
        assert _same(
            best_numeric_split_chi2(
                "x", values, y, min_leaf, max_candidates, bonferroni
            ),
            _ref_numeric_chi2(
                "x", values, y, min_leaf, max_candidates, bonferroni
            ),
        )

    @given(numeric_nodes(), st.booleans(), st.booleans())
    @_PROPS
    def test_f_equals_reference(self, node, bonferroni, integer_target):
        values, gen, min_leaf, max_candidates = node
        y = _interval_target(gen, values.size)
        if integer_target:
            y = np.floor(y)
        assert _same(
            best_numeric_split_f(
                "x", values, y, min_leaf, max_candidates, bonferroni
            ),
            _ref_numeric_f(
                "x", values, y, min_leaf, max_candidates, bonferroni
            ),
        )


class TestCategoricalParity:
    @given(categorical_nodes(), st.booleans())
    @_PROPS
    def test_chi2_equals_reference(self, node, bonferroni):
        codes, n_levels, gen, min_leaf, merge_alpha = node
        y = _binary_target(gen, codes.size, codes)
        args = ("c", codes, n_levels, y, min_leaf, merge_alpha, bonferroni)
        assert _same(
            best_categorical_split_chi2(*args), _ref_categorical_chi2(*args)
        )

    @given(categorical_nodes(), st.booleans())
    @_PROPS
    def test_f_equals_reference(self, node, bonferroni):
        codes, n_levels, gen, min_leaf, merge_alpha = node
        y = _interval_target(gen, codes.size, codes)
        args = ("c", codes, n_levels, y, min_leaf, merge_alpha, bonferroni)
        assert _same(
            best_categorical_split_f(*args), _ref_categorical_f(*args)
        )


class TestMergeParity:
    """The merge loops on raw level totals, including the magnitudes a
    node of millions of rows reaches."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3_000_000), st.integers(0, 3_000_000)
            ),
            min_size=2,
            max_size=25,
        ),
        st.sampled_from([0.0, 1e-6, 0.05, 0.5, 1.0]),
    )
    @_PROPS
    def test_chi2_merge_equals_reference(self, levels, merge_alpha):
        pos = np.array([p for p, _n in levels], dtype=np.float64)
        neg = np.array([n for _p, n in levels], dtype=np.float64)
        start = [[level] for level in range(len(levels))]
        assert _merge_groups_chi2(
            [list(g) for g in start], pos, neg, merge_alpha
        ) == _ref_merge_chi2([list(g) for g in start], pos, neg, merge_alpha)

    @given(f_levels(), st.sampled_from([0.0, 1e-6, 0.05, 0.5, 1.0]))
    @_PROPS
    def test_f_merge_equals_reference(self, levels, merge_alpha):
        counts, sums, sqsums = levels
        start = [[level] for level in range(counts.size)]
        with np.errstate(all="ignore"):
            ours = _merge_groups_f(
                [list(g) for g in start], sums, sqsums, counts, merge_alpha
            )
            reference = _ref_merge_f(
                [list(g) for g in start], sums, sqsums, counts, merge_alpha
            )
        assert ours == reference

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3_000_000), st.integers(0, 3_000_000)
            ),
            min_size=2,
            max_size=25,
        )
    )
    @_PROPS
    def test_pair_chi2_equals_scalar_statistic(self, levels):
        pos = np.array([p for p, _n in levels], dtype=np.float64)
        neg = np.array([n for _p, n in levels], dtype=np.float64)
        i, j = np.triu_indices(len(levels), k=1)
        reference = [
            float(chi_square_2x2(pos[a], neg[a], pos[b], neg[b]))
            for a, b in zip(i, j)
        ]
        assert repr(_pair_chi2(pos, neg, i, j).tolist()) == repr(reference)

    @given(f_levels())
    @_PROPS
    def test_pair_f_equals_scalar_statistic(self, levels):
        counts, sums, sqsums = levels
        i, j = np.triu_indices(counts.size, k=1)
        reference = []
        with np.errstate(all="ignore"):
            for a, b in zip(i, j):
                f, _df1, df2 = f_statistic(
                    np.array([sums[a], sums[b]]),
                    np.array([counts[a], counts[b]]),
                    float(sqsums[a] + sqsums[b]),
                    float(sums[a] + sums[b]),
                    int(counts[a] + counts[b]),
                )
                reference.append((float(f), df2))
            f, df2 = _pair_f(counts, sums, sqsums, i, j)
        assert repr(list(zip(f.tolist(), df2.tolist()))) == repr(reference)

    def test_first_of_tied_pairs_is_merged(self):
        # Levels 0, 1 and 2 are identical: every pair among them ties at
        # p = 1, and the scan order picks (0, 1) first, then (0+1, 2).
        pos = np.array([10.0, 10.0, 10.0, 90.0])
        neg = np.array([90.0, 90.0, 90.0, 10.0])
        groups = _merge_groups_chi2([[0], [1], [2], [3]], pos, neg, 0.1)
        assert groups == [[0, 1, 2], [3]]

    def test_nan_p_values_never_merge(self):
        # Infinite sums make every pair with level 0 or 1 NaN; only the
        # identical levels 2 and 3 have a p-value, and merge.
        counts = np.array([5.0, 5.0, 5.0, 5.0])
        sums = np.array([np.inf, -np.inf, 3.0, 3.0])
        sqsums = np.array([np.inf, np.inf, 4.0, 4.0])
        start = [[0], [1], [2], [3]]
        with np.errstate(all="ignore"):
            groups = _merge_groups_f(
                [list(g) for g in start], sums, sqsums, counts, 0.0
            )
            reference = _ref_merge_f(
                [list(g) for g in start], sums, sqsums, counts, 0.0
            )
        assert groups == reference == [[0], [1], [2, 3]]


# -- whole trees --------------------------------------------------------------


@st.composite
def growth_cases(draw):
    n = draw(st.integers(min_value=40, max_value=400))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for name in ("a", "b"):
        n_distinct = draw(st.sampled_from([2, 5, 30, 10_000]))
        values = gen.integers(0, n_distinct, n).astype(np.float64)
        values[gen.random(n) < draw(st.sampled_from([0.0, 0.15]))] = np.nan
        columns.append(NumericColumn.from_array(name, values))
    n_levels = draw(st.sampled_from([2, 6, 15]))
    vocab = tuple(f"L{i}" for i in range(n_levels))
    codes = gen.integers(0, n_levels, n)
    cats = [
        None if missing else vocab[code]
        for code, missing in zip(codes, gen.random(n) < 0.1)
    ]
    columns.append(CategoricalColumn("c", cats, vocab))
    a = np.nan_to_num(columns[0].values, nan=0.0)
    signal = a / max(a.max(), 1.0) + 0.2 * (codes % 3)
    min_leaf = draw(st.integers(min_value=3, max_value=20))
    config = TreeConfig(
        alpha=draw(st.sampled_from([0.05, 0.5, 1.0])),
        max_depth=draw(st.integers(min_value=1, max_value=8)),
        max_leaves=draw(st.integers(min_value=2, max_value=40)),
        min_leaf=min_leaf,
        min_split=2 * min_leaf + draw(st.integers(0, 10)),
        max_candidates=draw(st.sampled_from([3, 16, 64])),
        merge_alpha=draw(st.sampled_from([0.05, 0.1, 0.5])),
        bonferroni=draw(st.booleans()),
    )
    return columns, signal, gen, config


_GROWTH = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _tree_json(root):
    return json.dumps(node_to_dict(root), sort_keys=True)


class TestGrowthParity:
    @given(growth_cases())
    @_GROWTH
    def test_chi2_tree_equals_reference(self, case):
        columns, signal, gen, config = case
        y = (signal + gen.normal(0, 0.5, signal.size) > np.median(signal))
        y = y.astype(np.int64)
        table = DataTable(
            columns + [NumericColumn.from_array("t", y.astype(float))]
        )
        features = FeatureSet(table, "t")
        grown = grow_tree(features, y, config, "chi2")
        assert _tree_json(grown.root) == _tree_json(
            _ref_grow_tree(features, y, config, "chi2")
        )

    @given(growth_cases())
    @_GROWTH
    def test_f_tree_equals_reference(self, case):
        columns, signal, gen, config = case
        y = signal + gen.gamma(1.0, 1.0, signal.size)
        table = DataTable(columns + [NumericColumn.from_array("t", y)])
        features = FeatureSet(table, "t")
        grown = grow_tree(features, y, config, "f")
        assert _tree_json(grown.root) == _tree_json(
            _ref_grow_tree(features, y, config, "f")
        )


# -- p-value ufuncs -----------------------------------------------------------


@pytest.mark.parametrize("dof", [1, 2, 3, 7, 30, 1000])
def test_chdtrc_matches_stats_chi2_sf(dof):
    x = np.array([0.0, -0.0, 1e-300, 0.5, 1.0, 3.84, 50.0, 1e6, np.inf, np.nan])
    ours = special.chdtrc(dof, x)
    reference = np.array([stats.chi2.sf(v, dof) for v in x])
    assert repr(ours.tolist()) == repr(reference.tolist())


@pytest.mark.parametrize("dfn", [1, 2, 5, 40])
@pytest.mark.parametrize("dfd", [1, 3, 20, 100_000])
def test_fdtrc_matches_stats_f_sf(dfn, dfd):
    x = np.array([0.0, -0.0, 1e-300, 0.5, 1.0, 4.0, 50.0, 1e6, np.inf, np.nan])
    ours = special.fdtrc(dfn, dfd, x)
    reference = np.array([stats.f.sf(v, dfn, dfd) for v in x])
    assert repr(ours.tolist()) == repr(reference.tolist())
