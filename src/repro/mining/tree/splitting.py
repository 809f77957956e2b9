"""Split-search statistics for the tree family.

The paper's two production tree configurations are:

* decision trees "using the chi-square test on a Boolean target", and
* regression trees "using the f-test on a target configured as
  interval".

Both tests are implemented here as vectorised scans:

* numeric attributes: every boundary between adjacent distinct sorted
  values is a candidate binary split (capped by quantile thinning);
  the test statistic is computed for all candidates at once from
  cumulative sums;
* nominal attributes: levels start as their own branches and CHAID-style
  greedy merging joins the most similar pair while the pairwise test is
  insignificant;
* missing values are "valid data" (paper, Section 3): rows with a
  missing attribute form their own branch when numerous enough,
  otherwise they are excluded from the test and routed to the largest
  child at prediction time.

Reported p-values are Bonferroni-adjusted by the number of candidate
thresholds examined, the classical CHAID multiplicity correction.
They come from the ``scipy.special`` survival ufuncs ``chdtrc`` and
``fdtrc``, which ``scipy.stats``' ``chi2.sf``/``f.sf`` evaluate after
argument checks the split search does not need.

Tree growth sorts each numeric feature once and hands every node its
present values already in order (``best_sorted_split_*``); the
``best_numeric_split_*`` entry points sort a node's values themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, fdtrc

__all__ = [
    "SplitCandidate",
    "best_numeric_split_chi2",
    "best_sorted_split_chi2",
    "best_categorical_split_chi2",
    "best_numeric_split_f",
    "best_sorted_split_f",
    "best_categorical_split_f",
    "chi_square_2x2",
    "f_statistic",
]

_EPS = 1e-12


@dataclass(frozen=True)
class SplitCandidate:
    """A fully-evaluated candidate split of one node on one feature.

    Attributes
    ----------
    feature:
        Feature name.
    is_numeric:
        Numeric (threshold) or nominal (grouped levels) split.
    threshold:
        Split point for numeric features (x ≤ threshold goes left).
    groups:
        For nominal features: tuple of tuples of level codes, one inner
        tuple per branch.
    statistic:
        χ² or F value of the test over present rows.
    p_value:
        Bonferroni-adjusted p-value (capped at 1).
    n_candidates:
        How many raw candidates were examined (the adjustment factor).
    has_missing_branch:
        Whether missing rows form their own branch.
    """

    feature: str
    is_numeric: bool
    statistic: float
    p_value: float
    n_candidates: int
    threshold: float | None = None
    groups: tuple[tuple[int, ...], ...] = ()
    has_missing_branch: bool = False


# ---------------------------------------------------------------------------
# elementary statistics
# ---------------------------------------------------------------------------

def chi_square_2x2(
    a: np.ndarray | float,
    b: np.ndarray | float,
    c: np.ndarray | float,
    d: np.ndarray | float,
) -> np.ndarray:
    """Pearson χ² of 2×2 tables [[a, b], [c, d]] (vectorised, no
    continuity correction — matching SAS's tree split search)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = a + b + c + d
    num = n * (a * d - b * c) ** 2
    den = (a + b) * (c + d) * (a + c) * (b + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.where(den > 0, num / np.maximum(den, _EPS), 0.0)
    return chi2


def chi_square_table(table: np.ndarray) -> tuple[float, float, int]:
    """Pearson χ², p-value and dof of an r×c contingency table."""
    table = np.asarray(table, dtype=np.float64)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    total = table.sum()
    if total <= 0:
        return 0.0, 1.0, 1
    expected = row @ col / total
    mask = expected > 0
    chi2 = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
    dof = max(1, (np.count_nonzero(row > 0) - 1) * (np.count_nonzero(col > 0) - 1))
    p = float(chdtrc(dof, chi2))
    return chi2, p, dof


def f_statistic(
    group_sums: np.ndarray,
    group_counts: np.ndarray,
    total_ss: float,
    total_sum: float,
    total_n: int,
) -> tuple[np.ndarray, int, int]:
    """One-way ANOVA F over groups described by sums/counts.

    ``total_ss`` is Σy², ``total_sum`` is Σy over all rows.  Degrees of
    freedom are (k−1, n−k).  Vectorised over a leading axis of
    candidates when the inputs are 2-D.
    """
    group_sums = np.asarray(group_sums, dtype=np.float64)
    group_counts = np.asarray(group_counts, dtype=np.float64)
    k = group_sums.shape[-1]
    grand_mean_ss = total_sum**2 / max(total_n, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (
            np.where(group_counts > 0, group_sums**2 / np.maximum(group_counts, _EPS), 0.0)
        ).sum(axis=-1) - grand_mean_ss
    sst = total_ss - grand_mean_ss
    within = np.maximum(sst - between, 0.0)
    df1 = k - 1
    df2 = max(total_n - k, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (between / max(df1, 1)) / np.maximum(within / df2, _EPS)
    return np.maximum(f, 0.0), df1, df2


def _bonferroni(p: float, n_candidates: int) -> float:
    return float(min(1.0, p * max(n_candidates, 1)))


def _candidate_positions(
    sorted_values: np.ndarray, min_leaf: int, max_candidates: int
) -> np.ndarray:
    """Indices i such that splitting between i and i+1 is admissible.

    Only boundaries between distinct values count, both sides must hold
    at least ``min_leaf`` rows, and the set is thinned to at most
    ``max_candidates`` evenly-spaced positions.
    """
    n = sorted_values.shape[0]
    if n < 2 * min_leaf:
        return np.empty(0, dtype=np.int64)
    # Boundary i (x[i] < x[i+1]) leaves i+1 rows on the left.
    lo, hi = max(min_leaf - 1, 0), min(n - min_leaf, n - 1)
    boundaries = (
        np.flatnonzero(sorted_values[lo + 1 : hi + 1] > sorted_values[lo:hi])
        + lo
    )
    if boundaries.size > max_candidates:
        # More boundaries than picks puts the picks more than 1 apart,
        # so their integer parts are already distinct.
        picks = np.linspace(0, boundaries.size - 1, max_candidates).astype(int)
        boundaries = boundaries[picks]
    return boundaries


# ---------------------------------------------------------------------------
# numeric splits
# ---------------------------------------------------------------------------

def _sort_present(
    values: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Present values and their targets in stable value order, plus the
    number of missing values."""
    present = ~np.isnan(values)
    x = values[present]
    order = np.argsort(x, kind="stable")
    return x[order], y[present][order], values.shape[0] - x.shape[0]


def _numeric_candidate(
    feature_name: str,
    x_sorted: np.ndarray,
    positions: np.ndarray,
    best: int,
    statistic: float,
    raw_p: float,
    n_missing: int,
    min_leaf: int,
    bonferroni: bool,
) -> SplitCandidate:
    threshold = float(
        (x_sorted[positions[best]] + x_sorted[positions[best] + 1]) / 2.0
    )
    return SplitCandidate(
        feature=feature_name,
        is_numeric=True,
        statistic=statistic,
        p_value=_bonferroni(raw_p, positions.size) if bonferroni else raw_p,
        n_candidates=int(positions.size),
        threshold=threshold,
        has_missing_branch=n_missing >= min_leaf,
    )


def best_numeric_split_chi2(
    feature_name: str,
    values: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """Best binary χ² split of a numeric feature on a 0/1 target."""
    x_sorted, t_sorted, n_missing = _sort_present(values, y)
    return best_sorted_split_chi2(
        feature_name, x_sorted, t_sorted, n_missing, min_leaf,
        max_candidates, bonferroni,
    )


def best_sorted_split_chi2(
    feature_name: str,
    x_sorted: np.ndarray,
    t_sorted: np.ndarray,
    n_missing: int,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """:func:`best_numeric_split_chi2` of a node whose present values
    ``x_sorted`` (targets ``t_sorted``) are already in stable sorted
    order; ``n_missing`` rows of the node lack a value."""
    positions = _candidate_positions(x_sorted, min_leaf, max_candidates)
    if positions.size == 0:
        return None
    cum_pos = np.cumsum(t_sorted)
    total_pos = int(cum_pos[-1])
    total_n = x_sorted.shape[0]
    left_n = positions + 1
    left_pos = cum_pos[positions]
    a = left_pos                      # left positives
    b = left_n - left_pos             # left negatives
    c = total_pos - left_pos          # right positives
    d = (total_n - left_n) - c        # right negatives
    chi2 = chi_square_2x2(a, b, c, d)
    best = int(np.argmax(chi2))
    statistic = float(chi2[best])
    return _numeric_candidate(
        feature_name, x_sorted, positions, best, statistic,
        float(chdtrc(1, statistic)), n_missing, min_leaf, bonferroni,
    )


def best_numeric_split_f(
    feature_name: str,
    values: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """Best binary F-test split of a numeric feature on an interval target."""
    x_sorted, t_sorted, n_missing = _sort_present(values, y)
    return best_sorted_split_f(
        feature_name, x_sorted, t_sorted, n_missing, min_leaf,
        max_candidates, bonferroni,
    )


def best_sorted_split_f(
    feature_name: str,
    x_sorted: np.ndarray,
    t_sorted: np.ndarray,
    n_missing: int,
    min_leaf: int,
    max_candidates: int = 64,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """:func:`best_numeric_split_f` on presorted present values, as
    :func:`best_sorted_split_chi2`."""
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
    return _numeric_candidate(
        feature_name, x_sorted, positions, best, statistic,
        float(fdtrc(df1, df2, statistic)), n_missing, min_leaf, bonferroni,
    )


# ---------------------------------------------------------------------------
# categorical splits with CHAID-style level merging
# ---------------------------------------------------------------------------
#
# Each merge round scores every pair of current groups at once, pairs in
# row-major ``np.triu_indices`` order.  ``_most_similar`` takes the
# first maximum p-value in that order and never a NaN one, so it picks
# the pair a nested ``for i: for j > i:`` scan keeping strict ``p >
# best`` would.  Group totals are summed from the level arrays exactly
# as such a scan would sum them; only the merged group's are recomputed.


@functools.lru_cache(maxsize=64)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``i < j`` of ``k`` groups, in row-major order."""
    i, j = np.triu_indices(k, k=1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _most_similar(p: np.ndarray) -> int | None:
    """Index of the first maximum of ``p`` ignoring NaNs (None if all
    are NaN)."""
    valid = ~np.isnan(p)
    if not valid.any():
        return None
    return int(np.argmax(np.where(valid, p, -np.inf)))


def _pow2(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` taken one element at a time with scalar ``**``.

    Scalar ``**`` is libm ``pow``, which disagrees with numpy's
    vectorised square in the last bit on about 0.1% of inputs.  The
    merge statistics are defined on one pair's scalar totals, so
    squaring through here keeps every merge p-value equal to that
    scalar definition.
    """
    return np.array([v**2 for v in x.tolist()], dtype=np.float64)


def _pair_chi2(
    pos_tot: np.ndarray, neg_tot: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """:func:`chi_square_2x2` of groups ``i`` against groups ``j``."""
    a, b, c, d = pos_tot[i], neg_tot[i], pos_tot[j], neg_tot[j]
    n = a + b + c + d
    num = n * _pow2(a * d - b * c)
    den = (a + b) * (c + d) * (a + c) * (b + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / np.maximum(den, _EPS), 0.0)


def _pair_f(
    count_tot: np.ndarray,
    sum_tot: np.ndarray,
    sqsum_tot: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`f_statistic` of groups ``i`` against groups ``j`` (each
    pair alone), with its second degrees of freedom."""
    n = (count_tot[i] + count_tot[j]).astype(np.int64)
    grand_mean_ss = _pow2(sum_tot[i] + sum_tot[j]) / np.maximum(n, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(
            count_tot > 0, sum_tot**2 / np.maximum(count_tot, _EPS), 0.0
        )
        between = term[i] + term[j] - grand_mean_ss
        within = np.maximum(
            sqsum_tot[i] + sqsum_tot[j] - grand_mean_ss - between, 0.0
        )
        df2 = np.maximum(n - 2, 1)
        f = between / np.maximum(within / df2, _EPS)
    return np.maximum(f, 0.0), df2


def _merge_groups_chi2(
    groups: list[list[int]],
    pos: np.ndarray,
    neg: np.ndarray,
    merge_alpha: float,
) -> list[list[int]]:
    """Greedily merge the most similar pair while insignificant."""
    pos_tot = np.array([pos[g].sum() for g in groups])
    neg_tot = np.array([neg[g].sum() for g in groups])
    while len(groups) > 2:
        i_pair, j_pair = _pairs(len(groups))
        p = chdtrc(1, _pair_chi2(pos_tot, neg_tot, i_pair, j_pair))
        best = _most_similar(p)
        if best is None or p[best] < merge_alpha:
            break
        i, j = int(i_pair[best]), int(j_pair[best])
        groups[i] = groups[i] + groups[j]
        del groups[j]
        pos_tot[i] = pos[groups[i]].sum()
        neg_tot[i] = neg[groups[i]].sum()
        pos_tot = np.delete(pos_tot, j)
        neg_tot = np.delete(neg_tot, j)
    return groups


def best_categorical_split_chi2(
    feature_name: str,
    codes: np.ndarray,
    n_levels: int,
    y: np.ndarray,
    min_leaf: int,
    merge_alpha: float = 0.10,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """χ² split of a nominal feature: one branch per merged level group."""
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
    groups = _merge_groups_chi2(
        [[int(level)] for level in observed], pos, neg, merge_alpha
    )
    # Fold groups below min_leaf into the largest group.
    sizes = [int((pos[g] + neg[g]).sum()) for g in groups]
    while len(groups) > 2 and min(sizes) < min_leaf:
        small = int(np.argmin(sizes))
        large = int(np.argmax(sizes))
        if small == large:
            break
        groups[large] = groups[large] + groups[small]
        del groups[small]
        sizes = [int((pos[g] + neg[g]).sum()) for g in groups]
    if len(groups) < 2 or min(sizes) < min_leaf:
        return None
    table = np.array(
        [[pos[g].sum(), neg[g].sum()] for g in groups], dtype=np.float64
    )
    chi2, raw_p, _dof = chi_square_table(table)
    n_candidates = max(1, observed.size - 1)
    p = _bonferroni(raw_p, n_candidates) if bonferroni else raw_p
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=feature_name,
        is_numeric=False,
        statistic=chi2,
        p_value=p,
        n_candidates=n_candidates,
        groups=tuple(tuple(sorted(g)) for g in groups),
        has_missing_branch=n_missing >= min_leaf,
    )


def _merge_groups_f(
    groups: list[list[int]],
    sums: np.ndarray,
    sqsums: np.ndarray,
    counts: np.ndarray,
    merge_alpha: float,
) -> list[list[int]]:
    """Greedy merge of level groups with the least-significant mean gap."""
    count_tot = np.array([counts[g].sum() for g in groups])
    sum_tot = np.array([sums[g].sum() for g in groups])
    sqsum_tot = np.array([sqsums[g].sum() for g in groups])
    while len(groups) > 2:
        i_pair, j_pair = _pairs(len(groups))
        f, df2 = _pair_f(count_tot, sum_tot, sqsum_tot, i_pair, j_pair)
        p = fdtrc(1, df2, f)
        best = _most_similar(p)
        if best is None or p[best] < merge_alpha:
            break
        i, j = int(i_pair[best]), int(j_pair[best])
        groups[i] = groups[i] + groups[j]
        del groups[j]
        count_tot[i] = counts[groups[i]].sum()
        sum_tot[i] = sums[groups[i]].sum()
        sqsum_tot[i] = sqsums[groups[i]].sum()
        count_tot = np.delete(count_tot, j)
        sum_tot = np.delete(sum_tot, j)
        sqsum_tot = np.delete(sqsum_tot, j)
    return groups


def best_categorical_split_f(
    feature_name: str,
    codes: np.ndarray,
    n_levels: int,
    y: np.ndarray,
    min_leaf: int,
    merge_alpha: float = 0.10,
    bonferroni: bool = True,
) -> SplitCandidate | None:
    """F-test split of a nominal feature on an interval target."""
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
    groups = _merge_groups_f(
        [[int(level)] for level in observed], sums, sqsums, counts, merge_alpha
    )
    sizes = [int(counts[g].sum()) for g in groups]
    while len(groups) > 2 and min(sizes) < min_leaf:
        small = int(np.argmin(sizes))
        large = int(np.argmax(sizes))
        if small == large:
            break
        groups[large] = groups[large] + groups[small]
        del groups[small]
        sizes = [int(counts[g].sum()) for g in groups]
    if len(groups) < 2 or min(sizes) < min_leaf:
        return None
    group_sums = np.array([sums[g].sum() for g in groups])
    group_counts = np.array([counts[g].sum() for g in groups])
    f, df1, df2 = f_statistic(
        group_sums,
        group_counts,
        float(sqsums.sum()),
        float(sums.sum()),
        int(counts.sum()),
    )
    statistic = float(f)
    raw_p = float(fdtrc(df1, df2, statistic))
    n_candidates = max(1, observed.size - 1)
    p = _bonferroni(raw_p, n_candidates) if bonferroni else raw_p
    n_missing = int((~present).sum())
    return SplitCandidate(
        feature=feature_name,
        is_numeric=False,
        statistic=statistic,
        p_value=p,
        n_candidates=n_candidates,
        groups=tuple(tuple(sorted(g)) for g in groups),
        has_missing_branch=n_missing >= min_leaf,
    )
