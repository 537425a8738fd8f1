"""Hot numeric kernels over batches of unit quaternions, in numpy.

All quaternion arguments are float64 arrays of unit quaternions in
(w, x, y, z) order; the sign of a quaternion is irrelevant because
every kernel works with |dot| only. Where a kernel picks an index, the
first maximum wins, so a grid argmax breaks ties toward the lowest
index.

The grid-sized kernels work through their rows in blocks of about
`_BLOCK_ENTRIES` entries, written into two buffers made once per scan
(`_blocks`), so no full rows x grid product is ever held.

One rounding rule: every kernel takes its |dot| values from
`fixed_abs_dots`, which sums the four terms in one fixed order, so a
row's |dot| is the same alone as in any batch or subset of the grid.
"""

import numpy as np

# Entries per block of the (rows, n_grid) temporaries: 256 kB of float64,
# so a block and the product beside it stay in a 2 MB L2 cache; a larger
# grid goes one row per block. A block of 2048 rows over a 4608-point
# grid was 75 MB, and at 2^18 entries (2 MB) a 64-row scan of a
# 36864-point grid took 25 ms against 7 ms (2 CPUs).
_BLOCK_ENTRIES = 1 << 15


def _block_rows(n_cols):
    return max(1, _BLOCK_ENTRIES // max(1, n_cols))


def min_angle_sq_stacked(quats, targets):
    """Squared geodesic angle from each quaternion to its nearest target.

    Broadcasts (..., 4) quaternions against (..., k, 4) stacks of k
    targets: a (1, R, 4) batch against a (T, 1, k, 4) stack gives a
    (T, R) array, one row per stack. Every entry is the entry the same
    quaternion and stack give alone.
    """
    best = fixed_abs_dots(quats, targets[..., 0, :])
    for m in range(1, targets.shape[-2]):
        np.maximum(best, fixed_abs_dots(quats, targets[..., m, :]), out=best)
    np.minimum(best, 1.0, out=best)
    np.arccos(best, out=best)
    best *= 2.0
    np.multiply(best, best, out=best)
    return best


def min_angle_sq_to_targets(quats, targets):
    """Squared geodesic angle from each of (R, 4) quaternions to the nearest of (k, 4) targets.

    Nothing in svpose calls it: the scorers call `min_angle_sq_stacked`.
    It stays because `perfbench/spans.py` patches it, which
    `tests/test_perfbench_spans.py` checks, and because tests score
    modes with it as the oracle, -kappa * min_angle_sq_to_targets(quats,
    modes). The benchmark change planned in ROADMAP.md (item 6) wraps
    the stacked kernel instead and deletes this alias.
    """
    return min_angle_sq_stacked(quats, targets)


def fixed_abs_dots(a, b, out=None, scratch=None):
    """|((a0 b0 + a1 b1) + a2 b2) + a3 b3| over broadcast (..., 4) arrays.

    `out` and `scratch`, arrays of the broadcast shape, take the result
    and each later product when given, so a loop over blocks can reuse
    two buffers; the values are the same either way.
    """
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    for k in range(1, 4):
        out += np.multiply(a[..., k], b[..., k], out=scratch)
    np.abs(out, out=out)
    return out


def _blocks(queries, grid):
    """(start, rows, |dot| block) per block of queries against the whole grid.

    Every block is written into the same two buffers, allocated once
    per scan. A fresh block per row of a G=36864 scan is a 288 kB
    allocation, which glibc maps and faults in anew each time unless
    earlier frees have raised its mmap threshold: a fresh process's
    covering radius took 57 ms that way against 43 ms.
    """
    step = _block_rows(grid.shape[0])
    out = np.empty((min(step, queries.shape[0]), grid.shape[0]))
    scratch = np.empty_like(out)
    for s in range(0, queries.shape[0], step):
        q = queries[s : s + step, None, :]
        m = q.shape[0]
        yield s, m, fixed_abs_dots(q, grid, out[:m], scratch[:m])


def nearest_abs_dots(queries, grid):
    """Index of each query's nearest grid quaternion, and its |dot| from `fixed_abs_dots`."""
    n = queries.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dot = np.empty(n)
    for s, m, block in _blocks(queries, grid):
        k = block.argmax(axis=1)
        idx[s : s + m] = k
        dot[s : s + m] = block[np.arange(m), k]
    return idx, dot


def min_max_abs_dot(samples, grid):
    """Smallest over the samples of each sample's largest |dot| with the grid."""
    worst = np.inf
    for _, _, block in _blocks(samples, grid):
        m = block.max(axis=1).min()
        if m < worst:
            worst = m
    return worst
