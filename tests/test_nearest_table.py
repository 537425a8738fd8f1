"""The nearest table against a whole-grid scan with the same sums.

`so3.NearestTable` must return, for every query, the first grid index
with the largest |((q0 g0 + q1 g1) + q2 g2) + q3 g3| over the whole
grid: the same point a dense scan picks, ties to the lowest index.
"""

import math

import numpy as np
import pytest

from svpose import _kernels, so3

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def oracle(grid, queries):
    """Per query, the first whole-grid maximum of the fixed-order |dot|, and its value."""
    idx, dot = [], []
    for q in queries:
        d = np.abs(
            ((grid[:, 0] * q[0] + grid[:, 1] * q[1]) + grid[:, 2] * q[2]) + grid[:, 3] * q[3]
        )
        idx.append(int(np.argmax(d)))
        dot.append(d.max())
    return np.array(idx), np.array(dot)


def from_face(face, coords):
    """Quaternions with face coordinates `coords` (rows (1, u)) on `face`."""
    q = np.empty_like(coords)
    np.put_along_axis(q, so3._FACE_ORDER[face], coords, axis=1)
    return q


def queries_of(kind, grid, levels, rng, m=48):
    if kind == "random":
        return so3.random_quats(rng, m)
    if kind == "grid points":
        return grid[rng.integers(grid.shape[0], size=m)].copy()
    if kind == "negated":
        return -np.vstack([so3.random_quats(rng, m // 2), grid[: m // 2]])
    if kind == "face boundary":
        # |q_k| = |q_i| for the two largest components: the query sits
        # on the edge between two faces.
        v = rng.standard_normal((m, 4))
        k = np.abs(v).argmax(axis=1)
        i = (k + rng.integers(1, 4, size=m)) % 4
        v[np.arange(m), i] = v[np.arange(m), k] * rng.choice([-1.0, 1.0], size=m)
        return so3.quat_normalize(v)
    # "bin edge": some face coordinates exactly on an edge between bins.
    n = 1 << levels
    u = rng.uniform(-1.0, 1.0, size=(m, 3))
    edge = np.tan(math.pi / 4.0 * (rng.integers(0, n + 1, size=(m, 3)) * (2.0 / n) - 1.0))
    on = rng.random((m, 3)) < 0.6
    u[on] = edge[on]
    coords = np.column_stack([np.ones(m), u]) * rng.choice([-1.0, 1.0], size=(m, 1))
    return so3.quat_normalize(from_face(rng.integers(0, 4, size=m), coords))


KINDS = ["random", "grid points", "negated", "face boundary", "bin edge"]


@st.composite
def table_cases(draw):
    generator = draw(st.sampled_from(["super_fibonacci", "random_uniform"]))
    n = draw(st.sampled_from([1, 2, 8, 72, 576]))
    grid = so3.build_grid(n, generator=generator, seed=draw(st.integers(0, 50))).quats
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        # Duplicated points, some before and some after their copies.
        dup = grid[rng.integers(n, size=max(1, n // 4))]
        grid = np.vstack([grid, dup])[rng.permutation(n + dup.shape[0])]
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
    return np.ascontiguousarray(grid), kinds, rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table_cases())
def test_table_matches_whole_grid_scan(case):
    grid, kinds, rng = case
    table = so3.NearestTable(grid)
    queries = np.vstack([queries_of(k, grid, table.levels, rng) for k in kinds])
    idx, dot = table.lookup(queries)
    want_idx, want_dot = oracle(grid, queries)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dot, want_dot)


def tie_grid(rng, pairs, delta=1e-3):
    """A 576-point grid holding `pairs` point pairs, each equidistant from a query.

    Pair r is (c, +delta) and (c, -delta), normalized, for a unit c in
    the first three components; the query (c, 0) has bitwise equal
    |dot| with both. Returns the grid, the queries, and each pair's two
    indices.
    """
    grid = so3.build_grid(576).quats.copy()
    c = so3.quat_normalize(rng.standard_normal((pairs, 3)))
    a = so3.quat_normalize(np.column_stack([c, np.full(pairs, delta)]))
    b = a.copy()
    b[:, 3] = -a[:, 3]
    slots = rng.permutation(grid.shape[0])[: 2 * pairs].reshape(pairs, 2)
    grid[slots[:, 0]] = a
    grid[slots[:, 1]] = b
    queries = np.column_stack([c, np.zeros(pairs)])
    return grid, queries, slots


def test_near_ties_resolve_alike_in_both_regimes():
    rng = np.random.Generator(np.random.PCG64(31))
    grid_quats, base, slots = tie_grid(rng, 64)
    grid = so3.SO3Grid(quats=grid_quats, spec=so3.GridSpec("super_fibonacci", 576))
    # q3 = 0, a subnormal or 1e-20 leaves both |dot| bitwise equal: an
    # exact tie, which goes to the lower index. q3 = +-1e-13 moves them
    # about an ulp apart, so the answer is whichever the sums favour.
    tied = np.vstack([base, base + [0, 0, 0, 5e-324], base - [0, 0, 0, 1e-20], -base])
    apart = np.vstack([base + [0, 0, 0, 1e-13], base - [0, 0, 0, 1e-13]])
    lower = np.tile(slots.min(axis=1), 4)
    assert np.array_equal(oracle(grid_quats, tied)[0], lower)
    for queries, want in ((tied, lower), (apart, oracle(grid_quats, apart)[0])):
        assert queries.shape[0] * grid.n > so3._DENSE_WORK
        batched = so3.nearest_indices(grid, queries)
        single = [so3.nearest_indices(grid, q[None, :])[0] for q in queries]
        rotated = [so3.nearest_in_grid(grid, so3.quat_to_matrix(q))[0] for q in queries]
        assert np.array_equal(batched, want)
        assert np.array_equal(single, want)
        assert np.array_equal(rotated, want)
    assert grid._table is not None
    assert not np.array_equal(oracle(grid_quats, apart)[0], np.tile(slots.min(axis=1), 2))


def bucket_boxes(codes, levels):
    """The face and bins of each bucket, from its nested bucket number."""
    bins = np.zeros((codes.shape[0], 3), dtype=np.int64)
    for bit in range(levels):
        child = (codes >> 3 * bit) & 7
        bins |= ((child[:, None] >> np.array([2, 1, 0])) & 1) << bit
    return codes >> 3 * levels, bins


@pytest.mark.parametrize(
    "n, generator",
    [(4608, "super_fibonacci"), (4608, "random_uniform"), (36864, "super_fibonacci")],
)
def test_table_at_benchmark_sizes(n, generator):
    # The float32 keep test at the sizes the benchmarks build: lookups
    # equal the dense kernel bit for bit, and every list is a sound,
    # ascending, non-empty bucket list.
    grid = so3.build_grid(n, generator=generator, seed=1)
    table = so3.NearestTable(grid.quats)
    rng = np.random.Generator(np.random.PCG64(n))
    m = 1024 if n > 4608 else 2048
    camera = so3.quat_conj(so3.random_quats(rng, 1))
    batches = [
        so3.quat_mul(grid.quats[rng.choice(n, m, replace=False)], camera),
        queries_of("random", grid.quats, table.levels, rng, m),
        queries_of("face boundary", grid.quats, table.levels, rng, m),
        queries_of("bin edge", grid.quats, table.levels, rng, m),
    ]
    for queries in batches:
        idx, dot = table.lookup(queries)
        want_idx, want_dot = _kernels.nearest_abs_dots(queries, grid.quats)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dot, want_dot)
    lens = np.diff(table.ptr)
    assert lens.shape[0] == 4 * 8**table.levels and lens.min() >= 1
    step = np.diff(table.entries.astype(np.int64))
    step[table.ptr[1:-1] - 1] = 1
    assert step.min() >= 1
    codes = rng.choice(lens.shape[0], 512, replace=False)
    centers = so3._box_centers(*bucket_boxes(codes, table.levels), table.levels)
    assert np.array_equal(so3._cube_buckets(centers, table.levels)[0], codes)
    nearest, _ = _kernels.nearest_abs_dots(centers, grid.quats)
    for code, k in zip(codes, nearest):
        assert k in table.entries[table.ptr[code] : table.ptr[code + 1]]
