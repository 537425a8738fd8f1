import math
import struct

import numpy as np
import pytest

from svpose import _kernels, so3
from svpose.errors import FormatError

# Frozen covering radii for the default probe set; recomputed values
# must match because the probe seed is fixed.
COVERING = {
    72: 0.9790203554936772,
    576: 0.4619622068750636,
    4608: 0.22355913031403332,
    36864: 0.11044942727074662,
}


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_quat_normalize_unit_and_zero():
    rng = rng_for(0)
    q = rng.standard_normal((10, 4)) * 3.0
    u = so3.quat_normalize(q)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
    with pytest.raises(ValueError):
        so3.quat_normalize(np.zeros(4))


def test_quat_mul_hamilton_example():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([5.0, 6.0, 7.0, 8.0])
    assert np.allclose(so3.quat_mul(a, b), [-60.0, 12.0, 30.0, 24.0])


def test_quat_conj_is_inverse():
    rng = rng_for(1)
    q = so3.random_quats(rng, 50)
    prod = so3.quat_mul(q, so3.quat_conj(q))
    assert np.allclose(prod[:, 0], 1.0, atol=1e-12)
    assert np.allclose(prod[:, 1:], 0.0, atol=1e-12)


def test_quat_matrix_roundtrip():
    rng = rng_for(2)
    for _ in range(200):
        q = so3.random_quats(rng, 1)[0]
        m = so3.quat_to_matrix(q)
        so3.check_rotation(m)
        back = so3.matrix_to_quat(m)
        # Same rotation up to quaternion sign.
        assert min(np.abs(back - q).max(), np.abs(back + q).max()) < 1e-12


def test_quat_mul_matches_matrix_product():
    rng = rng_for(3)
    for _ in range(50):
        qa, qb = so3.random_quats(rng, 2)
        lhs = so3.quat_to_matrix(so3.quat_mul(qa, qb))
        rhs = so3.quat_to_matrix(qa) @ so3.quat_to_matrix(qb)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_axis_angle_rotation_z90():
    m = so3.axis_angle_rotation([0.0, 0.0, 2.0], math.pi / 2)
    expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(m - expect).max() < 1e-15
    with pytest.raises(ValueError):
        so3.axis_angle_rotation([0.0, 0.0, 0.0], 1.0)


def test_check_rotation_rejects_scaled():
    with pytest.raises(ValueError):
        so3.check_rotation(1.01 * np.eye(3))
    with pytest.raises(ValueError):
        so3.check_rotation(np.diag([1.0, 1.0, -1.0]))  # det -1


def test_geodesic_distance_recovers_angle():
    rng = rng_for(4)
    for _ in range(100):
        axis = rng.standard_normal(3)
        angle = rng.uniform(0.0, math.pi)
        m = so3.axis_angle_rotation(axis, angle)
        assert abs(so3.geodesic_distance(np.eye(3), m) - angle) < 1e-9


def test_relative_rotation_maps_i_to_j():
    rng = rng_for(5)
    for _ in range(50):
        r_i = so3.random_rotation(rng)
        r_j = so3.random_rotation(rng)
        rel = so3.relative_rotation(r_i, r_j)
        assert np.abs(rel @ r_i - r_j).max() < 1e-12


def test_relative_rotation_world_frame_invariant():
    rng = rng_for(6)
    r_i = so3.random_rotation(rng)
    r_j = so3.random_rotation(rng)
    w = so3.random_rotation(rng)
    a = so3.relative_rotation(r_i, r_j)
    b = so3.relative_rotation(r_i @ w, r_j @ w)
    assert np.abs(a - b).max() < 1e-12


def test_super_fibonacci_unit_and_deterministic():
    q = so3.super_fibonacci_quats(72)
    assert q.shape == (72, 4)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0)
    assert np.array_equal(q, so3.super_fibonacci_quats(72))
    assert np.allclose(
        q[0], [0.06630777, -0.05047499, 0.88505267, -0.45797087], atol=1e-8
    )


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        so3.GridSpec(generator="hexacosichoron", n=72)
    with pytest.raises(ValueError):
        so3.GridSpec(generator="super_fibonacci", n=0)
    with pytest.raises(ValueError):
        so3.GridSpec(generator="random_uniform", n=8, seed=-1)


def test_random_uniform_grid_seeded():
    a = so3.build_grid(16, generator="random_uniform", seed=9)
    b = so3.build_grid(16, generator="random_uniform", seed=9)
    c = so3.build_grid(16, generator="random_uniform", seed=10)
    assert np.array_equal(a.quats, b.quats)
    assert not np.array_equal(a.quats, c.quats)


def test_covering_radius_frozen():
    for n, expect in COVERING.items():
        assert so3.build_grid(n).covering_radius == expect


def test_covering_radius_shrinks():
    assert so3.build_grid(576).covering_radius < so3.build_grid(72).covering_radius


def test_nearest_in_grid_exact_and_frozen():
    grid = so3.build_grid(72)
    idx, dist = so3.nearest_in_grid(grid, so3.quat_to_matrix(grid.quats[17]))
    assert idx == 17
    assert dist < 1e-7
    idx, dist = so3.nearest_in_grid(
        grid, so3.axis_angle_rotation([0.0, 0.0, 1.0], 0.3)
    )
    assert idx == 60
    assert dist == pytest.approx(0.6562292632988491, rel=1e-12)


def test_nearest_indices_matches_scalar():
    rng = rng_for(7)
    grid = so3.build_grid(72)
    quats = so3.random_quats(rng, 40)
    idx = so3.nearest_indices(grid, quats)
    for k in range(quats.shape[0]):
        i, _ = so3.nearest_in_grid(grid, so3.quat_to_matrix(quats[k]))
        assert idx[k] == i


def test_nearest_within_covering_radius():
    rng = rng_for(8)
    grid = so3.build_grid(576)
    for _ in range(100):
        r = so3.random_rotation(rng)
        _, dist = so3.nearest_in_grid(grid, r)
        assert dist <= grid.covering_radius + 1e-6


def test_grid_quats_are_component_major():
    quats = so3.random_quats(rng_for(26), 64)
    grid = so3.SO3Grid(quats=quats, spec=so3.GridSpec("random_uniform", 64))
    assert np.array_equal(grid.quats, quats)
    for q in (grid.quats, grid.cells.centers, so3.build_grid(576).quats):
        assert q.shape[1] == 4 and q.T.flags.c_contiguous


def test_grid_save_load_roundtrip(tmp_path):
    grid = so3.build_grid(72)
    path = tmp_path / "g.so3g"
    so3.save_grid(grid, path)
    back = so3.load_grid(path)
    assert back.spec == grid.spec
    assert np.array_equal(back.quats, grid.quats)


def test_grid_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.so3g"
    path.write_bytes(b"nope" + b"\x00" * 40)
    with pytest.raises(FormatError):
        so3.load_grid(path)
    good = tmp_path / "g.so3g"
    so3.save_grid(so3.build_grid(8), good)
    blob = good.read_bytes()
    (tmp_path / "trunc.so3g").write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        so3.load_grid(tmp_path / "trunc.so3g")
    # A whole header that declares no quaternions, and nothing after it.
    (tmp_path / "empty.so3g").write_bytes(blob[:4] + struct.pack("<IIBQ", 1, 0, 1, 0))
    with pytest.raises(FormatError):
        so3.load_grid(tmp_path / "empty.so3g")


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.0])
def test_grid_load_rejects_non_finite_or_non_unit_rows(tmp_path, value):
    path = tmp_path / "g.so3g"
    so3.save_grid(so3.build_grid(8), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 21, value)  # the first row's w
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unit norm"):
        so3.load_grid(path)


def brute_nearest(grid, quats):
    idx, _ = _kernels.nearest_abs_dots(np.ascontiguousarray(quats), grid.quats)
    return idx


def solver_batches(grid, rng, n):
    """Queries shaped like the solver's: q (x) grid* and grid (x) q*."""
    out = []
    for q in grid.quats[rng.choice(grid.n, size=n, replace=False)]:
        out.append(so3.quat_mul(q[None, :], so3.quat_conj(grid.quats)))
        out.append(so3.quat_mul(grid.quats, so3.quat_conj(q)[None, :]))
    return out


@pytest.mark.parametrize("generator", ["super_fibonacci", "random_uniform"])
@pytest.mark.parametrize("n", [72, 576, 4608])
def test_pruned_nearest_matches_brute_force(generator, n):
    rng = rng_for(20 + n)
    grid = so3.build_grid(n, generator=generator, seed=5)
    batches = solver_batches(grid, rng, 3) + [so3.random_quats(rng, 3000)]
    for quats in batches:
        got = so3.nearest_indices(grid, quats)
        assert np.array_equal(got, brute_nearest(grid, quats))


def test_batched_nearest_uses_table(monkeypatch):
    # Guard for the tests above: batches this size go through the
    # nearest table, single rows scan the whole grid.
    grid = so3.build_grid(4608)
    queries = so3.random_quats(rng_for(21), 4608)
    calls = []
    lookup = so3.NearestTable.lookup

    def counted(table, q):
        calls.append(q.shape[0])
        return lookup(table, q)

    monkeypatch.setattr(so3.NearestTable, "lookup", counted)
    so3.nearest_in_grid(grid, so3.quat_to_matrix(queries[0]))
    assert calls == [] and grid._table is None
    so3.nearest_indices(grid, queries)
    assert calls == [4608]
    # From 4608 points the table is one level coarser: 8 bins per axis.
    lens = np.diff(grid.nearest_table.ptr)
    assert grid.nearest_table.levels == 3 and lens.shape[0] == 4 * 8**3
    assert lens.min() >= 1 and lens.max() < grid.n // 50


def test_small_batch_skips_cell_index():
    grid = so3.build_grid(36864)
    so3.nearest_in_grid(grid, so3.random_rotation(rng_for(22)))
    assert grid._cells is None and grid._table is None


def test_pruned_nearest_grid_points_map_to_themselves():
    for generator in ("super_fibonacci", "random_uniform"):
        grid = so3.build_grid(4608, generator=generator, seed=6)
        assert np.array_equal(so3.nearest_indices(grid, grid.quats), np.arange(4608))


def test_pruned_nearest_sign_irrelevant():
    grid = so3.build_grid(4608)
    quats = so3.random_quats(rng_for(23), 2000)
    quats[::2] *= -1.0
    a = so3.nearest_indices(grid, quats)
    assert np.array_equal(a, so3.nearest_indices(grid, -quats))
    assert np.array_equal(a, brute_nearest(grid, quats))


def test_pruned_nearest_duplicates_resolve_to_lowest_index():
    base = so3.build_grid(2304)
    # Every point appears twice; the copy at i + 2304 must never win.
    quats = np.concatenate([base.quats, base.quats])
    grid = so3.SO3Grid(quats=quats, spec=so3.GridSpec("super_fibonacci", 4608))
    queries = np.concatenate([base.quats, so3.random_quats(rng_for(24), 2000)])
    got = so3.nearest_indices(grid, queries)
    assert got.max() < 2304
    assert np.array_equal(got[:2304], np.arange(2304))
    assert np.array_equal(got, brute_nearest(grid, queries))


def test_pruned_nearest_with_empty_cell():
    # All points near the identity: most of the 256 cells own nothing
    # and are dropped from the cell index.
    rng = rng_for(25)
    quats = so3.quat_normalize(
        np.array([1.0, 0.0, 0.0, 0.0]) + 0.2 * rng.standard_normal((4608, 4))
    )
    grid = so3.SO3Grid(quats=quats, spec=so3.GridSpec("random_uniform", 4608))
    assert grid.cells.centers.shape[0] < 4 * 8**grid.cells.level
    queries = np.concatenate([so3.random_quats(rng, 2000), quats[:500]])
    assert np.array_equal(so3.nearest_indices(grid, queries), brute_nearest(grid, queries))


def test_cell_index_shared_across_threads(monkeypatch):
    # Library callers may share one grid across threads; the first
    # thread to need its cell index or its nearest table builds it once,
    # and every lookup must still be exact.
    import sys
    import threading

    builds = []

    class CountedCellIndex(so3.CellIndex):
        def __init__(self, quats):
            builds.append("cells")
            super().__init__(quats)

    class CountedTable(so3.NearestTable):
        def __init__(self, quats):
            builds.append("table")
            super().__init__(quats)

    monkeypatch.setattr(so3, "CellIndex", CountedCellIndex)
    monkeypatch.setattr(so3, "NearestTable", CountedTable)
    grid = so3.build_grid(4608)
    rng = rng_for(26)
    batches = [so3.random_quats(rng, 1000) for _ in range(6)]
    want = [brute_nearest(grid, q) for q in batches]
    results = [None] * len(batches)

    def work(k):
        results[k] = so3.nearest_indices(grid, batches[k])
        grid.cells

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, expect in zip(results, want):
        assert np.array_equal(got, expect)
    assert sorted(builds) == ["cells", "table"]


def test_cell_points_are_the_cells_owners():
    cells = so3.build_grid(4608).cells
    for pick in ([0], [5, 2], list(range(0, cells.radius.shape[0], 7)), []):
        want = np.flatnonzero(np.isin(cells.owner, pick))
        assert np.array_equal(np.sort(cells.owned(np.array(pick, dtype=np.int64))[0]), want)


def covering_probes():
    return so3.random_quats(rng_for(so3._COVERING_SEED), so3._COVERING_SAMPLES)


def covering_estimate(quats):
    """The covering radius from the whole grid at once, over the same probes."""
    worst = _kernels.min_max_abs_dot(covering_probes(), quats)
    return 2.0 * math.acos(min(1.0, max(0.0, worst)))


def clustered_grid(n, seed):
    rng = rng_for(seed)
    quats = so3.quat_normalize(np.array([1.0, 0.0, 0.0, 0.0]) + 0.05 * rng.standard_normal((n, 4)))
    return so3.SO3Grid(quats=quats, spec=so3.GridSpec("random_uniform", n))


@pytest.mark.parametrize("generator", sorted(so3.GENERATOR_IDS))
@pytest.mark.parametrize("n", [1, 7, 72, 576, 4608])
def test_covering_radius_matches_dense_estimate(generator, n):
    grid = so3.build_grid(n, generator=generator)
    assert grid.covering_radius == covering_estimate(grid.quats)


def test_covering_radius_with_empty_buckets_matches_dense_estimate(monkeypatch):
    # Most probes' blocks of buckets hold no grid point; such a probe is
    # bounded by its |dot| with grid point 0, so it is not scanned
    # unless that bound is among the smallest.
    scanned = []
    kernel = _kernels.min_max_abs_dot

    def counted(samples, quats):
        scanned.append(samples.shape[0])
        return kernel(samples, quats)

    monkeypatch.setattr(_kernels, "min_max_abs_dot", counted)
    probes = covering_probes()
    sparse = so3.build_grid(7, generator="random_uniform", seed=3)
    for grid in (sparse, clustered_grid(576, 27), clustered_grid(4608, 28)):
        bound = so3._covering_bounds(grid.quats, probes)
        dots = _kernels.fixed_abs_dots(probes[:, None, :], grid.quats)
        assert not np.any(bound == 0.0)
        assert np.all(np.any(dots == bound[:, None], axis=1))
        want = covering_estimate(grid.quats)
        scanned.clear()
        assert grid.covering_radius == want
    # Scanned at the clustered 4608-point grid: 9856 with 0.0 bounds.
    assert sum(scanned) < 3000


@pytest.mark.parametrize("n", [72, 4608])
def test_covering_bounds_are_the_best_dots_over_a_subset(n):
    grid = so3.build_grid(n, generator="random_uniform", seed=4)
    probes = covering_probes()[:500]
    bound = so3._covering_bounds(grid.quats, probes)
    dots = _kernels.fixed_abs_dots(probes[:, None, :], grid.quats)
    best = dots.max(axis=1)
    assert np.all(bound <= best)
    # Each bound is one of the probe's own |dot| values, bit for bit.
    assert np.all(np.any(dots == bound[:, None], axis=1))
    assert np.mean(bound == best) > 0.5


def test_covering_radius_scans_few_probes_and_builds_no_index(monkeypatch):
    scanned = []
    kernel = _kernels.min_max_abs_dot

    def counted(samples, quats):
        scanned.append(samples.shape[0])
        return kernel(samples, quats)

    monkeypatch.setattr(_kernels, "min_max_abs_dot", counted)
    grid = so3.build_grid(36864)
    assert grid.covering_radius == COVERING[36864]
    assert sum(scanned) <= 4 * so3._COVERING_BATCH
    assert grid._cells is None and grid._table is None


@pytest.mark.parametrize("n", [1, 7, 576, 4608])
def test_cells_are_nearest_table_buckets_two_levels_up(n):
    # Two levels up below 4608 points; from there on the table is one
    # level coarser and the cells keep their own level, one level up.
    grid = so3.build_grid(n, generator="random_uniform", seed=9)
    cells, table = grid.cells, grid.nearest_table
    up = table.levels - cells.level
    assert up == min(2 if n < so3._COARSE_TABLE_POINTS else 1, table.levels)
    assert cells.radius.shape[0] == {576: 32, 4608: 256}.get(n, cells.radius.shape[0])
    # A cell's center lies inside its bucket, so it names the bucket.
    cell_bucket = so3._cube_buckets(cells.centers, cells.level)[0]
    assert np.all(np.diff(cell_bucket) > 0)
    bucket = so3._cube_buckets(grid.quats, table.levels)[0]
    assert all(i in table.entries[table.ptr[b] : table.ptr[b + 1]] for i, b in enumerate(bucket))
    assert np.array_equal(cell_bucket[cells.owner], bucket >> 3 * up)
    assert np.array_equal(np.sort(cells.owned(np.arange(cells.radius.shape[0]))[0]), np.arange(n))


@pytest.mark.parametrize(
    "n, levels, cells, probe_level",
    [(576, 3, 32, 2), (4608, 3, 256, 3), (36864, 4, 2048, 4)],
)
def test_levels_at_benchmark_sizes(n, levels, cells, probe_level):
    # Each structure's level has its own rule: the nearest table about
    # 3.5 buckets per point below 4608 points and 0.44 from there, the
    # cell index about 18 points per cell, the covering's buckets about
    # 0.44 per point.
    assert so3._table_levels(n) == levels
    assert so3._cube_level(n, 3.5 / 64.0) == {576: 1, 4608: 2, 36864: 3}[n]
    assert 4 * 8 ** so3._cube_level(n, 3.5 / 64.0) == cells
    assert so3._cube_level(n, 3.5 / 8.0) == probe_level


@pytest.mark.parametrize("n", [1, 7, 576, 4608, 36864])
def test_parents_are_the_cells_buckets_one_level_up(n):
    grid = so3.build_grid(n, generator="random_uniform", seed=9)
    cells = grid.cells
    up = min(1, cells.level)
    counts = np.diff(cells.parent_start)
    assert counts.min() >= 1 and counts.sum() == cells.radius.shape[0]
    assert cells.parent_start[0] == 0 and counts.max() <= 8
    # A parent's center names its bucket one level up, and its cells
    # are the run of cells whose buckets it holds.
    parent_bucket = so3._cube_buckets(cells.parent_centers, cells.level - up)[0]
    cell_bucket = so3._cube_buckets(cells.centers, cells.level)[0]
    assert np.array_equal(np.repeat(parent_bucket, counts), cell_bucket >> 3 * up)
    kids, lens = cells.children(np.arange(counts.shape[0])[::-1])
    assert np.array_equal(lens, counts[::-1])
    assert np.array_equal(np.sort(kids), np.arange(cells.radius.shape[0]))
    # The radius is the largest theta from the center to a point the
    # parent owns.
    parent = np.repeat(np.arange(counts.shape[0]), counts)[cells.owner]
    dot = _kernels.fixed_abs_dots(grid.quats, cells.parent_centers[parent])
    theta = np.arccos(np.minimum(dot, 1.0))
    radius = np.zeros(counts.shape[0])
    np.maximum.at(radius, parent, theta)
    assert np.array_equal(radius, cells.parent_radius)
    if n >= 4608:
        # 32 and 256 parents: every bucket one level up owns points.
        assert counts.shape[0] == 4 * 8 ** (cells.level - 1)


def reference_super_fibonacci(n):
    """The grid as built from six n-vectors, a stacked (n, 4) copy and `quat_normalize`."""
    phi, psi = math.sqrt(2.0), 1.533751168755204288118041
    s = np.arange(n, dtype=np.float64) + 0.5
    r, rr = np.sqrt(s / n), np.sqrt(1.0 - s / n)
    alpha, beta = 2.0 * math.pi * s / phi, 2.0 * math.pi * s / psi
    q = np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), rr * np.sin(beta), rr * np.cos(beta)], axis=1
    )
    return so3.quat_normalize(q)


def reference_cell_index(quats):
    """`CellIndex`'s arrays from whole-grid buckets, `np.unique` and (G, 4) gathers."""
    level = so3._cube_level(quats.shape[0], 3.5 / 64.0)
    bucket, face, bins = so3._cube_buckets(quats, level)
    _, first, owner = np.unique(bucket, return_index=True, return_inverse=True)
    centers = so3._box_centers(face[first], bins[first], level)
    order = np.argsort(owner, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(owner))])
    ordered, cell = quats[order], owner[order]
    dot = _kernels.fixed_abs_dots(ordered, centers[cell])
    radius = np.maximum.reduceat(np.arccos(np.minimum(dot, 1.0)), start[:-1])
    up = min(1, level)
    _, runs = np.unique(bucket[first] >> 3 * up, return_index=True)
    parent_start = np.append(runs, first.shape[0])
    lead = first[runs]
    parent_centers = so3._box_centers(face[lead], bins[lead] >> up, level - up)
    parent = np.repeat(np.arange(runs.shape[0]), np.diff(parent_start))
    dot = _kernels.fixed_abs_dots(ordered, parent_centers[parent[cell]])
    parent_radius = np.maximum.reduceat(np.arccos(np.minimum(dot, 1.0)), start[runs])
    return {
        "centers": centers, "owner": owner.astype(np.int32), "order": order.astype(np.int32),
        "start": start, "radius": radius, "parent_start": parent_start,
        "parent_centers": parent_centers, "parent_radius": parent_radius,
    }


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [576, 4608, 36864, "clustered"])
def test_grid_and_cell_index_match_their_reference_builds(n):
    # The in-place and chunked builds give the reference's bits. (The
    # covering radius at these sizes is pinned in COVERING.)
    if n == "clustered":  # most cells own no point
        grid = clustered_grid(4608, 29)
    else:
        grid = so3.build_grid(n)
        assert same_bits(grid.quats, reference_super_fibonacci(n))
    cells = grid.cells
    assert cells.level == so3._cube_level(grid.n, 3.5 / 64.0)
    for name, want in reference_cell_index(grid.quats).items():
        assert same_bits(getattr(cells, name), want), name


def traced_peak(build):
    """build() and the peak of the memory it allocates, as tracemalloc counts it."""
    import tracemalloc

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        return built, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_grid_and_cell_index_builds_make_no_grid_sized_copies():
    # A (G, 4) float64 temporary alone would be 1x the grid's size; the
    # whole-grid builds peaked at 4.0x (grid) and 4.9x (cell index).
    so3.build_grid(72).cells
    grid, peak = traced_peak(lambda: so3.build_grid(36864))
    size = grid.quats.nbytes
    assert peak < 2.5 * size
    assert traced_peak(lambda: grid.cells)[1] < 2.5 * size


def test_covering_radius_and_cell_index_peak_below_the_grid_size():
    # Probes bucketed a chunk at a time, int32 bucket lists and keys,
    # and chunk-sized key temporaries. Built whole, the probes' keys,
    # bins and gathered candidates would take the covering radius to
    # 3.3x the grid's quaternions, and whole-grid key chunks the cell
    # index to 1.4x.
    warm = so3.build_grid(72)
    warm.covering_radius, warm.cells
    grid = so3.build_grid(36864)
    size = grid.quats.nbytes
    assert traced_peak(lambda: grid.covering_radius)[1] < 2.5 * size
    assert grid.covering_radius == COVERING[36864]
    fresh = so3.build_grid(36864)
    assert traced_peak(lambda: fresh.cells)[1] < 1.0 * size
