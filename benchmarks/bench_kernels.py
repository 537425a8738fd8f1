"""Time block updates, grid scoring, the nearest-grid lookup and the kernels.

Run from the repository root:

    python benchmarks/bench_kernels.py

Block updates and the spanning tree share one search,
`solver.grid_search`, over groups of terms. First, one block update of
a 20-camera scene at G=36864 (the mode scorer, partners at their
spanning-tree rotations), the search of one group of 19 terms, is
timed both ways: the two-level bounded search over the parents and
cells of the grid's cell index, against the same search with the
block's levels hidden, which scores the whole grid as one cell. The
two must return the same argmax, value and current-index value. The bounded search's candidate
fraction, the grid rows it scores over G, is printed beside its
timing, and so are the parents and cells it bounds, for that update
and on average over the block updates of a two-sweep solve. Building
the cell index is timed on its own; a solve builds it once per grid.
The mode scorer's stacked bounded search, which scores all the block's
terms in one kernel call per evaluation, is then timed against a dense
search that scores each term's whole-grid row from a mode block of the
term's own; again the two must return the same three numbers.

The spanning tree's search, one call with a one-term group per pair,
which finds all 190 pairs' best rotations of the same rig in one
two-level search, is timed against one dense whole-grid search per
pair. The two must return the same index and the same value bits for
every pair.

Then one partner's term of a block update at G=36864 is timed both
ways: composing every grid candidate with the partner's rotation and
scoring the batch (`score_quats`, as the default `GridBlock` does),
against the term's whole-grid row from the mode scorer's block, which
composes the few modes with the partner instead.
Both sides of the pair are timed, and the two must agree to within
1e-9 with the same argmax.

Then the grid's nearest table is built at G=576, 4608 and 36864 (the
build is timed once, and at 4608 and 36864 each level of it too), and
lookups of 4608 queries through it (`so3.nearest_indices`) are timed
against the whole-grid scan `_kernels.nearest_abs_dots`, on a
solver-shaped batch (one camera composed with grid rotations), on
random rotations, on queries on the edges between faces and on queries
on the table's bin edges. The table must return the scan's indices and
|dot| values bit for bit. The mean and largest bucket list lengths are
printed beside each size.

Then the nearest table is built at G=4608 and 36864 both at the level
of the rule for smaller grids, about 3.5 buckets per point, and at its
own level, one coarser, with each level's bucket count and mean list
length.

Then one block update of a 6-camera table at G=4608 (a partner per
term at its spanning-tree rotation) is timed both ways: the bounded
search, which bounds every grid point by its bucket list's row maximum
and snaps only the points that can win, against the same search with
the block's levels hidden, which snaps the whole grid for every term.
Both are timed with a fresh scorer, as when every partner has moved,
and with memos warm, as when none has. The two must return the same
argmax, value and current-index value, bit for bit. The grid rows the
bounded search scores, every term at each, are printed beside the
timings.

Then a table scorer's energy over the 30 ordered pairs of a 6-camera
table is timed at G=576 and 4608 both ways: `TableScorer.score_pairs`,
which snaps every rotation in one lookup, against the base class's
loop of one `score_quats` call per pair. The two must return the same
bits.

Then `SO3Grid.covering_radius` is timed on fresh grids at G=4608 and
36864, grid build included, with the number of probes it scans against
the whole grid. At G=4608 it must equal 2 acos of `min_max_abs_dot`
over every probe, which is also timed.

Then the mode kernel `_kernels.min_angle_sq_to_targets` is timed on
the shapes the solver gives a single term: the G=4608 and G=36864 grids
(a term's scores) and their 32 and 256 parent centers (a term's parent
bounds), each against 1, 2 and 4 targets, a pair's modes.
The stacked kernel `_kernels.min_angle_sq_stacked` is timed on a
20-camera block's 19 terms against the same parent centers.

Last, the other kernels are timed on sizes close to the real workloads
(nearest-neighbour projection, covering-radius probes).
"""

import math
import time

import numpy as np

from svpose import _kernels, so3, solver
from svpose.energy import (
    EnergyTable,
    PairwiseScorer,
    SymmetricModeScorer,
    TableScorer,
    pair_quats,
    score_over_grid,
)
from svpose.synth import RigSpec, generate_scene, scene_to_scorer


def _timeit(fn, *args, repeat=5):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class Proxy:
    """Forwards every attribute to a scorer or a block it wraps."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class WholeGrid(Proxy):
    """The scorer with its block levels hidden: every search scores the whole grid."""

    def block(self, grid, terms):
        return Unbounded(self._inner.block(grid, terms))


class Unbounded(Proxy):
    levels = ()


class PerTerm(Proxy):
    """The scorer dense, each term's whole-grid row from a block of its own."""

    def block(self, grid, terms):
        return PerTermRows([self._inner.block(grid, [term]).scores(0) for term in terms])


class PerTermRows:
    levels = ()

    def __init__(self, rows):
        self._rows = np.array(rows)

    def scores(self, at, rows=None):
        return self._rows[at, np.arange(self._rows.shape[1]) if rows is None else rows]


class RowCounter(Proxy):
    """The scorer, counting the grid rows its blocks score."""

    rows = 0

    def block(self, grid, terms):
        return Counted(self._inner.block(grid, terms), self, grid.n)


class Counted(Proxy):
    def __init__(self, block, counter, n):
        super().__init__(block)
        self._counter = counter
        self._n = n

    def scores(self, at, rows=None):
        self._counter.rows += self._n if rows is None else rows.shape[0]
        return self._inner.scores(at, rows)


class BoundCounter(Proxy):
    """The scorer, recording how many nodes each block update bounds.

    A block update's first `bounds` call is over the parents; the rest
    are over cells.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.updates = []

    def block(self, grid, terms):
        self.updates.append([])
        return BoundsCounted(self._inner.block(grid, terms), self.updates[-1])


class BoundsCounted(Proxy):
    def __init__(self, block, sizes):
        super().__init__(block)
        self._sizes = sizes

    def bounds(self, at, level, nodes):
        self._sizes.append(np.shape(nodes)[0])
        return self._inner.bounds(at, level, nodes)


def bounded_sizes(updates):
    """(parents, cells) bounded per block update that bounded anything."""
    return [(sizes[0], sum(sizes[1:])) for sizes in updates if sizes]


def bits(found):
    # Each search's (index, value, value at current), values by their exact bits.
    return [(k, float(v).hex(), None if c is None else float(c).hex()) for k, v, c in found]


def bench_block_update():
    n = 20
    grid = so3.build_grid(36864)
    t0 = time.perf_counter()
    grid.cells
    t_cells = time.perf_counter() - t0
    scene = generate_scene(RigSpec(n_cameras=n, seed=1000, jitter=0.05))
    scorer = scene_to_scorer(scene, kappa=50.0, noise_angle=0.02)
    rotations = solver.mst_init(scorer, n, grid).rotations
    quats = [so3.matrix_to_quat(r) for r in rotations]
    camera = 7
    current, _ = so3.nearest_in_grid(grid, rotations[camera])
    terms = [(camera, j, quats[j], "i") for j in range(n) if j != camera]

    def bounded():
        return solver.grid_search(scorer, grid, [terms], current)

    def whole():
        return solver.grid_search(WholeGrid(scorer), grid, [terms], current)

    def per_term():
        return solver.grid_search(PerTerm(scorer), grid, [terms], current)

    got, want, looped = bounded(), whole(), per_term()
    assert got == want, f"bounded search {got} differs from whole grid {want}"
    assert got == looped, f"stacked bounded search {got} differs from dense per-term {looped}"
    [(best_k, best, _)] = got
    counter = RowCounter(scorer)
    solver.grid_search(counter, grid, [terms], current)
    bounded_here = BoundCounter(scorer)
    solver.grid_search(bounded_here, grid, [terms], current)
    [(parents, cells)] = bounded_sizes(bounded_here.updates)
    in_solve = BoundCounter(scorer)
    solver.coordinate_ascent(in_solve, rotations, grid, max_sweeps=2)
    per_update = np.array(bounded_sizes(in_solve.updates))
    t_whole = _timeit(whole)
    t_bounded = _timeit(bounded)
    t_per_term = _timeit(per_term, repeat=20)
    t_stacked = _timeit(bounded, repeat=20)
    print(f"{'block update, 20 cameras, G=36864':<44} {'whole':>10} {'bounded':>10} {'speedup':>8}")
    print(
        f"{f'argmax {best_k}, value {best:.6f}':<44} {t_whole * 1e3:>8.2f}ms "
        f"{t_bounded * 1e3:>8.2f}ms {t_whole / t_bounded:>7.2f}x"
    )
    print(f"{f'bounded search scored {counter.rows} of {grid.n} rows':<44} {counter.rows / grid.n:>9.1%}")
    n_cells = grid.cells.radius.shape[0]
    print(f"it bounded {parents} parents and {cells} of {n_cells} cells")
    mean_parents, mean_cells = per_update.mean(axis=0)
    name = f"{len(per_update)} updates of a 2-sweep solve, mean bounded"
    print(f"{name:<44} {mean_parents:>6.0f} parents {mean_cells:>6.1f} cells")
    print(f"{'cell index build (once per grid)':<44} {t_cells * 1e3:>8.2f}ms")
    name = f"{len(terms)} terms, per-term dense vs stacked bounded"
    print(f"{name:<44} {'per-term':>10} {'stacked':>10} {'speedup':>8}")
    print(
        f"{'same argmax, value and current value':<44} {t_per_term * 1e3:>8.2f}ms "
        f"{t_stacked * 1e3:>8.2f}ms {t_per_term / t_stacked:>7.2f}x"
    )


def bench_pair_search():
    n = 20
    grid = so3.build_grid(36864)
    scene = generate_scene(RigSpec(n_cameras=n, seed=1000, jitter=0.05))
    scorer = scene_to_scorer(scene, kappa=50.0, noise_angle=0.02)
    groups = [[(i, j, None, "j")] for i in range(n) for j in range(i + 1, n)]

    def stacked():
        return solver.grid_search(scorer, grid, groups)

    def per_pair():
        return [solver.grid_search(WholeGrid(scorer), grid, [g])[0] for g in groups]

    got, want = stacked(), per_pair()
    assert [(k, v.hex()) for k, v, _ in got] == [(k, v.hex()) for k, v, _ in want], (
        "stacked pair search differs from per-pair dense searches"
    )
    t_per_pair = _timeit(per_pair, repeat=2)
    t_stacked = _timeit(stacked)
    name = f"spanning tree, {len(groups)} pairs, G=36864"
    print(f"{name:<44} {'per-pair':>10} {'stacked':>10} {'speedup':>8}")
    print(
        f"{'same index and value bits per pair':<44} {t_per_pair * 1e3:>8.2f}ms "
        f"{t_stacked * 1e3:>8.2f}ms {t_per_pair / t_stacked:>7.2f}x"
    )


def bench_term_row():
    rng = np.random.default_rng(13)
    grid = so3.build_grid(36864)
    scorer = SymmetricModeScorer(modes={(0, 1): so3.random_quats(rng, 2)}, kappa=50.0)
    partner = so3.random_quats(rng, 1)[0]
    print(f"{'one partner, G=36864, 2 modes':<44} {'composed':>10} {'block':>10} {'speedup':>8}")
    for moving in ("i", "j"):

        def composed():
            return scorer.score_quats(0, 1, pair_quats(grid.quats, partner, moving))

        def block_row():
            return scorer.block(grid, [(0, 1, partner, moving)]).scores(0)

        want, got = composed(), block_row()
        err = float(np.abs(got - want).max())
        assert err <= 1e-9, f"moving {moving}: block row differs by {err!r}"
        assert got.argmax() == want.argmax(), f"moving {moving}: argmax differs"
        t_composed = _timeit(composed)
        t_block = _timeit(block_row)
        name = f"camera {moving} moves (max diff {err:.1e})"
        print(
            f"{name:<44} {t_composed * 1e3:>8.2f}ms {t_block * 1e3:>8.2f}ms "
            f"{t_composed / t_block:>7.2f}x"
        )


def table_for(grid, n, seed):
    scene = generate_scene(RigSpec(n_cameras=n, seed=seed, jitter=0.05))
    source = scene_to_scorer(scene, 50.0, 0.02)
    rows = {(i, j): score_over_grid(source, i, j, grid) for i in range(n) for j in range(i + 1, n)}
    return EnergyTable(grid_spec=grid.spec, rows=rows)


def bench_table_block():
    n = 6
    grid = so3.build_grid(4608)
    table = table_for(grid, n, 1000)
    grid.nearest_table
    rotations = solver.mst_init(TableScorer(table, grid), n, grid).rotations
    quats = [so3.matrix_to_quat(r) for r in rotations]
    camera = 3
    current, _ = so3.nearest_in_grid(grid, rotations[camera])
    terms = [(camera, j, quats[j], "i") for j in range(n) if j != camera]
    warm = TableScorer(table, grid)

    def bounded(scorer=None):
        return solver.grid_search(scorer or TableScorer(table, grid), grid, [terms], current)

    def dense(scorer=None):
        scorer = scorer or TableScorer(table, grid)
        return solver.grid_search(WholeGrid(scorer), grid, [terms], current)

    got, want = bounded(), dense()
    assert bits(got) == bits(want), f"bounded table search {got} differs from dense {want}"
    assert bits(bounded(warm)) == bits(want) and bits(dense(warm)) == bits(want)
    counter = RowCounter(TableScorer(table, grid))
    solver.grid_search(counter, grid, [terms], current)
    t_dense = _timeit(dense)
    t_bounded = _timeit(bounded)
    t_dense_warm = _timeit(dense, warm)
    t_bounded_warm = _timeit(bounded, warm)
    name = "table block update, 6 cameras, G=4608"
    print(f"{name:<44} {'dense':>10} {'bounded':>10} {'speedup':>8}")
    [(best_k, best, _)] = got
    name = f"fresh scorer: argmax {best_k}, value {best:.4f}"
    print(
        f"{name:<44} {t_dense * 1e3:>8.2f}ms {t_bounded * 1e3:>8.2f}ms "
        f"{t_dense / t_bounded:>7.2f}x"
    )
    print(
        f"{'partners unmoved (memos warm)':<44} {t_dense_warm * 1e3:>8.2f}ms "
        f"{t_bounded_warm * 1e3:>8.2f}ms {t_dense_warm / t_bounded_warm:>7.2f}x"
    )
    name = f"bounded search scored {counter.rows} of {grid.n} rows"
    print(f"{name:<44} {counter.rows / grid.n:>9.1%}")


def bench_table_levels():
    name = "nearest table build by level"
    print(f"{name:<44} {'level':>6} {'buckets':>8} {'list':>6} {'build':>10}")
    rule = so3._table_levels
    for n in (4608, 36864):
        grid = so3.build_grid(n)
        for levels in (so3._cube_level(n, 3.5), rule(n)):
            so3._table_levels = lambda g, levels=levels: levels
            try:
                table = so3.NearestTable(grid.quats)
                t = _timeit(so3.NearestTable, grid.quats, repeat=5 if n < 10000 else 2)
            finally:
                so3._table_levels = rule
            lens = np.diff(table.ptr)
            now = "(now)" if levels == rule(n) else ""
            print(
                f"{f'G={n} {now}':<44} {levels:>6} {lens.shape[0]:>8} {lens.mean():>6.1f} "
                f"{t * 1e3:>8.1f}ms"
            )


def face_boundary_quats(rng, m):
    """Queries whose two largest |components| are equal: on the edge of two faces."""
    v = rng.standard_normal((m, 4))
    k = np.abs(v).argmax(axis=1)
    i = (k + rng.integers(1, 4, size=m)) % 4
    v[np.arange(m), i] = v[np.arange(m), k] * rng.choice([-1.0, 1.0], size=m)
    return so3.quat_normalize(v)


def bin_edge_quats(rng, m, levels):
    """Queries with face coordinates on the table's bin edges, most axes exactly."""
    n = 1 << levels
    u = rng.uniform(-1.0, 1.0, size=(m, 3))
    edge = np.tan(math.pi / 4.0 * (rng.integers(0, n + 1, size=(m, 3)) * (2.0 / n) - 1.0))
    on = rng.random((m, 3)) < 0.6
    u[on] = edge[on]
    v = np.column_stack([np.ones(m), u]) * rng.choice([-1.0, 1.0], size=(m, 1))
    q = np.empty_like(v)
    np.put_along_axis(q, so3._FACE_ORDER[rng.integers(0, 4, size=m)], v, axis=1)
    return so3.quat_normalize(q)


def bench_lookup():
    rng = np.random.default_rng(12)
    print(
        f"{'nearest-grid lookup, 4608 queries':<44} {'build':>10} {'dense':>10} "
        f"{'table':>10} {'speedup':>8} {'list mean/max':>14}"
    )
    refine = so3._refine
    for n in (576, 4608, 36864):
        grid = so3.build_grid(n)
        levels = []

        def timed(*args):
            t0 = time.perf_counter()
            out = refine(*args)
            levels.append(time.perf_counter() - t0)
            return out

        so3._refine = timed
        try:
            t0 = time.perf_counter()
            table = grid.nearest_table
            t_build = time.perf_counter() - t0
        finally:
            so3._refine = refine
        lens = np.diff(table.ptr)
        camera = so3.quat_conj(grid.quats[n // 3])[None, :]
        batches = [
            ("solver batch", so3.quat_mul(np.resize(grid.quats, (4608, 4)), camera)),
            ("random", so3.random_quats(rng, 4608)),
            ("face boundary", face_boundary_quats(rng, 4608)),
            ("bin edge", bin_edge_quats(rng, 4608, table.levels)),
        ]
        for name, queries in batches:
            queries = np.ascontiguousarray(queries)
            want = _kernels.nearest_abs_dots(queries, grid.quats)
            got = table.lookup(queries)
            assert np.array_equal(want[0], got[0]), f"G={n} {name}: table indices differ"
            assert np.array_equal(want[1], got[1]), f"G={n} {name}: table |dot| differs"
            t_dense = _timeit(_kernels.nearest_abs_dots, queries, grid.quats)
            t_table = _timeit(so3.nearest_indices, grid, queries)
            print(
                f"{f'G={n}, {name}':<44} {t_build * 1e3:>8.1f}ms {t_dense * 1e3:>8.2f}ms "
                f"{t_table * 1e3:>8.2f}ms {t_dense / t_table:>7.2f}x "
                f"{f'{lens.mean():.1f}/{lens.max()}':>14}"
            )
        if n > 576:
            per_level = " ".join(f"{t * 1e3:.1f}" for t in levels)
            print(f"{f'G={n}, build per level (ms)':<44} {per_level}")


def bench_table_energy():
    n = 6
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    print(f"{f'table energy, {len(pairs)} pairs':<44} {'per-pair':>10} {'batched':>10} {'speedup':>8}")
    for g in (576, 4608):
        grid = so3.build_grid(g)
        source = scene_to_scorer(generate_scene(RigSpec(n_cameras=n, seed=1000)), 50.0, 0.02)
        rows = {(i, j): score_over_grid(source, i, j, grid) for i in range(n) for j in range(i + 1, n)}
        scorer = TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)
        quats = so3.random_quats(np.random.default_rng(g), len(pairs))

        def per_pair():
            return PairwiseScorer.score_pairs(scorer, pairs, quats)

        def batched():
            return scorer.score_pairs(pairs, quats)

        assert np.array_equal(per_pair(), batched()), f"G={g}: batched energy differs"
        t_per_pair = _timeit(per_pair, repeat=20)
        t_batched = _timeit(batched, repeat=20)
        print(
            f"{f'G={g}, same bits':<44} {t_per_pair * 1e3:>8.2f}ms "
            f"{t_batched * 1e3:>8.2f}ms {t_per_pair / t_batched:>7.2f}x"
        )


def bench_covering():
    print(f"{'covering radius':<44} {'time':>10} {'dense':>10} {'scanned':>8}")
    for n in (4608, 36864):
        scanned = []
        kernel = _kernels.min_max_abs_dot

        def counted(samples, quats):
            scanned.append(samples.shape[0])
            return kernel(samples, quats)

        def covering():
            scanned.clear()
            return so3.build_grid(n).covering_radius

        _kernels.min_max_abs_dot = counted
        try:
            radius = covering()
            t = _timeit(covering)
        finally:
            _kernels.min_max_abs_dot = kernel
        dense = ""
        if n == 4608:
            rng = np.random.Generator(np.random.PCG64(so3._COVERING_SEED))
            probes = so3.random_quats(rng, so3._COVERING_SAMPLES)
            t0 = time.perf_counter()
            worst = _kernels.min_max_abs_dot(probes, so3.build_grid(n).quats)
            dense = f"{(time.perf_counter() - t0) * 1e3:>8.2f}ms"
            want = 2.0 * math.acos(min(1.0, max(0.0, worst)))
            assert radius == want, f"G={n}: covering {radius!r}, every probe gives {want!r}"
        print(f"{f'G={n}':<44} {t * 1e3:>8.2f}ms {dense:>10} {sum(scanned):>8}")


def bench_mode_kernel():
    rng = np.random.default_rng(11)
    counts = (1, 2, 4)
    targets = {k: so3.random_quats(rng, k) for k in counts}
    print(f"{'min_angle_sq_to_targets, by targets':<44}" + "".join(f"{k:>12}" for k in counts))
    for n in (4608, 36864):
        grid = so3.build_grid(n)
        centers = grid.cells.parent_centers
        shapes = [(f"G={n}, grid", grid.quats), (f"G={n}, {len(centers)} parent centers", centers)]
        for name, quats in shapes:
            times = [_timeit(_kernels.min_angle_sq_to_targets, quats, targets[k]) for k in counts]
            print(f"{name:<44}" + "".join(f"{t * 1e3:>10.3f}ms" for t in times))
        stacks = {k: so3.random_quats(rng, 19 * k).reshape(19, 1, k, 4) for k in counts}
        times = [_timeit(_kernels.min_angle_sq_stacked, centers[None], stacks[k]) for k in counts]
        name = f"G={n}, 19 terms x {len(centers)} centers, stacked"
        print(f"{name:<44}" + "".join(f"{t * 1e3:>10.3f}ms" for t in times))


def main():
    bench_block_update()
    print()
    bench_pair_search()
    print()
    bench_term_row()
    print()
    bench_lookup()
    print()
    bench_table_levels()
    print()
    bench_table_block()
    print()
    bench_table_energy()
    print()
    bench_covering()
    print()
    bench_mode_kernel()
    print()
    rng = np.random.default_rng(11)
    grid = so3.build_grid(4608).quats
    queries = so3.random_quats(rng, 20000)

    cases = [
        ("nearest_abs_dots (2000 x 4608)", _kernels.nearest_abs_dots, (queries[:2000], grid)),
        ("min_max_abs_dot (10000 x 4608)", _kernels.min_max_abs_dot, (queries[:10000], grid)),
    ]
    print(f"{'kernel':<44} {'time':>10}")
    for name, fn, args in cases:
        print(f"{name:<44} {_timeit(fn, *args) * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
