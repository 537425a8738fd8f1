import math
import struct

import numpy as np
import pytest

from svpose import _kernels, energy, so3
from svpose.energy import (
    ConstantScorer,
    EnergyTable,
    GridBlock,
    PairwiseScorer,
    SymmetricModeScorer,
    TableScorer,
    l1_translation_loss,
    load_table,
    nll_of,
    pair_quats,
    score_over_grid,
)
from svpose.errors import ConsistencyError, CorruptTableError, FormatError
from svpose.solver import grid_search
from svpose.synth import RigSpec, generate_scene, scene_to_scorer


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def score_one(scorer, i, j, rotation):
    """The score of one relative rotation, given as a matrix."""
    return float(scorer.score_quats(i, j, so3.matrix_to_quat(rotation)[None, :])[0])


def term_row(scorer, grid, i, j, fixed=None, moving="j"):
    """One term's whole-grid row, as the scorer's block scores it."""
    return scorer.block(grid, [(i, j, fixed, moving)]).scores(0)


def mode_scorer(rng, pairs, kappa=10.0):
    modes = {p: so3.random_quats(rng, 1) for p in pairs}
    return SymmetricModeScorer(modes=modes, kappa=kappa)


def test_constant_scorer():
    s = ConstantScorer(2.5)
    q = so3.random_quats(rng_for(0), 5)
    assert np.array_equal(s.score_quats(0, 1, q), np.full(5, 2.5))
    assert not s.directional
    with pytest.raises(ValueError):
        s.score_quats(1, 1, q)


def test_base_scorer_needs_an_override():
    class Bare(PairwiseScorer):
        pass

    with pytest.raises(NotImplementedError, match="Bare must override score_quats"):
        Bare().score_quats(0, 1, so3.random_quats(rng_for(0), 2))


def test_mode_scores_zero_at_mode():
    rng = rng_for(1)
    q = so3.random_quats(rng, 1)
    s = SymmetricModeScorer(modes={(0, 1): q}, kappa=7.0)
    assert abs(s.score_quats(0, 1, q)[0]) < 1e-12


def test_mode_score_is_minus_kappa_theta_sq():
    rng = rng_for(2)
    base = so3.random_rotation(rng)
    s = SymmetricModeScorer(
        modes={(0, 1): so3.matrix_to_quat(base)[None, :]}, kappa=3.0
    )
    for theta in (0.1, 0.5, 1.5, 2.5):
        axis = rng.standard_normal(3)
        probe = so3.axis_angle_rotation(axis, theta) @ base
        got = score_one(s, 0, 1, probe)
        assert got == pytest.approx(-3.0 * theta * theta, abs=1e-7)


def test_multi_mode_takes_nearest_well():
    rng = rng_for(3)
    base = so3.random_rotation(rng)
    other = so3.axis_angle_rotation([0.0, 0.0, 1.0], math.pi) @ base
    modes = np.stack([so3.matrix_to_quat(base), so3.matrix_to_quat(other)])
    s = SymmetricModeScorer(modes={(0, 1): modes}, kappa=1.0)
    probe = so3.axis_angle_rotation([0.0, 0.0, 1.0], 0.2) @ base
    # 0.2 to the first mode, pi - 0.2 to the second.
    assert score_one(s, 0, 1, probe) == pytest.approx(-0.04, abs=1e-7)


def test_reverse_pair_served_transposed():
    rng = rng_for(4)
    s = mode_scorer(rng, [(0, 1)])
    r = so3.random_rotation(rng)
    assert score_one(s, 1, 0, r.T) == pytest.approx(score_one(s, 0, 1, r), abs=1e-9)
    assert not s.directional


def test_directional_autodetect():
    rng = rng_for(5)
    modes = {
        (0, 1): so3.random_quats(rng, 1),
        (1, 0): so3.random_quats(rng, 1),
    }
    assert SymmetricModeScorer(modes=modes, kappa=1.0).directional
    with pytest.raises(ValueError):
        SymmetricModeScorer(modes={(0, 0): so3.random_quats(rng, 1)}, kappa=1.0)
    with pytest.raises(ValueError):
        SymmetricModeScorer(modes={}, kappa=0.0)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_mode_scorer_refuses_non_finite_kappa(kappa):
    # A NaN kappa used to pass the sign check and score NaN everywhere.
    with pytest.raises(ValueError, match="kappa"):
        SymmetricModeScorer(
            modes={(0, 1): so3.random_quats(rng_for(5), 1)}, kappa=kappa
        )


def test_unknown_pair_scores_zero():
    s = mode_scorer(rng_for(6), [(0, 1)])
    q = so3.random_quats(rng_for(7), 4)
    assert np.array_equal(s.score_quats(2, 3, q), np.zeros(4))


def test_zero_row_modes_are_no_modes():
    # A zero-row mode array is a pair with no modes: it scores 0
    # everywhere, bounds 0 on every cell, and makes nothing directional.
    rng = rng_for(7)
    grid = so3.build_grid(576)
    modes = {(0, 1): so3.random_quats(rng, 1), (1, 0): np.zeros((0, 4))}
    s = SymmetricModeScorer(modes=modes, kappa=3.0)
    assert not s.directional
    q = so3.random_quats(rng, 5)
    for i, j in ((0, 2), (2, 0)):
        s = SymmetricModeScorer(modes={(i, j): np.empty((0, 4))}, kappa=3.0)
        assert np.array_equal(s.score_quats(i, j, q), np.zeros(5))
        assert np.array_equal(s.score_quats(j, i, q), np.zeros(5))
        assert np.array_equal(term_row(s, grid, i, j, q[0], "i"), np.zeros(576))
        block = s.block(grid, [(i, j, q[1], "j")])
        assert np.array_equal(block.scores(0, np.array([3])), [0.0])
        bound = block.bounds(0, "cells", np.arange(grid.cells.radius.shape[0]))
        assert bound.shape == grid.cells.radius.shape and not bound.any()


def test_mode_score_quats_and_score_pairs_match_the_mode_formula():
    # score_quats, score_pairs and the base class's per-pair loop all give
    # the bytes of -kappa * min_angle_sq_to_targets(quats, modes), with
    # the stored modes conjugated for a reversed pair, and 0.0 for a pair
    # without modes or with a zero-row mode array.
    rng = rng_for(31)
    grid = so3.build_grid(576)
    # A grid point whose own |dot| rounds to 1 scores exactly -0.0 on its mode.
    k = int(np.flatnonzero(_kernels.fixed_abs_dots(grid.quats, grid.quats) >= 1.0)[0])
    scorer = SymmetricModeScorer(
        modes={
            (0, 1): grid.quats[[k]],
            (2, 1): so3.random_quats(rng, 3),
            (0, 3): so3.random_quats(rng, 2),
            (3, 0): so3.random_quats(rng, 1),
            (2, 3): np.empty((0, 4)),
        },
        kappa=7.5,
    )
    pairs = [(0, 1), (1, 0), (2, 1), (1, 2), (0, 3), (3, 0), (2, 3), (3, 2), (0, 2)]
    quats = np.concatenate([grid.quats[[k]], so3.random_quats(rng, len(pairs) - 1)])

    def formula(i, j, q):
        if (i, j) in scorer.modes:
            modes = scorer.modes[(i, j)]
        elif (j, i) in scorer.modes:
            modes = so3.quat_conj(scorer.modes[(j, i)])
        else:
            return np.zeros(q.shape[0])
        return -scorer.kappa * _kernels.min_angle_sq_to_targets(q, modes)

    for i, j in pairs:
        want = formula(i, j, quats).tobytes()
        assert scorer.score_quats(i, j, quats).tobytes() == want
        assert scorer.score_quats(i, j, quats[:0]).shape == (0,)
        batch = [(i, j)] * len(quats)
        assert scorer.score_pairs(batch, quats).tobytes() == want
        assert PairwiseScorer.score_pairs(scorer, batch, quats).tobytes() == want
    want = np.array([formula(i, j, q[None, :])[0] for (i, j), q in zip(pairs, quats)])
    assert scorer.score_pairs(pairs, quats).tobytes() == want.tobytes()
    on_mode = scorer.score_quats(0, 1, quats[:1])[0]
    assert on_mode == 0.0 and np.signbit(on_mode)
    with pytest.raises(ValueError):
        scorer.score_quats(1, 1, quats)


def test_score_over_grid_argmax_near_mode():
    rng = rng_for(8)
    grid = so3.build_grid(576)
    target = so3.random_rotation(rng)
    s = SymmetricModeScorer(
        modes={(0, 1): so3.matrix_to_quat(target)[None, :]}, kappa=5.0
    )
    row = score_over_grid(s, 0, 1, grid)
    assert row.shape == (576,)
    idx, _ = so3.nearest_in_grid(grid, target)
    assert row.argmax() == idx
    with pytest.raises(ValueError):
        score_over_grid(s, 1, 1, grid)


def composed(grid, fixed, moving):
    """Relative rotations i -> j with camera `moving` over the grid."""
    if moving == "i":
        return so3.quat_mul(fixed[None, :], so3.quat_conj(grid.quats))
    return so3.quat_mul(grid.quats, so3.quat_conj(fixed)[None, :])


def test_mode_score_grid_matches_composed_batch():
    # The mode block moves the modes; composing the G candidates and
    # scoring them agrees up to rounding.
    rng = rng_for(15)
    grid = so3.build_grid(576)
    symmetric = SymmetricModeScorer(
        modes={(0, 1): so3.random_quats(rng, 3), (1, 2): so3.random_quats(rng, 1)},
        kappa=50.0,
    )
    directional = SymmetricModeScorer(
        modes={(0, 1): so3.random_quats(rng, 2), (1, 0): so3.random_quats(rng, 1)},
        kappa=50.0,
    )
    assert directional.directional and not symmetric.directional
    fixed = list(so3.random_quats(rng, 4)) + [grid.quats[17], np.array([1.0, 0, 0, 0])]
    for s in (symmetric, directional):
        # (3, 0) has no modes: it scores 0 over the grid.
        for i, j in [(0, 1), (1, 0), (2, 1), (3, 0)]:
            for moving in ("i", "j"):
                for q in fixed:
                    want = s.score_quats(i, j, composed(grid, q, moving))
                    got = term_row(s, grid, i, j, q, moving)
                    assert np.abs(got - want).max() <= 1e-9
                    assert got.argmax() == want.argmax()
                    default = GridBlock(s, grid, [(i, j, q, moving)]).scores(0)
                    assert np.array_equal(default, want)
                got = term_row(s, grid, i, j, None, moving)
                want = s.score_quats(i, j, pair_quats(grid.quats, None, moving))
                assert np.abs(got - want).max() <= 1e-9
            # The identity with j moving is the pair's row over the grid.
            row = term_row(s, grid, i, j)
            assert np.array_equal(row, s.score_quats(i, j, grid.quats))
            assert np.array_equal(score_over_grid(s, i, j, grid), row)
        with pytest.raises(ValueError):
            term_row(s, grid, 0, 1, fixed[0], "k")
        with pytest.raises(ValueError):
            term_row(s, grid, 1, 1)


def test_default_score_grid_composes_then_scores():
    class QuatsOnly(PairwiseScorer):
        def score_quats(self, i, j, quats):
            # Products of two components do not see a quaternion's sign.
            q = np.asarray(quats)
            return q[:, 0] * q[:, 1] + 2.0 * q[:, 2] * q[:, 3] + i - j

    grid = so3.build_grid(72)
    s = QuatsOnly()
    q = so3.random_quats(rng_for(16), 1)[0]
    assert type(s.block(grid, [])) is GridBlock
    for moving in ("i", "j"):
        want = s.score_quats(0, 1, composed(grid, q, moving))
        assert np.array_equal(term_row(s, grid, 0, 1, q, moving), want)
    assert np.array_equal(term_row(s, grid, 0, 1), s.score_quats(0, 1, grid.quats))
    assert np.array_equal(score_over_grid(s, 0, 1, grid), s.score_quats(0, 1, grid.quats))
    with pytest.raises(ValueError):
        term_row(s, grid, 0, 1, q, "k")


def table_for(rng, grid, pairs):
    rows = {p: rng.standard_normal(grid.n) for p in pairs}
    return EnergyTable(grid_spec=grid.spec, rows=rows)


def test_table_roundtrip(tmp_path):
    rng = rng_for(9)
    grid = so3.build_grid(72)
    table = table_for(rng, grid, [(0, 1), (0, 2), (2, 1)])
    path = tmp_path / "t.rpet"
    table.save(path)
    back = load_table(path)
    assert back.grid_spec == table.grid_spec
    assert back.n_cameras == 3
    assert set(back.rows) == set(table.rows)
    for key in table.rows:
        assert np.array_equal(back.rows[key], table.rows[key])


def test_table_validation():
    grid = so3.build_grid(8)
    with pytest.raises(ValueError):
        EnergyTable(grid_spec=grid.spec, rows={(1, 1): np.zeros(8)})
    with pytest.raises(ConsistencyError):
        EnergyTable(grid_spec=grid.spec, rows={(0, 1): np.zeros(9)})


def test_table_rejects_non_finite_scores(tmp_path):
    grid = so3.build_grid(8)
    for bad in (np.nan, np.inf, -np.inf):
        row = np.zeros(8)
        row[3] = bad
        with pytest.raises(CorruptTableError, match="non-finite"):
            EnergyTable(grid_spec=grid.spec, rows={(0, 1): row})
    # A file whose stored row holds a NaN fails to load the same way.
    path = tmp_path / "t.rpet"
    table_for(rng_for(10), grid, [(0, 1)]).save(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 25 + 4 + 4 * 5, float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptTableError, match="non-finite"):
        load_table(path)


def test_load_table_negatives(tmp_path):
    grid = so3.build_grid(8)
    table = table_for(rng_for(10), grid, [(0, 1)])
    good = tmp_path / "good.rpet"
    table.save(good)
    blob = good.read_bytes()

    bad = tmp_path / "magic.rpet"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_table(bad)

    trunc = tmp_path / "trunc.rpet"
    trunc.write_bytes(blob[:-5])
    with pytest.raises(CorruptTableError):
        load_table(trunc)

    trail = tmp_path / "trail.rpet"
    trail.write_bytes(blob + b"\x00\x00")
    with pytest.raises(CorruptTableError):
        load_table(trail)

    head = tmp_path / "head.rpet"
    head.write_bytes(blob[:10])
    with pytest.raises(CorruptTableError):
        load_table(head)

    # Duplicate pair: append a second copy of the (pair, row) record and
    # bump the pair count in the header. Header is 4 magic + 21 bytes.
    record = blob[25:]
    dup_head = blob[:4] + struct.pack("<IBIQI", 1, 1, 8, 0, 2)
    dup = tmp_path / "dup.rpet"
    dup.write_bytes(dup_head + record + record)
    with pytest.raises(CorruptTableError, match="duplicate"):
        load_table(dup)


def test_table_scorer_serves_rows_and_transposes():
    rng = rng_for(11)
    grid = so3.build_grid(72)
    table = table_for(rng, grid, [(0, 1)])
    s = TableScorer(table, grid)
    row = score_over_grid(s, 0, 1, grid)
    assert np.allclose(row, table.rows[(0, 1)].astype(np.float64))
    # Reverse direction: score(1, 0, R) = row at nearest grid point of R^T.
    r = so3.quat_to_matrix(grid.quats[33])
    got = score_one(s, 1, 0, r.T)
    assert got == pytest.approx(float(table.rows[(0, 1)][33]), abs=1e-6)
    assert not s.directional
    with pytest.raises(ConsistencyError):
        score_one(s, 0, 2, r)


@pytest.mark.parametrize("both_orders", [False, True])
def test_table_score_pairs_matches_per_pair_scores(both_orders):
    # 20 cameras at G=576: every ordered pair in one batch is large
    # enough to go through the nearest table, one row at a time is not.
    n = 20
    rng = rng_for(19)
    grid = so3.build_grid(576)
    stored = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if both_orders:
        stored += [(j, i) for i, j in stored[::3]]
    scorer = TableScorer(table_for(rng, grid, stored), grid)
    assert scorer.directional == both_orders
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    quats = so3.random_quats(rng, len(pairs))
    quats[::4] = grid.quats[rng.integers(grid.n, size=quats[::4].shape[0])]
    assert len(pairs) * grid.n > so3._DENSE_WORK
    # The base class scores one pair at a time through score_quats.
    want = PairwiseScorer.score_pairs(scorer, pairs, quats)
    assert np.array_equal(scorer.score_pairs(pairs, quats), want)
    assert grid._table is not None
    with pytest.raises(ValueError):
        scorer.score_pairs([(0, 1), (2, 2)], quats[:2])
    with pytest.raises(ConsistencyError):
        scorer.score_pairs([(0, 1), (0, n)], quats[:2])


def test_table_scorer_grid_mismatch():
    grid = so3.build_grid(72)
    other = so3.build_grid(16)
    table = table_for(rng_for(12), grid, [(0, 1)])
    with pytest.raises(ConsistencyError):
        TableScorer(table, other)


class ComposedTableScorer(TableScorer):
    """Scores whole grids through the default block: compose, then snap."""

    block = PairwiseScorer.block


def test_table_scorer_memo_matches_fresh_scorer():
    rng = rng_for(13)
    grid = so3.build_grid(576)
    # (0, 1) is stored as asked; (1, 2) is served from the stored (2, 1).
    table = table_for(rng, grid, [(0, 1), (2, 1)])
    memo = TableScorer(table, grid)
    same_quats = so3.SO3Grid(quats=grid.quats.copy(), spec=grid.spec)
    fixed = [None, so3.random_quats(rng, 1)[0], grid.quats[40], grid.quats[0]]
    for _ in range(2):
        for i, j in [(0, 1), (1, 0), (2, 1), (1, 2)]:
            for moving in ("i", "j"):
                for q in fixed:
                    want = term_row(ComposedTableScorer(table, grid), grid, i, j, q, moving)
                    for g in (grid, same_quats):
                        got = term_row(memo, g, i, j, q, moving)
                        assert np.array_equal(got, want)
    # One snapped batch per (fixed camera, moving side, stored order):
    # cameras 0 and 2 are fixed in one stored order per side, camera 1
    # in both, and pairs that share all three share the entry.
    assert len(memo._snapped) == 6
    for _ in range(2):
        with pytest.raises(ValueError):
            term_row(memo, grid, 0, 1, fixed[1], "k")
    # Over another grid the scorer composes and snaps to its own grid.
    other = so3.build_grid(72)
    q = fixed[1]
    want = memo.score_quats(1, 2, composed(other, q, "i"))
    assert type(memo.block(other, [])) is GridBlock
    assert np.array_equal(term_row(memo, other, 1, 2, q, "i"), want)


def test_table_score_grid_serves_own_grid_rows():
    for generator in ("super_fibonacci", "random_uniform"):
        for n in (72, 576, 4608):
            grid = so3.build_grid(n, generator=generator, seed=3)
            assert np.array_equal(so3.nearest_indices(grid, grid.quats), np.arange(n))
            table = table_for(rng_for(n), grid, [(0, 1)])
            row = score_over_grid(TableScorer(table), 0, 1, grid)
            assert np.array_equal(row, table.rows[(0, 1)].astype(np.float64))
            assert np.array_equal(row, TableScorer(table).score_quats(0, 1, grid.quats))


def test_table_solve_reuses_snapped_batches(tmp_path, monkeypatch):
    from svpose import cli
    from svpose.solver import coordinate_ascent, mst_init, solve

    scenes = tmp_path / "scenes"
    assert cli.main([
        "synth", "-o", str(scenes), "--n", "6", "--scenes", "1", "--seed", "3",
        "--emit-tables", "--grid-n", "576", "--kappa", "50", "--noise-angle", "0.02",
    ]) == 0
    table = load_table(scenes / "scene_000.rpet")
    grid = so3.build_grid(576)
    want = solve(ComposedTableScorer(table, grid), 6, grid)

    full_grid_calls = []
    lookup = energy.nearest_indices

    def counting(grid, quats):
        if len(quats) == grid.n:
            full_grid_calls.append(len(quats))
        return lookup(grid, quats)

    monkeypatch.setattr(energy, "nearest_indices", counting)
    scorer = TableScorer(table, grid)
    init = mst_init(scorer, 6, grid)
    assert full_grid_calls == []
    got = coordinate_ascent(scorer, init, grid)
    assert len(full_grid_calls) <= 20
    assert np.array_equal(got.rotations, want.rotations)
    assert got.total_energy == want.total_energy
    assert got.energy_trace == want.energy_trace


def test_table_memo_stays_bounded_across_solves():
    # Each solve here starts from other rotations, so a memo keyed on
    # the rotations themselves would grow with every solve; one entry
    # per fixed camera, moving side and stored order stays at most 4 n.
    # At G=4608 the searches are bounded: they keep bucket codes, one
    # small integer per grid point, snap no whole grid and keep one row
    # of bucket maxima per stored pair.
    from svpose.solver import coordinate_ascent

    n = 6
    grid = so3.build_grid(4608)
    rig = RigSpec(n_cameras=n, seed=17, jitter=0.05)
    source = scene_to_scorer(generate_scene(rig), 50.0, 0.02)
    rows = {(i, j): score_over_grid(source, i, j, grid) for i in range(n) for j in range(i + 1, n)}
    scorer = TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)
    rng = rng_for(17)
    for _ in range(3):
        init = so3.quat_to_matrix(grid.quats[rng.choice(grid.n, n, replace=False)])
        want = coordinate_ascent(ComposedTableScorer(scorer.table, grid), init, grid)
        got = coordinate_ascent(scorer, init, grid)
        assert 0 < len(scorer._buckets) <= 4 * n and not scorer._snapped
        assert {codes.dtype for _, codes in scorer._buckets.values()} == {np.dtype(np.int16)}
        assert len(scorer._maxima) <= len(rows)
        assert np.array_equal(got.rotations, want.rotations)
        assert got.energy_trace == want.energy_trace
        assert got.total_energy == want.total_energy


def test_nll_uniform_is_log_n():
    grid = so3.build_grid(576)
    scores = np.full(576, -3.25)
    gt = so3.random_rotation(rng_for(13))
    assert nll_of(scores, gt, grid) == pytest.approx(math.log(576), abs=1e-9)


def test_nll_shift_invariant_and_matches_direct():
    rng = rng_for(14)
    grid = so3.build_grid(72)
    scores = rng.standard_normal(72) * 4.0
    gt = so3.random_rotation(rng)
    base = nll_of(scores, gt, grid)
    shifted = nll_of(scores + 123.0, gt, grid)
    assert shifted == pytest.approx(base, abs=1e-9)
    # Direct softmax evaluation; safe at this magnitude.
    idx, _ = so3.nearest_in_grid(grid, gt)
    direct = -math.log(math.exp(scores[idx]) / np.exp(scores).sum())
    assert base == pytest.approx(direct, abs=1e-9)
    with pytest.raises(ValueError):
        nll_of(scores[:10], gt, grid)


def test_l1_translation_loss():
    assert l1_translation_loss([1.0, 2.0, 3.0], [2.0, 0.0, 3.5]) == 3.5
    with pytest.raises(ValueError):
        l1_translation_loss(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("generator", sorted(so3.GENERATOR_IDS))
@pytest.mark.parametrize("grid_n", [576, 4608])
def test_scene_and_table_paths_agree_on_the_grid(grid_n, generator):
    # A table of a scene scorer's rows holds the same scores, rounded to
    # float32, and its best pairwise rotations are the scorer's, apart
    # from float32 ties.
    grid = so3.build_grid(grid_n, generator=generator, seed=2)
    n = 6
    for seed in range(3):
        rig = RigSpec(n_cameras=n, seed=seed, radius_min=0.7, radius_max=1.3, jitter=0.05)
        mode = scene_to_scorer(generate_scene(rig), kappa=50.0, noise_angle=0.05)
        rows = {
            (i, j): score_over_grid(mode, i, j, grid)
            for i in range(n)
            for j in range(i + 1, n)
        }
        table = TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)
        for i, j in rows:
            stored = table.table.rows[(i, j)]
            want = mode.score_quats(i, j, grid.quats).astype(np.float32)
            assert np.array_equal(table.score_quats(i, j, grid.quats), want)
            # Each scorer's best pairwise rotation: a one-term search.
            k_mode, k_table = (
                grid_search(scorer, grid, [[(i, j, None, "j")]])[0][0] for scorer in (mode, table)
            )
            assert k_table == k_mode or stored[k_table] == stored[k_mode]
