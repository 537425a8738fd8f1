"""The solver's one bounded grid search against a dense oracle.

`solver.grid_search` maximizes each of its groups' sums of terms over
the grid: a block update is one group of every partner's
terms, and `mst_init` searches one group per pair and order at once.
When the scorer's block bounds its terms, the search bounds every node
of the block's first level, then, level by level, the members of the
nodes that reach each group's best exact score found so far, and
scores only the points of the last-level nodes that reach it: the
mode scorer's levels are the parents and cells of the grid's cell
index, the table scorer's the grid points. The oracle sums each
group's terms' whole-grid rows, each from a block of its own, from
0.0, takes the first maximum and reads the camera's current index, as
the dense block update did.
"""

import pickle

import numpy as np
import pytest

from svpose import _kernels, energy, so3, solver
from svpose.energy import (
    ConstantScorer,
    EnergyTable,
    GridBlock,
    PairwiseScorer,
    SymmetricModeScorer,
    TableScorer,
    score_over_grid,
)
from svpose.synth import RigSpec, generate_scene, scene_to_scorer

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GRIDS = {}


def grid_of(n, generator="super_fibonacci"):
    # Shared so each grid's cell index is built once per test session.
    if (n, generator) not in GRIDS:
        GRIDS[(n, generator)] = so3.build_grid(n, generator=generator, seed=3)
    return GRIDS[(n, generator)]


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def term_row(scorer, grid, term):
    # One term's whole-grid row, from a block of its own.
    return scorer.block(grid, [term]).scores(0)


def dense_search(scorer, grid, groups, current=-1):
    found = []
    for group in groups:
        obj = np.zeros(grid.n)
        for term in group:
            obj += term_row(scorer, grid, term)
        k = int(np.argmax(obj))
        found.append((k, float(obj[k]), None if current < 0 else float(obj[current])))
    return found


def bits(found):
    # Each group's (index, value, value at current) with each value's
    # exact bits, -0.0 included.
    return [(k, float(v).hex(), None if c is None else float(c).hex()) for k, v, c in found]


class Recorder:
    """Forwards to a scorer and records the rows each block evaluation asks for.

    Like a tracing proxy it is not a subclass of the scorer, so the
    solver must find the block hook through the attribute, not the type.
    `blocks` holds one list of row counts per block, in the order the
    blocks were made.
    """

    def __init__(self, scorer):
        self._scorer = scorer
        self.directional = scorer.directional
        self.blocks = []

    def block(self, grid, terms):
        self.blocks.append([])
        return RecordedBlock(self._scorer.block(grid, terms), self.blocks[-1])

    def __getattr__(self, name):
        return getattr(self._scorer, name)


class RecordedBlock:
    def __init__(self, block, rows):
        self._block = block
        self._rows = rows

    def scores(self, at, rows=None):
        self._rows.append(None if rows is None else len(rows))
        return self._block.scores(at, rows)

    def __getattr__(self, name):
        return getattr(self._block, name)


def checked_solve(monkeypatch, scorer, n, grid):
    """Solve while every search is compared with the dense oracle.

    Every call of the one search is checked, index, value and current
    value by their bits: the spanning tree's search over every pair and
    the block updates. Returns the hypothesis, the hypothesis the oracle
    alone gives, and the recorded row counts of the block updates'
    evaluations.
    """
    decisions = []
    search = solver.grid_search
    recorder = Recorder(scorer)

    def both(scorer_, grid_, groups, current=-1):
        got = search(scorer_, grid_, groups, current)
        want = dense_search(scorer, grid_, groups, current)
        assert bits(got) == bits(want), f"search over {len(groups)} groups, current {current}"
        decisions.append(got)
        return got

    monkeypatch.setattr(solver, "grid_search", both)
    hyp = solver.solve(recorder, n, grid)
    monkeypatch.setattr(solver, "grid_search", dense_search)
    oracle = solver.solve(scorer, n, grid)
    monkeypatch.setattr(solver, "grid_search", search)
    # The spanning tree's one search over every pair, then the block updates.
    assert len(decisions) > 1 and len(decisions[0]) == len(pair_terms(scorer, n))
    assert len(recorder.blocks) == len(decisions)
    return hyp, oracle, [r for rows in recorder.blocks[1:] for r in rows]


def pair_terms(scorer, n):
    # The spanning tree's terms: every pair, both orders when directional.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    terms = [(i, j, None, "j") for i, j in pairs]
    if scorer.directional:
        terms += [(j, i, None, "j") for i, j in pairs]
    return terms


def assert_same(hyp, oracle):
    assert np.array_equal(hyp.rotations, oracle.rotations)
    assert hyp.energy_trace == oracle.energy_trace
    assert hyp.total_energy == oracle.total_energy
    assert hyp.sweeps_used == oracle.sweeps_used


def scene_scorer(seed, n, symmetric=False):
    scene = generate_scene(RigSpec(n_cameras=n, seed=seed, jitter=0.05))
    symmetry = None
    if symmetric:
        symmetry = {(0, 1): ((0.0, 0.0, 1.0), 2), (1, 3): ((0.0, 1.0, 0.0), 4)}
    return scene_to_scorer(scene, kappa=50.0, noise_angle=0.02, symmetry=symmetry)


def directional_scorer(seed, n, missing=()):
    # Both orders of every pair with their own modes, except the pairs
    # in `missing`, which have none and score 0 everywhere.
    rng = rng_for(seed)
    modes = {
        (i, j): so3.random_quats(rng, int(rng.integers(1, 4)))
        for i in range(n)
        for j in range(n)
        if i != j and (min(i, j), max(i, j)) not in missing
    }
    return SymmetricModeScorer(modes=modes, kappa=20.0)


@pytest.mark.parametrize(
    "grid_n, n, bounded",
    [(4608, 6, False), (36864, 10, True)],
)
def test_scene_solves_match_dense_oracle_on_both_sides_of_rule(
    monkeypatch, grid_n, n, bounded
):
    grid = grid_of(grid_n)
    assert (grid.n * (n - 1) > energy._BOUND_WORK) == bounded
    hyp, oracle, rows = checked_solve(monkeypatch, scene_scorer(grid_n + n, n), n, grid)
    assert_same(hyp, oracle)
    assert hyp.sweeps_used >= 2  # a sweep after the projection onto the grid
    if bounded:
        scored = [r for r in rows if r is not None]
        assert scored and None not in rows
        # Pruned: the candidates are a small share of the grid.
        assert max(scored) < grid.n // 10
    else:
        assert set(rows) == {None}


@pytest.mark.parametrize(
    "make, n, seed",
    [
        (lambda: scene_scorer(31, 6, symmetric=True), 6, 31),
        (lambda: directional_scorer(32, 5), 5, 32),
        (lambda: directional_scorer(33, 6, missing={(0, 2), (3, 4), (1, 5)}), 6, 33),
        (lambda: scene_scorer(34, 8), 8, 34),
    ],
    ids=["symmetric-multimode", "directional", "modeless-pairs", "scene"],
)
@pytest.mark.parametrize("grid_n", [576, 4608])
def test_forced_bounded_search_matches_dense_oracle(monkeypatch, make, n, seed, grid_n):
    monkeypatch.setattr(energy, "_BOUND_WORK", 0)
    grid = grid_of(grid_n, "random_uniform" if seed % 2 else "super_fibonacci")
    scorer = make()
    hyp, oracle, rows = checked_solve(monkeypatch, scorer, n, grid)
    assert_same(hyp, oracle)
    assert None not in rows


@pytest.mark.parametrize("grid_n", [576, 4608])
def test_table_solves_match_dense_oracle_bounded_from_4608_points(monkeypatch, grid_n):
    # Below 4608 points a table block offers no bound and every search
    # scores the whole grid; from there on it bounds every grid point
    # and snaps only the few that can win. The spanning tree's terms
    # read stored rows as they are, snap nothing, and are scored whole.
    grid = grid_of(grid_n)
    scorer = table_scorer(35, 5, grid)
    assert scorer.block(grid, pair_terms(scorer, 5)).levels == ()
    update = [(1, j, grid.quats[j], "i") for j in (0, 2, 3, 4)]
    assert scorer.block(grid, update).levels == (("points",) if grid_n >= 4608 else ())
    hyp, oracle, recorded = checked_solve(monkeypatch, scorer, 5, grid)
    assert_same(hyp, oracle)
    if grid_n < 4608:
        assert set(recorded) == {None}
    else:
        assert None not in recorded
        # Pruned: a block update scores a small share of its terms' rows.
        assert max(recorded) < 4 * grid.n // 10


def table_scorer(seed, n, grid):
    source = scene_scorer(seed, n)
    rows = {(i, j): score_over_grid(source, i, j, grid) for i in range(n) for j in range(i + 1, n)}
    return TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)


STACKED_SCORERS = {
    "symmetric-multimode": lambda grid: (scene_scorer(51, 6, symmetric=True), 6),
    "directional-modeless": lambda grid: (
        directional_scorer(52, 5, missing={(0, 2), (3, 4)}),
        5,
    ),
    "constant": lambda grid: (ConstantScorer(-2.5), 5),
    "table": lambda grid: (table_scorer(53, 5, grid), 5),
}


@pytest.mark.parametrize("name", sorted(STACKED_SCORERS))
@pytest.mark.parametrize("grid_n", [100, 576, 4608, 36864])
def test_stacked_pair_search_matches_dense_per_term_search(monkeypatch, name, grid_n):
    # G=100 has its cells at level 0, so each is its own parent; at
    # G=576 the parents are the four faces.
    grid = grid_of(grid_n, "random_uniform" if grid_n == 100 else "super_fibonacci")
    assert (grid.cells.level == 0) == (grid_n == 100)
    monkeypatch.setattr(energy, "_BOUND_WORK", 0)
    scorer, n = STACKED_SCORERS[name](grid)
    terms = pair_terms(scorer, n)
    rng = rng_for(grid_n)
    # Block-update-shaped terms too: a fixed partner, either side moving.
    for i, j, _, _ in terms[:4]:
        terms.append((i, j, so3.random_quats(rng, 1)[0], "i"))
        terms.append((j, i, grid.quats[int(rng.integers(grid.n))], "j"))
    groups = [[term] for term in terms]
    got = solver.grid_search(scorer, grid, groups)
    want = dense_search(scorer, grid, groups)
    assert bits(got) == bits(want)
    # In chunks of 5 terms, the last one short, as a large rig's would be.
    monkeypatch.setattr(solver, "_STACK_PAIRS", 5 * grid.cells.parent_radius.shape[0])
    assert len(terms) % 5
    assert bits(solver.grid_search(scorer, grid, groups)) == bits(want)
    # The table's terms include fixed partners, which it snaps.
    bounded = bool(scorer.block(grid, terms).levels)
    modes = name in ("symmetric-multimode", "directional-modeless")
    assert bounded == (modes or (name == "table" and grid_n >= 4608))
    if name == "constant":
        assert {k for k, _, _ in got} == {0}
    for (i, j, fixed, _), found in zip(terms, got):
        if fixed is None:
            # The pair's best rotation searched alone.
            alone = solver.grid_search(scorer, grid, [[(i, j, None, "j")]])
            assert bits(alone) == bits([found])


@pytest.mark.parametrize("grid_n", [100, 576, 4608])
def test_one_search_over_multi_term_groups_matches_dense_group_sums(monkeypatch, grid_n):
    # A group per pair holding both of its orders with the pair's second
    # camera moving, k = 2 terms, some against a fixed first camera;
    # pairs (0, 2) and (3, 4) have no modes and score 0 everywhere.
    grid = grid_of(grid_n, "random_uniform" if grid_n == 100 else "super_fibonacci")
    monkeypatch.setattr(energy, "_BOUND_WORK", 0)
    n = 5
    scorer = directional_scorer(54, n, missing={(0, 2), (3, 4)})
    rng = rng_for(grid_n + 54)
    fixed = [None, *so3.random_quats(rng, n - 1)]
    groups = [
        [(i, j, fixed[i], "j"), (j, i, fixed[i], "i")]
        for i in range(n)
        for j in range(i + 1, n)
    ]
    want = dense_search(scorer, grid, groups)
    assert bits(solver.grid_search(scorer, grid, groups)) == bits(want)
    # In chunks of 3 groups, the last one short.
    monkeypatch.setattr(solver, "_STACK_PAIRS", 3 * grid.cells.parent_radius.shape[0])
    assert len(groups) % 3
    recorder = Recorder(scorer)
    assert bits(solver.grid_search(recorder, grid, groups)) == bits(want)
    # Bounded: every chunk's last evaluation scores chosen rows only.
    [rows] = recorder.blocks
    assert len(rows) == 2 * -(-len(groups) // 3) and None not in rows
    with pytest.raises(ValueError):
        solver.grid_search(scorer, grid, groups, current=0)
    with pytest.raises(ValueError):
        solver.grid_search(scorer, grid, [groups[0], groups[1][:1]])


def test_search_current_index_scored_with_candidates(monkeypatch):
    # The current index far from the maximum is still scored in the
    # candidates' evaluation, and equals the oracle's value there.
    monkeypatch.setattr(energy, "_BOUND_WORK", 0)
    grid = grid_of(4608)
    scorer = scene_scorer(36, 6)
    rng = rng_for(36)
    quats = so3.random_quats(rng, 6)
    terms = [(3, j, quats[j], "i") for j in range(6) if j != 3]
    for current in (-1, 0, int(rng.integers(grid.n)), grid.n - 1):
        got = solver.grid_search(scorer, grid, [terms], current)
        assert bits(got) == bits(dense_search(scorer, grid, [terms], current))


def test_search_scores_a_lone_row_like_the_dense_search(monkeypatch):
    # A tight cluster of points near the identity and one point on the
    # cube-map cell center farthest from it (every 2001-point grid has
    # the same cells), so that point is alone in a cell of radius 0. With the pair's best mode next to it,
    # that cell is the only one to survive, and the search scores its
    # one row alone. Each |dot| is a fixed-order sum, so that row's score
    # is the whole grid's, bit for bit.
    monkeypatch.setattr(energy, "_BOUND_WORK", 0)
    rng = rng_for(40)
    noise = 0.05 * rng.standard_normal((2000, 4))
    near = so3.quat_normalize(np.array([1.0, 0.0, 0.0, 0.0]) + noise)
    centers = so3.build_grid(2001).cells.centers
    lone = centers[np.argmin(np.abs(centers[:, 0]))]
    grid = so3.SO3Grid(
        quats=np.ascontiguousarray(np.concatenate([near, lone[None, :]])),
        spec=so3.GridSpec("random_uniform", 2001),
    )
    owner = grid.cells.owner
    assert np.count_nonzero(owner == owner[-1]) == 1
    assert grid.cells.radius[owner[-1]] == 0.0
    # A second, distant mode: the kernel takes a maximum over two.
    far = so3.quat_normalize(np.array([0.5, 0.5, 0.5, -0.5]))
    for _ in range(40):
        wobble = so3.axis_angle_rotation(rng.standard_normal(3), 0.05 * rng.uniform())
        mode = so3.quat_mul(so3.matrix_to_quat(wobble), lone)
        scorer = SymmetricModeScorer(modes={(0, 1): np.stack([mode, far])}, kappa=50.0)
        groups = [[(0, 1, None, "j")]]
        got = solver.grid_search(scorer, grid, groups)
        assert got[0][0] == grid.n - 1
        assert bits(got) == bits(dense_search(scorer, grid, groups))


def test_one_row_scores_match_the_whole_grid_bit_for_bit():
    # A candidate scored alone must score what it scores in a batch, or
    # a one-row search could decide differently from the dense one.
    grid = grid_of(36864)
    rng = rng_for(41)
    ks = np.sort(rng.choice(grid.n, 14, replace=False))
    differ = []
    for n_modes in (1, 2, 4):
        scorer = SymmetricModeScorer(
            modes={(0, 1): so3.random_quats(rng, n_modes)}, kappa=50.0
        )
        fixed = so3.random_quats(rng, 1)[0]
        for moving in ("i", "j"):
            block = scorer.block(grid, [(0, 1, fixed, moving)])
            whole = block.scores(0)
            for k in ks:
                one = block.scores(0, np.array([k]))
                if one[0] != whole[k]:
                    differ.append((n_modes, moving, int(k)))
    assert not differ, f"{len(differ)} of {3 * 2 * len(ks)} rows differ: {differ}"


def test_rerun_from_converged_hypothesis_accepts_nothing():
    grid = grid_of(36864)
    n = 10
    assert grid.n * (n - 1) > energy._BOUND_WORK
    scorer = scene_scorer(37, n)
    hyp = solver.solve(scorer, n, grid)
    assert hyp.sweeps_used < 50
    again = solver.coordinate_ascent(scorer, hyp, grid)
    assert again.sweeps_used == 1
    assert again.energy_trace == [hyp.total_energy]
    assert np.array_equal(again.rotations, hyp.rotations)


@st.composite
def bound_cases(draw):
    generator = draw(st.sampled_from(sorted(so3.GENERATOR_IDS)))
    grid = grid_of(draw(st.sampled_from([576, 4608])), generator)
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    modes = so3.random_quats(rng, draw(st.integers(1, 4)))
    if draw(st.booleans()):
        # A mode on a grid point, so some cell's maximum is exactly 0.
        modes[0] = grid.quats[int(rng.integers(grid.n))]
    kappa = draw(st.floats(0.1, 200.0))
    scorer = SymmetricModeScorer(modes={(0, 1): modes}, kappa=kappa)
    fixed = draw(st.sampled_from([None, "random", "grid"]))
    if fixed == "random":
        fixed = so3.random_quats(rng, 1)[0]
    elif fixed == "grid":
        fixed = grid.quats[int(rng.integers(grid.n))]
    pair = draw(st.sampled_from([(0, 1), (1, 0)]))
    return scorer, grid, pair, fixed, draw(st.sampled_from(["i", "j"]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bound_cases())
def test_cell_bound_covers_every_point_of_the_cell(case):
    scorer, grid, (i, j), fixed, moving = case
    cells = grid.cells
    every = np.arange(cells.radius.shape[0])
    block = scorer.block(grid, [(i, j, fixed, moving)])
    bound = block.bounds(0, "cells", every)
    scores = block.scores(0)
    cell_max = np.full(bound.shape[0], -np.inf)
    np.maximum.at(cell_max, cells.owner, scores)
    assert np.all(bound >= cell_max)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bound_cases())
def test_parent_bound_covers_every_point_of_the_parent(case):
    scorer, grid, (i, j), fixed, moving = case
    cells = grid.cells
    block = scorer.block(grid, [(i, j, fixed, moving)])
    every = np.arange(cells.parent_radius.shape[0])
    # As a one-term block update sums it, and as the term's own.
    summed = solver._summed(block.bounds(np.zeros((1, 1), dtype=np.int64), "parents", every))
    alone = block.bounds(0, "parents", every)
    scores = block.scores(0)
    counts = np.diff(cells.parent_start)
    parent = np.repeat(np.arange(counts.shape[0]), counts)[cells.owner]
    parent_max = np.full(counts.shape[0], -np.inf)
    np.maximum.at(parent_max, parent, scores)
    assert np.all(summed >= parent_max)
    assert np.all(alone >= parent_max)


def table_of(grid, rng, n, directional, quantized):
    # Random float32 rows, or rows of a few levels, so that many grid
    # points tie; every ordered pair stored when directional, else i < j.
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j or (directional and i != j)]
    rows = {}
    for pair in pairs:
        row = rng.standard_normal(grid.n)
        if quantized:
            row = -1.5 * np.round(rng.uniform(0.0, 3.0, grid.n))
        rows[pair] = row
    return TableScorer(EnergyTable(grid_spec=grid.spec, rows=rows), grid)


def fixed_of(draw, grid, rng):
    fixed = draw(st.sampled_from([None, "random", "grid"]))
    if fixed == "random":
        return so3.random_quats(rng, 1)[0]
    if fixed == "grid":
        return grid.quats[int(rng.integers(grid.n))]
    return fixed


@st.composite
def table_bound_cases(draw):
    generator = draw(st.sampled_from(sorted(so3.GENERATOR_IDS)))
    grid = grid_of(draw(st.sampled_from([576, 4608])), generator)
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    scorer = table_of(grid, rng, 3, draw(st.booleans()), draw(st.booleans()))
    # (1, 0) and (2, 1) are served transposed unless the table is directional.
    pair = draw(st.sampled_from([(0, 1), (1, 0), (2, 1)]))
    return scorer, grid, (*pair, fixed_of(draw, grid, rng), draw(st.sampled_from(["i", "j"])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table_bound_cases())
def test_table_point_bound_covers_the_snapped_score(case):
    # A snap scans only its bucket's list, so the row's largest entry
    # over that list is at least the score at the point it snaps to.
    scorer, grid, term = case
    i, j, fixed, moving = term
    block = scorer.block(grid, [term])
    every = np.arange(grid.n)
    bound = block.bounds(np.zeros((1, 1), dtype=np.int64), "points", every)[0]
    scores = block.scores(0)
    assert np.all(bound >= scores)
    if fixed is None and moving == "j" and scorer._slot(i, j)[1] is False:
        assert np.array_equal(bound, scores)
    # Its scores at chosen rows are the whole grid's, bit for bit.
    rows = np.sort(rng_for(grid.n).choice(grid.n, 50, replace=False))
    assert block.scores(0, rows).tobytes() == scores[rows].tobytes()


@st.composite
def table_search_cases(draw):
    generator = draw(st.sampled_from(sorted(so3.GENERATOR_IDS)))
    grid = grid_of(4608, generator)
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 5))
    directional = draw(st.booleans())
    scorer = table_of(grid, rng, n, directional, draw(st.booleans()))
    if draw(st.booleans()):
        # The spanning tree's shape, a one-term group per pair, in both
        # orders: a symmetric table serves the second one transposed.
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        return scorer, grid, [[(i, j, None, "j")] for i, j in pairs], -1
    # A block update: camera c against every partner, fixed on or off the grid.
    c = draw(st.integers(0, n - 1))
    terms = []
    for j in range(n):
        if j != c:
            fixed = fixed_of(draw, grid, rng)
            terms.append((c, j, fixed, "i"))
            if directional:
                terms.append((j, c, fixed, "j"))
    current = draw(st.sampled_from([-1, 0, int(rng.integers(grid.n)), grid.n - 1]))
    return scorer, grid, [terms], current


@settings(max_examples=40, deadline=None, derandomize=True)
@given(table_search_cases())
def test_bounded_table_search_matches_dense_bit_for_bit(case):
    # Rows of a few levels tie at many points: the bounded search must
    # still return the lowest tied index, its value and the value at
    # `current`, as the dense search does.
    scorer, grid, groups, current = case
    terms = [term for group in groups for term in group]
    plain = all(q is None and m == "j" and (i, j) in scorer.table.rows for i, j, q, m in terms)
    assert scorer.block(grid, terms).levels == (() if plain else ("points",))
    got = solver.grid_search(scorer, grid, groups, current)
    assert bits(got) == bits(dense_search(scorer, grid, groups, current))


def test_modeless_pair_bound_is_zero():
    grid = grid_of(576)
    modes = {(0, 1): so3.random_quats(rng_for(38), 1)}
    scorer = SymmetricModeScorer(modes=modes, kappa=5.0)
    cells = grid.cells
    block = scorer.block(grid, [(0, 2, None, "j"), (0, 1, None, "j")])
    for level, radius in (("cells", cells.radius), ("parents", cells.parent_radius)):
        every = np.arange(radius.shape[0])
        bound = block.bounds(np.zeros((1, 1), dtype=np.int64), level, every)[0]
        assert bound.shape == radius.shape
        assert not bound.any()
    assert not block.scores(np.zeros(5, dtype=np.int64), np.arange(5)).any()


class QuatsOnly(PairwiseScorer):
    """The mode scorer seen through `score_quats` alone: the default overrides."""

    def __init__(self, scorer):
        self.scorer = scorer

    def score_quats(self, i, j, quats):
        return self.scorer.score_quats(i, j, quats)


def test_rows_restrict_block_scores_bit_for_bit():
    grid = grid_of(4608)
    rng = rng_for(39)
    mode = directional_scorer(39, 3)
    rows = np.sort(rng.choice(grid.n, 40, replace=False))
    every = np.arange(2)[:, None]
    for scorer in (mode, QuatsOnly(mode)):
        for fixed in (None, so3.random_quats(rng, 1)[0]):
            for moving in ("i", "j"):
                block = scorer.block(grid, [(0, 1, fixed, moving), (2, 1, fixed, moving)])
                whole = block.scores(every)
                assert whole.shape == (2, grid.n)
                assert np.array_equal(block.scores(every, rows), whole[:, rows])
                # Each term's rows alone, as a search over one-term groups asks for them.
                at = np.repeat([0, 1], rows.shape[0])
                got = block.scores(at, np.tile(rows, 2))
                assert np.array_equal(got, whole[:, rows].ravel())
    assert QuatsOnly(mode).block(grid, [(0, 1, None, "j")]).levels == ()


class TwoHookBlock:
    """A block written to the contract alone: its levels and two per-term questions.

    It keeps each term's whole-grid row, as the default block scores it,
    and bounds over one level, the cells of the grid's cell index, each cell by its largest
    score among the grid points it owns, the tightest bound there is.
    """

    levels = ("cells",)

    def __init__(self, scorer, grid, terms):
        self.grid = grid
        self.rows = GridBlock(scorer, grid, terms).scores(np.arange(len(terms))[:, None])

    def bounds(self, at, level, nodes):
        assert level == "cells"
        cells = self.grid.cells
        owned = self.rows[:, cells.order]
        cell_max = np.maximum.reduceat(owned, cells.start[:-1], axis=1)
        return cell_max[at, nodes]

    def scores(self, at, rows=None):
        return self.rows[at, np.arange(self.grid.n) if rows is None else rows]


class TwoHookScorer(QuatsOnly):
    def block(self, grid, terms):
        return TwoHookBlock(self, grid, terms)


def test_user_block_with_two_per_term_hooks_drives_a_bounded_solve(monkeypatch):
    # Neither a GridBlock nor a scorer's own block: the solver asks only
    # `levels`, `bounds(at, level, nodes)` and `scores(at, rows)`, and
    # sums the terms itself, in the spanning tree's search and the block
    # updates, whichever levels a block bounds over.
    grid = grid_of(576)
    scorer = TwoHookScorer(scene_scorer(43, 5))
    hyp, oracle, rows = checked_solve(monkeypatch, scorer, 5, grid)
    assert_same(hyp, oracle)
    # Pruned: every evaluation scores a small share of the grid.
    assert None not in rows and max(rows) < grid.n // 4


def moved_modes(scorer, i, j, fixed, moving):
    # A term's modes composed one term at a time, as the per-term code
    # composed them before terms were stacked.
    if (i, j) in scorer.modes:
        targets = scorer.modes[(i, j)]
    elif (j, i) in scorer.modes:
        targets = so3.quat_conj(scorer.modes[(j, i)])
    else:
        return None
    if moving == "i":
        targets = so3.quat_conj(targets)
    return targets if fixed is None else so3.quat_mul(targets, fixed[None, :])


def one_term(scorer, grid, term, rows):
    """A term's scores and cell bounds from the per-term formulas."""
    targets = moved_modes(scorer, *term)
    cells = grid.cells
    if targets is None:
        n = grid.n if rows is None else len(rows)
        return np.zeros(n), np.zeros(cells.radius.shape[0])
    quats = grid.quats if rows is None else grid.quats[rows]
    scores = -scorer.kappa * _kernels.min_angle_sq_to_targets(quats, targets)
    angle = np.sqrt(_kernels.min_angle_sq_to_targets(cells.centers, targets))
    gap = np.maximum(angle - 2.0 * cells.radius - so3._CELL_SLACK, 0.0)
    return scores, -scorer.kappa * (gap * gap)


@st.composite
def block_cases(draw):
    generator = draw(st.sampled_from(sorted(so3.GENERATOR_IDS)))
    grid = grid_of(draw(st.sampled_from([576, 4608])), generator)
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 5))
    directional = draw(st.booleans())
    modes = {}
    for i in range(n):
        for j in range(n):
            if i == j or (i > j and not directional):
                continue
            count = draw(st.integers(0, 4))
            if count == 0:
                if draw(st.booleans()):
                    modes[(i, j)] = np.zeros((0, 4))
                continue
            quats = so3.random_quats(rng, count)
            if draw(st.booleans()):
                # On a grid point: that point scores -0.0 with no fixed camera.
                quats[0] = grid.quats[int(rng.integers(grid.n))]
            modes[(i, j)] = quats
    scorer = SymmetricModeScorer(modes=modes, kappa=draw(st.floats(0.1, 200.0)))
    camera = draw(st.integers(0, n - 1))
    terms = []
    for j in range(n):
        if j == camera:
            continue
        fixed = draw(st.sampled_from([None, "random", "grid"]))
        if fixed == "random":
            fixed = so3.random_quats(rng, 1)[0]
        elif fixed == "grid":
            fixed = grid.quats[int(rng.integers(grid.n))]
        sides = draw(st.sampled_from(["i", "j", "both"]))
        if sides != "j":
            terms.append((camera, j, fixed, "i"))
        if sides != "i":
            terms.append((j, camera, fixed, "j"))
    rows = None
    if draw(st.booleans()):
        rows = np.sort(rng.choice(grid.n, draw(st.integers(1, 300)), replace=False))
    return scorer, grid, terms, rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(block_cases())
def test_stacked_block_matches_per_term_default_bit_for_bit(case):
    scorer, grid, terms, rows = case
    cells = grid.cells
    stacked, default = scorer.block(grid, terms), GridBlock(scorer, grid, terms)
    every = np.arange(len(terms))[:, None]
    picked = np.arange(grid.n) if rows is None else rows
    got = stacked.scores(every, rows)
    # Bit for bit each term's own block; up to rounding the default
    # block, which composes the G candidates instead of moving the modes.
    own = np.array([term_row(scorer, grid, term) for term in terms])
    assert got.tobytes() == own[:, picked].tobytes()
    assert np.abs(got - default.scores(every, rows)).max() <= 1e-9
    assert default.levels == ()
    nodes = np.arange(cells.radius.shape[0])
    # The per-term formulas, summed in term order from 0.0.
    scores = np.zeros(grid.n if rows is None else len(rows))
    bounds = np.zeros(cells.radius.shape[0])
    for t, term in enumerate(terms):
        term_scores, term_bounds = one_term(scorer, grid, term, rows)
        scores += term_scores
        bounds += term_bounds
        # One term is the term's own row, -0.0 included, not a sum from 0.0.
        assert own[t].tobytes() == one_term(scorer, grid, term, None)[0].tobytes()
        # So are the term's own answers, entry by entry.
        at = np.full(picked.shape[0], t)
        assert stacked.scores(at, picked).tobytes() == term_scores.tobytes()
        at = np.full(cells.radius.shape[0], t)
        alone = stacked.bounds(at, "cells", nodes)
        assert alone.tobytes() == term_bounds.tobytes()
    # The solver's sums of them, as a block update takes them.
    summed = solver._summed(stacked.scores(every, rows))
    assert summed.tobytes() == scores.tobytes()
    summed = solver._summed(stacked.bounds(every, "cells", nodes))
    assert summed.tobytes() == bounds.tobytes()


def test_one_term_keeps_the_negative_zero_of_a_mode_on_the_grid():
    grid = grid_of(576)
    # A grid point whose own |dot| rounds to 1 scores exactly -0.0.
    k = int(np.flatnonzero(_kernels.fixed_abs_dots(grid.quats, grid.quats) >= 1.0)[0])
    scorer = SymmetricModeScorer(modes={(0, 1): grid.quats[[k]]}, kappa=50.0)
    row = score_over_grid(scorer, 0, 1, grid)
    assert row[k] == 0.0 and np.signbit(row[k])
    assert np.signbit(row.astype(np.float32)[k])
    block = scorer.block(grid, [(0, 1, None, "j")])
    assert block.scores(0).tobytes() == row.tobytes()
    summed = solver._summed(block.scores(np.zeros((1, 1), dtype=np.int64)))
    assert summed[k] == 0.0 and not np.signbit(summed[k])


def test_mode_scorer_keeps_no_state_across_a_solve():
    # Nothing keyed on the rotations a solve visits may pile up on the
    # scorer: its state after a solve is its state before.
    for grid_n, n in ((4608, 6), (36864, 10)):
        scorer = scene_scorer(42 + n, n)
        before = pickle.dumps(scorer)
        solver.solve(scorer, n, grid_of(grid_n))
        assert pickle.dumps(scorer) == before
