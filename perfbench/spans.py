"""In-memory spans around svpose's layer boundaries, for the traced run.

`install` replaces the functions each svpose module imports from the
others with wrappers that record a span (name, start, end, parent) per
call, and wraps the scorer handed to the solver in a delegating proxy,
so every call across the solver -> energy boundary is a span too.
`Tracer.restore` puts the originals back. Nothing under src/ knows
about this file.

Spans stay in memory until the run ends. Each thread keeps its own
stack of open spans, so the `--jobs 2` solves of the round trip nest
correctly. The kernels record no span of their own, except the mode
scorer's: their time stays with the so3 call that made them, and they
add computed work counts (quaternion dot products, bytes their inputs
and outputs occupy) and an oracle check of a few rows.
"""

import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

ORACLE_CALLS = 2  # kernel calls per kernel checked against the oracle
ORACLE_ROWS = 5  # rows per checked call
QUAT_BYTES = 32


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "info")

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.work = []  # (kernel, quaternion dots, bytes), one per kernel call
        self.problems = []  # kernel oracle mismatches
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._checked = defaultdict(int)
        self._restore = []
        self._main_stack = None

    def call(self, name, fn, args, kwargs=None, info=None, after=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        span = Span()
        span.id = next(self._ids)
        span.name = name
        if stack:
            span.parent = stack[-1].id
        else:
            # A worker thread's first span belongs to the span the main
            # thread has open while it waits on the pool.
            main = self._main_stack
            span.parent = main[-1].id if main and main is not stack else 0
        span.info = info or {}
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if after is not None:
            after(span, args, result)
        return result

    def wrap(self, name, fn, info=None, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info(*args) if info else None, after)

        return traced

    def replace(self, owner, attr, new):
        """Set owner.attr, or owner[attr] on a dict, until restore()."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = new
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, new)
            self._restore.append(lambda: setattr(owner, attr, original))

    def patch(self, owner, attr, name, **kw):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self.replace(owner, attr, self.wrap(name, original, **kw))

    def restore(self):
        while self._restore:
            self._restore.pop()()

    def kernel(self, owner, attr, cost, oracle):
        """Count a kernel's work and check some rows, without a span."""
        original = getattr(owner, attr)

        def counted(*args):
            result = original(*args)
            self.work.append((attr, *cost(*args)))
            with self._lock:
                check = self._checked[attr] < ORACLE_CALLS
                self._checked[attr] += 1
            if check:
                self.problems += [f"{attr}: {p}" for p in oracle(*args, result)]
            return result

        self.replace(owner, attr, counted)


class ScorerProxy:
    """Delegates to a scorer, recording each score_quats call as a span."""

    def __init__(self, tracer, scorer):
        self._tracer = tracer
        self._scorer = scorer
        self.directional = scorer.directional

    def score_quats(self, i, j, quats):
        return self._tracer.call(
            "energy.score", self._scorer.score_quats, (i, j, quats), info={"rows": len(quats)}
        )

    def __getattr__(self, name):
        return getattr(self._scorer, name)


# Kernel work, computed from array sizes: one 4-term dot product per
# (row, grid row) pair, and the bytes of the float64 inputs and outputs.
def _nearest_cost(queries, grid):
    return len(queries) * len(grid), (len(queries) + len(grid)) * QUAT_BYTES + len(queries) * 16


def _min_angle_cost(quats, targets):
    return len(quats) * len(targets), (len(quats) + len(targets)) * QUAT_BYTES + len(quats) * 8


def _covering_cost(samples, grid):
    return len(samples) * len(grid), (len(samples) + len(grid)) * QUAT_BYTES + 8


def _rows(n):
    return sorted({int(r) for r in np.linspace(0, n - 1, ORACLE_ROWS)}) if n else []


def _abs_dots(q, grid):
    # Element-wise products summed per row: a different order of
    # operations from the kernels' matrix products.
    return np.abs((grid * q).sum(axis=1))


def _nearest_oracle(queries, grid, result):
    idx, dot = result
    problems = []
    for r in _rows(len(queries)):
        d = _abs_dots(queries[r], grid)
        best = d.max()
        if abs(dot[r] - d[idx[r]]) > 1e-12 or d[idx[r]] < best - 1e-12:
            problems.append(f"row {r}: index {idx[r]} |dot| {dot[r]!r}, brute force {best!r}")
    return problems


def _min_angle_oracle(quats, targets, result):
    problems = []
    for r in _rows(len(quats)):
        best = min(1.0, float(_abs_dots(quats[r], targets).max()))
        want = (2.0 * np.arccos(best)) ** 2
        if abs(result[r] - want) > 1e-9:
            problems.append(f"row {r}: {result[r]!r}, brute force {want!r}")
    return problems


def _covering_oracle(samples, grid, result):
    # The kernel's value is the minimum over all samples of each
    # sample's best |dot|, so no checked sample may fall below it.
    if not 0.0 <= result <= 1.0 + 1e-12:
        return [f"{result!r} is not a |dot| of unit quaternions"]
    return [
        f"sample {r} lies further from the grid than the result {result!r}"
        for r in _rows(len(samples))
        if _abs_dots(samples[r], grid).max() < result - 1e-12
    ]


def _file_size(span, args, result):
    span.info["bytes"] = os.path.getsize(args[-1])


def _ascent_done(span, args, hyp):
    n = len(hyp.rotations)
    span.info.update(
        sweeps=hyp.sweeps_used,
        block_updates=hyp.sweeps_used * (n - 1),
        accepted=len(hyp.energy_trace) - 1,
        energy=hyp.total_energy,
    )


def install(tracer):
    """Wrap every layer boundary the CLI reaches; undo with tracer.restore()."""
    from svpose import _fileio, _kernels, cli, energy, solver, so3, synth

    for cmd in list(cli.COMMANDS):
        tracer.patch(cli.COMMANDS, cmd, f"cli.{cmd}")

    def traced_solve(scorer, n_cameras, grid, config=None):
        return solver.solve(ScorerProxy(tracer, scorer), n_cameras, grid, config)

    tracer.replace(cli, "solve", tracer.wrap("solver.solve", traced_solve))
    tracer.patch(solver, "mst_init", "solver.mst_init")
    tracer.patch(solver, "coordinate_ascent", "solver.coordinate_ascent", after=_ascent_done)

    tracer.patch(cli, "grid_from_spec", "so3.grid_build")
    covering = so3.SO3Grid.covering_radius
    tracer.replace(
        so3.SO3Grid,
        "covering_radius",
        property(lambda grid: tracer.call("so3.covering", covering.fget, (grid,))),
    )
    tracer.patch(solver, "nearest_in_grid", "so3.nearest", info=lambda grid, r: {"rows": 1})
    tracer.patch(energy, "nearest_indices", "so3.nearest", info=lambda grid, q: {"rows": len(q)})
    tracer.patch(solver, "quat_mul", "so3.quat_mul")

    tracer.kernel(_kernels, "nearest_abs_dots", _nearest_cost, _nearest_oracle)
    tracer.kernel(_kernels, "min_max_abs_dot", _covering_cost, _covering_oracle)
    tracer.kernel(_kernels, "min_angle_sq_to_targets", _min_angle_cost, _min_angle_oracle)
    tracer.patch(_kernels, "min_angle_sq_to_targets", "kernels.min_angle_sq")

    tracer.patch(cli, "score_over_grid", "energy.score", info=lambda s, i, j, g: {"rows": g.n})
    tracer.patch(cli, "load_table", "energy.table_load", after=_file_size)
    tracer.patch(energy.EnergyTable, "save", "energy.table_save", after=_file_size)

    tracer.patch(cli, "generate_scene", "synth.generate")
    tracer.patch(cli, "scene_to_scorer", "synth.scorer")
    tracer.patch(cli, "save_scene", "synth.scene_io")
    tracer.patch(cli, "load_scene", "synth.scene_io")

    tracer.patch(cli, "evaluate", "evaluation.evaluate")
    tracer.patch(cli, "rotation_errors_deg", "evaluation.sweep")
    tracer.patch(cli, "center_errors", "evaluation.sweep")

    for owner in (cli, synth):
        tracer.patch(owner, "write_text_atomic", "fileio.write")
    for owner in (energy, so3, _fileio):
        tracer.patch(owner, "write_bytes_atomic", "fileio.write")


def _tail(values):
    """Highest percentile with at least ten samples beyond it (p50 floor)."""
    n = len(values)
    pct = max(50, (100 * (n - 10)) // n) if n else 50
    if n < 2:
        return pct, (values[0] if values else 0.0)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer):
    """{name: (value, unit)} from the recorded spans and kernel counts."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    covered = _child_coverage(spans)

    def named(*prefixes):
        return [s for s in spans if s.name.startswith(prefixes)]

    def inclusive(*prefixes):
        # Spans nested in a span of the same group count once.
        total = 0.0
        for s in named(*prefixes):
            p = by_id.get(s.parent)
            while p is not None and not p.name.startswith(prefixes):
                p = by_id.get(p.parent)
            if p is None:
                total += s.seconds
        return total

    def self_seconds(*prefixes):
        return sum(s.seconds - covered[s.id] for s in named(*prefixes))

    def info_sum(key, *prefixes):
        return sum(s.info.get(key, 0) for s in named(*prefixes))

    block = info_sum("block_updates", "solver.coordinate_ascent")
    accepted = info_sum("accepted", "solver.coordinate_ascent")
    scene_s = sorted(s.seconds for s in named("solver.solve"))
    tail_pct, tail = _tail(scene_s)
    return {
        "so3.grid_build_s": (inclusive("so3.grid_build"), "s"),
        "so3.covering_s": (inclusive("so3.covering"), "s"),
        "so3.nearest_calls": (len(named("so3.nearest")), "count"),
        "so3.nearest_queries": (info_sum("rows", "so3.nearest"), "count"),
        "so3.nearest_s": (inclusive("so3.nearest"), "s"),
        "so3.quat_mul_calls": (len(named("so3.quat_mul")), "count"),
        "so3.quat_mul_s": (inclusive("so3.quat_mul"), "s"),
        "kernels.computed_quat_dots": (sum(w[1] for w in tracer.work), "count"),
        "kernels.computed_bytes": (sum(w[2] for w in tracer.work), "B"),
        "kernels.min_angle_sq_s": (inclusive("kernels.min_angle_sq"), "s"),
        "energy.score_calls": (len(named("energy.score")), "count"),
        "energy.score_rows": (info_sum("rows", "energy.score"), "count"),
        "energy.score_s": (inclusive("energy.score"), "s"),
        "energy.score_self_s": (self_seconds("energy.score"), "s"),
        "energy.table_save_s": (inclusive("energy.table_save"), "s"),
        "energy.table_load_s": (inclusive("energy.table_load"), "s"),
        "energy.table_bytes": (info_sum("bytes", "energy.table_"), "B"),
        "solver.mst_init_s": (inclusive("solver.mst_init"), "s"),
        "solver.ascent_s": (inclusive("solver.coordinate_ascent"), "s"),
        "solver.self_s": (self_seconds("solver."), "s"),
        "solver.sweeps": (info_sum("sweeps", "solver.coordinate_ascent"), "count"),
        "solver.block_updates": (block, "count"),
        "solver.accepted_updates": (accepted, "count"),
        "solver.accept_ratio": (accepted / block if block else 0.0, "share"),
        "solver.scene_s.p50": (statistics.median(scene_s) if scene_s else 0.0, "s"),
        "solver.scene_s.tail": (tail, "s"),
        "solver.scene_s.tail_pct": (tail_pct, "pct"),
        "solver.scene_s.n": (len(scene_s), "count"),
        "solver.energy_total": (info_sum("energy", "solver.coordinate_ascent"), "energy"),
        "synth.generate_s": (inclusive("synth.generate"), "s"),
        "synth.scorer_s": (inclusive("synth.scorer"), "s"),
        "synth.scene_io_s": (inclusive("synth.scene_io"), "s"),
        "evaluation.evaluate_s": (inclusive("evaluation."), "s"),
        "evaluation.scenes": (len(named("evaluation.evaluate")), "count"),
        "fileio.write_s": (inclusive("fileio.write"), "s"),
    }


def _child_coverage(spans):
    """Seconds of each span's interval covered by its children.

    Children on two worker threads can overlap, so this merges their
    intervals instead of summing durations.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    covered = defaultdict(float)
    for parent, intervals in children.items():
        intervals.sort()
        total, (lo, hi) = 0.0, intervals[0]
        for a, b in intervals[1:]:
            if a > hi:
                total, lo, hi = total + hi - lo, a, b
            else:
                hi = max(hi, b)
        covered[parent] = total + hi - lo
    return covered


def self_seconds_by_span(tracer):
    """[name, self seconds] per span name, largest first, for reading the trace."""
    covered = _child_coverage(tracer.spans)
    out = defaultdict(float)
    for s in tracer.spans:
        out[s.name] += s.seconds - covered[s.id]
    return sorted(([k, v] for k, v in out.items()), key=lambda kv: -kv[1])
