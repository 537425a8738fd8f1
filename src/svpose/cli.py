"""Batch pipeline entry points.

Five subcommands cover the loop from synthetic data to report tables:

    svpose synth   write seeded scenes plus a manifest
    svpose solve   recover rotations per scene (or per energy table)
    svpose eval    score predictions against ground truth
    svpose grid    build and save an SO(3) grid file
    svpose report  merge per-scene metric CSVs and append a mean row

Every run resolves to a RunConfig. Passing --config loads one from
JSON (each field checked against its type), explicit flags override
individual fields, and synth, solve and eval write the resolved config
next to their outputs, so such a run can be reproduced from its config
alone. The seed field, which SVP_SEED in the environment overrides,
seeds synth's rigs and nothing else; every subcommand records it.
solve --jobs N solves its input files in up to N workers, one per
file at most: this process is worker 0 and forks the others. Worker k
solves files k, k + N, k + 2N, ... in input order and stops at its
first failed file; the run raises the failure with the lowest file
index, as --jobs 1 does, and writes the same output bytes; a
worker's exception carries the worker's traceback as its cause. Exit
codes: 0 ok, 1 a solve worker died or could not pass its exception
back, 2 IO, 3 format, 4 consistency or a bad option value, including a
flag that does not parse; errors go to stderr as one JSON line each.
Output files are written atomically and closed before main returns,
so at exit the interpreter skips its garbage collection of the run's
objects (gc.freeze) and the operating system reclaims their memory.

Importing this module loads neither numpy nor the numeric modules:
each subcommand imports what it runs when it runs, so `report` needs
no numpy and `grid` loads only so3.
"""

import argparse
import atexit
import csv
import gc
import io
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields
from importlib import import_module
from itertools import combinations
from pathlib import Path

from ._fileio import json_text, read_json, read_text, write_text_atomic
from ._gridspec import GridSpec
from .errors import ConsistencyError, FormatError, WorkerDiedError


def _deferred(module, name):
    """A stand-in for `module.name` that imports the module when called.

    The stand-in stays this module's attribute for good, and the
    subcommands call it by that name, so patching it (as tests and
    perfbench/spans.py do) intercepts the call whether or not the
    module has been imported yet.
    """

    def call(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"svpose{module}.{name}, imported on first call."
    return call


solve = _deferred(".solver", "solve")
grid_from_spec = _deferred(".so3", "grid_from_spec")
load_table = _deferred(".energy", "load_table")
score_over_grid = _deferred(".energy", "score_over_grid")
generate_scene = _deferred(".synth", "generate_scene")
scene_to_scorer = _deferred(".synth", "scene_to_scorer")
save_scene = _deferred(".synth", "save_scene")
load_scene = _deferred(".synth", "load_scene")
evaluate = _deferred(".evaluation", "evaluate")
# Not called here: perfbench/spans.py patches these two.
rotation_errors_deg = _deferred(".evaluation", "rotation_errors_deg")
center_errors = _deferred(".evaluation", "center_errors")

PRED_FORMAT = "svpose-pred"
PRED_VERSION = 1
MANIFEST_FORMAT = "svpose-manifest"
MANIFEST_VERSION = 1

TRANSLATION_SOURCES = ("gt", "constant-z", "external")


@dataclass
class RunConfig:
    """Everything needed to repeat a run, minus the input files."""

    subcommand: str
    out: str = ""
    seed: int = 0
    # synth
    n_cameras: int = 8
    n_scenes: int = 1
    radius_min: float = 1.0
    radius_max: float = 1.0
    jitter: float = 0.0
    lookat: tuple[float, ...] = (0.0, 0.0, 0.0)
    emit_tables: bool = False
    # solve inputs: scene files/dirs or energy-table files
    scenes: tuple[str, ...] = ()
    tables: tuple[str, ...] = ()
    grid_n: int = 4608
    grid_generator: str = "super_fibonacci"
    grid_seed: int = 0
    kappa: float = 50.0
    noise_angle: float = 0.0
    max_sweeps: int = 50
    translation: str = "gt"
    external: str = ""
    jobs: int = 1
    # eval
    pred: tuple[str, ...] = ()
    gt: tuple[str, ...] = ()
    sweep: bool = False
    # grid
    covering: bool = False
    # report
    inputs: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("lookat", "scenes", "tables", "pred", "gt", "inputs"):
            setattr(self, name, tuple(getattr(self, name)))
        if self.translation not in TRANSLATION_SOURCES:
            raise ValueError(f"unknown translation source: {self.translation!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be at least 1")
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be non-negative")
        for name in ("radius_min", "radius_max", "jitter", "kappa", "noise_angle", "lookat"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if name == "lookat" else (value,))):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        if self.noise_angle < 0.0:
            raise ValueError(f"noise_angle must be non-negative, got {self.noise_angle!r}")
        self.grid_spec()  # GridSpec checks the grid fields

    def to_json(self):
        return json_text(asdict(self))

    def grid_spec(self):
        return GridSpec(self.grid_generator, self.grid_n, self.grid_seed)


def load_config(path) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    kinds = {f.name: f.type for f in fields(RunConfig)}
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise FormatError(f"{path}: unknown config fields {unknown}")
    for name, value in doc.items():
        kind = kinds[name]
        if not _fits(value, kind):
            want = str(kind) if typing.get_origin(kind) else kind.__name__
            raise FormatError(
                f"{path}: config field {name!r} must be {want}, got {value!r}"
            )
    return doc


def _fits(value, kind):
    """Whether a JSON value has a RunConfig field's type; an int is a float."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if kind is float:
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            return False  # too large to convert
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def resolve_config(args) -> RunConfig:
    """Layer config file, explicit flags, defaults, then SVP_SEED."""
    merged = {"subcommand": args.subcommand}
    if args.config:
        loaded = load_config(args.config)
        loaded.pop("subcommand", None)
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("subcommand", "config") or value is None:
            continue
        merged[key] = value
    env_seed = os.environ.get("SVP_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise FormatError(f"SVP_SEED is not an integer: {env_seed!r}") from None
    return RunConfig(**merged)


def _scene_files(paths, suffix="*.json"):
    """Expand files and directories into a sorted list of input files."""
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            skip = {"manifest.json", "run_config.json", "aggregate.json"}
            out.extend(sorted(q for q in p.glob(suffix) if q.name not in skip))
        elif p.exists():
            out.append(p)
        else:
            raise FileNotFoundError(f"no such input: {p}")
    if not out:
        raise FileNotFoundError("no input files found")
    return out


def _fmt(value):
    return f"{value:.10g}"


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())


def _out_dir(config):
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _out_file(config):
    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out, key, entries):
    doc = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, key: entries}
    write_text_atomic(out / "manifest.json", json_text(doc))


def cmd_synth(config: RunConfig):
    from .energy import EnergyTable
    from .synth import RigSpec

    # Every rig is checked before the output directory exists.
    rigs = [
        RigSpec(
            n_cameras=config.n_cameras,
            seed=config.seed + k,
            radius_min=config.radius_min,
            radius_max=config.radius_max,
            jitter=config.jitter,
            lookat=config.lookat,
        )
        for k in range(config.n_scenes)
    ]
    table_grid = grid_from_spec(config.grid_spec()) if config.emit_tables else None
    out = _out_dir(config)
    entries = []
    for k, rig in enumerate(rigs):
        scene = generate_scene(rig)
        name = f"scene_{k:03d}"
        save_scene(scene, out / f"{name}.json")
        entry = {"id": name, "file": f"{name}.json", "seed": rig.seed}
        if table_grid is not None:
            scorer = scene_to_scorer(
                scene, kappa=config.kappa, noise_angle=config.noise_angle
            )
            n = rig.n_cameras
            # Each row cast to the table's float32 as it is scored, so
            # the float64 rows are never all held at once.
            rows = {
                (i, j): score_over_grid(scorer, i, j, table_grid).astype("float32")
                for i in range(n)
                for j in range(i + 1, n)
            }
            table = EnergyTable(grid_spec=table_grid.spec, rows=rows)
            table.save(out / f"{name}.rpet")
            entry["table"] = f"{name}.rpet"
        entries.append(entry)
    _write_manifest(out, "scenes", entries)
    write_text_atomic(out / "run_config.json", config.to_json())
    return 0


def _external_poses(config, scene_id, n_cameras):
    root = Path(config.external)
    path = root / f"{scene_id}.json" if root.is_dir() else root
    if not path.exists():
        raise FileNotFoundError(f"external poses not found for {scene_id}: {path}")
    scene = load_scene(path)
    if len(scene.poses) != n_cameras:
        raise ConsistencyError(
            f"{path}: {len(scene.poses)} poses for {n_cameras} cameras"
        )
    return [p.translation for p in scene.poses]


def _translations(config, scene_id, n_cameras, gt_poses):
    if config.translation == "gt":
        if gt_poses is None:
            raise ConsistencyError(
                "translation source 'gt' needs scene inputs, not energy tables"
            )
        return [p.translation for p in gt_poses]
    if config.translation == "constant-z":
        import numpy as np

        return [np.array([0.0, 0.0, 1.0]) for _ in range(n_cameras)]
    if not config.external:
        raise ConsistencyError("translation source 'external' needs --external")
    return _external_poses(config, scene_id, n_cameras)


def _write_pred(config, out, scene_id, hyp, translations, grid_spec):
    from .frame import CameraPose
    from .synth import pose_to_dict

    doc = {
        "format": PRED_FORMAT,
        "version": PRED_VERSION,
        "scene_id": scene_id,
        "grid": asdict(grid_spec),
        "translation_source": config.translation,
        "diagnostics": {
            "total_energy": hyp.total_energy,
            "sweeps_used": hyp.sweeps_used,
        },
        "poses": [
            pose_to_dict(CameraPose(r, t)) for r, t in zip(hyp.rotations, translations)
        ],
    }
    write_text_atomic(out / f"{scene_id}.json", json_text(doc))


def _load_scene_problem(path, config, grid):
    scene = load_scene(path)
    n = scene.rig.n_cameras
    if n < 2:
        raise ConsistencyError(f"{path}: a solve needs at least two cameras, scene has {n}")
    scorer = scene_to_scorer(scene, config.kappa, config.noise_angle)
    return scorer, n, scene.poses


def _load_table_problem(path, config, grid):
    from .energy import TableScorer

    table = load_table(path)
    if table.grid_spec != grid.spec:
        raise ConsistencyError(
            f"{path}: table grid {table.grid_spec} does not match requested {grid.spec}"
        )
    n = table.n_cameras
    if n == 0:
        raise ConsistencyError(f"{path}: table has no pairs")
    for i, j in combinations(range(n), 2):
        if (i, j) not in table.rows and (j, i) not in table.rows:
            raise ConsistencyError(f"{path}: table has no scores for pair ({i}, {j})")
    return TableScorer(table, grid), n, None


def _solve_file(config, grid, path):
    """Solve one scene or table file and write its prediction."""
    # Each loader returns (scorer, n_cameras, ground-truth poses or None).
    load = _load_scene_problem if config.scenes else _load_table_problem
    scorer, n_cameras, gt_poses = load(path, config, grid)
    scene_id = Path(path).stem
    # Before the solve, so a missing translation source fails fast.
    translations = _translations(config, scene_id, n_cameras, gt_poses)
    # Positional: perfbench's traced solve takes a 4th argument by position.
    hyp = solve(scorer, n_cameras, grid, config.max_sweeps)
    _write_pred(config, Path(config.out), scene_id, hyp, translations, grid.spec)


def _solve_share(config, grid, files, first, step):
    """Solve files[first::step] in turn, stopping at the first failure.

    Returns that failure as (file index, exception), or None.
    """
    for k in range(first, len(files), step):
        try:
            _solve_file(config, grid, files[k])
        except Exception as e:
            return k, e
    return None


def _fork_worker(config, grid, files, first, step):
    """Fork a child that solves its share of `files`; (pid, pipe read end).

    The child writes its failure's report (`_report`) to the pipe, or
    nothing when its share is solved, and leaves through os._exit: it
    runs no atexit hook and flushes no buffer it inherited. It exits 1
    if it cannot report.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        failure = _solve_share(config, grid, files, first, step)
        message = b"" if failure is None else _report(*failure)
        with open(write, "wb") as f:
            f.write(message)
        code = 0
    finally:
        os._exit(code)


def _report(index, exc):
    """A child's failure on file `index`, pickled with its formatted traceback.

    The exception is pickled on its own, inside the report, so that a
    parent that cannot rebuild it still reads the index and the
    traceback; an exception that will not pickle is sent as None.
    """
    import pickle
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        pickled = pickle.dumps(exc)
    except Exception:
        pickled = None
    return pickle.dumps((index, text, pickled))


class _RemoteTraceback(Exception):
    """A forked worker's formatted traceback, the cause of the failure it sent."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _join_worker(pid, read):
    """Read a forked worker's report, then reap it: (report, exit code)."""
    with open(read, "rb") as f:
        report = f.read()
    return report, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _worker_failure(files, report, code):
    """A reaped worker's failure as (file index, exception), or None when it solved its share.

    The exception is raised with the child's traceback as its cause,
    as concurrent.futures does. One that cannot be rebuilt here becomes
    a WorkerDiedError on the same file with that cause. A worker that
    exits non-zero without a report died: its failure takes index -1,
    so that it outranks every file's.
    """
    import pickle

    if not report:
        if code != 0:
            return -1, WorkerDiedError(f"a solve worker process died with exit code {code}")
        return None
    index, text, pickled = pickle.loads(report)
    try:
        exc = None if pickled is None else pickle.loads(pickled)
    except Exception:
        # Its class does not rebuild from the arguments it pickled.
        exc = None
    if exc is None:
        failed = text.rstrip().rpartition("\n")[2]
        exc = WorkerDiedError(
            f"a solve worker failed on {files[index]} and could not pass its"
            f" exception back: {failed}"
        )
    exc.__cause__ = _RemoteTraceback(text)
    return index, exc


def _solve_files(config, grid, files, workers):
    """Solve `files` in this process and workers - 1 forked children.

    Forked children inherit the config, the grid and every loaded
    module; a solve's many small numpy calls hold the GIL, so threads
    would not run in parallel. Worker k solves files k, k + workers, ...
    Every child is read and reaped before any report is decoded, also
    when this process's share fails, and the failure with the lowest
    file index is raised: the one a serial solve raises.
    """
    children, failures = [], []
    try:
        for k in range(1, workers):
            children.append(_fork_worker(config, grid, files, k, workers))
        failures.append(_solve_share(config, grid, files, 0, workers))
    finally:
        reports = [_join_worker(pid, read) for pid, read in children]
    failures += [_worker_failure(files, *r) for r in reports]
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def cmd_solve(config: RunConfig):
    # Every module a solve runs, loaded before any worker forks, for the
    # workers to share, and before the grid is built: loaded after it, a
    # G=36864 solve peaked 0.9 MB higher in resident memory.
    from . import energy, solver, synth  # noqa: F401

    if bool(config.scenes) == bool(config.tables):
        raise ConsistencyError("pass exactly one of scene inputs or table inputs")
    if config.scenes:
        files = _scene_files(config.scenes)
    else:
        files = _scene_files(config.tables, suffix="*.rpet")
    # Two files with one id would write one prediction file.
    sources = {}
    for path in files:
        scene_id = Path(path).stem
        if scene_id in sources:
            raise ConsistencyError(
                f"scene id {scene_id!r} comes from both {sources[scene_id]} and {path}"
            )
        sources[scene_id] = path
    out = _out_dir(config)
    grid = grid_from_spec(config.grid_spec())
    _solve_files(config, grid, files, min(config.jobs, len(files)))
    _write_manifest(out, "predictions", [{"id": i, "file": f"{i}.json"} for i in sources])
    write_text_atomic(out / "run_config.json", config.to_json())
    return 0


def _load_pred(path):
    from .synth import pose_from_dict

    doc = read_json(path, PRED_FORMAT, PRED_VERSION)
    try:
        scene_id = doc["scene_id"]
        poses = [pose_from_dict(p) for p in doc["poses"]]
    except (KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed prediction ({e})") from None
    if not isinstance(scene_id, str):
        raise FormatError(f"{path}: scene_id must be a string, got {scene_id!r}")
    return scene_id, poses


def cmd_eval(config: RunConfig):
    out = _out_dir(config)
    preds, sources = {}, {}
    for path in _scene_files(config.pred):
        scene_id, poses = _load_pred(path)
        if scene_id in preds:
            raise ConsistencyError(
                f"scene_id {scene_id!r} is predicted by both {sources[scene_id]} and {path}"
            )
        preds[scene_id], sources[scene_id] = poses, path
    gts = {Path(path).stem: load_scene(path) for path in _scene_files(config.gt)}
    missing = sorted(set(preds) - set(gts))
    if missing:
        raise ConsistencyError(f"missing ground truth for ids: {missing}")

    rows = []
    flat_keys = None
    reports = []
    for scene_id in sorted(preds):
        scene = gts[scene_id]
        pred_poses = preds[scene_id]
        if len(pred_poses) != len(scene.poses):
            raise ConsistencyError(
                f"{scene_id}: {len(pred_poses)} predictions for "
                f"{len(scene.poses)} ground-truth cameras"
            )
        report = evaluate(pred_poses, scene.poses, scene.sigma)
        flat = report.to_flat_dict()
        flat_keys = list(flat)
        rows.append([scene_id] + [_fmt(flat[k]) for k in flat_keys])
        reports.append(report)
    _write_csv(out / "per_scene.csv", ["scene_id"] + flat_keys, rows)

    aggregate = {"n_scenes": len(rows)}
    for col, key in enumerate(flat_keys, start=1):
        aggregate[key] = sum(float(r[col]) for r in rows) / len(rows)
    write_text_atomic(out / "aggregate.json", json_text(aggregate))

    if config.sweep:
        import numpy as np

        from .evaluation import accuracy

        sweep_rows = []
        rot = np.concatenate([r.rotation_errors_deg for r in reports])
        for t in range(1, 61):
            sweep_rows.append(["rotation_deg", _fmt(float(t)), _fmt(accuracy(rot, t))])
        cen = np.concatenate([r.center_errors_frac for r in reports])
        for k in range(1, 41):
            t = k / 100.0
            sweep_rows.append(["center_frac", _fmt(t), _fmt(accuracy(cen, t))])
        _write_csv(out / "sweep.csv", ["metric", "threshold", "accuracy"], sweep_rows)
    write_text_atomic(out / "run_config.json", config.to_json())
    return 0


def cmd_grid(config: RunConfig):
    from .so3 import save_grid

    spec = config.grid_spec()
    grid = grid_from_spec(spec)
    save_grid(grid, _out_file(config))
    summary = asdict(spec)
    if config.covering:
        summary["covering_radius_rad"] = grid.covering_radius
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return 0


def cmd_report(config: RunConfig):
    if not config.inputs:
        raise ConsistencyError("report needs at least one input CSV")
    header = None
    rows = []
    values = []  # the numeric cells of each row
    for path in config.inputs:
        reader = csv.reader(io.StringIO(read_text(path), newline=""))
        try:
            this_header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty CSV") from None
        if header is None:
            header = this_header
        elif this_header != header:
            raise FormatError(f"{path}: CSV header differs from {config.inputs[0]}")
        for r in reader:
            if r and r[0] != "mean":
                values.append(_metric_cells(path, reader.line_num, r, len(header)))
                rows.append(r)
    if not rows:
        raise ConsistencyError("no data rows to aggregate")
    mean_row = ["mean"]
    for col in range(len(header) - 1):
        mean_row.append(_fmt(sum(v[col] for v in values) / len(values)))
    _write_csv(_out_file(config), header, rows + [mean_row])
    return 0


def _metric_cells(path, line, row, width):
    """The finite numbers after a report row's id cell."""
    if len(row) != width:
        raise FormatError(f"{path}: row {line} has {len(row)} cells, not {width}")
    try:
        cells = [float(v) for v in row[1:]]
    except ValueError as e:
        raise FormatError(f"{path}: row {line}: {e}") from None
    if not all(math.isfinite(v) for v in cells):
        raise FormatError(f"{path}: row {line} has non-finite values")
    return cells


def _add_common(sub):
    sub.add_argument("--config", help="JSON RunConfig to start from")
    sub.add_argument("-o", "--out", help="output path")
    sub.add_argument("--seed", type=int)


def _add_scoring(sub):
    # The grid and the scene scorer, shared by synth and solve.
    sub.add_argument("--grid-n", dest="grid_n", type=int)
    sub.add_argument("--grid-generator", dest="grid_generator")
    sub.add_argument("--grid-seed", dest="grid_seed", type=int)
    sub.add_argument("--kappa", type=float)
    sub.add_argument("--noise-angle", dest="noise_angle", type=float)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are bad option values (exit 4).

    argparse would print its usage text and exit 2, the I/O code; this
    raises instead, and main reports it as one JSON line. The
    subcommand parsers are of this class too.
    """

    def error(self, message):
        raise ValueError(message)


def _floats(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def parse_args(argv):
    parser = _Parser(prog="svpose")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("synth", help="generate synthetic scenes")
    _add_common(p)
    p.add_argument("--n", dest="n_cameras", type=int)
    p.add_argument("--scenes", dest="n_scenes", type=int)
    p.add_argument("--radius-min", dest="radius_min", type=float)
    p.add_argument("--radius-max", dest="radius_max", type=float)
    p.add_argument("--jitter", type=float)
    p.add_argument("--lookat", type=_floats)
    p.add_argument("--emit-tables", dest="emit_tables", action="store_const", const=True)
    _add_scoring(p)

    p = subs.add_parser("solve", help="recover rotations")
    _add_common(p)
    p.add_argument("--scenes", nargs="+")
    p.add_argument("--tables", nargs="+")
    _add_scoring(p)
    p.add_argument("--max-sweeps", dest="max_sweeps", type=int)
    p.add_argument("--translation", choices=TRANSLATION_SOURCES)
    p.add_argument("--external", help="scene file/dir supplying translations")
    p.add_argument("--jobs", type=int)

    p = subs.add_parser("eval", help="score predictions against ground truth")
    _add_common(p)
    p.add_argument("--pred", nargs="+")
    p.add_argument("--gt", nargs="+")
    p.add_argument("--sweep", action="store_const", const=True)

    p = subs.add_parser("grid", help="build and save an SO(3) grid")
    _add_common(p)
    p.add_argument("--n", dest="grid_n", type=int)
    p.add_argument("--generator", dest="grid_generator")
    p.add_argument("--grid-seed", dest="grid_seed", type=int)
    p.add_argument("--covering", action="store_const", const=True)

    p = subs.add_parser("report", help="merge metric CSVs")
    _add_common(p)
    p.add_argument("--inputs", nargs="+")

    return parser.parse_args(argv)


COMMANDS = {
    "synth": cmd_synth,
    "solve": cmd_solve,
    "eval": cmd_eval,
    "grid": cmd_grid,
    "report": cmd_report,
}


def main(argv=None):
    # At exit, the interpreter's last collections would walk every object
    # the run made; frozen, they are left to the operating system. One
    # hook per process, however often main runs in it.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        config = resolve_config(parse_args(argv))
        if not config.out:
            raise ConsistencyError("an output path is required (-o)")
        return COMMANDS[config.subcommand](config)
    except WorkerDiedError as e:
        return _fail(e, 1)
    except OSError as e:
        return _fail(e, 2)
    except FormatError as e:
        return _fail(e, 3)
    except ValueError as e:
        return _fail(e, 4)


def _fail(exc, code):
    line = json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    )
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
