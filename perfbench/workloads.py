"""The three benchmark workloads: what each generates and what one pass runs.

A workload is a setup (input generation, timed as part of `setup_s`)
and a pass: a fixed list of `svpose` subcommands over those inputs,
each run the way a user runs it. The benchmark repeats passes for the
run length; every pass of one seed produces the same files.

Every solve except the README round trip runs `--max-sweeps 2`. The
first sweep projects the spanning-tree rotations onto the grid and the
second refines them, so each scene costs the same number of block
updates whatever its seed. Uncapped, these rigs need 2 to 4 sweeps, and
per-scene time moved by up to 1.8x between seeds; with only three
scenes per pass, that would swamp any code change in the timings.
"""

from dataclasses import dataclass, field
from pathlib import Path

# Rig seed of scene k for workload seed n is SCENE_STRIDE * n + k, so
# runs with different seeds never share a scene.
SCENE_STRIDE = 1000

COMMANDS = ("synth", "solve", "eval", "grid", "report")
RIG = ["--radius-min", "0.7", "--radius-max", "1.3", "--jitter", "0.05"]


@dataclass
class Solve:
    """One solve step's outputs and the scenes they are checked against."""

    preds: Path
    scenes: Path
    grid_n: int
    n_cameras: int
    # Accuracy metrics pool the scored solves; the others are only
    # checked against the grid's sanity bound.
    scored: bool


@dataclass
class Plan:
    setup: list  # argv lists (after `svpose`) that generate the inputs
    steps: list  # argv lists of one timed pass
    solves: list
    # (path of the written grid file, grid size) per `grid --covering` step
    grids: list = field(default_factory=list)
    # (eval output dir, Solve it scores) per `eval --sweep` step
    evals: list = field(default_factory=list)
    # (report csv, number of data rows) per `report` step
    reports: list = field(default_factory=list)


# Per-workload sizes. "full" is what the benchmark measures; "tiny"
# exists for the smoke test and finishes in a few seconds.
SIZES = {
    "full": {
        "roundtrip": {"scenes": 16},
        "table-solve": {"scenes": 3, "cameras": 6, "grid": 4608},
        "fine-grid": {"scenes": 3, "cameras": 20, "grid": 36864},
    },
    "tiny": {
        "roundtrip": {"scenes": 2},
        "table-solve": {"scenes": 1, "cameras": 4, "grid": 576},
        "fine-grid": {"scenes": 1, "cameras": 6, "grid": 4608},
    },
}


def roundtrip(seed, size, inputs: Path, out: Path) -> Plan:
    n = SIZES[size]["roundtrip"]["scenes"]
    base = SCENE_STRIDE * seed
    scenes, preds, preds576 = out / "scenes", out / "preds", out / "preds576"
    metrics, grid, summary = out / "metrics", out / "grids" / "g576.so3g", out / "summary"
    steps = [
        ["synth", "-o", scenes, "--n", "6", "--scenes", n, "--seed", base, *RIG,
         "--emit-tables", "--grid-n", "576", "--kappa", "50", "--noise-angle", "0.02"],
        ["solve", "-o", preds, "--scenes", scenes, "--grid-n", "4608", "--kappa", "50",
         "--jobs", "2"],
        ["solve", "-o", preds576, "--tables", scenes, "--grid-n", "576",
         "--translation", "constant-z", "--jobs", "2"],
        ["eval", "-o", metrics, "--pred", preds, "--gt", scenes, "--sweep"],
        ["grid", "-o", grid, "--n", "576", "--generator", "super_fibonacci", "--covering"],
        ["report", "-o", summary / "report.csv", "--inputs", metrics / "per_scene.csv"],
    ]
    scored = Solve(preds, scenes, 4608, 6, scored=True)
    return Plan(
        setup=[],
        steps=steps,
        solves=[scored, Solve(preds576, scenes, 576, 6, scored=False)],
        grids=[(grid, 576)],
        evals=[(metrics, scored)],
        reports=[(summary / "report.csv", n)],
    )


def table_solve(seed, size, inputs: Path, out: Path) -> Plan:
    p = SIZES[size]["table-solve"]
    g = p["grid"]
    setup = [
        ["synth", "-o", inputs, "--n", p["cameras"], "--scenes", p["scenes"],
         "--seed", SCENE_STRIDE * seed, *RIG, "--emit-tables", "--grid-n", g,
         "--kappa", "50", "--noise-angle", "0.02"],
    ]
    preds = out / "preds"
    steps = [
        ["solve", "-o", preds, "--tables", inputs, "--grid-n", g,
         "--translation", "constant-z", "--jobs", "1", "--max-sweeps", "2"],
    ]
    return Plan(
        setup=setup,
        steps=steps,
        solves=[Solve(preds, inputs, p["grid"], p["cameras"], scored=True)],
    )


def fine_grid(seed, size, inputs: Path, out: Path) -> Plan:
    p = SIZES[size]["fine-grid"]
    g = p["grid"]
    base = SCENE_STRIDE * seed
    setup = [
        ["synth", "-o", inputs, "--n", p["cameras"], "--scenes", p["scenes"],
         "--seed", base, *RIG],
    ]
    grid, preds, metrics = out / "grid.so3g", out / "preds", out / "metrics"
    steps = [
        ["grid", "-o", grid, "--n", g, "--covering"],
        ["solve", "-o", preds, "--scenes", inputs, "--grid-n", g, "--kappa", "50",
         "--noise-angle", "0.02", "--seed", base, "--jobs", "1", "--max-sweeps", "2"],
        ["eval", "-o", metrics, "--pred", preds, "--gt", inputs, "--sweep"],
    ]
    scored = Solve(preds, inputs, p["grid"], p["cameras"], scored=True)
    return Plan(
        setup=setup,
        steps=steps,
        solves=[scored],
        grids=[(grid, p["grid"])],
        evals=[(metrics, scored)],
    )


WORKLOADS = {"roundtrip": roundtrip, "table-solve": table_solve, "fine-grid": fine_grid}


def plan(name, seed, size, inputs, out) -> Plan:
    p = WORKLOADS[name](seed, size, Path(inputs), Path(out))
    p.setup = [[str(a) for a in argv] for argv in p.setup]
    p.steps = [[str(a) for a in argv] for argv in p.steps]
    return p


def step_writing(plan: Plan, path) -> int:
    """Index of the pass step whose -o is `path`."""
    return next(k for k, argv in enumerate(plan.steps) if argv[2] == str(path))
