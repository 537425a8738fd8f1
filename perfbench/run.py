"""svpose benchmark: three CLI workloads, timed end to end and traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

`--trace 0` sets up the workload several times (cold import plus input
generation), then repeats passes of its `svpose` subcommands, each in a
fresh process, for `--seconds`, and prints the end-to-end metrics.
`--trace 1` runs one pass the same way for the per-subcommand walls, then
passes through `svpose.cli.main` in child processes, untraced and traced
in turn, and prints the per-layer metrics. Every pass's outputs are
checked; the last stdout line is the JSON result, the line before it a
record of the environment, digests and checks.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 1
# Used only to confirm a claimed gain, never while tuning a change.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 5  # setup_s is the median of this many setups
IMPORT_REPEATS = 3  # cli.import_s in the traced run
STEP_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no pass starts after this much of a run

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# The environment of this process and every process it starts. SVP_SEED
# overrides every --seed in svpose, so an inherited value would change
# all inputs; it is set before numpy loads so the thread caps hold here.
os.environ.pop("SVP_SEED", None)
os.environ.update({v: str(NPROC) for v in THREAD_VARS})
os.environ.update(SVPOSE_NUMBA="0", PYTHONPATH=str(SRC))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ENTRY = [sys.executable, "-c", "import sys; from svpose.cli import main; sys.exit(main())"]
IMPORT = [sys.executable, "-c", "import svpose"]


@dataclass
class Step:
    cmd: str
    wall: float
    rss_mb: float
    code: int
    out: str
    err: str


def run_process(argv, log):
    """Run argv to completion; wall time and max RSS from wait4."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(
        argv[3] if argv[:3] == ENTRY else "import",
        wall,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        Path(f"{log}.out").read_text(errors="replace"),
        Path(f"{log}.err").read_text(errors="replace"),
    )


def run_cli(argv, log):
    return run_process(ENTRY + argv, log)


def run_in_process(argv):
    from svpose import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # a crash is a failed step, not a failed run
            print(f"{type(e).__name__}: {e}", file=err)
            code = -1
    return Step(argv[0], time.perf_counter() - start, 0.0, code, out.getvalue(), err.getvalue())


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def setup_inputs(plan, log_dir):
    return [run_cli(argv, log_dir / f"setup{k}") for k, argv in enumerate(plan.setup)]


def input_digests(plan):
    out = {}
    for k, d in enumerate(sorted({str(s.scenes) for s in plan.solves})):
        for name, digest in checks.tree_digests(d).items():
            if name != "run_config.json":  # holds the output path
                out[f"{k}/{name}"] = digest
    return out


@dataclass
class PassResult:
    steps: list
    problems: list
    attempted: int
    failed: int
    errors: list  # pairwise errors of the scored solves, degrees
    answers: dict  # {prediction file: sha256}
    inputs: dict  # {input file: sha256}
    scenes: int

    @property
    def ok(self):
        return self.failed == 0 and not self.problems

    @property
    def wall(self):
        return sum(s.wall for s in self.steps)

    @property
    def solve_wall(self):
        return sum(s.wall for s in self.steps if s.cmd == "solve")


def check_pass(plan, steps):
    """Check every output of one pass; failures count per step and scene."""
    problems, failed_steps, failed_scenes = [], set(), 0
    for k, step in enumerate(steps):
        if step.code != 0:
            problems.append(f"step {k} ({step.cmd}) exited {step.code}: {step.err.strip()[-300:]}")
            failed_steps.add(k)
    errors_by_solve, scenes, answers = {}, 0, {}
    for solve in plan.solves:
        k = workloads.step_writing(plan, solve.preds)
        found, n_scenes, bad, errors = checks.check_solve(solve)
        scenes += n_scenes
        failed_scenes += bad
        if found:
            problems += found
            failed_steps.add(k)
        errors_by_solve[str(solve.preds)] = errors
        for scene_id in checks.scene_ids(solve.scenes):
            path = solve.preds / f"{scene_id}.json"
            if path.is_file():
                answers[f"{solve.preds.name}/{path.name}"] = checks.sha256_file(path)
    for path, n in plan.grids:
        k = workloads.step_writing(plan, path)
        found = checks.check_grid(path, n, steps[k].out)
        problems += found
        failed_steps.update([k] if found else [])
    for metrics_dir, solve in plan.evals:
        k = workloads.step_writing(plan, metrics_dir)
        found = checks.check_eval(metrics_dir, errors_by_solve[str(solve.preds)])
        problems += found
        failed_steps.update([k] if found else [])
    for path, n in plan.reports:
        k = workloads.step_writing(plan, path)
        found = checks.check_report(path, n)
        problems += found
        failed_steps.update([k] if found else [])
    scored = [e for s in plan.solves if s.scored for e in errors_by_solve[str(s.preds)]]
    return PassResult(
        steps=steps,
        problems=problems,
        attempted=len(steps) + scenes,
        failed=len(failed_steps) + failed_scenes,
        errors=scored,
        answers=answers,
        inputs=input_digests(plan),
        scenes=scenes,
    )


def source_digest():
    return checks.combined_digest(
        {str(p.relative_to(SRC)): checks.sha256_file(p) for p in sorted(SRC.rglob("*.py"))}
    )


def ledger_agrees(key, answers_digest):
    """Compare with earlier runs of the same sources, workload and seed."""
    path = WORK / "ledger.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    earlier = ledger.setdefault(key, answers_digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return earlier == answers_digest


def environment(seed, use_numba):
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "use_numba": use_numba,
        "workload_seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def kernels_flag(log_dir):
    step = run_process(
        [sys.executable, "-c", "import svpose._kernels as k; print(k.USE_NUMBA)"],
        log_dir / "warm-import",
    )
    return step.out.strip() or f"failed: {step.err.strip()[-200:]}"


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, work):
    """--trace 0: setups, then timed passes for --seconds."""
    logs = work / "logs"
    record = {"environment": environment(args.seed, kernels_flag(logs))}
    setups, setup_digests, steps_all = [], [], []
    problems, attempted, failed = [], 0, 0
    for k in range(SETUP_REPEATS):
        plan = workloads.plan(args.workload, args.seed, args.size, work / f"inputs{k}", work / "pass")
        steps = [run_process(IMPORT, logs / f"import{k}")] + setup_inputs(plan, logs / f"setup{k}")
        attempted += len(steps)
        for step in steps:
            if step.code != 0:
                failed += 1
                problems.append(f"setup {step.cmd} exited {step.code}: {step.err.strip()[-300:]}")
        setups.append(sum(s.wall for s in steps))
        steps_all += steps
        if plan.setup:
            setup_digests.append(input_digests(plan))
    if any(d != setup_digests[0] for d in setup_digests):
        failed += 1
        problems.append("setups of one seed generated different inputs")

    plan = workloads.plan(args.workload, args.seed, args.size, work / "inputs0", work / "pass")
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        fresh(work / "pass")
        steps = [run_cli(argv, logs / f"pass{len(passes)}-{k}") for k, argv in enumerate(plan.steps)]
        result = check_pass(plan, steps)
        passes.append(result)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + median(durations) > min(args.seconds, RUN_BUDGET_S):
            break

    good = [p for p in passes if p.ok] or passes
    for p in passes:
        attempted += p.attempted
        failed += p.failed
        problems += p.problems
        steps_all += p.steps
    answers = good[0].answers
    if any(p.answers != answers for p in passes):
        failed += 1
        problems.append("passes of one seed wrote different predictions")
    errors = good[0].errors
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(median([p.wall for p in good]), "s"),
        "scenes_per_s": metric(median([p.scenes / p.solve_wall for p in good]), "1/s"),
        "peak_rss_mb": metric(max(s.rss_mb for s in steps_all), "MB"),
        "rot_err_median_deg": metric(float(median(errors)), "deg"),
        "rot_acc_15": metric(checks.accuracy(errors) if errors else 0.0, "share"),
    }
    record.update(
        inputs=checks.combined_digest(good[0].inputs),
        answers=checks.combined_digest(answers),
        answer_files=answers,
        passes=len(passes),
        pass_walls=[p.wall for p in passes],
        setup_walls=setups,
        steps=[
            {"cmd": s.cmd, "wall_s": s.wall, "rss_mb": s.rss_mb} for s in passes[0].steps
        ],
    )
    return metrics, record, problems, attempted, failed


def in_process(args):
    """Child of the traced run: setup and one pass through svpose.cli.main.

    Runs in a fresh process, like the subcommands of an untraced pass,
    so both children start from the same interpreter and heap state.
    """
    from svpose import cli  # noqa: F401  (imported before the pass is timed)

    work, name = Path(args.work), args.in_process
    plan = workloads.plan(
        args.workload, args.seed, args.size, fresh(work / f"inputs-{name}"), fresh(work / name)
    )
    tracer = spans.Tracer()
    if name == "traced":
        spans.install(tracer)
    try:
        setup = [run_in_process(argv) for argv in plan.setup]
        start = time.perf_counter()
        steps = [run_in_process(argv) for argv in plan.steps]
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    report = {
        "wall": wall,
        "setup": [vars(s) for s in setup],
        "steps": [vars(s) for s in steps],
        "layer": spans.layer_metrics(tracer),
        "self_seconds": spans.self_seconds_by_span(tracer),
        "oracle_problems": tracer.problems,
        "spans": len(tracer.spans),
    }
    (work / f"{name}.json").write_text(json.dumps(report))
    return 0


def trace(args, work):
    """--trace 1: per-subcommand walls, then untraced and traced in-process passes."""
    logs = work / "logs"
    record = {"environment": environment(args.seed, kernels_flag(logs))}
    imports = [run_process(IMPORT, logs / f"import{k}") for k in range(IMPORT_REPEATS)]
    problems = [f"import exited {s.code}" for s in imports if s.code != 0]
    attempted, failed = len(imports), len(problems)

    def checked(name, setup, steps):
        nonlocal attempted, failed
        plan = workloads.plan(args.workload, args.seed, args.size, work / f"inputs-{name}", work / name)
        result = check_pass(plan, steps)
        attempted += result.attempted + len(setup)
        failed += result.failed + sum(s.code != 0 for s in setup)
        problems.extend(f"{name}: {p}" for p in result.problems)
        problems.extend(f"{name} setup exited {s.code}" for s in setup if s.code != 0)
        return result

    plan = workloads.plan(args.workload, args.seed, args.size, work / "inputs-subprocess", work / "subprocess")
    setup = setup_inputs(plan, logs / "setup")
    steps = [run_cli(argv, logs / f"pass-{k}") for k, argv in enumerate(plan.steps)]
    measured = checked("subprocess", setup, steps)
    walls = {cmd: 0.0 for cmd in workloads.COMMANDS}
    for s in setup + steps:
        walls[s.cmd] += s.wall

    # Untraced and traced children alternate while another pair fits in
    # --seconds, so the overhead compares medians, not single samples.
    reports = {"untraced": [], "traced": []}
    mismatch = False
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for name, runs in reports.items():
            child = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                     "--size", args.size, "--in-process", name, "--work", str(work)]
            step = run_process(child, logs / name)
            if step.code != 0:
                raise SystemExit(f"perfbench: {name} pass crashed: {step.err.strip()[-2000:]}")
            report = json.loads((work / f"{name}.json").read_text())
            result = checked(
                name, [Step(**s) for s in report["setup"]], [Step(**s) for s in report["steps"]]
            )
            mismatch |= result.answers != measured.answers or result.inputs != measured.inputs
            runs.append(report)
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > min(args.seconds, RUN_BUDGET_S):
            break
    traced = reports["traced"][0]
    traced_wall = median([r["wall"] for r in reports["traced"]])
    untraced_wall = median([r["wall"] for r in reports["untraced"]])
    problems.extend(f"kernel oracle: {p}" for p in traced["oracle_problems"])
    failed += len(traced["oracle_problems"])
    if mismatch:
        failed += 1
        problems.append("traced and untraced runs wrote different inputs or predictions")
    written = [
        p for d in (work / "traced", work / "inputs-traced") if d.is_dir()
        for p in d.rglob("*") if p.is_file()
    ]

    layer = {f"cli.{cmd}_s": metric(walls[cmd], "s") for cmd in workloads.COMMANDS}
    layer["cli.import_s"] = metric(median([s.wall for s in imports]), "s")
    for name, (value, unit) in traced["layer"].items():
        layer[name] = metric(value, unit)
    layer["fileio.files_written"] = metric(len(written), "count")
    layer["fileio.bytes_written"] = metric(sum(p.stat().st_size for p in written), "B")
    layer["trace.wall_s"] = metric(traced_wall, "s")
    layer["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    layer["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    layer["trace.spans"] = metric(traced["spans"], "count")
    record.update(
        inputs=checks.combined_digest(measured.inputs),
        answers=checks.combined_digest(measured.answers),
        answer_files=measured.answers,
        self_seconds=traced["self_seconds"],
        traced_walls=[r["wall"] for r in reports["traced"]],
        untraced_walls=[r["wall"] for r in reports["untraced"]],
        steps=[{"cmd": s.cmd, "wall_s": s.wall, "rss_mb": s.rss_mb} for s in steps],
    )
    return layer, record, problems, attempted, failed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.SIZES), default="full",
        help="input sizes; 'tiny' is for the smoke test",
    )
    # The traced run's children: one in-process pass, results to --work.
    parser.add_argument("--in-process", choices=("traced", "untraced"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "svpose" / "cli.py").is_file():
        print(f"perfbench: no svpose sources under {SRC}", file=sys.stderr)
        return 2
    if args.in_process:
        return in_process(args)
    work = fresh(WORK / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}")
    work.mkdir(parents=True)
    try:
        metrics, record, problems, attempted, failed = (trace if args.trace else measure)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    key = f"{source_digest()}:{args.workload}:{args.seed}:{args.size}"
    record["answers_agree_with_earlier_runs"] = ledger_agrees(key, record["answers"])
    if not record["answers_agree_with_earlier_runs"]:
        failed += 1
        problems.append("predictions differ from an earlier run of the same sources and seed")
    record["problems"] = problems[:50]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"perfbench": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
