import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svpose import cli, evaluation, so3, synth
from svpose.energy import EnergyTable, load_table, score_over_grid
from svpose.synth import load_scene


def read_dir_bytes(d, names=None):
    out = {}
    for p in sorted(d.iterdir()):
        if names is None or p.name in names:
            out[p.name] = p.read_bytes()
    return out


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_synth_writes_scenes_manifest_config(tmp_path):
    out = tmp_path / "scenes"
    assert run("synth", "-o", out, "--n", 3, "--scenes", 2, "--seed", 4) == 0
    assert (out / "scene_000.json").exists()
    assert (out / "scene_001.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["id"] for e in manifest["scenes"]] == ["scene_000", "scene_001"]
    assert [e["seed"] for e in manifest["scenes"]] == [4, 5]
    config = json.loads((out / "run_config.json").read_text())
    assert config["subcommand"] == "synth"
    assert config["seed"] == 4
    scene = load_scene(out / "scene_000.json")
    assert scene.rig.n_cameras == 3
    assert scene.rig.seed == 4


def test_synth_rerun_byte_identical(tmp_path):
    # Same config, same directory: every byte identical on rerun.
    out = tmp_path / "a"
    args = ["--n", 3, "--scenes", 2, "--seed", 7, "--jitter", "0.05"]
    run("synth", "-o", out, *args)
    first = read_dir_bytes(out)
    run("synth", "-o", out, *args)
    assert read_dir_bytes(out) == first
    # A different output dir changes only the config's `out` field.
    run("synth", "-o", tmp_path / "b", *args)
    other = read_dir_bytes(tmp_path / "b")
    del first["run_config.json"], other["run_config.json"]
    assert other == first


def test_lookat_flag_round_trips(tmp_path):
    out = tmp_path / "s"
    assert run("synth", "-o", out, "--n", 2, "--lookat", "1,2,3") == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["lookat"] == [1.0, 2.0, 3.0]
    assert load_scene(out / "scene_000.json").rig.lookat == (1.0, 2.0, 3.0)


def solve_args(scenes, out, **over):
    args = ["solve", "-o", out, "--scenes", scenes, "--grid-n", 576]
    for key, value in over.items():
        args += [f"--{key.replace('_', '-')}", value]
    return args


def test_pipeline_solve_eval(tmp_path):
    scenes = tmp_path / "scenes"
    preds = tmp_path / "preds"
    metrics = tmp_path / "metrics"
    run("synth", "-o", scenes, "--n", 4, "--scenes", 2, "--seed", 1)
    assert run(*solve_args(scenes, preds)) == 0
    doc = json.loads((preds / "scene_000.json").read_text())
    assert doc["format"] == "svpose-pred"
    assert doc["scene_id"] == "scene_000"
    assert doc["grid"] == {"n": 576, "generator": "super_fibonacci", "seed": 0}
    assert "total_energy" in doc["diagnostics"]

    assert run("eval", "-o", metrics, "--pred", preds, "--gt", scenes) == 0
    with open(metrics / "per_scene.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "scene_id"
    assert [r[0] for r in rows[1:]] == ["scene_000", "scene_001"]
    agg = json.loads((metrics / "aggregate.json").read_text())
    assert agg["n_scenes"] == 2
    # Ground-truth translations are copied through, so they score 1.0.
    col = rows[0].index("trans_acc_0.1")
    assert [r[col] for r in rows[1:]] == ["1", "1"]
    assert agg["trans_acc_0.1"] == 1.0


def test_solve_jobs_do_not_change_bytes(tmp_path):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 3, "--seed", 2)
    run(*solve_args(scenes, tmp_path / "p1"), "--jobs", "1")
    run(*solve_args(scenes, tmp_path / "p2"), "--jobs", "2")
    a = read_dir_bytes(tmp_path / "p1")
    b = read_dir_bytes(tmp_path / "p2")
    del a["run_config.json"], b["run_config.json"]  # differ in the jobs field
    assert a == b
    assert_no_children()


def assert_no_children():
    # Every worker a parallel solve forked has been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def table_args(tables, out):
    return ["solve", "-o", out, "--tables", tables, "--grid-n", 72, "--translation", "constant-z"]


def test_table_solve_jobs_do_not_change_bytes(tmp_path):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 2, "--emit-tables", "--grid-n", 72)
    outs = {}
    # Two files: --jobs 4 starts one worker per file.
    for jobs in ("1", "2", "4"):
        assert run(*table_args(scenes, tmp_path / jobs), "--jobs", jobs) == 0
        assert_no_children()
        outs[jobs] = read_dir_bytes(tmp_path / jobs)
        del outs[jobs]["run_config.json"]  # differ in the jobs field
    assert len(outs["1"]) == 3
    assert outs["1"] == outs["2"] == outs["4"]


def _drop_pair(path):
    spec = so3.GridSpec("super_fibonacci", 72)
    EnergyTable(grid_spec=spec, rows={(0, 2): np.zeros(72)}).save(path)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-9])


def spoiled_table_errors(tmp_path, capsys, n_files, spoiled, code):
    """Solve `n_files` tables, some spoiled, at --jobs 1 and 2; the JSON error.

    Both runs must exit `code` with the same error line, write no
    manifest and leave no child unreaped.
    """
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", n_files, "--seed", 2, "--emit-tables", "--grid-n", 72)
    tables = tmp_path / "tables"
    tables.mkdir()
    for k in range(n_files):
        shutil.copy(scenes / f"scene_00{k}.rpet", tables)
    for k, spoil in spoiled.items():
        spoil(tables / f"scene_00{k}.rpet")
    errors = {}
    for jobs in ("1", "2"):
        assert run(*table_args(tables, tmp_path / jobs), "--jobs", jobs) == code
        assert_no_children()
        errors[jobs] = capsys.readouterr().err
        assert not (tmp_path / jobs / "manifest.json").exists()
    assert errors["1"] == errors["2"]
    return json.loads(errors["2"])


@pytest.mark.parametrize("spoil, code", [(_drop_pair, 4), (_truncate, 3)])
def test_worker_errors_match_serial_errors(tmp_path, capsys, spoil, code):
    error = spoiled_table_errors(tmp_path, capsys, 3, {1: spoil}, code)
    assert error["exit_code"] == code


@pytest.mark.parametrize("spoiled, code", [
    ({1: _truncate, 2: _drop_pair}, 3),  # the lower failure is a child's
    ({0: _drop_pair, 3: _truncate}, 4),  # the lower failure is this process's
])
def test_split_solve_raises_the_lowest_failure(tmp_path, capsys, spoiled, code):
    # --jobs 2 over four files: this process solves files 0 and 2, a
    # forked child files 1 and 3, and each stops at its first failure.
    error = spoiled_table_errors(tmp_path, capsys, 4, spoiled, code)
    assert f"scene_00{min(spoiled)}.rpet" in error["message"]


def test_two_inputs_with_one_scene_id_are_exit_code_4(tmp_path, capsys):
    a, b, preds = tmp_path / "a", tmp_path / "b", tmp_path / "p"
    run("synth", "-o", a, "--n", 3, "--scenes", 1, "--seed", 1)
    run("synth", "-o", b, "--n", 3, "--scenes", 1, "--seed", 2)
    capsys.readouterr()
    assert run("solve", "-o", preds, "--scenes", a, b, "--grid-n", 72, "--jobs", 2) == 4
    err = last_error(capsys)
    assert err["error"] == "ConsistencyError"
    assert str(a / "scene_000.json") in err["message"]
    assert str(b / "scene_000.json") in err["message"]
    assert not preds.exists()


def test_dead_worker_fails_the_run_without_hanging(tmp_path, monkeypatch, capsys):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 2)
    capsys.readouterr()
    # Forked workers inherit the patched name; only a child dies, while
    # this process solves its own share.
    parent, solve = os.getpid(), cli.solve

    def die_in_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return solve(*args)

    monkeypatch.setattr(cli, "solve", die_in_child)
    assert run(*solve_args(scenes, tmp_path / "p"), "--jobs", "2") == 1
    [line] = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "WorkerDiedError" and error["exit_code"] == 1
    assert error["message"].startswith("a solve worker process died")
    assert_no_children()
    assert not (tmp_path / "p" / "manifest.json").exists()


def test_child_exception_carries_the_child_traceback(tmp_path, monkeypatch):
    # An exception a forked child raises reaches this process without
    # its frames; they come back as its cause.
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 2)
    parent, solve = os.getpid(), cli.solve

    def nested_lookup():
        return {}["only in the child"]

    def fail_in_child(*args):
        if os.getpid() != parent:
            nested_lookup()
        return solve(*args)

    monkeypatch.setattr(cli, "solve", fail_in_child)
    with pytest.raises(KeyError) as raised:
        run(*solve_args(scenes, tmp_path / "p"), "--jobs", "2")
    assert_no_children()
    child = str(raised.value.__cause__)
    assert "in nested_lookup" in child and "in fail_in_child" in child
    assert "KeyError: 'only in the child'" in child


class TwoArgumentError(Exception):
    """Pickles its one message, so unpickling calls it with one argument and fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


@pytest.mark.parametrize("unpicklable", [False, True], ids=["will-not-load", "will-not-dump"])
def test_unreadable_child_exception_is_a_worker_died_error(tmp_path, monkeypatch, capsys, unpicklable):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 3, "--seed", 2)
    capsys.readouterr()

    class LocalError(Exception):
        pass  # a local class pickles by a name no module holds

    error = LocalError("local") if unpicklable else TwoArgumentError("spoiled", "a child")
    parent, solve = os.getpid(), cli.solve

    def fail_in_child(*args):
        if os.getpid() != parent:
            raise error
        return solve(*args)

    failures, fail = [], cli._fail
    monkeypatch.setattr(cli, "solve", fail_in_child)
    monkeypatch.setattr(cli, "_fail", lambda exc, code: failures.append(exc) or fail(exc, code))
    # Files 1 and 2 fail in two children; the lower one is raised.
    assert run(*solve_args(scenes, tmp_path / "p"), "--jobs", "3") == 1
    assert_no_children()
    [line] = capsys.readouterr().err.splitlines()
    reported = json.loads(line)
    assert reported["error"] == "WorkerDiedError" and reported["exit_code"] == 1
    assert str(scenes / "scene_001.json") in reported["message"]
    assert type(error).__name__ in reported["message"]
    assert "in fail_in_child" in str(failures[0].__cause__)
    assert not (tmp_path / "p" / "manifest.json").exists()


def fresh_interpreter(code):
    """Run `code` in a new interpreter on this checkout; its stdout, stripped."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def loaded_after(setup, names):
    """Which of `names` are in sys.modules after `setup` runs in a new interpreter."""
    loaded = f"sorted(set({sorted(names)!r}) & set(sys.modules))"
    code = f"import json, sys\n{setup}\nprint(json.dumps({loaded}))"
    return json.loads(fresh_interpreter(code).splitlines()[-1])


def test_importing_the_cli_leaves_multiprocessing_out(tmp_path):
    # The cold-start contract. Importing the package or the CLI loads no
    # process pool and no numpy, and each subcommand loads only the
    # modules it runs.
    heavy = {"multiprocessing", "concurrent.futures.process", "numpy"}
    assert loaded_after("import svpose", heavy) == []
    assert loaded_after("import svpose.cli", heavy) == []

    csv_in = tmp_path / "in.csv"
    csv_in.write_text("scene_id,err\ns0,1\ns1,2\n")
    report = ["report", "-o", str(tmp_path / "r.csv"), "--inputs", str(csv_in)]
    main = "from svpose.cli import main\nassert main({!r}) == 0"
    numeric = {"numpy", "svpose.so3", "svpose.energy", "svpose.solver"}
    assert loaded_after(main.format(report), numeric) == []
    assert (tmp_path / "r.csv").read_text().endswith("mean,1.5\n")

    grid = ["grid", "-o", str(tmp_path / "g.so3g"), "--n", "72"]
    others = {f"svpose.{m}" for m in ("energy", "solver", "synth", "evaluation")}
    assert loaded_after(main.format(grid), others | {"svpose.so3"}) == ["svpose.so3"]


def test_zero_noise_parallel_solve_loads_no_pool_and_no_random(tmp_path):
    # Forking needs neither multiprocessing nor concurrent.futures, and a
    # noiseless scene scorer draws nothing.
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 3, "--seed", 2)
    argv = ["solve", "-o", str(preds), "--scenes", str(scenes), "--grid-n", "72", "--jobs", "2"]
    setup = f"from svpose.cli import main\nassert main({argv!r}) == 0"
    heavy = {"multiprocessing", "concurrent.futures", "numpy.random"}
    assert loaded_after(setup, heavy) == []
    assert len(list(preds.glob("scene_*.json"))) == 3


@pytest.mark.parametrize("inputs", ["scenes", "tables"])
def test_solves_leave_the_evaluation_module_out(tmp_path, inputs):
    # A solve reads scenes or tables; it never evaluates, so it does not
    # load or compile `svpose.evaluation`.
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 2, "--emit-tables", "--grid-n", 72)
    argv = ["solve", "-o", str(preds), f"--{inputs}", str(scenes), "--grid-n", "72"]
    if inputs == "tables":
        argv += ["--translation", "constant-z"]
    setup = f"from svpose.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(setup, {"svpose.evaluation", "svpose.synth"}) == ["svpose.synth"]
    assert len(list(preds.glob("scene_*.json"))) == 2


def test_exit_hooks_registered_before_main_run_after_the_freeze(tmp_path):
    # Atexit hooks run last registered first, so this one runs after the
    # gc.freeze that main registers.
    grid = ["grid", "-o", str(tmp_path / "g.so3g"), "--n", "72"]
    code = f"""
import atexit, gc
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
from svpose.cli import main
assert main({grid!r}) == 0
"""
    assert fresh_interpreter(code).splitlines()[-1] == "frozen True"


def test_subcommands_write_the_same_bytes_in_a_process(tmp_path, capsys):
    # Each subcommand runs as a process, then in this one on the same
    # paths; the files and the printed lines must match byte for byte.
    scenes, preds, metrics = tmp_path / "scenes", tmp_path / "preds", tmp_path / "metrics"
    grids, reports = tmp_path / "grids", tmp_path / "reports"
    steps = [
        (scenes, ["synth", "-o", scenes, "--n", 3, "--scenes", 3, "--seed", 2,
                  "--emit-tables", "--grid-n", 72, "--noise-angle", "0.02"]),
        (preds, ["solve", "-o", preds, "--scenes", scenes, "--grid-n", 72,
                 "--noise-angle", "0.02", "--jobs", 2]),
        (metrics, ["eval", "-o", metrics, "--pred", preds, "--gt", scenes, "--sweep"]),
        (grids, ["grid", "-o", grids / "g.so3g", "--n", 72, "--covering"]),
        (reports, ["report", "-o", reports / "r.csv", "--inputs", metrics / "per_scene.csv"]),
    ]
    for out, argv in steps:
        argv = [str(a) for a in argv]
        printed = fresh_interpreter(
            f"import sys\nfrom svpose.cli import main\nsys.exit(main({argv!r}))"
        )
        by_process = read_dir_bytes(out)
        shutil.rmtree(out)
        assert cli.main(argv) == 0, argv[0]
        assert_no_children()
        assert capsys.readouterr().out.strip() == printed, argv[0]
        assert read_dir_bytes(out) == by_process, argv[0]


def test_cli_patch_points_intercept_before_their_modules_load(tmp_path):
    # The CLI's module attributes for the functions it calls exist before
    # their modules are imported, and the subcommands call through them,
    # so a patch made right after `import svpose.cli` takes effect.
    scenes, preds = tmp_path / "scenes", tmp_path / "preds"
    code = f"""
import sys
from svpose import cli
assert "svpose.solver" not in sys.modules and "svpose.synth" not in sys.modules
calls = []
def counted(name, original):
    def call(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    return call
cli.solve = counted("solve", cli.solve)
cli.load_scene = counted("load_scene", cli.load_scene)
assert cli.main(["synth", "-o", {str(scenes)!r}, "--n", "3", "--scenes", "2"]) == 0
solve = ["solve", "-o", {str(preds)!r}, "--scenes", {str(scenes)!r}, "--grid-n", "72"]
assert cli.main(solve) == 0
print(" ".join(calls))
"""
    assert fresh_interpreter(code) == "load_scene solve load_scene solve"
    assert sorted(p.name for p in preds.glob("scene_*.json")) == [
        "scene_000.json", "scene_001.json"
    ]


def test_run_config_reproduces_solve(tmp_path):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 3)
    run(*solve_args(scenes, tmp_path / "p1"))
    assert (
        run("solve", "--config", tmp_path / "p1" / "run_config.json", "-o", tmp_path / "p2")
        == 0
    )
    a = read_dir_bytes(tmp_path / "p1")
    b = read_dir_bytes(tmp_path / "p2")
    del a["run_config.json"], b["run_config.json"]  # differ in `out`
    assert a == b


def test_svp_seed_overrides_config(tmp_path, monkeypatch):
    monkeypatch.setenv("SVP_SEED", "99")
    out = tmp_path / "s99"
    run("synth", "-o", out, "--n", 2, "--seed", 1)
    assert json.loads((out / "run_config.json").read_text())["seed"] == 99
    monkeypatch.delenv("SVP_SEED")
    plain = tmp_path / "plain"
    run("synth", "-o", plain, "--n", 2, "--seed", 99)
    assert (out / "scene_000.json").read_bytes() == (plain / "scene_000.json").read_bytes()
    monkeypatch.setenv("SVP_SEED", "not-a-number")
    assert run("synth", "-o", tmp_path / "bad", "--n", 2) == 3


def test_translation_sources(tmp_path):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 5)
    run(*solve_args(scenes, tmp_path / "pz"), "--translation", "constant-z")
    doc = json.loads((tmp_path / "pz" / "scene_000.json").read_text())
    for pose in doc["poses"]:
        assert pose["translation"] == [0.0, 0.0, 1.0]
    assert (
        run(
            *solve_args(scenes, tmp_path / "px"),
            "--translation", "external", "--external", scenes,
        )
        == 0
    )
    ext = json.loads((tmp_path / "px" / "scene_000.json").read_text())
    gt = load_scene(scenes / "scene_000.json")
    for pose, gt_pose in zip(ext["poses"], gt.poses):
        assert np.allclose(pose["translation"], gt_pose.translation)


def test_tables_pipeline(tmp_path):
    scenes = tmp_path / "scenes"
    run(
        "synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 6,
        "--emit-tables", "--grid-n", 576,
    )
    assert (scenes / "scene_000.rpet").exists()
    assert (
        run(
            "solve", "-o", tmp_path / "pt", "--tables", scenes,
            "--grid-n", 576, "--translation", "constant-z",
        )
        == 0
    )
    from_table = json.loads((tmp_path / "pt" / "scene_000.json").read_text())
    run(*solve_args(scenes, tmp_path / "ps"), "--translation", "constant-z")
    from_scene = json.loads((tmp_path / "ps" / "scene_000.json").read_text())
    # The table quantizes scores to float32 but the argmax landscape is
    # identical here, so both routes pick the same rotations.
    for a, b in zip(from_table["poses"], from_scene["poses"]):
        assert np.allclose(a["quat_wxyz"], b["quat_wxyz"], atol=1e-12)


def test_exit_code_2_io(tmp_path, capsys):
    missing = run("solve", "-o", tmp_path / "p", "--scenes", tmp_path / "nope")
    assert missing == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 2
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run("synth", "-o", blocker / "sub", "--n", 2) == 2


def test_exit_code_3_format(tmp_path, capsys):
    bad = tmp_path / "bad.rpet"
    bad.write_bytes(b"RPET" + b"\x00" * 10)
    assert run("solve", "-o", tmp_path / "p", "--tables", bad, "--translation", "constant-z") == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CorruptTableError"
    assert err["exit_code"] == 3


def test_zero_point_table_grid_is_exit_code_3(tmp_path, capsys):
    bad = tmp_path / "empty.rpet"
    # Version 1, super_fibonacci, a 0-point grid, seed 0, no pairs.
    bad.write_bytes(b"RPET" + struct.pack("<IBIQI", 1, 1, 0, 0, 0))
    assert run("solve", "-o", tmp_path / "p", "--tables", bad, "--translation", "constant-z") == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CorruptTableError"
    assert str(bad) in err["message"]


def test_nan_table_score_is_exit_code_3(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    run(
        "synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 6,
        "--emit-tables", "--grid-n", 72,
    )
    path = scenes / "scene_000.rpet"
    blob = bytearray(path.read_bytes())
    # First score of the first row: 25 header bytes, then the pair ids.
    blob[29:33] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    code = run(
        "solve", "-o", tmp_path / "p", "--tables", scenes,
        "--grid-n", 72, "--translation", "constant-z",
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CorruptTableError"
    assert "non-finite" in err["message"]
    assert not (tmp_path / "p" / "scene_000.json").exists()


def _with_nan(path, field, index):
    doc = json.loads(path.read_text())
    doc["poses"][1][field][index] = float("nan")
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("field, index", [("translation", 0), ("quat_wxyz", 2)])
def test_non_finite_scene_pose_is_exit_code_3(tmp_path, capsys, field, index):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 8)
    _with_nan(scenes / "scene_000.json", field, index)
    code = run("solve", "-o", tmp_path / "p", "--scenes", scenes, "--grid-n", 72)
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FormatError"
    assert "non-finite" in err["message"]
    assert not (tmp_path / "p" / "scene_000.json").exists()


def test_non_finite_scene_sigma_is_exit_code_3(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 8)
    path = scenes / "scene_000.json"
    doc = json.loads(path.read_text())
    doc["sigma"] = float("nan")
    path.write_text(json.dumps(doc))
    assert run("solve", "-o", tmp_path / "p", "--scenes", scenes, "--grid-n", 72) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FormatError"
    assert "sigma" in err["message"]


def test_non_finite_prediction_pose_is_exit_code_3(tmp_path, capsys):
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 9)
    assert run("solve", "-o", preds, "--scenes", scenes, "--grid-n", 72) == 0
    _with_nan(preds / "scene_000.json", "translation", 1)
    code = run("eval", "-o", tmp_path / "m", "--pred", preds, "--gt", scenes)
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FormatError"
    assert "non-finite" in err["message"]


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("n_cameras", 6.0), ("seed", True)])
def test_non_integer_scene_rig_field_is_exit_code_3(tmp_path, capsys, field, value):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 8)
    path = scenes / "scene_000.json"
    doc = json.loads(path.read_text())
    doc["rig"][field] = value
    path.write_text(json.dumps(doc))
    assert run("solve", "-o", tmp_path / "p", "--scenes", scenes, "--grid-n", 72) == 3
    err = last_error(capsys)
    assert err["error"] == "FormatError"
    assert f"{field} must be an integer" in err["message"]


@pytest.mark.parametrize("scene_id", [["scene_000"], 0])
def test_non_string_prediction_scene_id_is_exit_code_3(tmp_path, capsys, scene_id):
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 9)
    assert run("solve", "-o", preds, "--scenes", scenes, "--grid-n", 72) == 0
    path = preds / "scene_000.json"
    doc = json.loads(path.read_text())
    doc["scene_id"] = scene_id
    path.write_text(json.dumps(doc))
    assert run("eval", "-o", tmp_path / "m", "--pred", preds, "--gt", scenes) == 3
    err = last_error(capsys)
    assert err["error"] == "FormatError"
    assert "scene_id must be a string" in err["message"]


def test_two_predictions_of_one_scene_are_exit_code_4(tmp_path, capsys):
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 9)
    assert run("solve", "-o", preds, "--scenes", scenes, "--grid-n", 72) == 0
    copy = preds / "scene_000_again.json"
    copy.write_bytes((preds / "scene_000.json").read_bytes())
    code = run("eval", "-o", tmp_path / "m", "--pred", preds, "--gt", scenes)
    assert code == 4
    err = last_error(capsys)
    assert err["error"] == "ConsistencyError"
    assert "scene_000.json" in err["message"] and "scene_000_again.json" in err["message"]
    assert not (tmp_path / "m" / "per_scene.csv").exists()


def test_json_outputs_refuse_non_finite_numbers():
    from svpose._fileio import json_text

    assert json_text({"a": 1.5}) == '{\n  "a": 1.5\n}\n'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            json_text({"a": bad})


def test_exit_code_4_consistency(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    preds = tmp_path / "preds"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 8)
    run(*solve_args(scenes, preds))
    code = run(
        "eval", "-o", tmp_path / "m",
        "--pred", preds, "--gt", scenes / "scene_000.json",
    )
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 4
    assert "scene_001" in err["message"]


def test_grid_subcommand(tmp_path, capsys):
    path = tmp_path / "g.so3g"
    assert run("grid", "-o", path, "--n", 72, "--covering") == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["n"] == 72
    assert doc["covering_radius_rad"] == 0.9790203554936772
    grid = so3.load_grid(path)
    assert grid.n == 72


def test_eval_sweep_table(tmp_path):
    scenes = tmp_path / "scenes"
    preds = tmp_path / "preds"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 9)
    run(*solve_args(scenes, preds))
    assert (
        run("eval", "-o", tmp_path / "m", "--pred", preds, "--gt", scenes, "--sweep")
        == 0
    )
    with open(tmp_path / "m" / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["metric", "threshold", "accuracy"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"rotation_deg", "center_frac"}
    assert len(rows) == 1 + 60 + 40


def test_report_appends_mean(tmp_path):
    scenes = tmp_path / "scenes"
    preds = tmp_path / "preds"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 10)
    run(*solve_args(scenes, preds))
    run("eval", "-o", tmp_path / "m", "--pred", preds, "--gt", scenes)
    per_scene = tmp_path / "m" / "per_scene.csv"
    merged = tmp_path / "merged.csv"
    assert run("report", "-o", merged, "--inputs", per_scene, per_scene) == 0
    with open(merged, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 4 + 1
    assert rows[-1][0] == "mean"
    vals = [float(r[2]) for r in rows[1:-1]]
    assert float(rows[-1][2]) == pytest.approx(sum(vals) / len(vals))

    other = tmp_path / "other.csv"
    other.write_text("different,header\n1,2\n")
    assert run("report", "-o", tmp_path / "x.csv", "--inputs", per_scene, other) == 3


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_outputs_take_their_mode_from_the_umask(tmp_path, capsys, umask, mode):
    # Every file each subcommand writes (scenes, tables, predictions,
    # metrics, grids, reports, manifests and configs) is created as
    # open() creates a file: 0o666 less the umask, never a temp file's
    # 0o600.
    scenes, preds, tables = tmp_path / "scenes", tmp_path / "preds", tmp_path / "tpreds"
    metrics, grid, report = tmp_path / "metrics", tmp_path / "g.so3g", tmp_path / "r.csv"
    steps = [
        ["synth", "-o", scenes, "--n", 3, "--scenes", 2, "--seed", 3,
         "--emit-tables", "--grid-n", 72],
        ["solve", "-o", preds, "--scenes", scenes, "--grid-n", 72, "--jobs", 2],
        ["solve", "-o", tables, "--tables", scenes, "--grid-n", 72,
         "--translation", "constant-z"],
        ["eval", "-o", metrics, "--pred", preds, "--gt", scenes, "--sweep"],
        ["grid", "-o", grid, "--n", 72],
        ["report", "-o", report, "--inputs", metrics / "per_scene.csv"],
    ]
    old = os.umask(umask)
    try:
        codes = [run(*argv) for argv in steps]
    finally:
        os.umask(old)
    assert codes == [0] * len(steps)
    assert_no_children()
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    for name in ("scenes/scene_001.rpet", "preds/manifest.json", "tpreds/scene_000.json",
                 "metrics/sweep.csv", "metrics/run_config.json", "g.so3g", "r.csv"):
        assert name in written
    modes = {name: oct((tmp_path / name).stat().st_mode & 0o777) for name in written}
    assert modes == {name: oct(mode) for name in written}
    # No temp file is left behind.
    assert not [name for name in written if ".tmp-" in name]


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    from svpose._fileio import write_bytes_atomic

    path = tmp_path / "out.bin"
    write_bytes_atomic(path, b"old")

    def chunks():
        yield b"new"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_bytes_atomic(path, chunks())
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    # Chunks are any bytes-like objects, written in turn.
    write_bytes_atomic(path, [b"a", memoryview(b"b"), np.arange(2, dtype="<u1")])
    assert path.read_bytes() == b"ab\x00\x01"


def test_missing_out_is_consistency_error(tmp_path, capsys):
    assert run("grid", "--n", 16) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 4


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


NOT_UTF8 = b'{"format": "svpose-scene", "note": "\xff\xfe"}'


def test_non_utf8_scene_is_exit_code_3(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 11)
    (scenes / "scene_000.json").write_bytes(NOT_UTF8)
    assert run("solve", "-o", tmp_path / "p", "--scenes", scenes, "--grid-n", 72) == 3
    err = last_error(capsys)
    assert err["error"] == "FormatError"
    assert "scene_000.json" in err["message"]


def test_non_utf8_prediction_is_exit_code_3(tmp_path, capsys):
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 11)
    assert run("solve", "-o", preds, "--scenes", scenes, "--grid-n", 72) == 0
    (preds / "scene_000.json").write_bytes(NOT_UTF8)
    assert run("eval", "-o", tmp_path / "m", "--pred", preds, "--gt", scenes) == 3
    assert last_error(capsys)["error"] == "FormatError"


def test_non_utf8_config_is_exit_code_3(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": 1, "out": "\xff"}')
    assert run("synth", "--config", config, "-o", tmp_path / "s") == 3
    assert last_error(capsys)["error"] == "FormatError"


def test_non_utf8_report_input_is_exit_code_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"scene,a\n\xff,1\n")
    assert run("report", "-o", tmp_path / "merged.csv", "--inputs", bad) == 3
    err = last_error(capsys)
    assert err["error"] == "FormatError"
    assert "bad.csv" in err["message"]
    assert not (tmp_path / "merged.csv").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("jobs", "2"),
        ("grid_n", "576"),
        ("lookat", 5),
        ("lookat", [0, "1", 2]),
        ("scenes", [1]),
        ("n_cameras", True),
        ("kappa", None),
        ("sweep", 1),
    ],
)
def test_wrongly_typed_config_field_is_exit_code_3(tmp_path, capsys, field, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    assert run("synth", "--config", config, "-o", tmp_path / "s") == 3
    err = last_error(capsys)
    assert err["error"] == "FormatError"
    assert repr(field) in err["message"]


def test_config_accepts_an_int_for_a_float(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"jitter": 0, "lookat": [0, 0, 1], "n_cameras": 2}))
    assert run("synth", "--config", config, "-o", tmp_path / "s") == 0
    assert load_scene(tmp_path / "s" / "scene_000.json").rig.lookat == (0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "row, why",
    [("s1,1", "cells"), ("s1,1,abc", "abc"), ("s1,nan,2", "non-finite"), ("s1,1,inf", "non-finite")],
)
def test_malformed_report_row_is_exit_code_3(tmp_path, capsys, row, why):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"scene_id,a,b\ns0,1,2\n{row}\n")
    assert run("report", "-o", tmp_path / "merged.csv", "--inputs", bad) == 3
    err = last_error(capsys)
    assert err["error"] == "FormatError"
    assert "bad.csv" in err["message"] and "row 3" in err["message"]
    assert why in err["message"]
    assert not (tmp_path / "merged.csv").exists()


def test_table_solve_without_translations_fails_before_solving(tmp_path, monkeypatch, capsys):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--emit-tables", "--grid-n", 72)
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solved first"))
    assert run("solve", "-o", tmp_path / "p", "--tables", scenes, "--grid-n", 72) == 4
    assert "needs scene inputs" in last_error(capsys)["message"]


@pytest.mark.parametrize(
    "pairs, why",
    [
        ([], "no pairs"),
        ([(0, 2)], "no scores for pair (0, 1)"),
        ([(0, 1), (2, 3)], "no scores for pair (0, 2)"),
    ],
)
def test_table_missing_a_pair_is_exit_code_4_naming_the_file(tmp_path, capsys, pairs, why):
    path = tmp_path / "t.rpet"
    spec = so3.GridSpec("super_fibonacci", 72)
    EnergyTable(grid_spec=spec, rows={p: np.zeros(72) for p in pairs}).save(path)
    if not pairs:
        assert path.stat().st_size == 25
    code = run(
        "solve", "-o", tmp_path / "p", "--tables", path,
        "--grid-n", 72, "--translation", "constant-z",
    )
    assert code == 4
    err = last_error(capsys)
    assert err["error"] == "ConsistencyError"
    assert err["message"] == f"{path}: table has {why}"


def test_one_camera_scene_is_exit_code_4_naming_the_file(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    assert run("synth", "-o", scenes, "--n", 1, "--scenes", 1) == 0
    assert run("solve", "-o", tmp_path / "p", "--scenes", scenes, "--grid-n", 576) == 4
    err = last_error(capsys)
    assert err["error"] == "ConsistencyError"
    path = scenes / "scene_000.json"
    assert err["message"] == f"{path}: a solve needs at least two cameras, scene has 1"
    assert not (tmp_path / "p" / "manifest.json").exists()


def test_nan_noise_angle_is_exit_code_4_before_any_output(tmp_path, capsys):
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 12)
    assert run(*solve_args(scenes, preds, noise_angle="nan")) == 4
    err = last_error(capsys)
    assert err["error"] == "ValueError"
    assert "noise_angle" in err["message"]
    assert not (preds / "scene_000.json").exists()
    assert not (preds / "manifest.json").exists()


def test_non_finite_config_value_is_exit_code_4(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 12)
    config = tmp_path / "config.json"
    config.write_text('{"kappa": NaN}')
    assert run(*solve_args(scenes, tmp_path / "p"), "--config", config) == 4
    err = last_error(capsys)
    assert err["error"] == "ValueError"
    assert "kappa" in err["message"]
    assert not (tmp_path / "p" / "scene_000.json").exists()


def test_config_naming_a_removed_field_is_exit_code_3(tmp_path, capsys):
    # run_config.json files written while solve took --patience name it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"patience": 1}))
    assert run("synth", "--config", config, "-o", tmp_path / "s") == 3
    assert "unknown config fields ['patience']" in last_error(capsys)["message"]


def test_config_int_too_large_for_a_float_is_exit_code_3(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"kappa": 1' + "0" * 400 + "}")
    assert run("synth", "--config", config, "-o", tmp_path / "s") == 3
    err = last_error(capsys)
    assert err["error"] == "FormatError"
    assert "'kappa'" in err["message"]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "command, flags, field",
    [
        ("solve", ["--max-sweeps", -1], "max_sweeps"),
        ("synth", ["--scenes", 0], "n_scenes"),
        ("synth", ["--scenes", -1], "n_scenes"),
    ],
    ids=["solve-max-sweeps-minus-1", "synth-scenes-0", "synth-scenes-minus-1"],
)
def test_negative_max_sweeps_is_exit_code_4_before_any_output(
    tmp_path, capsys, command, flags, field
):
    out = tmp_path / "out"
    if command == "solve":
        scenes = tmp_path / "scenes"
        run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 12)
        args = solve_args(scenes, out)
    else:
        args = ["synth", "-o", out, "--n", 3, "--seed", 12]
    assert run(*args, *flags) == 4
    err = last_error(capsys)
    assert err["error"] == "ValueError"
    assert field in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, seed, words",
    [
        ("synth", ["--emit-tables", "--grid-n", 72, "--kappa", -1], None, "kappa"),
        ("synth", ["--emit-tables", "--grid-n", 72, "--noise-angle", -0.1], None, "noise_angle"),
        ("synth", ["--n", 0], None, "camera"),
        ("synth", ["--radius-min", 2, "--radius-max", 1], None, "radius_min"),
        ("synth", ["--jitter", 2], None, "jitter"),
        ("synth", ["--lookat", "1,2"], None, "lookat"),
        ("synth", [], "-3", "seed"),
        ("solve", ["--grid-n", 0], None, "grid size"),
        ("solve", ["--grid-generator", "nope"], None, "grid generator"),
        ("solve", ["--kappa", 0], None, "kappa"),
        # Values argparse cannot convert fail the same way.
        ("synth", ["--n", "abc"], None, "argument --n: invalid int value"),
        ("synth", ["--lookat", "x,y"], None, "argument --lookat"),
        ("solve", ["--translation", "bogus"], None, "argument --translation: invalid choice"),
    ],
    ids=[
        "synth-kappa-minus-1", "synth-noise-angle-negative", "synth-n-0",
        "synth-radius-min-above-max", "synth-jitter-2", "synth-lookat-2-vector",
        "synth-env-seed-minus-3", "solve-grid-n-0", "solve-unknown-generator",
        "solve-kappa-0", "synth-n-abc", "synth-lookat-x-y", "solve-translation-bogus",
    ],
)
def test_out_of_range_option_is_exit_code_4_before_any_output(
    tmp_path, capsys, monkeypatch, command, flags, seed, words
):
    # Finite values out of range fail as the non-finite ones do: no
    # output directory, no scene file and no manifest.
    out = tmp_path / "out"
    if command == "solve":
        scenes = tmp_path / "scenes"
        run("synth", "-o", scenes, "--n", 3, "--scenes", 1, "--seed", 12)
        args = ["solve", "-o", out, "--scenes", scenes]
    else:
        args = ["synth", "-o", out, "--n", 3, "--seed", 12]
    if seed is not None:
        monkeypatch.setenv("SVP_SEED", seed)
    assert run(*args, *flags) == 4
    err = last_error(capsys)
    assert err["error"] == "ValueError"
    assert words in err["message"]
    assert not out.exists()


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        run("report", "-h")
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: svpose report")


def test_scene_solve_scores_the_modes_synth_tabled(tmp_path, monkeypatch):
    # A scene's noise comes from its own rig seed, so the scorer solve
    # builds from a scene reproduces the table synth wrote beside it.
    scenes = tmp_path / "scenes"
    run(
        "synth", "-o", scenes, "--n", 4, "--scenes", 3, "--seed", 5,
        "--emit-tables", "--grid-n", 576, "--noise-angle", 0.1,
    )
    built = {}

    def capture(scene, *args, **kwargs):
        scorer = synth.scene_to_scorer(scene, *args, **kwargs)
        built[scene.rig.seed] = scorer
        return scorer

    monkeypatch.setattr(cli, "scene_to_scorer", capture)
    assert run(*solve_args(scenes, tmp_path / "p", noise_angle=0.1)) == 0
    grid = so3.build_grid(576)
    manifest = json.loads((scenes / "manifest.json").read_text())
    assert sorted(built) == [e["seed"] for e in manifest["scenes"]]
    for entry in manifest["scenes"]:
        table = load_table(scenes / entry["table"])
        scorer = built[entry["seed"]]
        for (i, j), row in table.rows.items():
            want = score_over_grid(scorer, i, j, grid).astype(np.float32)
            assert np.array_equal(row, want), (entry["id"], i, j)


def test_seed_does_not_change_scene_solves(tmp_path, monkeypatch):
    scenes = tmp_path / "scenes"
    run("synth", "-o", scenes, "--n", 4, "--scenes", 3, "--seed", 2)
    preds = []
    for name, seed in (("s0", 0), ("s7", 7)):
        assert run(*solve_args(scenes, tmp_path / name, noise_angle=0.1, seed=seed)) == 0
        preds.append(read_dir_bytes(tmp_path / name))
    monkeypatch.setenv("SVP_SEED", "9")
    assert run(*solve_args(scenes, tmp_path / "env", noise_angle=0.1)) == 0
    preds.append(read_dir_bytes(tmp_path / "env"))
    for p in preds:
        del p["run_config.json"]  # records out and seed
    assert len(preds[0]) == 4 and preds[0] == preds[1] == preds[2]


def test_grid_file_depends_on_grid_seed_not_seed(tmp_path, monkeypatch, capsys):
    args = ["--n", 72, "--generator", "random_uniform"]
    assert run("grid", "-o", tmp_path / "plain.so3g", *args) == 0
    monkeypatch.setenv("SVP_SEED", "5")
    assert run("grid", "-o", tmp_path / "env.so3g", *args) == 0
    plain = (tmp_path / "plain.so3g").read_bytes()
    assert (tmp_path / "env.so3g").read_bytes() == plain
    assert run("grid", "-o", tmp_path / "flag.so3g", *args, "--seed", 6) == 0
    assert (tmp_path / "flag.so3g").read_bytes() == plain
    assert run("grid", "-o", tmp_path / "g5.so3g", *args, "--grid-seed", 5) == 0
    reseeded = so3.load_grid(tmp_path / "g5.so3g")
    assert reseeded.spec.seed == 5
    assert np.array_equal(reseeded.quats, so3.build_grid(72, "random_uniform", 5).quats)
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [s["seed"] for s in summaries] == [0, 0, 0, 5]


def test_eval_computes_each_error_once(tmp_path, monkeypatch):
    scenes, preds = tmp_path / "scenes", tmp_path / "p"
    run("synth", "-o", scenes, "--n", 3, "--scenes", 4, "--seed", 13)
    run(*solve_args(scenes, preds))
    calls = {"rotation_errors_deg": 0, "center_errors": 0}
    for name in calls:
        original = getattr(evaluation, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        # Both the name eval imported and the one evaluate calls.
        monkeypatch.setattr(cli, name, counted)
        monkeypatch.setattr(evaluation, name, counted)
    argv = ["eval", "-o", tmp_path / "m", "--pred", preds, "--gt", scenes, "--sweep"]
    assert run(*argv) == 0
    assert calls == {"rotation_errors_deg": 4, "center_errors": 4}
