"""The benchmark's tracer patches svpose attributes and must put them all back.

`perfbench/spans.py` wraps functions by module attribute (for example
`solver.quat_mul`, `energy.nearest_indices`, `cli.load_scene` and the
`_kernels` kernels), so renaming or dropping one of those attributes
breaks the traced benchmark run; installing the tracer here catches it.
"""

import sys
from pathlib import Path

import pytest

from svpose import _fileio, _kernels, cli, energy, evaluation, so3, solver, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    yield spans
    sys.modules.pop("spans", None)


def snapshot():
    owners = [_fileio, _kernels, cli, energy, evaluation, so3, solver, synth]
    state = {owner.__name__: dict(vars(owner)) for owner in owners}
    state["cli.COMMANDS"] = dict(cli.COMMANDS)
    state["SO3Grid"] = dict(vars(so3.SO3Grid))
    state["EnergyTable"] = dict(vars(energy.EnergyTable))
    return state


def changed(before, after):
    return sorted(
        f"{owner}.{name}"
        for owner, attrs in before.items()
        for name in attrs.keys() | after[owner].keys()
        if attrs.get(name) is not after[owner].get(name)
    )


def test_install_then_restore_puts_every_attribute_back(spans):
    before = snapshot()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = changed(before, snapshot())
    finally:
        tracer.restore()
    for name in (
        "svpose.solver.quat_mul",
        "svpose.solver.nearest_in_grid",
        "svpose.energy.nearest_indices",
        "svpose.cli.load_scene",
        "svpose.cli.score_over_grid",
        "svpose._kernels.min_angle_sq_to_targets",
        "svpose._kernels.nearest_abs_dots",
        "svpose._kernels.min_max_abs_dot",
        "SO3Grid.covering_radius",
    ):
        assert name in patched
    assert changed(before, snapshot()) == []
