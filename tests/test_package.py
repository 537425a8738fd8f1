"""`import svpose` resolves its public names lazily, to the submodules' own objects."""

import importlib

import svpose


def test_every_public_name_is_its_submodules_object():
    assert len(svpose.__all__) == len(set(svpose.__all__)) > 60
    listed = dir(svpose)
    for name in svpose.__all__:
        module = importlib.import_module(f"svpose.{svpose._SOURCE[name]}")
        assert getattr(svpose, name) is getattr(module, name), name
        assert name in listed


def test_a_name_no_submodule_exports_is_an_attribute_error():
    assert not hasattr(svpose, "no_such_name")


def test_so3_re_exports_the_grid_spec():
    from svpose import _gridspec, so3

    for name in ("GridSpec", "GENERATOR_IDS", "_ID_TO_GENERATOR"):
        assert getattr(so3, name) is getattr(_gridspec, name)
