import importlib
import subprocess
import sys

import pytest

import tonelab


def test_import_tonelab_loads_no_submodule_or_numpy():
    code = ("import sys, tonelab\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('tonelab.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_every_public_name_resolves_to_its_submodule_and_is_listed():
    listed = dir(tonelab)
    for name in tonelab.__all__:
        module = importlib.import_module(f"tonelab.{tonelab._MODULE_OF[name]}")
        assert getattr(tonelab, name) is getattr(module, name), name
        assert name in listed, name


def test_public_names_are_unique_and_sorted():
    names = [n for names in tonelab._EXPORTS.values() for n in names]
    assert len(names) == len(set(names))
    assert tonelab.__all__ == sorted(names)


def test_submodules_resolve_as_attributes():
    from tonelab import dialect

    assert tonelab.dialect is dialect
    assert tonelab.load_corpus is dialect.load_corpus


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tonelab.no_such_name
    assert not hasattr(tonelab, "tone_distance_matrix")
