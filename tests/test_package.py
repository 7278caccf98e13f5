import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import tonelab
from tonelab._defaults import LINKAGES
from .synth import tone_clip


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


def test_submodule_attribute_is_imported_on_first_access():
    # the import system sets a loaded submodule as an attribute of the package, so
    # only a first access reaches the package's __getattr__
    assert tonelab.__getattr__("pitch") is importlib.import_module("tonelab.pitch")


def _readme_library_block() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    clip = tone_clip("15")
    wavfile.write(tmp_path / "clip.wav", clip.sample_rate,
                  (clip.samples * 32767).astype(np.int16))
    layout = {"A": ["55", "35", "214"], "B": ["55", "35", "213"], "E": ["45", "35", "214"],
              "C": ["11", "53", "415"], "D": ["11", "53", "425"], "F": ["12", "53", "415"]}
    rows = [f"{region}\tw{i}\t{token}" for region, tokens in layout.items()
            for i, token in enumerate(tokens)]
    (tmp_path / "corpus.tsv").write_text("\n".join(["region\tword_id\ttranscription", *rows]) + "\n",
                                         encoding="utf-8")
    (tmp_path / "gold.tsv").write_text(
        "region\tgold_label\nA\t0\nB\t0\nE\t0\nC\t1\nD\t1\nF\t1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(_readme_library_block(), "README.md", "exec"), names)
    assert capsys.readouterr().out == "15\n"
    assert (f"{names['d']:.6f}", f"{names['v']:.4f}") == ("2.268354", "0.1225")
    assert names["clip"].duration == 0.4
    assert names["feature"].shape == (20,) and names["feature"].dtype == np.float64
    assert sorted(names["report"]["linkages"]) == sorted(LINKAGES)
    assert names["coords"].shape == (6, 1)
