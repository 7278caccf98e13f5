"""Output checks for the benchmark's CLI commands.

Each check takes (workdir, stdout, inputs), raises CheckFailed when the
command's output is wrong, and returns details worth reporting.
"""
from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

import gen

LINKAGES = ("sl", "cl", "ga", "wa", "uc", "wc", "mv")
TOKEN_SAMPLE = 25


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def _read(workdir: str, name: str) -> list[str]:
    path = os.path.join(workdir, name)
    _expect(os.path.isfile(path), f"{name} was not written")
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _region_ids(inputs: dict) -> list[str]:
    return [f"R{r:04d}" for r in range(inputs["regions"])]


def version(workdir: str, stdout: str, inputs: dict) -> dict:
    _expect(stdout.startswith("tonelab "), f"unexpected version line {stdout!r}")
    return {}


def stdout_equals(expected: str):
    def check(workdir: str, stdout: str, inputs: dict) -> dict:
        _expect(stdout == expected, f"printed {stdout!r}, expected {expected!r}")
        return {}
    return check


def dialect_cluster(workdir: str, stdout: str, inputs: dict) -> dict:
    """Every linkage labels every region; minimum variance recovers the planted split."""
    linkages = _json(stdout).get("linkages", {})
    _expect(sorted(linkages) == sorted(LINKAGES), f"linkages {sorted(linkages)}")
    regions = _region_ids(inputs)
    for name, result in linkages.items():
        labels = result["labels"]
        _expect(sorted(labels) == regions, f"{name} does not label every region")
        _expect(set(labels.values()) == {0, 1}, f"{name} labels are not a 2-way split")
    _expect(linkages["mv"]["accuracy"] == 1.0,
            f"mv accuracy {linkages['mv']['accuracy']} on the planted split")
    return {"accuracy": {name: linkages[name]["accuracy"] for name in LINKAGES}}


def mds_csv(dims: int):
    def check(workdir: str, stdout: str, inputs: dict) -> dict:
        lines = _read(workdir, "mds.csv")
        _expect(lines[:1] == [",".join(["item", "x", "y"][: dims + 1])],
                f"header {lines[:1]}")
        rows = [line.split(",") for line in lines[1:]]
        _expect([r[0] for r in rows] == _region_ids(inputs), "not one row per region")
        _expect(all(len(r) == dims + 1 and all(math.isfinite(float(v)) for v in r[1:])
                    for r in rows), "non-finite or missing coordinates")
        return {}
    return check


def train(workdir: str, stdout: str, inputs: dict) -> dict:
    summary = _json(stdout)
    _expect(summary.get("clips") == inputs["train_clips"], f"clips {summary.get('clips')}")
    _expect(summary.get("train_accuracy", 0.0) >= 0.9,
            f"train_accuracy {summary.get('train_accuracy')} < 0.9")
    _expect(os.path.isfile(os.path.join(workdir, "model.json")), "model.json was not written")
    return {"train_accuracy": summary["train_accuracy"]}


def cluster_tones(workdir: str, stdout: str, inputs: dict) -> dict:
    payload = _json(stdout)
    found = sorted(c["representative"] for c in payload.get("categories", []))
    _expect(found == sorted(inputs["classes"]),
            f"found categories {found}, generated {sorted(inputs['classes'])}")
    clustered = sum(c["size"] for c in payload["categories"])
    _expect(clustered + len(payload["noise"]) == inputs["clips"], "clip count mismatch")
    return {"n_categories": payload["n_categories"], "noise_clips": len(payload["noise"])}


def tokens_csv(workdir: str, stdout: str, inputs: dict) -> dict:
    """Labels keep input order; sampled entries match the public scalar API."""
    src = os.path.join(os.getcwd(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from tonelab import parse_transcription, tone_distance

    tokens = _read(workdir, "tokens.txt")
    lines = _read(workdir, "tokens.csv")
    _expect(lines[0] == "label," + ",".join(tokens), "header labels are not in input order")
    _expect(len(lines) == len(tokens) + 1, f"{len(lines) - 1} rows for {len(tokens)} tokens")
    rng = np.random.default_rng(inputs["seed"])
    for i, j in rng.integers(0, len(tokens), (TOKEN_SAMPLE, 2)):
        row = lines[i + 1].split(",")
        _expect(row[0] == tokens[i], f"row {i} is labelled {row[0]}")
        a, b = parse_transcription(tokens[i]), parse_transcription(tokens[j])
        expected = f"{tone_distance(a, b):.6f}"
        _expect(row[j + 1] == expected, f"entry ({tokens[i]}, {tokens[j]}) is {row[j + 1]}, "
                                        f"tone_distance gives {expected}")
    return {"sampled_entries": TOKEN_SAMPLE}


def matrix_csv(workdir: str, stdout: str, inputs: dict) -> dict:
    """The 150 canonical labels, a zero diagonal, symmetric."""
    lines = _read(workdir, "matrix.csv")
    labels = gen.canonical_tokens()
    _expect(lines[0] == "label," + ",".join(labels), "header is not the 150 canonical labels")
    rows = [line.split(",") for line in lines[1:]]
    _expect([r[0] for r in rows] == labels, "row labels are not the 150 canonical labels")
    cells = np.array([r[1:] for r in rows])
    _expect(cells.shape == (150, 150), f"matrix shape {cells.shape}")
    _expect(all(float(v) == 0.0 for v in np.diag(cells)), "non-zero diagonal")
    _expect(bool((cells == cells.T).all()), "matrix is not symmetric")
    return {}
