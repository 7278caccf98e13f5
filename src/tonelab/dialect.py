"""Corpus ingestion and the cross-dialect analysis pipelines."""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cluster as clustering
from . import tones
from ._defaults import LINKAGES, METRICS
from .errors import CorpusError, InputError, naming
from .tones import DistanceMatrix, Transcription, parse_transcription

_CORPUS_HEADER = ("region", "word_id", "transcription")
_GOLD_HEADER = ("region", "gold_label")


@dataclass(frozen=True)
class RegionLexicon:
    """One dialect region's transcriptions for a survey word list."""

    region_id: str
    entries: dict[str, Transcription]

    def __post_init__(self) -> None:
        if not self.entries:
            raise CorpusError(f"region {self.region_id!r} has no entries")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DialectCorpus:
    regions: tuple[RegionLexicon, ...]
    gold_cluster: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.gold_cluster is not None:
            missing = [r.region_id for r in self.regions if r.region_id not in self.gold_cluster]
            if missing:
                raise CorpusError(f"gold labels missing for regions: {missing}")

    @property
    def region_ids(self) -> tuple[str, ...]:
        return tuple(r.region_id for r in self.regions)

    def gold_labels(self) -> list[int] | None:
        if self.gold_cluster is None:
            return None
        return [self.gold_cluster[r] for r in self.region_ids]


def load_corpus(path: str | os.PathLike,
                gold_path: str | os.PathLike | None = None) -> DialectCorpus:
    """Load a TSV corpus (region, word_id, transcription) and optional gold labels.

    Rows with invalid transcription tokens are rejected with their line number;
    duplicate (region, word_id) pairs are an error.
    """
    rows = tones._read_tsv(path, _CORPUS_HEADER, error=CorpusError)
    lexicons: dict[str, dict[str, Transcription]] = {}
    for lineno, (region, word_id, token) in rows:
        region, word_id, token = region.strip(), word_id.strip(), token.strip()
        if not region or not word_id:
            raise CorpusError(f"{path}:{lineno}: empty region or word_id")
        t = tones._INTERNED.get(token)
        if t is None:  # "(35)" or an invalid token
            with naming(f"{path}:{lineno}", CorpusError):
                t = parse_transcription(token)
        entries = lexicons.setdefault(region, {})
        if word_id in entries:
            raise CorpusError(f"{path}:{lineno}: duplicate entry ({region}, {word_id})")
        entries[word_id] = t

    gold = None
    if gold_path is not None:
        gold = {}
        for lineno, row in tones._read_tsv(gold_path, _GOLD_HEADER, error=CorpusError):
            region, label = (cell.strip() for cell in row)
            if label not in ("0", "1"):
                raise CorpusError(f"{gold_path}:{lineno}: gold label must be 0 or 1, got {label!r}")
            if region in gold:
                raise CorpusError(f"{gold_path}:{lineno}: duplicate gold region {region!r}")
            gold[region] = int(label)

    regions = tuple(RegionLexicon(rid, entries) for rid, entries in lexicons.items())
    return DialectCorpus(regions, gold)


def _metric_table(metric: str) -> np.ndarray:
    """The metric's 150x150 distance table over canonical transcription codes."""
    if metric == "tone2vec":
        return tones._table()
    if metric == "categorical":
        return 1.0 - np.eye(150)
    raise InputError(f"unknown metric {metric!r}; choose one of {METRICS}")


_digits = operator.attrgetter("digits")
_MISSING = 150  # the code of an unattested word: row and column 150 of the padded table
_REGION_BLOCK = 64  # regions per accumulator block in _pairwise


def _pairwise(regions: Sequence[RegionLexicon], metric: str) -> tuple[np.ndarray, list[str]]:
    """Mean distance over shared word ids for every region pair, plus warnings.

    The corpus becomes a word-major array of canonical codes, one row per word
    id in sorted order and one column per region (_MISSING where the word is
    not attested). The metric's table is padded with a zero row and column for
    that code. For each block of _REGION_BLOCK regions, the distances of every
    word are added into one accumulator, word by word from +0.0, so each pair
    adds its shared words left to right in sorted word-id order and every other
    word adds an exact 0.0: each entry is the plain sum of its pair's distances
    divided by their count.
    """
    padded = np.zeros((_MISSING + 1, _MISSING + 1))
    padded[:_MISSING, :_MISSING] = _metric_table(metric)
    words = sorted(set().union(*(r.entries for r in regions)))
    row_of = {w: k for k, w in enumerate(words)}
    n = len(regions)
    word_rows: list[int] = []
    region_cols: list[int] = []
    code_of: list[int] = []
    for col, region in enumerate(regions):
        word_rows += map(row_of.__getitem__, region.entries)
        code_of += map(tones._CODES.__getitem__, map(_digits, region.entries.values()))
        region_cols += [col] * len(region.entries)
    codes = np.full((len(words), n), _MISSING, dtype=np.intp)
    codes[word_rows, region_cols] = code_of
    # Shared words of each pair. The product runs in float64, because numpy has no
    # BLAS path for int64; every partial sum is an integer below 2**53, so the
    # counts are exact.
    present = (codes != _MISSING).astype(float)
    counts = (present.T @ present).astype(np.int64)
    first = np.flatnonzero(np.triu(counts == 0, 1))  # row-major order
    if len(first):
        i, j = divmod(int(first[0]), n)
        raise CorpusError(f"regions {regions[i].region_id!r} and {regions[j].region_id!r} "
                          "share no word ids")

    sums = np.zeros((n, n))
    for lo in range(0, n, _REGION_BLOCK):
        hi = min(lo + _REGION_BLOCK, n)
        acc = sums[lo:hi, lo:]
        for c in codes:
            acc += padded[c[lo:hi]].take(c[lo:], axis=1)
    values = np.triu(sums / counts, 1)
    values += values.T  # x + 0.0 == x: the mirror copies each entry exactly

    sizes = np.diag(counts)
    skipped = sizes[:, None] + sizes - 2 * counts
    ids = [r.region_id for r in regions]
    rows, cols = np.nonzero(np.triu(skipped, 1))  # row-major (i, j) order
    warnings = [f"{ids[i]}/{ids[j]}: skipped {k} unshared word(s)"
                for i, j, k in zip(rows.tolist(), cols.tolist(), skipped[rows, cols].tolist())]
    return values, warnings


def region_distance(a: RegionLexicon, b: RegionLexicon, metric: str = "tone2vec") -> float:
    """Mean transcription distance over the word ids shared by two regions."""
    values, _ = _pairwise((a, b), metric)
    return float(values[0, 1])


def region_distance_matrix(corpus: DialectCorpus, metric: str = "tone2vec"
                           ) -> tuple[DistanceMatrix, list[str]]:
    """Pairwise region distances plus warnings for skipped unshared words."""
    if len(corpus.regions) < 2:
        raise InputError("pairwise analysis needs at least 2 regions")
    values, warnings = _pairwise(corpus.regions, metric)
    return DistanceMatrix(corpus.region_ids, values), warnings


def dialect_cluster_pipeline(corpus: DialectCorpus, metric: str = "tone2vec",
                             linkage: str = "mv") -> dict:
    """Cluster regions into two groups and score against gold labels if present.

    ``linkage="all"`` runs all seven linkage methods and reports each.
    Returns a JSON-ready dict: metric, k, per-linkage labels and accuracy,
    and coverage warnings.
    """
    if len(corpus.regions) < 3:
        raise InputError("dialect clustering needs at least 3 regions")
    names = LINKAGES if linkage == "all" else (linkage,)
    for name in names:
        if name not in LINKAGES:
            raise InputError(f"unknown linkage {name!r}; choose one of {LINKAGES} or 'all'")
    matrix, warnings = region_distance_matrix(corpus, metric)
    gold = corpus.gold_labels()

    results = {}
    for name in names:
        dendrogram = clustering.hierarchical_cluster(matrix, name)
        assignment = clustering.cut_tree(dendrogram, 2)
        accuracy = None
        if gold is not None:
            accuracy = clustering.two_cluster_accuracy(assignment, gold)
        results[name] = {
            "labels": dict(zip(corpus.region_ids, assignment.labels)),
            "accuracy": accuracy,
        }
    return {
        "metric": metric,
        "k": 2,
        "linkages": results,
        "coverage_warnings": warnings,
    }


@dataclass(frozen=True)
class Embedding1D:
    """One MDS coordinate per region; defined up to sign and translation."""

    region_ids: tuple[str, ...]
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coords, dtype=float).reshape(-1)
        object.__setattr__(self, "coords", arr)
        if len(arr) != len(self.region_ids):
            raise InputError("coordinate count does not match region count")
        if not np.all(np.isfinite(arr)):
            raise InputError("embedding coordinates must be finite")


def dialect_variance_map(corpus: DialectCorpus, metric: str = "tone2vec") -> Embedding1D:
    """1-D MDS embedding of the region distance matrix."""
    matrix, _ = region_distance_matrix(corpus, metric)
    coords = clustering.classical_mds(matrix, dims=1)
    return Embedding1D(corpus.region_ids, coords[:, 0])
