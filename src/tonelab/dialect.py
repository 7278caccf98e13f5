"""Corpus ingestion and the cross-dialect analysis pipelines."""
from __future__ import annotations

import os
from dataclasses import dataclass

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


_MISSING = 150  # the code of an unattested word: row and column 150 of the padded table
_REGION_BLOCK = 64  # regions per accumulator block in region_distance_matrix


def region_distance_matrix(corpus: DialectCorpus, metric: str = "tone2vec"
                           ) -> tuple[DistanceMatrix, np.ndarray]:
    """Mean distance over shared word ids for every region pair, plus the
    shared-word counts: an n x n float64 array of the word ids each pair shares,
    with each region's own word count on the diagonal (exact integers).

    The corpus becomes a word-major array of canonical codes, one row per word
    id in sorted order and one column per region (_MISSING where the word is
    not attested). The metric's table is padded with a zero row and column for
    that code. For each block of _REGION_BLOCK regions, the distances of every
    word are added into one accumulator, word by word from +0.0, so each pair
    adds its shared words left to right in sorted word-id order and every other
    word adds an exact 0.0: each entry is the plain sum of its pair's distances
    divided by their count.
    """
    regions = corpus.regions
    if len(regions) < 2:
        raise InputError("pairwise analysis needs at least 2 regions")
    padded = np.zeros((_MISSING + 1, _MISSING + 1))
    padded[:_MISSING, :_MISSING] = _metric_table(metric)
    words = sorted(set().union(*(r.entries for r in regions)))
    row_of = {w: k for k, w in enumerate(words)}
    n = len(regions)
    codes = np.full((len(words), n), _MISSING, dtype=np.intp)
    for col, region in enumerate(regions):
        codes[[row_of[w] for w in region.entries], col] = [
            tones._CODES[t.digits] for t in region.entries.values()]
    # Shared words of each pair. The product runs in float64, because numpy has no
    # BLAS path for int64; every partial sum is an integer below 2**53, so the
    # counts are exact, and symmetric with a nonzero diagonal: the first zero is above it.
    present = (codes != _MISSING).astype(float)
    counts = present.T @ present
    first = np.flatnonzero(counts == 0)
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
        sums[hi:, lo:hi] = acc[:, hi - lo:].T  # acc's square is already symmetric, as the table is
    np.divide(sums, counts, out=sums)
    return DistanceMatrix(corpus.region_ids, sums), counts


def _coverage_warnings(ids: tuple[str, ...], shared: np.ndarray) -> list[str]:
    """One line per region pair with unshared words, in row-major (i < j) order,
    from region_distance_matrix's shared-word counts."""
    sizes, warnings = np.diag(shared), []
    for i in range(len(ids) - 1):
        skipped = sizes[i] + sizes[i + 1:] - 2 * shared[i, i + 1:]
        cols = np.flatnonzero(skipped)
        warnings += [f"{ids[i]}/{ids[j]}: skipped {k} unshared word(s)" for j, k in zip(
            (cols + i + 1).tolist(), skipped[cols].astype(np.int64).tolist())]
    return warnings


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
    matrix, shared = region_distance_matrix(corpus, metric)
    warnings = _coverage_warnings(corpus.region_ids, shared)
    del shared  # n x n, and the linkages do not need it
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
