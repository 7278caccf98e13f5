"""Run one tonelab CLI command with spans around the package's layers.

Usage: python traced.py TRACE_JSON ARG...

Runs ``tonelab.cli.main(ARG...)`` in this process. Before that it replaces
the module attributes the package's own call sites look up at call time with
wrappers that record a span per call: id, parent id, name, start and end
(``time.perf_counter`` seconds). Counts come from the calls' arguments and
return values, never from wrapping per-pair scalars. Spans and counts stay in
memory and are written to TRACE_JSON when the command ends. The exit code is
the command's.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

SPANS: list[list] = []  # [id, parent, name, start, end, linkage or None]
COUNTS: dict[str, float] = {}
_stack: list[int] = []


class span:
    def __init__(self, name: str, linkage: str | None = None) -> None:
        self.record = [len(SPANS), _stack[-1] if _stack else None, name, 0.0, 0.0, linkage]

    def __enter__(self):
        SPANS.append(self.record)
        _stack.append(self.record[0])
        self.record[3] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record[4] = time.perf_counter()
        _stack.pop()


def count(name: str, value: float) -> None:
    COUNTS[name] = COUNTS.get(name, 0) + value


def wrap(owner, attr: str, name: str, after=None, linkage_arg: int | None = None) -> None:
    """Replace ``owner.attr`` by a spanned call; ``after(args, kwargs, result)`` counts."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        linkage = None
        if linkage_arg is not None:
            linkage = args[linkage_arg] if len(args) > linkage_arg else kwargs.get("linkage")
        with span(name, linkage):
            result = fn(*args, **kwargs)
        if after is not None:
            with span("trace.count"):
                after(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def _count_region_pairs(args, kwargs, result) -> None:
    import numpy as np

    regions = args[0].regions
    words = sorted({w for r in regions for w in r.entries})
    index = {w: i for i, w in enumerate(words)}
    present = np.zeros((len(regions), len(words)), dtype=np.int64)
    for row, region in enumerate(regions):
        present[row, [index[w] for w in region.entries]] = 1
    shared = present @ present.T
    n = len(regions)
    count("dialect.region_pairs", n * (n - 1) // 2)
    count("dialect.word_comparisons", int(np.triu(shared, 1).sum()))


def _count_merges(args, kwargs, dendrogram) -> None:
    heights = [step[2] for step in dendrogram.steps]
    count("cluster.merges", len(heights))
    count("cluster.linkage_inversions", sum(b < a for a, b in zip(heights, heights[1:])))


def _count_frames(args, kwargs, track) -> None:
    count("pitch.frames", len(track.f0))
    count("pitch.voiced_frames", track.n_voiced)


def _count_training(args, kwargs, model) -> None:
    history = model.loss_history
    count("learn.epochs", kwargs.get("epochs", len(history) - 1))
    count("learn.best_epoch", min(range(len(history)), key=history.__getitem__))


def _count_tokens(args, kwargs, result) -> None:
    n = len(args[0])
    count("tones.pairs", n * (n - 1) // 2)


def install() -> None:
    from tonelab import cluster, dialect, learn, pitch, tones

    wrap(dialect, "load_corpus", "dialect.load_corpus",
         lambda a, k, corpus: count("dialect.corpus_rows", sum(len(r) for r in corpus.regions)))
    wrap(dialect, "region_distance_matrix", "dialect.region_distance_matrix", _count_region_pairs)
    wrap(cluster, "hierarchical_cluster", "cluster.hierarchical_cluster", _count_merges,
         linkage_arg=1)
    wrap(cluster, "cut_tree", "cluster.cut_tree")
    wrap(cluster, "classical_mds", "cluster.classical_mds")
    wrap(pitch, "read_wav", "pitch.read_wav", lambda a, k, r: count("pitch.read_wav_calls", 1))
    wrap(pitch, "extract_f0", "pitch.extract_f0", _count_frames)
    wrap(pitch, "contour_feature", "pitch.contour_feature")
    wrap(learn, "train_tone_model", "learn.train_tone_model", _count_training)
    wrap(learn, "embed", "learn.embed")
    wrap(learn, "decode_transcription", "learn.decode_transcription")
    wrap(tones, "build_distance_matrix", "tones.build_distance_matrix", _count_tokens)
    wrap(tones, "tone_distance_database", "tones.tone_distance_database")
    wrap(tones.DistanceMatrix, "to_csv", "tones.to_csv")

    # dbscan's peak allocation comes from a second call under tracemalloc:
    # tracing allocations slows its Python loop ~20x, so the timed call runs
    # untraced. The second call, like all counting, sits in a "trace.count"
    # span, outside the layers' times and cli.main's self time.
    dbscan = cluster.dbscan

    def count_dbscan(args, kwargs, assignment) -> None:
        tracemalloc.start()
        try:
            dbscan(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        COUNTS["cluster.dbscan_peak_mb"] = max(COUNTS.get("cluster.dbscan_peak_mb", 0),
                                               peak / 2**20)
        count("cluster.dbscan_points", len(assignment.labels))
        count("cluster.dbscan_noise", assignment.labels.count(cluster.NOISE))

    wrap(cluster, "dbscan", "cluster.dbscan", count_dbscan)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    code = 1
    try:
        with span("cli.import"):
            import tonelab
            import tonelab.cli
        install()
        with span("cli.main"):
            code = tonelab.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": SPANS, "counts": COUNTS}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
