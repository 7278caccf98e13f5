"""tonelab: pitch-based tone representations and cross-dialect tone analysis.

Tone transcriptions on the five-level scale (2-3 digits in 1..5) map to
simulated pitch curves; the area between two curves is a fine-grained tone
distance. On top of that sit automatic transcription from audio (F0
extraction, a quadratic-fit baseline, and a small trainable regressor),
tone-category discovery by density clustering, and dialect-level clustering
and variance analysis.
"""

__version__ = "0.1.0"

import importlib

# Each public name and the submodule it lives in. Submodules load on first
# use (PEP 562), so ``import tonelab`` and ``tonelab --help`` load no numpy.
_EXPORTS = {
    "cluster": ("ClusterAssignment", "Dendrogram", "LINKAGES", "NOISE", "classical_mds",
                "cut_tree", "dbscan", "hierarchical_cluster", "two_cluster_accuracy"),
    "dialect": ("DialectCorpus", "RegionLexicon", "dialect_cluster_pipeline", "load_corpus",
                "region_distance_matrix"),
    "errors": ("AudioError", "CorpusError", "InputError", "ToneLabError",
               "TranscriptionError", "VoicingError"),
    "learn": ("LinearToneModel", "ToneClusteringResult", "decode_transcription", "embed",
              "f0_baseline_transcribe", "linearity_margin", "pitch_distance",
              "pitch_distance_subgradient", "pitch_loss", "tone_clustering_pipeline",
              "train_tone_model"),
    "pitch": ("AudioClip", "F0Track", "contour_feature", "extract_f0", "f0_baseline_triple",
              "read_wav"),
    "tones": ("DistanceMatrix", "NormalizedContour", "PitchCurve", "Transcription",
              "build_distance_matrix", "canonical_transcriptions", "categorical_distance",
              "curve_of", "normalize_contour", "parse_transcription", "relative_pitch",
              "tone_distance", "tone_distance_database", "variance_metric"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
