"""Pitch-triple loss, its subgradient, the transcription decoder (also behind
the quadratic-fit F0 baseline), a small trainable contour-to-transcription
regressor, and tone-category discovery from clips embedded by it.

A model predicts three pitch levels z = (z1, z2, z3), each in [1, 5]. Labels
are transcriptions of length 2 or 3. The loss compares z against the label's
three pitch points, treating a 2-digit label as a line whose implied middle
point is the endpoint midpoint. The decoder emits a 2-digit transcription
when z is nearly collinear and a 3-digit one otherwise.
"""
from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import cluster as clustering
from . import pitch as pitchmod
from ._defaults import DEFAULT_BETA
from .errors import InputError, naming
from .tones import Transcription, _json, _reading, _write_text

PitchTriple = tuple[float, float, float]

_MODEL_FORMAT = "tonelab-linear-tone-model"
_MODEL_VERSION = 1


def _label_points(y: Transcription) -> tuple[float, float, float]:
    """Label as three pitch points; 2-digit labels get a midpoint middle."""
    if len(y.digits) == 3:
        return (float(y.digits[0]), float(y.digits[1]), float(y.digits[2]))
    p, q = y.digits
    return (float(p), (p + q) / 2.0, float(q))


def pitch_distance(z: Sequence[float], y: Transcription) -> float:
    """L1 distance between a predicted pitch triple and a label transcription."""
    z1, z2, z3 = z
    t1, t2, t3 = _label_points(y)
    return abs(z1 - t1) + abs(z2 - t2) + abs(z3 - t3)


def pitch_loss(batch: Sequence[tuple[Sequence[float], Transcription]]) -> float:
    """Sum of pitch_distance over a nonempty batch of (triple, label) pairs."""
    if len(batch) == 0:
        raise InputError("pitch_loss requires a nonempty batch")
    return sum(pitch_distance(z, y) for z, y in batch)


def pitch_distance_subgradient(z: Sequence[float], y: Transcription) -> np.ndarray:
    """Subgradient of pitch_distance with respect to z.

    Each component is the sign of its absolute-value argument; 0 at the
    nondifferentiable points.
    """
    targets = _label_points(y)
    return np.array([float(np.sign(zi - ti)) for zi, ti in zip(z, targets)])


def linearity_margin(z: Sequence[float]) -> float:
    """|z1 + z3 - 2*z2|: how far the triple is from a straight line."""
    z1, z2, z3 = z
    return abs(z1 + z3 - 2.0 * z2)


def decode_transcription(z: Sequence[float], beta: float = DEFAULT_BETA) -> Transcription:
    """Round a pitch triple to a transcription.

    Near-collinear triples (linearity margin < beta) yield the 2-digit tone
    (round(z1), round(z3)); all others keep the middle point. Rounding is
    half-away-from-zero; digits are clamped to 1..5.
    """
    if not beta > 0:
        raise InputError("beta must be positive")
    z1, z2, z3 = z
    if linearity_margin(z) < beta:
        digits = (z1, z3)
    else:
        digits = (z1, z2, z3)
    # Pitch levels are positive, so half-away-from-zero is floor(v + 0.5).
    return Transcription(tuple(min(5, max(1, int(math.floor(v + 0.5)))) for v in digits))


def f0_baseline_transcribe(track: pitchmod.F0Track, beta: float = DEFAULT_BETA) -> Transcription:
    """Quadratic-fit baseline: transcribe a tone directly from its F0 track."""
    return decode_transcription(pitchmod.f0_baseline_triple(track), beta)


def _as_feature_array(x) -> np.ndarray:
    values = getattr(x, "values", x)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"feature must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LinearToneModel:
    """Affine map squashed into the pitch range: z = 1 + 4*sigmoid(W x + b).

    ``loss_history`` records the training loss per epoch (informational; not
    serialized).
    """

    weights: np.ndarray  # (3, K)
    bias: np.ndarray  # (3,)
    loss_history: tuple[float, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        # contour features have K >= 2 points
        if w.ndim != 2 or w.shape[0] != 3 or w.shape[1] < 2 or b.shape != (3,):
            raise InputError(f"expected (3, K >= 2) weights and (3,) bias, got {w.shape}, {b.shape}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def to_json(self) -> str:
        payload = {
            "format": _MODEL_FORMAT,
            "version": _MODEL_VERSION,
            "n_features": self.n_features,
            "weights": [list(row) for row in self.weights],
            "bias": list(self.bias),
            "squash": {"offset": 1.0, "scale": 4.0},
        }
        return _json(payload)

    def save(self, path: str | os.PathLike) -> None:
        _write_text(self.to_json(), path)

    @classmethod
    def from_json(cls, text: str) -> "LinearToneModel":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"model file is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputError(f"model file must hold a JSON object, got {type(payload).__name__}")
        if payload.get("format") != _MODEL_FORMAT:
            raise InputError(f"unrecognized model format {payload.get('format')!r}")
        if payload.get("version") != _MODEL_VERSION:
            raise InputError(f"unsupported model version {payload.get('version')!r}")
        try:
            weights, bias = (np.array(payload[key], dtype=float) for key in ("weights", "bias"))
        except KeyError as exc:
            raise InputError(f"model file lacks {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"model weights and bias must be numeric arrays: {exc}") from exc
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise InputError("model weights and bias must be finite")
        return cls(weights, bias)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "LinearToneModel":
        with _reading(path, "model file") as fh:
            text = fh.read()
        with naming(str(path)):
            return cls.from_json(text)


def embed(model: LinearToneModel, x) -> PitchTriple:
    """Forward pass: the predicted pitch triple for one feature vector."""
    arr = _as_feature_array(x)
    if arr.shape[0] != model.n_features:
        raise InputError(
            f"feature length {arr.shape[0]} does not match model ({model.n_features})"
        )
    u = model.weights @ arr + model.bias
    z = 1.0 + 4.0 / (1.0 + np.exp(-u))
    return (float(z[0]), float(z[1]), float(z[2]))


def train_tone_model(
    data: Sequence[tuple[object, Transcription]],
    *,
    lr: float = 0.002,
    epochs: int = 2000,
    seed: int = 0,
    l2: float = 0.0,
) -> LinearToneModel:
    """Fit a LinearToneModel by full-batch subgradient descent on pitch_loss.

    Deterministic for a fixed seed: weights and bias initialize from seeded
    uniform(-0.1, 0.1) draws. Since the loss is piecewise linear the descent
    is not monotone; the parameters with the lowest observed loss are
    returned, so the final training loss never exceeds the initial one.
    """
    if len(data) == 0:
        raise InputError("training data is empty")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    features = [_as_feature_array(x) for x, _ in data]
    labels = [y for _, y in data]
    k = features[0].shape[0]
    for arr in features:
        if arr.shape[0] != k:
            raise InputError("inconsistent feature lengths in training data")
    if len({y.digits for y in labels}) < 2:
        raise InputError("training data needs at least 2 distinct labels")

    x_mat = np.stack(features)  # (n, K)
    targets = np.array([_label_points(y) for y in labels])  # (n, 3)

    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.1, 0.1, size=(3, k))
    bias = rng.uniform(-0.1, 0.1, size=3)

    def forward(w, b):
        u = x_mat @ w.T + b  # (n, 3)
        s = 1.0 / (1.0 + np.exp(-u))
        return s, 1.0 + 4.0 * s

    history = []
    best_loss = math.inf
    best = (weights.copy(), bias.copy())
    for epoch in range(epochs + 1):  # the last pass scores the final parameters
        s, z = forward(weights, bias)
        loss = float(np.abs(z - targets).sum())
        history.append(loss)
        if loss < best_loss:
            best_loss = loss
            best = (weights.copy(), bias.copy())
        if epoch == epochs:
            break
        # dL/du = sign(z - target) * 4 s (1 - s), summed over the batch
        g_u = np.sign(z - targets) * 4.0 * s * (1.0 - s)
        g_w = g_u.T @ x_mat + 2.0 * l2 * weights
        g_b = g_u.sum(axis=0)
        weights = weights - lr * g_w
        bias = bias - lr * g_b
    return LinearToneModel(best[0], best[1], loss_history=tuple(history))


@dataclass(frozen=True)
class ToneClusteringResult:
    """Discovered tone categories for a set of single-syllable clips."""

    assignment: clustering.ClusterAssignment
    decoded: tuple[Transcription, ...]
    categories: tuple[tuple[int, Transcription], ...]  # (cluster id, representative)
    noise: tuple[int, ...]

    @property
    def n_categories(self) -> int:
        return len(self.categories)


def _modal_transcription(candidates: Sequence[Transcription]) -> Transcription:
    counts = Counter(t.digits for t in candidates)
    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Transcription(best[0])


def tone_clustering_pipeline(
    clips: Iterable[pitchmod.AudioClip],
    model: LinearToneModel,
    eps: float = 0.6,
    min_samples: int = 4,
    *,
    beta: float = DEFAULT_BETA,
    sources: Sequence[str] | None = None,
    **f0_options,
) -> ToneClusteringResult:
    """Discover a dialect's tone categories from raw clips.

    Each clip is embedded as a pitch triple, the triples are density-
    clustered, and each cluster is named by the modal decoded transcription
    of its members (ties resolve to the smallest transcription). An all-noise
    result reports zero categories, not an error; in particular, fewer than
    min_samples clips are all noise.

    Clips are embedded one at a time as the iterable yields them, so a
    generator that reads each clip on demand keeps one in memory. An error
    on clip i is prefixed with sources[i] when sources are given.
    """
    triples = []
    decoded = []
    for i, clip in enumerate(clips):
        with naming(None if sources is None else sources[i]):
            track = pitchmod.extract_f0(clip, **f0_options)
            z = embed(model, pitchmod.contour_feature(track, k=model.n_features))
        triples.append(z)
        decoded.append(decode_transcription(z, beta))
    if not triples:
        raise InputError("tone clustering needs at least one clip")

    assignment = clustering.dbscan(np.array(triples), eps, min_samples)
    categories = []
    for cid in sorted(set(assignment.labels) - {clustering.NOISE}):
        members = [decoded[i] for i, l in enumerate(assignment.labels) if l == cid]
        categories.append((cid, _modal_transcription(members)))
    noise = tuple(i for i, l in enumerate(assignment.labels) if l == clustering.NOISE)
    return ToneClusteringResult(assignment, tuple(decoded), tuple(categories), noise)
