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
import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import pitch as pitchmod
from ._defaults import DEFAULT_BETA
from .errors import InputError, naming
from .tones import Transcription, _json, _reading, _write

if TYPE_CHECKING:
    from .cluster import ClusterAssignment

PitchTriple = tuple[float, float, float]

_MODEL_FORMAT = "tonelab-linear-tone-model"
_MODEL_VERSION = 1
_OFFSET, _SCALE = 1.0, 4.0  # z = _OFFSET + _SCALE * sigmoid(u), in [1, 5]
_SQUASH = {"offset": _OFFSET, "scale": _SCALE}  # what model files declare


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
    arr = np.asarray(x, dtype=float)
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
            "squash": _SQUASH,
        }
        return "".join(_json(payload))

    def save(self, path: str | os.PathLike) -> None:
        _write((self.to_json(),), path)

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
        model = cls(weights, bias)
        if payload.get("n_features", model.n_features) != model.n_features:
            raise InputError(f"model n_features {payload['n_features']!r} does not match "
                             f"its {model.n_features} weight columns")
        if payload.get("squash", _SQUASH) != _SQUASH:
            raise InputError(f"model squash {payload['squash']!r} is not the one applied, {_SQUASH}")
        return model

    @classmethod
    def load(cls, path: str | os.PathLike) -> "LinearToneModel":
        with _reading(path, "model file") as fh:
            text = fh.read()
        with naming(str(path)):
            return cls.from_json(text)


def _squash(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, z): the sigmoid of the pre-activations u and the pitch levels it gives.
    exp(-u) overflows to inf below u = -709, where 1 / (1 + inf) is exactly 0:
    callers ignore that overflow."""
    s = 1.0 / (1.0 + np.exp(-u))
    return s, _OFFSET + _SCALE * s


def embed(model: LinearToneModel, x) -> PitchTriple:
    """Forward pass: the predicted pitch triple for one feature vector, the z of
    _squash, bit for bit 1 + 4 / (1 + exp(-(W x + b)))."""
    arr = _as_feature_array(x)
    if arr.shape[0] != model.n_features:
        raise InputError(
            f"feature length {arr.shape[0]} does not match model ({model.n_features})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        u = model.weights @ arr + model.bias
        _, z = _squash(u)
    if np.isnan(u).any():  # inf - inf in W x; a +-inf u still squashes to 5 or 1
        raise InputError("model output is not a number: its weights overflow on this input")
    return (float(z[0]), float(z[1]), float(z[2]))


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """One of SeedSequence's 32-bit hashes; the constant advances on every call."""
    def hashed(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashed


def _mix(x: int, y: int) -> int:
    value = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return value ^ value >> 16


def _uniform_draws(seed: int, count: int, low: float, high: float) -> list[float]:
    """The first count values of numpy's default_rng(seed).uniform(low, high), bit for bit.

    SeedSequence hashes the seed's little-endian 32-bit words into a 4-word
    pool, and generate_state(4, uint64) expands the pool into PCG64's
    128-bit initstate and initseq. Each draw is a 64-bit XSL-RR output whose
    top 53 bits make a double in [0, 1). Pure Python, so that train does not
    load numpy's random package (~6 MB) and the model bytes for a seed do
    not depend on how the installed numpy maps its stream to uniform().
    """
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:  # seeds of 2**128 and above
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    expand = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [expand(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2))
    inc = (s2 << 64 | s3) << 1 & _M128 | 1
    state = (inc + (s0 << 64 | s1)) * _PCG64_MULT + inc & _M128  # pcg64_set_seed
    out = []
    for _ in range(count):
        state = state * _PCG64_MULT + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append(low + (high - low) * ((x >> 11) * 2.0 ** -53))
    return out


def train_tone_model(
    data: Sequence[tuple[object, Transcription]],
    *,
    lr: float = 0.002,
    epochs: int = 2000,
    seed: int = 0,
    l2: float = 0.0,
) -> LinearToneModel:
    """Fit a LinearToneModel by full-batch subgradient descent on pitch_loss.

    Deterministic for a fixed seed: weights, then bias, take the first 3K+3
    draws of numpy's default_rng(seed).uniform(-0.1, 0.1). Since the loss is
    piecewise linear the descent is not monotone; the parameters with the
    lowest observed loss are returned, so the final training loss never
    exceeds the initial one.
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

    draws = np.array(_uniform_draws(operator.index(seed), 3 * k + 3, -0.1, 0.1))
    weights, bias = draws[:-3].reshape(3, k), draws[-3:]

    history = []
    best_loss = math.inf
    best = (weights.copy(), bias.copy())
    # _squash's overflow, and the NaN of a diverging step, set once and not per epoch
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs + 1):  # the last pass scores the final parameters
            s, z = _squash(x_mat @ weights.T + bias)  # (n, 3)
            loss = float(np.abs(z - targets).sum())
            history.append(loss)
            if loss < best_loss:
                best_loss = loss
                best = (weights.copy(), bias.copy())
            if epoch == epochs:
                break
            # dL/du = sign(z - target) * _SCALE s (1 - s), summed over the batch
            g_u = np.sign(z - targets) * _SCALE * s * (1.0 - s)
            g_w = g_u.T @ x_mat + 2.0 * l2 * weights
            g_b = g_u.sum(axis=0)
            weights = weights - lr * g_w
            bias = bias - lr * g_b
    return LinearToneModel(best[0], best[1], loss_history=tuple(history))


@dataclass(frozen=True)
class ToneClusteringResult:
    """Discovered tone categories for a set of single-syllable clips."""

    assignment: ClusterAssignment
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

    from . import cluster as clustering  # only this pipeline clusters; train need not load it

    assignment = clustering.dbscan(np.array(triples), eps, min_samples)
    members: dict[int, list[int]] = {}  # clip indices by label, ascending
    for i, label in enumerate(assignment.labels):
        members.setdefault(label, []).append(i)
    noise = tuple(members.pop(clustering.NOISE, ()))
    categories = tuple((cid, _modal_transcription([decoded[i] for i in members[cid]]))
                       for cid in sorted(members))
    return ToneClusteringResult(assignment, tuple(decoded), categories, noise)
