"""Seeded input generator for the tonelab benchmark.

Every input the benchmark feeds to the CLI is written here, from the
workload seed alone, before any timing starts. This module deliberately
imports neither ``tonelab`` nor the test suite: a change under test must not
be able to change its own inputs.
"""
from __future__ import annotations

import itertools
import os
import wave

import numpy as np

SR = 16000
CLIP_S = 0.4
SEMITONES_PER_LEVEL = 3.0
AUDIO_CLASSES = ("15", "51", "315", "513")


def canonical_tokens() -> list[str]:
    """The 150 five-level transcriptions: 25 two-digit, then 125 three-digit."""
    return ["".join(map(str, d)) for k in (2, 3)
            for d in itertools.product(range(1, 6), repeat=k)]


def pitch_curve(token: str, x: np.ndarray) -> np.ndarray:
    """Pitch level on x in [1, 3]: the line or parabola through the digits."""
    d = [int(c) for c in token]
    if len(d) == 2:
        return d[0] + (d[1] - d[0]) * (x - 1.0) / 2.0
    return d[0] * (x - 2) * (x - 3) / 2 - d[1] * (x - 1) * (x - 3) + d[2] * (x - 1) * (x - 2) / 2


def write_clip(path: str, token: str, rng: np.random.Generator) -> None:
    """16 kHz int16 sine sweep along the token's curve, jittered base F0, noise."""
    n = int(CLIP_S * SR)
    base_hz = rng.uniform(150.0, 230.0)
    f0 = base_hz * 2.0 ** ((pitch_curve(token, np.linspace(1.0, 3.0, n)) - 3.0)
                           * SEMITONES_PER_LEVEL / 12.0)
    f0 = f0 * (1.0 + 0.002 * rng.standard_normal(n))
    samples = 0.6 * np.sin(2.0 * np.pi * np.cumsum(f0) / SR)
    samples = np.clip(samples + 0.01 * rng.standard_normal(n), -1.0, 1.0)
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SR)
        fh.writeframes(np.round(samples * 32767.0).astype("<i2").tobytes())


def write_corpus(workdir: str, rng: np.random.Generator, *, regions: int, words: int,
                 coverage: float, differing: float, substitution: float,
                 subgroup: float = 0.0) -> dict:
    """A dialect corpus with a planted two-group split.

    Each word has one form per group; the groups differ on a ``differing``
    share of the words. With ``subgroup`` > 0, about half of group 1 speaks
    a sub-dialect that differs from the rest of group 1 on that share of the
    words, which gives a 2-D embedding a second axis. Every region speaks its
    dialect's forms, replaces each with a random transcription at rate
    ``substitution``, and attests each word at rate ``coverage``. The two
    groups are the gold labels.
    """
    tokens = canonical_tokens()
    form0 = rng.integers(0, len(tokens), words)
    shift = rng.integers(1, len(tokens), words)
    form1 = np.where(rng.random(words) < differing, (form0 + shift) % len(tokens), form0)
    gold = rng.integers(0, 2, regions)
    gold[:2] = (0, 1)  # both groups always exist
    dialects = [form0, form1]
    sub = np.zeros(regions, dtype=bool)
    if subgroup > 0.0:
        shift = rng.integers(1, len(tokens), words)
        dialects.append(np.where(rng.random(words) < subgroup,
                                 (form1 + shift) % len(tokens), form1))
        sub = (gold == 1) & (rng.random(regions) < 0.5)
        sub[2:4] = (False, True)
        gold[2:4] = 1  # both halves of group 1 always exist
    rows = 0
    with open(os.path.join(workdir, "corpus.tsv"), "w", encoding="utf-8") as fh:
        fh.write("region\tword_id\ttranscription\n")
        for r in range(regions):
            forms = dialects[2 if sub[r] else gold[r]]
            subs = rng.random(words) < substitution
            forms = np.where(subs, rng.integers(0, len(tokens), words), forms)
            present = rng.random(words) < coverage
            present[rng.integers(0, words)] = True  # no region is empty
            for w in np.flatnonzero(present):
                fh.write(f"R{r:04d}\tw{w:04d}\t{tokens[forms[w]]}\n")
                rows += 1
    with open(os.path.join(workdir, "gold.tsv"), "w", encoding="utf-8") as fh:
        fh.write("region\tgold_label\n")
        for r in range(regions):
            fh.write(f"R{r:04d}\t{gold[r]}\n")
    return {"regions": regions, "words": words, "corpus_rows": rows,
            "coverage": round(rows / (regions * words), 4),
            "gold_group_sizes": [int((gold == 0).sum()), int((gold == 1).sum())],
            "subgroup_size": int(sub.sum())}


def write_audio(workdir: str, rng: np.random.Generator, *, train_per_class: int,
                clips: int) -> dict:
    """A training manifest and a clip list over the four generating classes."""
    os.makedirs(os.path.join(workdir, "wav"))
    with open(os.path.join(workdir, "train.tsv"), "w", encoding="utf-8") as fh:
        fh.write("wav_path\ttranscription\n")
        for token in AUDIO_CLASSES:
            for i in range(train_per_class):
                name = f"wav/train_{token}_{i:04d}.wav"
                write_clip(os.path.join(workdir, name), token, rng)
                fh.write(f"{name}\t{token}\n")
    labels = rng.permutation(np.arange(clips) % len(AUDIO_CLASSES))
    with open(os.path.join(workdir, "clips.txt"), "w", encoding="utf-8") as fh:
        for i, c in enumerate(labels):
            name = f"wav/clip_{i:05d}.wav"
            write_clip(os.path.join(workdir, name), AUDIO_CLASSES[c], rng)
            fh.write(name + "\n")
    return {"train_clips": train_per_class * len(AUDIO_CLASSES), "clips": clips,
            "classes": list(AUDIO_CLASSES), "sample_rate": SR, "clip_s": CLIP_S}


def write_tokens(workdir: str, rng: np.random.Generator, *, tokens: int) -> dict:
    """Tokens drawn from the 150 transcriptions with repeats allowed."""
    pool = canonical_tokens()
    picks = [pool[i] for i in rng.integers(0, len(pool), tokens)]
    with open(os.path.join(workdir, "tokens.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(picks) + "\n")
    return {"tokens": tokens, "distinct_tokens": len(set(picks))}
