"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances and time budgets are pinned here; loosening them is not an
acceptable way to make a criterion pass.
"""
import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
from scipy.integrate import quad

import tonelab as tl
from .synth import SR, labelled_clip_set, tone_clip
from .test_cluster import brute_force_dbscan, naive_linkage_steps, random_distance_matrix

CRITERIA_TOTAL = 11


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[{num:2d}/{CRITERIA_TOTAL}] FAIL {name}")
        raise
    print(f"[{num:2d}/{CRITERIA_TOTAL}] PASS {name}")


def test_01_golden_distance_and_quadrature_agreement():
    with criterion(1, "golden distance in [2.26, 2.28]; analytic vs quadrature <= 1e-9 "
                      "over all 150x150 pairs; < 1 s"):
        start = time.perf_counter()
        d = tl.tone_distance(tl.parse_transcription("41"), tl.parse_transcription("312"))
        assert 2.26 <= d <= 2.28
        assert f"{d:.2f}" == "2.27"

        db = tl.tone_distance_database()
        transcriptions = tl.canonical_transcriptions()
        curves = [tl.curve_of(t) for t in transcriptions]
        # distances depend only on the coefficient difference, and equal digit
        # deltas produce bit-identical (dyadic) coefficients, so quadrature of
        # each distinct difference polynomial covers every pair exactly
        n = len(curves)
        unique: dict[tuple[float, float, float], float] = {}
        for i in range(n):
            ci = curves[i]
            for j in range(i + 1, n):
                cj = curves[j]
                key = (ci.a - cj.a, ci.b - cj.b, ci.c - cj.c)
                if key not in unique:
                    a, b, c = key
                    edges = np.linspace(1.0, 3.0, 21)
                    unique[key] = sum(
                        quad(lambda x: abs((a * x + b) * x + c), lo, hi,
                             epsabs=1e-13, epsrel=1e-13, limit=100)[0]
                        for lo, hi in zip(edges[:-1], edges[1:])
                    )
        worst = 0.0
        for i in range(n):
            ci = curves[i]
            for j in range(i + 1, n):
                cj = curves[j]
                key = (ci.a - cj.a, ci.b - cj.b, ci.c - cj.c)
                worst = max(worst, abs(db.values[i, j] - unique[key]))
        assert worst <= 1e-9, f"worst analytic-quadrature gap {worst:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_variance_reference_values():
    with criterion(2, "variance metric reproduces the six reference values "
                      "within 5e-4; < 1 s"):
        start = time.perf_counter()
        reference = {"445": 0.0000, "45": 0.1225, "245": 0.1608,
                     "255": 0.2311, "154": 0.2829, "251": 0.5243}
        base = tl.parse_transcription("445")
        for token, expected in reference.items():
            got = tl.variance_metric(base, tl.parse_transcription(token))
            assert abs(got - expected) <= 5e-4, (token, got, expected)
        assert time.perf_counter() - start < 1.0


def test_03_normalization_examples():
    with criterion(3, "normalization: (412) -> (1, 0, 0.333) within 1e-3; "
                      "(25) -> (0, 1) pre-expansion"):
        got = tl.normalize_contour(tl.parse_transcription("412")).values
        for g, e in zip(got, (1.0, 0.0, 0.333)):
            assert abs(g - e) <= 1e-3
        assert tl.relative_pitch(tl.parse_transcription("25")) == (0.0, 1.0)


def test_04_pseudometric_suite():
    with criterion(4, "tone distance: symmetry, zero diagonal, triangle "
                      "inequality over all 150-transcription triples; < 10 s"):
        start = time.perf_counter()
        values = tl.tone_distance_database().values
        assert np.array_equal(values, values.T)
        assert np.all(np.diag(values) == 0.0)
        assert np.all(values >= 0.0)
        # min over k of d(i,k)+d(k,j) covers every ordered triple, which
        # includes all C(150,3) unordered ones
        best_detour = (values[:, :, None] + values[None, :, :]).min(axis=1)
        assert np.all(best_detour >= values - 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_05_clustering_oracles():
    with criterion(5, "7 linkages match the naive recompute oracle on 200 seeded "
                      "matrices; dbscan matches brute force on 100 seeded point sets"):
        rng = np.random.default_rng(20250)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            dm = random_distance_matrix(rng, n)
            for linkage in tl.LINKAGES:
                mine = tl.hierarchical_cluster(dm, linkage).steps
                ref = naive_linkage_steps(dm.values, linkage)
                for (a, b, h, s), (ra, rb, rh, rs) in zip(mine, ref):
                    assert (a, b, s) == (ra, rb, rs), (linkage, mine, ref)
                    assert abs(h - rh) <= 1e-8

        rng = np.random.default_rng(31337)
        for _ in range(100):
            n = int(rng.integers(5, 201))
            dim = int(rng.integers(1, 4))
            k_centers = int(rng.integers(1, 6))
            centers = rng.uniform(-6, 6, size=(k_centers, dim))
            pts = centers[rng.integers(0, k_centers, n)] + rng.normal(0, 0.5, (n, dim))
            eps = float(rng.uniform(0.3, 1.5))
            min_samples = int(rng.integers(2, 10))
            assert tl.dbscan(pts, eps, min_samples).labels == \
                brute_force_dbscan(pts, eps, min_samples)


def test_06_mds_recovers_one_dimensional_configurations():
    with criterion(6, "1-D MDS of 50 seeded 1-D point sets: |Pearson r| > 0.9999"):
        rng = np.random.default_rng(606)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            xs = rng.uniform(-10.0, 10.0, n)
            while np.ptp(xs) == 0.0:
                xs = rng.uniform(-10.0, 10.0, n)
            d = np.abs(xs[:, None] - xs[None, :])
            dm = tl.DistanceMatrix(tuple(map(str, range(n))), d)
            coords = tl.classical_mds(dm, 1).ravel()
            assert abs(np.corrcoef(xs, coords)[0, 1]) > 0.9999


def test_07_decoder_contract():
    with criterion(7, "decoder: 10,000 seeded triples, 2 digits iff linearity "
                      "margin < beta, all digits in 1..5"):
        rng = np.random.default_rng(707)
        beta = 0.5
        for _ in range(10000):
            z = tuple(rng.uniform(1.0, 5.0, 3))
            t = tl.decode_transcription(z, beta)
            assert all(1 <= d <= 5 for d in t.digits)
            assert (len(t) == 2) == (abs(z[0] + z[2] - 2 * z[1]) < beta)


def test_08_subgradient_and_label_expansion():
    with criterion(8, "subgradient matches central differences (1e-5) at 1,000 "
                      "points; 2-digit rule equals midpoint expansion to 1e-12"):
        rng = np.random.default_rng(808)
        tokens = [t.token for t in tl.canonical_transcriptions()]
        h = 1e-6

        def targets(y):
            if len(y) == 3:
                return tuple(map(float, y.digits))
            p, q = y.digits
            return (float(p), (p + q) / 2.0, float(q))

        checked = 0
        while checked < 1000:
            z = tuple(rng.uniform(1.0, 5.0, 3))
            y = tl.parse_transcription(tokens[rng.integers(len(tokens))])
            if min(abs(zi - ti) for zi, ti in zip(z, targets(y))) < 1e-4:
                continue
            grad = tl.pitch_distance_subgradient(z, y)
            for i in range(3):
                zp, zm = list(z), list(z)
                zp[i] += h
                zm[i] -= h
                fd = (tl.pitch_distance(zp, y) - tl.pitch_distance(zm, y)) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-5
            checked += 1

        two_digit = [t for t in tokens if len(t) == 2]
        for _ in range(1000):
            z = tuple(rng.uniform(1.0, 5.0, 3))
            y = tl.parse_transcription(two_digit[rng.integers(len(two_digit))])
            p, q = y.digits
            expanded = abs(z[0] - p) + abs(z[1] - (p + q) / 2) + abs(z[2] - q)
            assert abs(tl.pitch_distance(z, y) - expanded) <= 1e-12


def test_09_f0_tracking():
    with criterion(9, "440 Hz sine within 1 Hz on >= 95% of voiced frames; "
                      "120->240 Hz glide within 3% per frame"):
        t = np.arange(int(0.5 * SR)) / SR
        sine = tl.AudioClip(0.6 * np.sin(2 * np.pi * 440.0 * t), SR)
        track = tl.extract_f0(sine)
        voiced = track.f0[track.voiced_mask]
        assert len(voiced) > 0
        assert np.mean(np.abs(voiced - 440.0) < 1.0) >= 0.95

        duration = 0.5
        f_inst = 120.0 + 120.0 * (np.arange(int(duration * SR)) / SR) / duration
        glide = tl.AudioClip(0.6 * np.sin(2 * np.pi * np.cumsum(f_inst) / SR), SR)
        gtrack = tl.extract_f0(glide)
        assert gtrack.n_voiced > 10
        for ti, fi in zip(gtrack.times, gtrack.f0):
            if fi > 0:
                true = 120.0 + 120.0 * ti / duration
                assert abs(fi - true) / true < 0.03


CLASSES = ("15", "51", "315", "513")


def _features_for(clips_with_labels):
    return [
        (tl.contour_feature(tl.extract_f0(clip)), label)
        for clip, label in clips_with_labels
    ]


def test_10a_training_on_synthetic_corpus():
    with criterion(10, "(a) 200-clip synthetic corpus trains to >= 90% held-out "
                       "decoded accuracy in < 60 s"):
        start = time.perf_counter()
        data = _features_for(labelled_clip_set(list(CLASSES), per_class=50, seed=1001))
        rng = np.random.default_rng(10)
        order = rng.permutation(len(data))
        held_out = [data[i] for i in order[:40]]
        training = [data[i] for i in order[40:]]
        model = tl.train_tone_model(training, lr=0.002, epochs=2000, seed=7)
        hits = sum(
            1 for f, y in held_out
            if tl.decode_transcription(tl.embed(model, f)) == y
        )
        elapsed = time.perf_counter() - start
        assert hits / len(held_out) >= 0.90, f"accuracy {hits / len(held_out):.2%}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_10b_tone_category_discovery():
    with criterion(10, "(b) 60 synthetic clips cluster into exactly 4 categories "
                       "matching the generating transcriptions"):
        data = _features_for(labelled_clip_set(list(CLASSES), per_class=30, seed=1002))
        model = tl.train_tone_model(data, lr=0.002, epochs=2000, seed=7)
        rng = np.random.default_rng(1003)
        clips = []
        for token in CLASSES:
            for _ in range(15):
                clips.append(tone_clip(token, base_hz=rng.uniform(150.0, 230.0), rng=rng))
        result = tl.tone_clustering_pipeline(clips, model, eps=0.6, min_samples=4)
        assert result.n_categories == 4
        assert sorted(rep.token for _, rep in result.categories) == sorted(CLASSES)


def test_10c_dialect_pipeline_perfect_split():
    with criterion(10, "(c) six-region constructed corpus clusters at accuracy 1.0 "
                       "with minimum-variance linkage"):
        from .test_dialect import six_region_corpus

        report = tl.dialect_cluster_pipeline(six_region_corpus(), metric="tone2vec",
                                             linkage="mv")
        assert report["linkages"]["mv"]["accuracy"] == 1.0


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "tonelab", *args],
        cwd=cwd, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_11_cli_determinism(tmp_path):
    with criterion(11, "every CLI subcommand is byte-identical across repeated "
                       "runs with a fixed seed"):
        from scipy.io import wavfile

        rng = np.random.default_rng(42)
        manifest_rows = ["wav_path\ttranscription"]
        wav_names = []
        for token in CLASSES:
            for i in range(4):
                name = f"{token}_{i}.wav"
                clip = tone_clip(token, base_hz=rng.uniform(150.0, 230.0), rng=rng)
                wavfile.write(tmp_path / name,
                              clip.sample_rate, (clip.samples * 32767).astype(np.int16))
                manifest_rows.append(f"{name}\t{token}")
                wav_names.append(name)
        (tmp_path / "train.tsv").write_text("\n".join(manifest_rows) + "\n")
        (tmp_path / "corpus.tsv").write_text("\n".join([
            "region\tword_id\ttranscription",
            *(f"{r}\tw{i}\t{tok}" for r, toks in
              [("A", ["55", "35", "214"]), ("B", ["55", "35", "213"]),
               ("E", ["45", "35", "214"]), ("C", ["11", "53", "415"]),
               ("D", ["11", "53", "425"]), ("F", ["12", "53", "415"])]
              for i, tok in enumerate(toks)),
        ]) + "\n")
        (tmp_path / "gold.tsv").write_text(
            "region\tgold_label\nA\t0\nB\t0\nE\t0\nC\t1\nD\t1\nF\t1\n")

        invocations = [
            (["dist", "41", "312"], []),
            (["dist", "--matrix", "-o", "db.csv"], ["db.csv"]),
            (["variance", "445", "45"], []),
            (["transcribe", f"{CLASSES[0]}_0.wav", "--json", "--f0-csv", "track.csv"],
             ["track.csv"]),
            (["train", "--data", "train.tsv", "--out", "model.json", "--seed", "3",
              "--epochs", "800"], ["model.json"]),
            (["cluster-tones", *wav_names, "--model", "model.json",
              "--out-csv", "clusters.csv"], ["clusters.csv"]),
            (["dialect-cluster", "--corpus", "corpus.tsv", "--gold", "gold.tsv",
              "--linkage", "all", "--out-csv", "regions.csv"], ["regions.csv"]),
            (["dialect-mds", "--corpus", "corpus.tsv", "-o", "mds.csv"], ["mds.csv"]),
        ]
        json_stdout = {"transcribe", "train", "cluster-tones", "dialect-cluster"}
        for args, outputs in invocations:
            first_stdout = _run_cli(args, tmp_path)
            if args[0] in json_stdout:  # strict JSON: NaN and Infinity are refused
                json.loads(first_stdout, parse_constant=_reject_constant)
            first_files = {f: (tmp_path / f).read_bytes() for f in outputs}
            second_stdout = _run_cli(args, tmp_path)
            second_files = {f: (tmp_path / f).read_bytes() for f in outputs}
            assert first_stdout == second_stdout, args
            assert first_files == second_files, args
