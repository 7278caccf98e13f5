import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from tonelab import AudioClip, LinearToneModel
from tonelab.cli import main
from .synth import SR, tone_clip


def write_wav(path, clip):
    wavfile.write(path, clip.sample_rate, (clip.samples * 32767).astype(np.int16))
    return str(path)


@pytest.fixture
def rise_wav(tmp_path):
    return write_wav(tmp_path / "rise.wav", tone_clip("15"))


@pytest.fixture
def flat_wav(tmp_path):
    # 200 Hz at a 160-sample hop: every frame is phase-identical, so the
    # track is exactly constant and maps to the mid-scale level tone
    t = np.arange(int(0.4 * SR)) / SR
    path = tmp_path / "flat.wav"
    wavfile.write(path, SR, (0.6 * np.sin(2 * np.pi * 200.0 * t) * 32767).astype(np.int16))
    return str(path)


@pytest.fixture
def corpus_tsv(tmp_path):
    rows = ["region\tword_id\ttranscription"]
    layout = {
        "A": ["55", "35", "214"], "B": ["55", "35", "213"], "E": ["45", "35", "214"],
        "C": ["11", "53", "415"], "D": ["11", "53", "425"], "F": ["12", "53", "415"],
    }
    for region, tokens in layout.items():
        rows += [f"{region}\tw{i}\t{tok}" for i, tok in enumerate(tokens)]
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text(
        "region\tgold_label\nA\t0\nB\t0\nE\t0\nC\t1\nD\t1\nF\t1\n", encoding="utf-8"
    )
    return str(path), str(gold)


# ---------------------------------------------------------------------------
# dist / variance


def test_dist_two_tokens(capsys):
    assert main(["dist", "41", "312"]) == 0
    assert capsys.readouterr().out == "2.268354\n"


def test_dist_identity(capsys):
    assert main(["dist", "55", "55"]) == 0
    assert capsys.readouterr().out == "0.000000\n"


def test_dist_bad_token(capsys):
    assert main(["dist", "41", "96"]) == 2
    assert "96" in capsys.readouterr().err


def test_dist_requires_tokens(capsys):
    assert main(["dist", "41"]) == 2


def test_dist_matrix_file(tmp_path, capsys):
    out = tmp_path / "db.csv"
    assert main(["dist", "--matrix", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 151
    assert lines[0].startswith("label,11,12,")
    assert lines[1].startswith("11,0.000000,")


def test_dist_tokens_file(tmp_path, capsys):
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("41\n312\n", encoding="utf-8")
    assert main(["dist", "--tokens-file", str(tokens)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "label,41,312"
    assert out[1] == "41,0.000000,2.268354"


def test_dist_csv_equals_the_per_entry_writer(tmp_path, capsys):
    # dist streams the rows it formats: stdout, -o and --matrix against the frozen writer
    from tonelab import build_distance_matrix, parse_transcription, tone_distance_database
    from .test_tones import ALL_TOKENS, reference_csv

    tokens = [ALL_TOKENS[i] for i in np.random.default_rng(602).integers(0, 150, 300)]
    path = tmp_path / "tokens.txt"
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    expected = reference_csv(build_distance_matrix(list(map(parse_transcription, tokens))))
    assert main(["dist", "--tokens-file", str(path)]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "d.csv"
    assert main(["dist", "--tokens-file", str(path), "-o", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")
    assert main(["dist", "--matrix"]) == 0
    assert capsys.readouterr().out == reference_csv(tone_distance_database())


def test_dist_tokens_file_errors_name_their_line(tmp_path, capsys):
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("41\n\n 61 \n", encoding="utf-8")
    out = tmp_path / "d.csv"
    for to_file in ([], ["-o", str(out)]):  # nothing written, to stdout or to -o
        assert main(["dist", "--tokens-file", str(tokens), *to_file]) == 2
        assert capsys.readouterr() == ("", f"tonelab: error: {tokens}:3: invalid transcription "
                                           "token '61': expected 2-3 digits in 1..5\n")
    assert not out.exists()
    tokens.write_text("\n  \n\n", encoding="utf-8")
    assert main(["dist", "--tokens-file", str(tokens)]) == 2
    assert capsys.readouterr().err == f"tonelab: error: token file {tokens} contains no tokens\n"


@pytest.mark.parametrize("pair,expected", [
    (("445", "45"), "0.1225"),
    (("445", "445"), "0.0000"),
    (("445", "251"), "0.5243"),
])
def test_variance_values(capsys, pair, expected):
    assert main(["variance", *pair]) == 0
    assert capsys.readouterr().out == expected + "\n"


# ---------------------------------------------------------------------------
# transcribe


def test_transcribe_rising_glide(capsys, rise_wav):
    assert main(["transcribe", rise_wav]) == 0
    assert capsys.readouterr().out == "15\n"


def test_transcribe_constant_pitch(capsys, flat_wav):
    assert main(["transcribe", flat_wav]) == 0
    assert capsys.readouterr().out == "33\n"


def test_transcribe_json_payload(capsys, rise_wav):
    assert main(["transcribe", rise_wav, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transcription"] == "15"
    assert payload["method"] == "f0"
    assert len(payload["triple"]) == 3
    assert payload["linearity_margin"] < payload["beta"]


def test_transcribe_writes_f0_csv(tmp_path, capsys, rise_wav):
    csv_path = tmp_path / "track.csv"
    assert main(["transcribe", rise_wav, "--f0-csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "time_s,f0_hz"
    assert len(lines) > 10


def test_transcribe_imports_no_scipy(rise_wav):
    code = ("import sys\nfrom tonelab.cli import main\nstatus = main(['transcribe', sys.argv[1]])\n"
            "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, rise_wav], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


WATCHED = ("numpy", "numpy.random", "dataclasses", "inspect", "json", "typing", "tonelab")


def _modules_loaded_by(*argv, flags=()):
    """The WATCHED and tonelab.* modules a child, started with the interpreter flags,
    has loaded after main(argv), which must succeed. The child lists them before it
    imports json to print them."""
    code = ("import sys\nfrom tonelab.cli import main\n"
            "try:\n    status = main(sys.argv[1:])\nexcept SystemExit as exc:\n    status = exc.code\n"
            f"loaded = [m for m in sys.modules if m in {WATCHED!r} or m.startswith('tonelab.')]\n"
            "import json\nprint(json.dumps([status, loaded]))")
    out = subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True,
                         text=True, check=True).stdout
    status, modules = json.loads(out.splitlines()[-1])
    assert status == 0
    return set(modules)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["dist", "--help"],
                                  ["train", "--help"], ["dialect-cluster", "--help"]])
def test_version_and_help_load_no_numpy(argv):
    loaded = _modules_loaded_by(*argv)
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded


AUDIO_AND_SURVEY = {"tonelab.cluster", "tonelab.dialect", "tonelab.learn", "tonelab.pitch"}


@pytest.mark.parametrize("argv", [["dist", "41", "312"], ["dist", "--matrix"],
                                  ["dist", "--tokens-file", "TOKENS"],
                                  ["variance", "445", "45"], ["dist", "41", "312", "-o", "OUT"]])
def test_tone_commands_load_no_audio_or_survey_modules(argv, tmp_path):
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("41\n312\n35\n41\n", encoding="utf-8")
    paths = {"OUT": str(tmp_path / "d.txt"), "TOKENS": str(tokens)}
    loaded = _modules_loaded_by(*[paths.get(a, a) for a in argv])
    assert "tonelab.tones" in loaded
    assert not loaded & AUDIO_AND_SURVEY
    # the tone table, its matrices' CSV, one pair's distance and the variance
    # metric are pure Python, and their value classes are not dataclasses
    assert not loaded & {"numpy", "dataclasses", "inspect", "json"}


@pytest.mark.parametrize("argv", [["dist", "41", "312"], ["dist", "--matrix"],
                                  ["variance", "445", "45"]])
def test_tone_commands_load_no_typing(argv):
    # -S: a .pth file in site-packages may import typing before tonelab starts
    loaded = _modules_loaded_by(*argv, flags=("-S",))
    assert "tonelab.tones" in loaded
    assert "typing" not in loaded


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that stops early, as `| head -c 30` does, closes the pipe while the
    200 kB matrix is still being written."""
    child = subprocess.Popen([sys.executable, "-m", "tonelab", "dist", "--matrix"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(30) == b"label,11,12,13,14,15,21,22,23,"
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", [["dist", "41", "312"], ["dist", "--matrix"],
                                  ["dist", "--tokens-file", "TOKENS"], ["--help"], ["--version"]],
                         ids=["pair", "matrix", "tokens-file", "help", "version"])
def test_full_stdout_exits_2_naming_stdout(args, unbuffered, tmp_path):
    """Unbuffered, the write itself fails; buffered, a short output fails only in the
    final flush. Either way one error line, exit 2, and no failure at exit. argparse
    prints --help and --version itself, and would ignore a failed write."""
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("41\n312\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [str(tokens) if a == "TOKENS" else a for a in args]
    with open("/dev/full", "wb") as full:
        child = subprocess.run([sys.executable, "-m", "tonelab", *argv], stdout=full,
                               stderr=subprocess.PIPE, env=env, timeout=60)
    assert (child.returncode, child.stderr) == (
        2, b"tonelab: error: cannot write stdout: No space left on device\n")


@pytest.mark.parametrize("sub", ["dialect-cluster", "dialect-mds"])
def test_survey_commands_load_no_audio_modules(sub, corpus_tsv):
    loaded = _modules_loaded_by(sub, "--corpus", corpus_tsv[0])
    assert {"tonelab.dialect", "tonelab.cluster"} <= loaded
    assert not loaded & {"tonelab.learn", "tonelab.pitch"}


def test_transcribe_missing_file(capsys):
    assert main(["transcribe", "missing.wav"]) == 2


def test_transcribe_unvoiced_audio_is_runtime_failure(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "noise.wav"
    wavfile.write(path, SR, (0.4 * rng.uniform(-1, 1, SR // 2) * 32767).astype(np.int16))
    assert main(["transcribe", str(path)]) == 1
    assert "voiced" in capsys.readouterr().err


def test_transcribe_model_requires_model_path(capsys, rise_wav):
    assert main(["transcribe", rise_wav, "--method", "model"]) == 2


def test_transcribe_model_method(tmp_path, capsys, rise_wav):
    model_path = tmp_path / "model.json"
    rng = np.random.default_rng(0)
    LinearToneModel(rng.uniform(-0.1, 0.1, (3, 20)), np.zeros(3)).save(model_path)
    assert main(["transcribe", rise_wav, "--method", "model",
                 "--model", str(model_path)]) == 0
    token = capsys.readouterr().out.strip()
    assert 2 <= len(token) <= 3


# ---------------------------------------------------------------------------
# train


def make_manifest(tmp_path, per_class=4):
    rng = np.random.default_rng(2)
    rows = ["wav_path\ttranscription"]
    for token in ("15", "51", "315", "513"):
        for i in range(per_class):
            name = f"{token}_{i}.wav"
            write_wav(tmp_path / name, tone_clip(token, base_hz=rng.uniform(150, 230), rng=rng))
            rows.append(f"{name}\t{token}")
    manifest = tmp_path / "train.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(manifest)


def test_train_writes_model_and_summary(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    out = tmp_path / "model.json"
    rc = main(["train", "--data", manifest, "--out", str(out),
               "--seed", "3", "--epochs", "400", "--lr", "0.002"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["clips"] == 16
    assert summary["final_loss"] <= summary["initial_loss"]
    model = LinearToneModel.load(out)
    assert model.n_features == 20


def test_train_zero_epochs_keeps_seeded_init(tmp_path, capsys):
    manifest = make_manifest(tmp_path, per_class=2)
    out = tmp_path / "model.json"
    assert main(["train", "--data", manifest, "--out", str(out),
                 "--seed", "9", "--epochs", "0"]) == 0
    model = LinearToneModel.load(out)
    rng = np.random.default_rng(9)
    assert np.allclose(model.weights, rng.uniform(-0.1, 0.1, (3, 20)), atol=1e-15)
    assert np.allclose(model.bias, rng.uniform(-0.1, 0.1, 3), atol=1e-15)


def test_train_loads_no_numpy_random_or_cluster(tmp_path):
    """train draws its initial weights in pure Python; only cluster-tones clusters."""
    manifest = make_manifest(tmp_path, per_class=1)
    model = str(tmp_path / "model.json")
    loaded = _modules_loaded_by("train", "--data", manifest, "--out", model, "--seed", "3",
                                "--epochs", "5")
    assert {"tonelab.learn", "tonelab.pitch"} <= loaded
    assert not loaded & {"numpy.random", "tonelab.cluster"}
    assert "tonelab.cluster" in _modules_loaded_by("cluster-tones", "--model", model,
                                                   *sorted(map(str, tmp_path.glob("*.wav"))))


def test_diverging_train_writes_a_null_loss(tmp_path):
    """--lr 1e308 takes the weights to inf and the loss to NaN, which JSON cannot hold:
    the summary writes null, and the model keeps the best finite parameters."""
    manifest = make_manifest(tmp_path, per_class=5)
    out = tmp_path / "model.json"
    child = subprocess.run([sys.executable, "-m", "tonelab", "train", "--data", manifest,
                            "--out", str(out), "--seed", "3", "--epochs", "50", "--lr", "1e308"],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "")

    def refuse(constant):
        raise AssertionError(f"not JSON: {constant}")

    summary = json.loads(child.stdout, parse_constant=refuse)
    assert summary["final_loss"] is None
    assert summary["initial_loss"] > 0
    assert np.isfinite(LinearToneModel.load(out).weights).all()


def test_train_requires_seed(tmp_path):
    manifest = make_manifest(tmp_path, per_class=1)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", manifest, "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2


def silent_wav(path):
    return write_wav(path, AudioClip(np.zeros(SR // 2), SR))


def test_train_failure_names_the_clip(tmp_path, capsys):
    manifest = make_manifest(tmp_path, per_class=1)
    silent = silent_wav(tmp_path / "silent.wav")
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("silent.wav\t15\n")
    assert main(["train", "--data", manifest, "--out", str(tmp_path / "m.json"),
                 "--seed", "1", "--epochs", "10"]) == 1
    err = capsys.readouterr().err
    assert err == f"tonelab: failure: {silent}: need at least 5 contiguous voiced frames, got 0\n"


def test_train_missing_manifest(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "no.tsv"),
                 "--out", str(tmp_path / "m.json"), "--seed", "1"]) == 2


@pytest.mark.parametrize("row,message", [
    ("b.wav\t15\textra", ":3: expected 2 columns"),
    ("b.wav\t61", ":3: invalid transcription token '61'"),
], ids=["three-cells", "bad-token"])
def test_train_manifest_row_errors_name_their_line(row, message, tmp_path, capsys):
    manifest = tmp_path / "train.tsv"
    manifest.write_text(f"wav_path\ttranscription\na.wav\t15\n{row}\n", encoding="utf-8")
    assert main(["train", "--data", str(manifest), "--out", str(tmp_path / "m.json"),
                 "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"tonelab: error: {manifest}{message}")


def unusable_wav(path, kind):
    """A WAV that decodes but fails AudioClip's checks, and the message it fails with."""
    if kind == "low-rate":
        wavfile.write(path, 4000, np.zeros(4000, dtype=np.int16))
        return str(path), "sample rate must be >= 8000 Hz, got 4000"
    wavfile.write(path, SR, np.array([0.0, np.nan, 0.5] * 1000, dtype=np.float32))
    return str(path), "audio contains non-finite samples"


@pytest.mark.parametrize("kind", ["low-rate", "nan"])
def test_unusable_wav_errors_name_the_file(kind, tmp_path, capsys):
    manifest = make_manifest(tmp_path, per_class=1)
    bad, message = unusable_wav(tmp_path / "bad.wav", kind)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("bad.wav\t15\n")
    expected = f"tonelab: error: {bad}: {message}\n"
    assert main(["train", "--data", manifest, "--out", str(tmp_path / "m.json"),
                 "--seed", "1", "--epochs", "10"]) == 2
    assert capsys.readouterr().err == expected

    model_path = tmp_path / "model.json"
    LinearToneModel(np.zeros((3, 20)), np.zeros(3)).save(model_path)
    listing = tmp_path / "list.txt"
    listing.write_text("15_0.wav\nbad.wav\n", encoding="utf-8")
    assert main(["cluster-tones", "--wav-list", str(listing), "--model", str(model_path)]) == 2
    assert capsys.readouterr() == ("", expected)

    assert main(["transcribe", bad]) == 2
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize("flag,value,message", [
    ("--hop-ms", "0.01", "frame and hop must be positive durations"),  # 0.16 samples at 16 kHz
    ("--frame-ms", "5", "frame of 80 samples is too short for fmin=50.0 Hz (needs > 336)"),
])
def test_transcribe_refuses_frames_the_sample_rate_cannot_hold(flag, value, message, capsys,
                                                               rise_wav):
    assert main(["transcribe", rise_wav, flag, value]) == 2
    assert capsys.readouterr() == ("", f"tonelab: error: {message}\n")


# ---------------------------------------------------------------------------
# cluster-tones


def test_cluster_tones_four_categories(tmp_path, capsys):
    manifest = make_manifest(tmp_path, per_class=8)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", manifest, "--out", str(model_path),
                 "--seed", "3", "--epochs", "2000"]) == 0
    capsys.readouterr()

    rng = np.random.default_rng(11)
    wavs = []
    for token in ("15", "51", "315", "513"):
        for i in range(6):
            path = tmp_path / f"clip_{token}_{i}.wav"
            wavs.append(write_wav(path, tone_clip(token, base_hz=rng.uniform(150, 230), rng=rng)))
    out_csv = tmp_path / "labels.csv"
    rc = main(["cluster-tones", *wavs, "--model", str(model_path),
               "--out-csv", str(out_csv)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_categories"] == 4
    assert sorted(c["representative"] for c in payload["categories"]) == \
        sorted(["15", "51", "315", "513"])
    assert payload["noise"] == []
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "item,label"
    assert len(lines) == 25


def test_cluster_tones_wav_list(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    LinearToneModel(np.zeros((3, 20)), np.zeros(3)).save(model_path)
    wavs = [write_wav(tmp_path / f"c{i}.wav", tone_clip("51")) for i in range(5)]
    listing = tmp_path / "list.txt"
    listing.write_text("\n".join(wavs) + "\n", encoding="utf-8")
    assert main(["cluster-tones", "--wav-list", str(listing),
                 "--model", str(model_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_categories"] == 1


def test_transcribe_model_with_saturated_squash_writes_no_warning(tmp_path):
    """A falling contour drives the first and last pre-activations to about -5e4
    and +5e4, where exp overflows to inf and the sigmoid is exactly 0 or 1. The
    triple (1, 3, 5) decodes to 15, and numpy's overflow warning stays off stderr."""
    ramp = 1000.0 * (np.arange(20) - 9.5)
    model_path = tmp_path / "model.json"
    LinearToneModel(np.stack([ramp, np.zeros(20), -ramp]), np.zeros(3)).save(model_path)
    wav = write_wav(tmp_path / "fall.wav", tone_clip("51"))
    child = subprocess.run([sys.executable, "-m", "tonelab", "transcribe", wav,
                            "--method", "model", "--model", str(model_path)],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (0, "15\n", "")


@pytest.mark.parametrize("command", ["transcribe --method model", "cluster-tones"])
def test_model_whose_weights_overflow_exits_2_naming_the_wav(command, tmp_path):
    """Weights of +-1.5e308 make W x evaluate inf - inf, so the model's output is
    NaN: refused with the WAV's path, with no numpy warning and no traceback."""
    w = np.tile([1.5e308, -1.5e308], 10)
    model_path = tmp_path / "model.json"
    LinearToneModel(np.stack([w, w, w]), np.zeros(3)).save(model_path)
    wav = write_wav(tmp_path / "35.wav", tone_clip("35"))
    child = subprocess.run([sys.executable, "-m", "tonelab", *command.split(), wav,
                            "--model", str(model_path)], capture_output=True, text=True, timeout=60)
    message = "model output is not a number: its weights overflow on this input"
    assert (child.returncode, child.stdout, child.stderr) == (
        2, "", f"tonelab: error: {wav}: {message}\n")


def test_cluster_tones_requires_input(tmp_path):
    model_path = tmp_path / "model.json"
    LinearToneModel(np.zeros((3, 20)), np.zeros(3)).save(model_path)
    assert main(["cluster-tones", "--model", str(model_path)]) == 2


def test_cluster_tones_failure_names_the_clip(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    LinearToneModel(np.zeros((3, 20)), np.zeros(3)).save(model_path)
    wavs = [write_wav(tmp_path / f"c{i}.wav", tone_clip("51")) for i in range(3)]
    silent = silent_wav(tmp_path / "silent.wav")
    assert main(["cluster-tones", *wavs, silent, "--model", str(model_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"tonelab: failure: {silent}: need at least 5 contiguous voiced frames, got 0\n")


def test_cluster_tones_reports_first_failing_clip_in_list_order(tmp_path, capsys):
    # Clips are read one at a time, so a voicing failure on an earlier clip is
    # reported before a malformed WAV later in the list.
    model_path = tmp_path / "model.json"
    LinearToneModel(np.zeros((3, 20)), np.zeros(3)).save(model_path)
    good = write_wav(tmp_path / "good.wav", tone_clip("51"))
    silent = silent_wav(tmp_path / "silent.wav")
    broken = tmp_path / "broken.wav"
    broken.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
    args = ["--model", str(model_path)]
    assert main(["cluster-tones", good, silent, str(broken), *args]) == 1
    assert f"{silent}: need at least" in capsys.readouterr().err
    assert main(["cluster-tones", good, str(broken), silent, *args]) == 2
    assert f"malformed WAV file {broken}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dialect commands


def test_dialect_cluster_report(tmp_path, capsys, corpus_tsv):
    corpus, gold = corpus_tsv
    out_csv = tmp_path / "labels.csv"
    rc = main(["dialect-cluster", "--corpus", corpus, "--gold", gold,
               "--linkage", "mv", "--out-csv", str(out_csv)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["linkages"]["mv"]["accuracy"] == 1.0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "region,mv"
    assert len(lines) == 7


def test_dialect_outputs_quote_region_names_with_commas(tmp_path, capsys):
    import csv

    corpus = tmp_path / "corpus.tsv"
    layout = {"a, b": ["55", "35"], "c": ["55", "35"], 'say "d"': ["11", "53"],
              "e": ["11", "52"]}
    corpus.write_text("region\tword_id\ttranscription\n" + "".join(
        f"{region}\tw{i}\t{tok}\n" for region, toks in layout.items()
        for i, tok in enumerate(toks)), encoding="utf-8")
    out_csv = tmp_path / "labels.csv"
    assert main(["dialect-cluster", "--corpus", str(corpus), "--linkage", "mv",
                 "--out-csv", str(out_csv)]) == 0
    assert json.loads(capsys.readouterr().out)["linkages"]["mv"]["labels"]["a, b"] == 0
    assert out_csv.read_text().splitlines() == \
        ["region,mv", '"a, b",0', "c,0", '"say ""d""",1', "e,1"]
    with open(out_csv, newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["region", *layout]

    assert main(["dialect-mds", "--corpus", str(corpus), "--dims", "2"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[0] for row in rows] == ["item", *layout]
    assert all(len(row) == 3 for row in rows)


def test_dialect_cluster_all_linkages(capsys, corpus_tsv):
    corpus, gold = corpus_tsv
    assert main(["dialect-cluster", "--corpus", corpus, "--gold", gold,
                 "--linkage", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["linkages"]) == 7
    assert report["linkages"]["mv"]["accuracy"] == 1.0


def test_dialect_cluster_without_gold(capsys, corpus_tsv):
    corpus, _ = corpus_tsv
    assert main(["dialect-cluster", "--corpus", corpus]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["linkages"]["mv"]["accuracy"] is None


def test_dialect_cluster_bad_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("region\tword_id\ttranscription\nA\tw1\t99\n", encoding="utf-8")
    assert main(["dialect-cluster", "--corpus", str(bad)]) == 2


def test_dialect_mds_refuses_a_corpus_of_one_region(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("region\tword_id\ttranscription\nA\tw1\t41\nA\tw2\t35\n", encoding="utf-8")
    assert main(["dialect-mds", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr() == (
        "", "tonelab: error: pairwise analysis needs at least 2 regions\n")


def test_dialect_mds_csv(capsys, corpus_tsv):
    corpus, _ = corpus_tsv
    assert main(["dialect-mds", "--corpus", corpus]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "item,x"
    assert len(lines) == 7


def test_dialect_mds_two_dims(capsys, corpus_tsv):
    corpus, _ = corpus_tsv
    assert main(["dialect-mds", "--corpus", corpus, "--dims", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "item,x,y"


# ---------------------------------------------------------------------------
# parser behaviour


@pytest.mark.parametrize("sub", ["dist", "variance", "transcribe", "train",
                                 "cluster-tones", "dialect-cluster", "dialect-mds"])
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("sub,expected", [
    ("transcribe", ["lowest admissible F0 in Hz (default 50.0)", "(default 600.0)",
                    "(default 40.0)", "(default 10.0)", "(default 0.15)",
                    "decoder (default 0.5)"]),
    ("train", ["contour feature length K (default 20)", "(default 0.15)"]),
    ("dialect-cluster", ["{tone2vec,categorical}", "{sl,cl,ga,wa,uc,wc,mv,all}"]),
    ("dialect-mds", ["{tone2vec,categorical}"]),
])
def test_help_shows_package_defaults(sub, expected, capsys):
    with pytest.raises(SystemExit):
        main([sub, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for phrase in expected:
        assert phrase in text


BAD_NUMBERS = [
    (["transcribe", "a.wav"], "--beta", ["inf", "nan", "0", "-0.5", "x"]),
    (["cluster-tones", "a.wav", "--model", "m.json"], "--eps", ["nan", "inf", "0", "-1"]),
    (["cluster-tones", "a.wav", "--model", "m.json"], "--beta", ["nan", "0"]),
    (["train", "--data", "t.tsv", "--out", "m.json", "--seed", "1"], "--lr",
     ["nan", "inf", "0", "-0.002"]),
    (["train", "--data", "t.tsv", "--out", "m.json", "--seed", "1"], "--l2",
     ["nan", "inf", "-0.1"]),
    (["train", "--data", "t.tsv", "--out", "m.json", "--seed", "1"], "--epochs",
     ["-5", "1.5", "nan"]),
    (["train", "--data", "t.tsv", "--out", "m.json", "--seed", "1"], "--beta", ["nan"]),
    (["transcribe", "a.wav"], "--hop-ms", ["nan", "inf", "0", "-10"]),
    (["transcribe", "a.wav"], "--frame-ms", ["inf", "nan", "0"]),
    (["transcribe", "a.wav"], "--yin-threshold", ["nan", "inf", "-0.15"]),
    (["transcribe", "a.wav"], "--fmin", ["nan", "-50"]),
    (["cluster-tones", "a.wav", "--model", "m.json"], "--fmax", ["inf", "0"]),
    (["train", "--data", "t.tsv", "--out", "m.json", "--seed", "1"], "--hop-ms", ["nan"]),
    (["train", "--data", "t.tsv", "--out", "m.json", "--seed", "1"], "--feature-points",
     ["1", "0", "2.5"]),
    (["cluster-tones", "a.wav", "--model", "m.json"], "--min-samples", ["0", "-3", "x"]),
    (["train", "--data", "t.tsv", "--out", "m.json"], "--seed", ["-1", "x"]),
]


@pytest.mark.parametrize("argv,flag,value", [
    (argv, flag, value) for argv, flag, values in BAD_NUMBERS for value in values])
def test_bad_numeric_flag_exits_2(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected " in captured.err
    assert repr(value) in captured.err


@pytest.mark.parametrize("argv", [
    ["dist", "41", "312", "-o"],
    ["dist", "--matrix", "-o"],
    ["dialect-mds", "--corpus", "CORPUS", "-o"],
    ["dialect-cluster", "--corpus", "CORPUS", "--out-csv"],
    ["transcribe", "WAV", "--f0-csv"],
])
def test_missing_output_directory_exits_2(argv, tmp_path, capsys, corpus_tsv, rise_wav):
    target = str(tmp_path / "no-such-dir" / "out.csv")
    argv = [{"CORPUS": corpus_tsv[0], "WAV": rise_wav}.get(a, a) for a in argv]
    assert main([*argv, target]) == 2
    err = capsys.readouterr().err
    assert err == f"tonelab: error: cannot write {target}: No such file or directory\n"


_MODEL = {"format": "tonelab-linear-tone-model", "version": 1,
          "weights": [[0.0] * 4] * 3, "bias": [0.0] * 3}
BAD_MODELS = {
    "top_list": [_MODEL],
    "no_weights": {k: v for k, v in _MODEL.items() if k != "weights"},
    "no_bias": {k: v for k, v in _MODEL.items() if k != "bias"},
    "ragged": {**_MODEL, "weights": [[0.0, 0.0], [0.0], [0.0, 0.0]]},
    "two_rows": {**_MODEL, "weights": [[0.0] * 4] * 2},
    "one_column": {**_MODEL, "weights": [[0.0]] * 3},
    "bias_4": {**_MODEL, "bias": [0.0] * 4},
    "text_weights": {**_MODEL, "weights": "none"},
    # a header that disagrees with the weights, or a squash that embed does not apply
    "n_features_7": {**_MODEL, "n_features": 7, "weights": [[0.0] * 20] * 3},
    "squash_2_1": {**_MODEL, "squash": {"offset": 2.0, "scale": 1.0}},
    "no_format": {"bias": [0.0] * 3},
}

# (argv, the path or text stderr must name). {missing} lies in a missing directory and
# {under_file} under a regular file; {dir} is a directory and {latin1} is not UTF-8;
# {model} is a valid model.
BAD_INPUTS = [
    # output paths are checked before any input is read, even a missing one
    ("dist 41 312 -o {missing}", "{missing}"),
    ("dist 41 312 -o {under_file}", "{under_file}"),
    ("train --data {nope} --out {missing} --seed 1", "{missing}"),
    ("cluster-tones {nope} --model {nope} --out-csv {missing}", "{missing}"),
    ("dialect-cluster --corpus {corpus} --out-csv {missing}", "{missing}"),
    ("dialect-mds --corpus {corpus} -o {under_file}", "{under_file}"),
    ("transcribe {wav} --f0-csv {missing}", "{missing}"),
    # an output path that is a directory is refused before any work too
    ("dialect-cluster --corpus {corpus} --out-csv {dir}", "{dir}"),
    ("cluster-tones {nope} --model {nope} --out-csv {dir}", "{dir}"),
    ("train --data {nope} --out {dir} --seed 1", "{dir}"),
    ("dist --matrix -o {dir}", "{dir}"),
    # unreadable or undecodable text inputs
    ("dist --tokens-file {dir} -o {out}", "{dir}"),
    ("dist --tokens-file {latin1} -o {out}", "{latin1}"),
    ("dialect-mds --corpus {dir} -o {out}", "{dir}"),
    ("dialect-cluster --corpus {latin1} --out-csv {out}", "{latin1}"),
    ("dialect-cluster --corpus {corpus} --gold {dir} --out-csv {out}", "{dir}"),
    ("train --data {dir} --out {out} --seed 1", "{dir}"),
    ("train --data {latin1} --out {out} --seed 1", "{latin1}"),
    ("cluster-tones --wav-list {dir} --model {nope} --out-csv {out}", "{dir}"),
    ("cluster-tones --wav-list {latin1} --model {nope} --out-csv {out}", "{latin1}"),
    ("cluster-tones {wav} --model {dir} --out-csv {out}", "{dir}"),
    ("cluster-tones {wav} --model {latin1} --out-csv {out}", "{latin1}"),
    # malformed model JSON; transcribe loads the model before writing its F0 CSV
    *((f"cluster-tones {{wav}} --model {{{name}}} --out-csv {{out}}", f"{{{name}}}")
      for name in BAD_MODELS),
    *((f"transcribe {{wav}} --method model --model {{{name}}} --f0-csv {{out}}", f"{{{name}}}")
      for name in ("top_list", "n_features_7", "squash_2_1")),
    # a WAV path that is a directory
    ("transcribe {dir}", "{dir}"),
    ("cluster-tones {dir} --model {model} --out-csv {out}", "{dir}"),
    # dist takes exactly one mode, checked before its token file is read
    ("dist 41 312 --matrix -o {out}", "exactly one of"),
    ("dist --tokens-file {nope} 41 312 -o {out}", "exactly one of"),
    ("dist --matrix --tokens-file {nope} -o {out}", "exactly one of"),
]


@pytest.mark.parametrize("argv,bad", BAD_INPUTS, ids=[a for a, _ in BAD_INPUTS])
def test_bad_input_exits_2_naming_the_path(argv, bad, tmp_path, capsys, corpus_tsv, rise_wav):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes(b"41\n\xe9t\xe9\n")
    paths = {"missing": tmp_path / "no-such-dir" / "out.csv", "under_file": tmp_path / "afile" / "o",
             "dir": tmp_path / "adir", "latin1": tmp_path / "latin1.txt",
             "nope": tmp_path / "nope", "out": tmp_path / "out.csv",
             "corpus": corpus_tsv[0], "wav": rise_wav}
    for name, payload in {"model": _MODEL, **BAD_MODELS}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload), encoding="utf-8")
    paths = {name: str(path) for name, path in paths.items()}
    assert main([arg.format_map(paths) for arg in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tonelab: error: ")
    assert bad.format_map(paths) in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out.csv").exists()


# Each text input in turn is {file}, given once as written and once with a
# leading UTF-8 byte-order mark.
BOM_INPUTS = {
    "corpus": "dialect-mds --corpus {file}",
    "gold": "dialect-cluster --corpus {corpus} --gold {file} --linkage mv",
    "tokens": "dist --tokens-file {file}",
    "wav-list": "cluster-tones --wav-list {file} --model {model}",
    "manifest": "train --data {file} --out {out} --seed 1 --epochs 10",
    "model": "transcribe {wav} --method model --model {file}",
}


@pytest.mark.parametrize("name", BOM_INPUTS)
def test_text_inputs_may_start_with_a_byte_order_mark(name, tmp_path, capsys, corpus_tsv,
                                                      rise_wav):
    model = tmp_path / "model.json"
    LinearToneModel(np.zeros((3, 20)), np.zeros(3)).save(model)
    (tmp_path / "tokens.txt").write_text("41\n312\n", encoding="utf-8")
    (tmp_path / "wavs.txt").write_text(f"{rise_wav}\n{rise_wav}\n", encoding="utf-8")
    paths = {"corpus": corpus_tsv[0], "gold": corpus_tsv[1], "tokens": tmp_path / "tokens.txt",
             "wav-list": tmp_path / "wavs.txt", "model": model}
    plain = Path(make_manifest(tmp_path, per_class=1) if name == "manifest" else paths[name])
    marked = tmp_path / f"bom-{plain.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for given in (plain, marked):
        argv = BOM_INPUTS[name].format(file=given, corpus=corpus_tsv[0], model=model,
                                       wav=rise_wav, out=tmp_path / "out.json")
        assert main(argv.split()) == 0, given
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_unknown_flag_fails(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "41", "312", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
