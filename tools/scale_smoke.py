"""Scale smokes: python3 tools/scale_smoke.py. Seven CLI children on seeded inputs at survey
and field scale; each must exit 0, pass its output check and keep within its max-RSS bound.
Prints a line per child; exits 1 if any check fails. Linux carries a process's RSS into the
children it forks, and this process holds numpy and the inputs, so each argv goes instead to
one tonebench/launch.py process over its JSON protocol, which replies with the child's code
and maxrss_kb. Children get an absolute PYTHONPATH to src.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import wave

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tonebench"))
import gen  # noqa: E402

SR = 44100
TONELAB = ("-m", "tonelab")
# 20,000 tight 3-D points, built by the child: 8 categories (sigma 0.15), 1 point
# in 7 on a 0.25 lattice for exact ties.
DBSCAN = ("import numpy as np; import tonelab; rng = np.random.default_rng(20000); "
          "centers = rng.uniform(1, 5, (8, 3)); "
          "pts = centers[np.arange(20000) % 8] + rng.normal(0, 0.15, (20000, 3)); "
          "pts[::7] = np.round(pts[::7] / 0.25) * 0.25; "
          "labels = tonelab.dbscan(pts, 0.6, 4).labels; "
          "print(len(set(labels) - {tonelab.NOISE}), labels.count(tonelab.NOISE))")


def write_wav(path: str, f: np.ndarray, seed: int) -> None:
    """16-bit mono sine along the frequency track f (Hz per sample), with seeded noise."""
    noise = np.random.default_rng(seed).standard_normal(len(f))
    x = 0.5 * np.sin(2 * np.pi * np.cumsum(f) / SR) + 0.01 * noise
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SR)
        fh.writeframes((x * 32767).astype("<i2").tobytes())


def write_inputs(work: str) -> None:
    pool = gen.canonical_tokens()
    with open(os.path.join(work, "big.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(pool[i] + "\n" for i in np.random.default_rng(5000).integers(0, 150, 5000))
    gen.write_corpus(work, np.random.default_rng(3), regions=2000, words=400, coverage=0.9,
                     differing=0.3, substitution=0.1)
    t = np.arange(5 * SR) / SR  # a 5-s glide touches every row of the F0 workspace
    write_wav(os.path.join(work, "glide.wav"), 110.0 + 40.0 * t, 44100)
    t = np.arange(60 * SR) / SR
    write_wav(os.path.join(work, "long.wav"), 160.0 + 40.0 * np.sin(2 * np.pi * t / 10), 60)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def coordinates(path: str) -> tuple[int, bool]:
    coords = [float(v) for line in read(path).splitlines()[1:] for v in line.split(",")[1:]]
    return len(coords), all(map(math.isfinite, coords))


def mds(metric: str) -> tuple:
    return (f"dialect-mds --metric {metric}", [*TONELAB, "dialect-mds", "--corpus", "corpus.tsv",
            "--metric", metric, "--dims", "2", "-o", f"mds-{metric}.csv"], 310, f"mds-{metric}.csv",
            "(coordinates, all finite)", coordinates, (4000, True))


# (name, argv after the interpreter, bound in MB, the file checked (None: stdout),
#  what is measured, how, and the value expected (None: any))
CASES = (
    ("dist --tokens-file", [*TONELAB, "dist", "--tokens-file", "big.txt", "-o", "big.csv"], 64,
     "big.csv", "lines", lines, 5001),
    mds("tone2vec"),
    mds("categorical"),
    ("dialect-cluster --linkage all", [*TONELAB, "dialect-cluster", "--corpus", "corpus.tsv",
     "--gold", "gold.tsv", "--linkage", "all"], 440, None, "mv accuracy",
     lambda path: json.loads(read(path))["linkages"]["mv"]["accuracy"], 1.0),
    ("transcribe glide.wav", [*TONELAB, "transcribe", "glide.wav"], 41, None, "transcription",
     lambda path: read(path).strip(), None),
    ("transcribe long.wav --f0-csv", [*TONELAB, "transcribe", "long.wav", "--f0-csv", "long.csv"],
     62, None, "transcription", lambda path: read(path).strip(), None),
    ("dbscan, 20,000 points", ["-c", DBSCAN], 45, None, "(clusters, noise)",
     lambda path: tuple(map(int, read(path).split())), (6, 0)),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    passed = True
    with tempfile.TemporaryDirectory() as work:
        write_inputs(work)
        launcher = subprocess.Popen([sys.executable, os.path.join(ROOT, "tonebench", "launch.py")],
                                    env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    text=True)
        stdout, stderr = os.path.join(work, "stdout"), os.path.join(work, "stderr")
        for name, argv, bound_mb, output, what, measure, expected in CASES:
            launcher.stdin.write(json.dumps({"argv": [sys.executable, *argv], "cwd": work,
                                             "stdout": stdout, "stderr": stderr}) + "\n")
            launcher.stdin.flush()
            reply = json.loads(launcher.stdout.readline())
            if reply["code"] == 0:
                value = measure(os.path.join(work, output) if output else stdout)
                detail, ok = f"{what} {value!r}", expected is None or value == expected
            else:
                detail, ok = f"stderr {read(stderr).strip()[-500:]!r}", False
            rss_mb = reply["maxrss_kb"] / 1024
            ok = ok and rss_mb <= bound_mb
            print(f"{name}: exit {reply['code']}, {detail}, child max RSS {rss_mb:.1f} MB "
                  f"(bound {bound_mb}){'' if ok else ', FAILED'}", flush=True)
            passed = passed and ok
        launcher.communicate()  # end of input: the launcher exits
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
