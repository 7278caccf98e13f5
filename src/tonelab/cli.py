"""Command-line interface.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or input-parse
error. All outputs use fixed float formats and fixed orderings, so a given
configuration and input always produce byte-identical results.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from collections import Counter

from . import __version__
from . import _defaults as defaults
from .errors import InputError, ToneLabError, naming

# Subcommands import the modules they run inside their _cmd_* function, so a
# launch loads only those, and --help and --version load no numpy.


def _checked(convert, accept, expected: str):
    """An argparse type: convert the text, then exit 2 unless accept(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_nonnegative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _add_f0_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("F0 extraction")
    group.add_argument("--fmin", type=_positive, default=defaults.F0_FLOOR_HZ,
                       help="lowest admissible F0 in Hz (default %(default)s)")
    group.add_argument("--fmax", type=_positive, default=defaults.F0_CEIL_HZ,
                       help="highest admissible F0 in Hz (default %(default)s)")
    group.add_argument("--frame-ms", type=_positive, default=defaults.DEFAULT_FRAME_MS,
                       help="analysis frame length in ms (default %(default)s)")
    group.add_argument("--hop-ms", type=_positive, default=defaults.DEFAULT_HOP_MS,
                       help="hop between frames in ms (default %(default)s)")
    group.add_argument("--yin-threshold", type=_positive, default=defaults.DEFAULT_YIN_THRESHOLD,
                       help="voicing dip threshold (default %(default)s)")


def _f0_options(args: argparse.Namespace) -> dict:
    return {
        "fmin": args.fmin,
        "fmax": args.fmax,
        "frame_ms": args.frame_ms,
        "hop_ms": args.hop_ms,
        "threshold": args.yin_threshold,
    }


def _read_token_file(path: str) -> list:
    from . import tones

    out = []
    for lineno, token in tones._nonempty_lines(path, "token file"):
        with naming(f"{path}:{lineno}"):
            out.append(tones.parse_transcription(token))
    if not out:
        raise InputError(f"token file {path} contains no tokens")
    return out


def _cmd_dist(args: argparse.Namespace) -> int:
    from . import tones

    modes = [len(args.tokens) == 2, args.tokens_file is not None, args.matrix]
    if modes.count(True) != 1 or len(args.tokens) not in (0, 2):
        raise InputError("give exactly one of: two transcription tokens, --tokens-file, --matrix")
    if args.matrix:
        matrix = tones.tone_distance_database()
    elif args.tokens_file is not None:
        matrix = tones.build_distance_matrix(_read_token_file(args.tokens_file))
    else:
        l1, l2 = map(tones.parse_transcription, args.tokens)
        tones._write((f"{tones.tone_distance(l1, l2):.6f}\n",), args.out)
        return 0
    matrix.to_csv(args.out or sys.stdout)  # lines go out as joined, not as one text
    return 0


def _cmd_variance(args: argparse.Namespace) -> int:
    from . import tones

    l1, l2 = map(tones.parse_transcription, (args.token1, args.token2))
    tones._write((f"{tones.variance_metric(l1, l2):.4f}\n",), None)
    return 0


def _cmd_transcribe(args: argparse.Namespace) -> int:
    from . import learn
    from . import pitch as pitchmod
    from . import tones

    if args.method == "model":  # a bad model fails before the F0 CSV is written
        if not args.model:
            raise InputError("--model is required with --method model")
        model = learn.LinearToneModel.load(args.model)
    clip = pitchmod.read_wav(args.wav)
    track = pitchmod.extract_f0(clip, **_f0_options(args))
    if args.f0_csv:
        track.to_csv(args.f0_csv)
    if args.method == "f0":
        triple = pitchmod.f0_baseline_triple(track)
    else:
        feature = pitchmod.contour_feature(track, k=model.n_features)
        with naming(args.wav):
            triple = learn.embed(model, feature)
    result = learn.decode_transcription(triple, args.beta)
    if args.json:
        payload = {
            "beta": args.beta,
            "linearity_margin": round(learn.linearity_margin(triple), 6),
            "method": args.method,
            "transcription": result.token,
            "triple": [round(v, 6) for v in triple],
        }
        tones._write(tones._json(payload), None)
    else:
        tones._write((result.token, "\n"), None)
    return 0


def _read_training_manifest(path: str) -> list[tuple]:
    from . import tones

    rows = tones._read_tsv(path, ("wav_path", "transcription"), "manifest")
    base = os.path.dirname(os.path.abspath(path))
    out = []
    for lineno, (wav_path, token) in rows:
        with naming(f"{path}:{lineno}"):
            label = tones.parse_transcription(token.strip())
        out.append((os.path.join(base, wav_path.strip()), label))
    return out


def _cmd_train(args: argparse.Namespace) -> int:
    from . import learn
    from . import pitch as pitchmod
    from . import tones

    manifest = _read_training_manifest(args.data)
    f0_options = _f0_options(args)
    data = []
    for wav_path, label in manifest:
        clip = pitchmod.read_wav(wav_path)
        with naming(wav_path):
            track = pitchmod.extract_f0(clip, **f0_options)
            data.append((pitchmod.contour_feature(track, k=args.feature_points), label))
    model = learn.train_tone_model(
        data, lr=args.lr, epochs=args.epochs, seed=args.seed, l2=args.l2
    )
    model.save(args.out)
    hits = sum(
        1 for (feature, label) in data
        if learn.decode_transcription(learn.embed(model, feature), args.beta) == label
    )
    final = model.loss_history[-1]  # --epochs >= 0: one loss at least
    summary = {
        "clips": len(data),
        "epochs": args.epochs,
        "final_loss": round(final, 6) if math.isfinite(final) else None,  # a diverged run's NaN
        "initial_loss": round(model.loss_history[0], 6),  # from weights in [-0.1, 0.1]: finite
        "model": args.out,
        "seed": args.seed,
        "train_accuracy": round(hits / len(data), 6),
    }
    tones._write(tones._json(summary), None)
    return 0


def _collect_wavs(args: argparse.Namespace) -> list[str]:
    from . import tones

    paths = list(args.wavs)
    if args.wav_list:
        base = os.path.dirname(os.path.abspath(args.wav_list))
        for _, p in tones._nonempty_lines(args.wav_list, "wav list"):
            paths.append(os.path.join(base, p))
    if not paths:
        raise InputError("no WAV files given (pass paths or --wav-list)")
    return paths


def _cmd_cluster_tones(args: argparse.Namespace) -> int:
    from . import learn
    from . import pitch as pitchmod
    from . import tones

    paths = _collect_wavs(args)
    model = learn.LinearToneModel.load(args.model)
    result = learn.tone_clustering_pipeline(
        (pitchmod.read_wav(p) for p in paths), model, eps=args.eps,
        min_samples=args.min_samples, beta=args.beta, sources=paths, **_f0_options(args),
    )
    names = [os.path.basename(p) for p in paths]
    sizes = Counter(result.assignment.labels)
    payload = {
        "categories": [
            {"cluster": cid, "representative": rep.token, "size": sizes[cid]}
            for cid, rep in result.categories
        ],
        "eps": args.eps,
        "min_samples": args.min_samples,
        "n_categories": result.n_categories,
        "noise": [names[i] for i in result.noise],
    }
    tones._write(tones._json(payload), None)
    if args.out_csv:
        result.assignment.to_csv(names, args.out_csv)
    return 0


def _cmd_dialect_cluster(args: argparse.Namespace) -> int:
    from . import dialect as dialectmod
    from . import tones

    corpus = dialectmod.load_corpus(args.corpus, args.gold)
    report = dialectmod.dialect_cluster_pipeline(corpus, metric=args.metric,
                                                 linkage=args.linkage)
    tones._write(tones._json(report), None)
    if args.out_csv:
        names = sorted(report["linkages"])
        labels = [report["linkages"][name]["labels"] for name in names]
        rows = ((tones._quoted(region), *(of[region] for of in labels))
                for region in corpus.region_ids)
        tones._csv(("region", *names), rows, args.out_csv)
    return 0


def _cmd_dialect_mds(args: argparse.Namespace) -> int:
    from . import cluster as clustering
    from . import dialect as dialectmod

    corpus = dialectmod.load_corpus(args.corpus)
    matrix = dialectmod.region_distance_matrix(corpus, metric=args.metric)[0]
    coords = clustering.classical_mds(matrix, dims=args.dims)
    clustering.mds_to_csv(matrix.labels, coords, args.out or sys.stdout)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse ignores a failed write of --help or --version; let it reach entrypoint.
    # add_subparsers makes the subcommand parsers of this class too.
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tonelab",
        description="Tone transcription distances, automatic transcription, "
                    "and cross-dialect tone analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between tone transcriptions")
    p.add_argument("tokens", nargs="*", help="two transcription tokens, e.g. 41 312")
    p.add_argument("--tokens-file", help="file with one transcription token per line")
    p.add_argument("--matrix", action="store_true",
                   help="write the precomputed all-transcriptions distance matrix")
    p.add_argument("-o", "--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("variance", help="relative-pitch variance between two transcriptions")
    p.add_argument("token1")
    p.add_argument("token2")
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("transcribe", help="transcribe a single-syllable WAV file")
    p.add_argument("wav")
    p.add_argument("--method", choices=("f0", "model"), default="f0")
    p.add_argument("--model", help="model JSON file (required for --method model)")
    p.add_argument("--beta", type=_positive, default=defaults.DEFAULT_BETA,
                   help="linearity threshold for the decoder (default %(default)s)")
    p.add_argument("--json", action="store_true",
                   help="print JSON with the pitch triple and linearity margin")
    p.add_argument("--f0-csv", help="also write the F0 track to this CSV file")
    _add_f0_options(p)
    p.set_defaults(func=_cmd_transcribe)

    p = sub.add_parser("train", help="train a contour-to-transcription model")
    p.add_argument("--data", required=True,
                   help="TSV manifest with header: wav_path, transcription")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--lr", type=_positive, default=0.002)
    p.add_argument("--epochs", type=_nonnegative_int, default=2000)
    p.add_argument("--seed", type=_nonnegative_int, required=True)
    p.add_argument("--l2", type=_nonnegative, default=0.0)
    p.add_argument("--beta", type=_positive, default=defaults.DEFAULT_BETA,
                   help="decoder threshold used for the training-accuracy report")
    p.add_argument("--feature-points", type=_checked(int, lambda v: v >= 2, "an integer >= 2"),
                   default=defaults.DEFAULT_FEATURE_POINTS,
                   help="contour feature length K (default %(default)s)")
    _add_f0_options(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("cluster-tones", help="discover tone categories from WAV clips")
    p.add_argument("wavs", nargs="*", help="WAV files")
    p.add_argument("--wav-list", help="file with one WAV path per line")
    p.add_argument("--model", required=True)
    p.add_argument("--eps", type=_positive, default=0.6)
    p.add_argument("--min-samples", type=_checked(int, lambda v: v >= 1, "an integer >= 1"),
                   default=4)
    p.add_argument("--beta", type=_positive, default=defaults.DEFAULT_BETA)
    p.add_argument("--out-csv", help="write per-clip cluster labels to this CSV")
    _add_f0_options(p)
    p.set_defaults(func=_cmd_cluster_tones)

    p = sub.add_parser("dialect-cluster", help="cluster dialect regions from a corpus")
    p.add_argument("--corpus", required=True,
                   help="TSV with header: region, word_id, transcription")
    p.add_argument("--gold", help="TSV with header: region, gold_label")
    p.add_argument("--metric", choices=defaults.METRICS, default="tone2vec")
    p.add_argument("--linkage", default="mv",
                   choices=(*defaults.LINKAGES, "all"))
    p.add_argument("--out-csv", help="write region labels to this CSV")
    p.set_defaults(func=_cmd_dialect_cluster)

    p = sub.add_parser("dialect-mds", help="embed dialect regions on a variance scale")
    p.add_argument("--corpus", required=True)
    p.add_argument("--metric", choices=defaults.METRICS, default="tone2vec")
    p.add_argument("--dims", type=int, choices=(1, 2), default=1)
    p.add_argument("-o", "--out", help="write CSV to this file instead of stdout")
    p.set_defaults(func=_cmd_dialect_mds)

    return parser


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Raise InputError before any work if an output path is a directory or its parent is missing."""
    for name in ("out", "out_csv", "f0_csv"):  # every subcommand's output options
        path = getattr(args, name, None)
        parent = os.path.dirname(path or "") or "."
        if path and os.path.isdir(path):
            raise InputError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        if path and not os.path.isdir(parent):
            reason = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise InputError(f"cannot write {path}: {os.strerror(reason)}")


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status. An error writing stdout, a
    broken pipe included, is raised to the caller, as entrypoint reports it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except InputError as exc:
        print(f"tonelab: error: {exc}", file=sys.stderr)
        return 2
    except ToneLabError as exc:
        print(f"tonelab: failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        try:
            status = main()
        except SystemExit as exc:  # argparse exits after --help, --version or a usage error
            status = exc.code
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as `| head` does
        status = 1
    except OSError as exc:  # stdout's writes and final flush; a file's errors are InputError
        print(f"tonelab: error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        status = 2
    else:
        raise SystemExit(status)
    # stdout goes to devnull so that Python's flush at exit cannot fail again onto stderr
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(status)
