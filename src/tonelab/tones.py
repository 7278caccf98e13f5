"""Five-scale tone transcriptions, simulated pitch curves, and tone distances.

A transcription is a sequence of 2 or 3 digits in 1..5 describing relative
pitch over time, e.g. "35" (rise) or "312" (fall-rise). Each transcription
maps to a smooth pitch curve on x in [1, 3]: a line for 2-digit tones, a
quadratic for 3-digit tones. The distance between two transcriptions is the
area between their curves, computed in closed form.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import re
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import InputError, TranscriptionError

# numpy is imported inside the functions that build arrays, so one pair's
# distance, the variance metric and the text helpers load none.

PITCH_LEVELS = (1, 2, 3, 4, 5)
CURVE_DOMAIN = (1.0, 3.0)


def _write_text(text: str, path: str | os.PathLike | None) -> str:
    """Write text to path, or to stdout if path is None; return text.

    A file that cannot be written raises InputError naming its path."""
    # 64 KiB slices: encoding a large output whole would add a full copy to peak memory.
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8")) as fh:
            for start in range(0, len(text), 1 << 16):
                fh.write(text[start : start + (1 << 16)])
    except OSError as exc:
        if path is None:
            raise
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return text


def _csv(header: Sequence[str], rows: Iterable[Sequence],
         path: str | os.PathLike | None = None) -> str:
    """The package's one CSV format: a header row, then one line per row, cells
    joined by commas, each line ended by a newline. A float cell (numpy's float64
    included) is written with 6 decimals, any other cell with str(), so a str cell
    may carry columns already joined. Returns the text, also written to path if given."""
    # One flat list and one join: joining each row first would hold a second copy.
    parts: list[str] = []
    for row in itertools.chain((header,), rows):
        for cell in row:
            parts += (f"{cell:.6f}" if isinstance(cell, float) else str(cell), ",")
        parts[-1] = "\n"
    text = "".join(parts)
    return text if path is None else _write_text(text, path)


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _quoted(name) -> str:
    """A name cell per RFC 4180: str(name), double-quoted with its quotes doubled
    when it holds a comma, a double quote or a line break, unchanged otherwise."""
    text = str(name)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _json(obj) -> str:
    """The package's one JSON format: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _reading(path: str | os.PathLike, what: str = "file",
             error: type[InputError] = InputError, binary: bool = False) -> Iterator[io.IOBase]:
    """Open a user's file for the block, as UTF-8 text less any leading BOM or, if binary,
    as bytes. A file missing, unreadable or not UTF-8 raises ``error`` naming its kind and path."""
    try:
        with (open(path, "rb") if binary
              else open(path, "r", encoding="utf-8-sig", newline="")) as fh:
            yield fh
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise error(f"cannot read {what} {path}: {reason}") from exc


def _read_tsv(path: str | os.PathLike, header: tuple[str, ...], what: str = "file",
              error: type[InputError] = InputError) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) for each data row of a user's tab-separated file,
    after checking its header. A row is one physical line, split on tabs after its
    line end is removed; quotes are ordinary characters, and an empty line is a row
    of no cells. Rows are numbered from 2, and a row whose width is not the header's
    raises ``error`` naming its path and line; cells are not stripped.

    Rows are read as they are yielded, so the file stays open until the caller
    has taken the last one, and a later row's decoding error comes after the
    caller's errors for earlier rows."""
    with _reading(path, what, error) as fh:
        rows = (text.split("\t") if (text := line.rstrip("\r\n")) else [] for line in fh)
        first = next(rows, None)
        if first is None:
            raise error(f"empty {what}: {path}")
        found = [cell.strip() for cell in first]
        if tuple(found) != header:
            raise error(f"{path}: expected header {list(header)}, got {found}")
        lineno, width = 1, len(header)
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                raise error(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            yield lineno, row
        if lineno == 1:
            raise error(f"{path}: no data rows")


def _nonempty_lines(path: str | os.PathLike, what: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a user's text file."""
    with _reading(path, what) as fh:
        return [(lineno, text) for lineno, line in enumerate(fh, start=1)
                if (text := line.strip())]


@dataclass(frozen=True, order=True)
class Transcription:
    """An ordered sequence of 2 or 3 pitch digits, each in 1..5."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) not in (2, 3):
            raise TranscriptionError(
                f"transcription must have 2 or 3 digits, got {len(self.digits)}"
            )
        for d in self.digits:
            if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= 5:
                raise TranscriptionError(f"pitch digit out of range 1..5: {d!r}")

    @property
    def token(self) -> str:
        return "".join(str(d) for d in self.digits)

    def __str__(self) -> str:
        return self.token

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)


def parse_transcription(text: str) -> Transcription:
    """Parse a token like "35", "312", or "(35)" into a Transcription.

    Returns the one shared instance of that transcription, so a corpus of
    thousands of rows holds at most 150 objects.
    """
    token = text.strip()
    if len(token) >= 2 and token.startswith("(") and token.endswith(")"):
        token = token[1:-1].strip()
    t = _INTERNED.get(token)
    if t is None:
        raise TranscriptionError(
            f"invalid transcription token {text!r}: expected 2-3 digits in 1..5"
        )
    return t


@dataclass(frozen=True)
class PitchCurve:
    """Polynomial a*x^2 + b*x + c modelling pitch variation on x in [1, 3]."""

    a: float
    b: float
    c: float

    def __call__(self, x):
        return (self.a * x + self.b) * x + self.c


def curve_of(t: Transcription) -> PitchCurve:
    """Simulated pitch curve of a transcription.

    2-digit (p, q): the line through (1, p) and (3, q).
    3-digit (p, q, r): the degree <= 2 polynomial through (1, p), (2, q), (3, r).
    All knot digits are small integers, so the coefficients are exact dyadic
    rationals.
    """
    if len(t.digits) == 2:
        p, q = t.digits
        b = (q - p) / 2
        return PitchCurve(0.0, b, p - b)
    p, q, r = t.digits
    a = (p - 2 * q + r) / 2
    b = (q - p) - 3 * a
    return PitchCurve(a, b, p - a - b)


def _abs_integrals(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integral of |a x^2 + b x + c| over CURVE_DOMAIN, elementwise, in closed form.

    The real roots inside the domain split it, and the absolute antiderivative
    differences of the pieces are added left to right. A missing root is
    replaced by the upper end, whose piece adds exactly 0, so every entry
    equals the scalar evaluation (_abs_integral) bit for bit.
    """
    import numpy as np

    lo, hi = CURVE_DOMAIN
    quadratic = a != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        s = np.sqrt(disc)
        r1 = (-b - s) / (2.0 * a)
        r2 = (-b + s) / (2.0 * a)
        linear = -c / b
    # A double root does not change the sign, so no split is needed.
    two = quadratic & (disc > 0.0)
    first = np.where(two, np.minimum(r1, r2),
                     np.where(~quadratic & (b != 0.0), linear, np.nan))
    second = np.where(two, np.maximum(r1, r2), np.nan)
    in1 = (lo < first) & (first < hi)
    in2 = (lo < second) & (second < hi)
    p1 = np.where(in1, first, np.where(in2, second, hi))
    p2 = np.where(in1 & in2, second, hi)
    a3, b2 = a / 3.0, b / 2.0
    f_lo, f1, f2, f_hi = (((a3 * x + b2) * x + c) * x for x in (lo, p1, p2, hi))
    return np.abs(f1 - f_lo) + np.abs(f2 - f1) + np.abs(f_hi - f2)


def _abs_integral(a: float, b: float, c: float) -> float:
    """_abs_integrals for one polynomial in pure Python: the same expressions in
    the same order, with p1 and p2 chosen as its np.where chain chooses them."""
    lo, hi = CURVE_DOMAIN
    first = second = math.nan
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if disc > 0.0:
            s = math.sqrt(disc)
            r1 = (-b - s) / (2.0 * a)
            r2 = (-b + s) / (2.0 * a)
            first, second = min(r1, r2), max(r1, r2)
    elif b != 0.0:
        first = -c / b
    in1 = lo < first < hi
    in2 = lo < second < hi
    p1 = first if in1 else second if in2 else hi
    p2 = second if in1 and in2 else hi
    a3, b2 = a / 3.0, b / 2.0
    f_lo, f1, f2, f_hi = (((a3 * x + b2) * x + c) * x for x in (lo, p1, p2, hi))
    return abs(f1 - f_lo) + abs(f2 - f1) + abs(f_hi - f2)


_PAIR_BLOCK = 1024  # pairs per _abs_integrals call: keeps _table()'s temporaries small


@lru_cache(maxsize=1)
def _table() -> np.ndarray:
    """Read-only 150x150 tone_distance table in canonical order.

    The pairs i < j are evaluated in row-major order, _PAIR_BLOCK at a time,
    on the difference of their curves. The lower triangle mirrors the upper
    one: swapping the two curves negates every intermediate value exactly, so
    the swapped evaluation gives the same bits.
    """
    import numpy as np

    curves = [curve_of(t) for t in canonical_transcriptions()]
    coef = np.array([[cu.a, cu.b, cu.c] for cu in curves])
    n = len(coef)
    upper_mask = np.triu(np.ones((n, n), dtype=bool), 1)
    rows, cols = np.nonzero(upper_mask)
    upper = np.empty(len(rows))
    for start in range(0, len(rows), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        upper[block] = _abs_integrals(*(coef[rows[block]] - coef[cols[block]]).T)
    table = np.zeros((n, n))
    table[upper_mask] = upper
    table.T[upper_mask] = upper
    table.setflags(write=False)
    return table


def tone_distance(l1: Transcription, l2: Transcription) -> float:
    """Area between the pitch curves of two transcriptions on [1, 3].

    Symmetric, nonnegative, and zero whenever the curves coincide (which can
    happen for distinct transcriptions, e.g. "35" and "345"). Equal bit for
    bit to the entry of _table(), without loading numpy.
    """
    c1, c2 = curve_of(l1), curve_of(l2)
    return _abs_integral(c1.a - c2.a, c1.b - c2.b, c1.c - c2.c)


def categorical_distance(l1: Transcription, l2: Transcription) -> int:
    """0 if the two transcriptions are identical, 1 otherwise."""
    return 0 if l1.digits == l2.digits else 1


class _SixDecimals(dict):
    """float64 bit pattern -> its 6-decimal text, formatted on first lookup."""

    def __missing__(self, key: int) -> str:
        value = struct.unpack("d", key.to_bytes(8, sys.byteorder))[0]
        text = self[key] = f"{value:.6f}"
        return text


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative distance matrix with labelled rows."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        n = len(self.labels)
        if v.shape != (n, n):
            raise InputError(f"matrix shape {v.shape} does not match {n} labels")
        if n == 0:
            raise InputError("distance matrix needs at least one label")
        if not np.all(np.isfinite(v)):
            raise InputError("distance matrix contains non-finite entries")
        if np.any(v < 0):
            raise InputError("distance matrix contains negative entries")
        if np.any(np.diag(v) != 0):
            raise InputError("distance matrix diagonal must be zero")
        asym = v - v.T  # |v - v.T| in place: one n x n temporary
        np.abs(asym, out=asym)
        if not (asym <= 1e-9).all():
            raise InputError("distance matrix must be symmetric")

    def __len__(self) -> int:
        return len(self.labels)

    def to_csv(self, path: str | os.PathLike | None = None) -> str:
        """Serialize as CSV: header row of labels, then labelled rows, 6 decimals."""
        import numpy as np

        # Each distinct row is formatted once, keyed on its bits, and repeated rows
        # share its string. Each distinct value is formatted once, also keyed on
        # bits, so -0.0 keeps its sign.
        bits = self.values.view(np.uint64)
        first: dict[bytes, int] = {}
        row_of = [first.setdefault(row.tobytes(), i) for i, row in enumerate(bits)]
        text_of = _SixDecimals()
        body = {i: ",".join(map(text_of.__getitem__, bits[i].tolist())) for i in first.values()}
        names = list(map(_quoted, self.labels))
        return _csv(("label", *names), zip(names, map(body.get, row_of)), path)


def build_distance_matrix(ls: Sequence[Transcription]) -> DistanceMatrix:
    """Pairwise tone_distance matrix; labels preserve input order."""
    import numpy as np

    if len(ls) == 0:
        raise InputError("cannot build a distance matrix from an empty list")
    codes = [_CODES[t.digits] for t in ls]
    return DistanceMatrix(tuple(t.token for t in ls), _table()[np.ix_(codes, codes)])


def canonical_transcriptions() -> list[Transcription]:
    """All 150 transcriptions: 25 two-digit then 125 three-digit, ascending."""
    out = []
    for k in (2, 3):
        for digits in itertools.product(PITCH_LEVELS, repeat=k):
            out.append(Transcription(digits))
    return out


_INTERNED = {t.token: t for t in canonical_transcriptions()}
_CODES = {t.digits: code for code, t in enumerate(_INTERNED.values())}  # digits -> canonical code


@lru_cache(maxsize=1)
def tone_distance_database() -> DistanceMatrix:
    """The precomputed 150x150 distance matrix in canonical label order."""
    return build_distance_matrix(canonical_transcriptions())


@dataclass(frozen=True)
class NormalizedContour:
    """Three relative-pitch samples in [0, 1]."""

    values: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.values) != 3:
            raise InputError("normalized contour must have exactly 3 values")
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise InputError(f"normalized contour value outside [0, 1]: {v}")


def relative_pitch(t: Transcription) -> tuple[float, ...]:
    """Digits mapped to [0, 1]: min -> 0, max -> 1, midpoints in proportion.

    Level tones carry no relative variation; by convention they map to the
    constant 0.5.
    """
    lo = min(t.digits)
    hi = max(t.digits)
    if hi == lo:
        return tuple(0.5 for _ in t.digits)
    return tuple((d - lo) / (hi - lo) for d in t.digits)


def normalize_contour(t: Transcription) -> NormalizedContour:
    """Three-point relative-pitch contour; 2-digit tones are midpoint-expanded."""
    vals = relative_pitch(t)
    if len(vals) == 2:
        vals = (vals[0], (vals[0] + vals[1]) / 2.0, vals[1])
    return NormalizedContour(vals)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def variance_metric(l1: Transcription, l2: Transcription) -> float:
    """Relative-pitch discrepancy between two transcriptions.

    Sum of absolute differences of the sigmoid-squashed 3-point normalized
    contours. Zero iff the contours are equal; symmetric. Insensitive to
    absolute register, so e.g. "55" and "33" score 0.
    """
    u = normalize_contour(l1).values
    v = normalize_contour(l2).values
    return sum(abs(_sigmoid(a) - _sigmoid(b)) for a, b in zip(u, v))
