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
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache, total_ordering

from .errors import InputError, ToneLabError, TranscriptionError

# numpy is imported inside the functions that build or read arrays, so the
# tone table, every matrix of build_distance_matrix and its CSV, one pair's
# distance, the variance metric and the text helpers load none.

PITCH_LEVELS = (1, 2, 3, 4, 5)
CURVE_DOMAIN = (1.0, 3.0)


_BATCH = 1 << 16  # characters per write: encoding a large output whole would add a full copy


def _write_all(pieces: Iterable[str], fh: io.TextIOBase) -> None:
    """Write the concatenated pieces to an open text stream in slices of _BATCH
    characters, the last one shorter; at most _BATCH characters and one piece wait."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            text = "".join(batch)
            cut = size - size % _BATCH
            for start in range(0, cut, _BATCH):
                fh.write(text[start : start + _BATCH])
            batch, size = [text[cut:]], size - cut
    if size:
        fh.write("".join(batch))


def _write(pieces: Iterable[str], out: str | os.PathLike | io.TextIOBase | None) -> None:
    """Write the concatenated pieces through _write_all to out: an open text stream,
    sys.stdout if out is None, or else the file at path out, written as UTF-8.

    An OSError other than BrokenPipeError from opening or writing the file raises
    InputError naming the path; a broken pipe (-o /dev/stdout into a reader that has
    gone) is left to the caller, as is any error of a stream, stdout included."""
    if out is None or hasattr(out, "write"):
        _write_all(pieces, sys.stdout if out is None else out)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            _write_all(pieces, fh)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _csv(header: Sequence[str], rows: Iterable[Sequence],
         out: str | os.PathLike | io.TextIOBase | None = None) -> str | None:
    """The package's one CSV format: a header row, then one line per row, cells
    joined by commas, each line ended by a newline. A float cell (numpy's float64
    included) is written with 6 decimals, any other cell with str(), so a str cell
    may carry columns already joined.

    With out None, returns the text. Otherwise writes it through _write to out, a
    path or an open text stream, each line as it is formatted, and returns None."""
    parts = _csv_parts(header, rows)
    if out is None:
        return "".join(parts)
    _write(parts, out)
    return None


def _csv_parts(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """_csv's text a line at a time: each row's cells joined by commas, then "\\n"."""
    for row in itertools.chain((header,), rows):
        yield ",".join([f"{cell:.6f}" if isinstance(cell, float) else str(cell) for cell in row])
        yield "\n"


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _quoted(name) -> str:
    """A name cell per RFC 4180: str(name), double-quoted with its quotes doubled
    when it holds a comma, a double quote or a line break, unchanged otherwise."""
    text = str(name)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _json(obj) -> Iterator[str]:
    """The package's one JSON format: sorted keys, 2-space indent, final newline, as an
    iterator over the pieces that json.dumps(obj, indent=2, sort_keys=True) joins and
    then the newline, so that _write sends a report out without holding its text."""
    import json

    return itertools.chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj), ("\n",))


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


class _Value:
    """Base of the three value classes below, which a frozen dataclass would make at
    the cost of importing inspect at every launch. Each names its fields in
    __match_args__ and sets them in __init__; they cannot be set or deleted after.
    ==, hash and repr go by the fields in that order. pickle and copy restore
    __dict__, which __setattr__ does not guard (a __slots__ class could not)."""

    __match_args__: tuple[str, ...]

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = (f"{name}={value!r}" for name, value in zip(self.__match_args__, self._astuple()))
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Transcription(_Value):
    """An ordered sequence of 2 or 3 pitch digits, each in 1..5; ordered by its digits."""

    __match_args__ = ("digits",)
    digits: tuple[int, ...]

    def __init__(self, digits: tuple[int, ...]) -> None:
        object.__setattr__(self, "digits", digits)
        if len(self.digits) not in (2, 3):
            raise TranscriptionError(
                f"transcription must have 2 or 3 digits, got {len(self.digits)}"
            )
        for d in self.digits:
            if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= 5:
                raise TranscriptionError(f"pitch digit out of range 1..5: {d!r}")

    def __lt__(self, other):
        return self.digits < other.digits if other.__class__ is self.__class__ else NotImplemented

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


class PitchCurve(_Value):
    """Polynomial a*x^2 + b*x + c modelling pitch variation on x in [1, 3]."""

    __match_args__ = ("a", "b", "c")
    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float) -> None:
        for name, value in zip(self.__match_args__, (a, b, c)):
            object.__setattr__(self, name, value)

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


def _abs_integral(a: float, b: float, c: float) -> float:
    """Integral of |a x^2 + b x + c| over CURVE_DOMAIN, in closed form.

    The real roots inside the domain split it, and the absolute antiderivative
    differences of the pieces are added left to right. A double root does not
    change the sign, so it does not split. A missing root is replaced by the
    upper end, whose piece adds exactly 0.
    """
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


class _Integrals(dict):
    """Coefficient triple -> _abs_integral of it, evaluated on first lookup."""

    def __missing__(self, key: tuple[float, float, float]) -> float:
        value = self[key] = _abs_integral(*key)
        return value


def _rows() -> tuple[tuple[float, ...], ...]:
    """The 150x150 tone_distance table in canonical order, as rows of floats.

    Each entry below the diagonal is _abs_integral of the exact difference of the
    two curves' coefficients, and each distinct difference is evaluated once; the
    rows mirror that lower triangle. The entries are checked here for what
    DistanceMatrix checks of an array: finite, nonnegative (and never -0.0, so a
    value keys its text), a zero diagonal and exact symmetry, which holds when each
    difference's negation, the entry's own argument order above the diagonal,
    gives the same value. Every matrix of build_distance_matrix is a submatrix of
    this table on its rows and columns, so this check covers them all. Not cached:
    _texts() and _table() keep what they need, so a process that needs one of
    them does not keep the rows of floats too.
    """
    coefs = [(cu.a, cu.b, cu.c) for cu in map(curve_of, canonical_transcriptions())]
    integrals = _Integrals()
    lower = [list(map(integrals.__getitem__,
                      [(a - a2, b - b2, c - c2) for a2, b2, c2 in coefs[: i + 1]]))
             for i, (a, b, c) in enumerate(coefs)]
    # each entry above the diagonal in its own argument order; the negations are added
    # after the lower triangle's differences, whose values stay the first len(above)
    above = [integrals[-a, -b, -c] for a, b, c in list(integrals)]
    if not all(math.isfinite(d) and math.copysign(1.0, d) > 0 for d in integrals.values()):
        raise ToneLabError("tone table holds a non-finite or negative entry")
    if above != list(integrals.values())[: len(above)] or any(row[i] for i, row in enumerate(lower)):
        raise ToneLabError("tone table is not symmetric with a zero diagonal")
    return tuple(tuple(row + [r[i] for r in lower[i + 1 :]]) for i, row in enumerate(lower))


@lru_cache(maxsize=1)
def _texts() -> tuple[tuple[str, ...], ...]:
    """_rows() with each entry as its 6-decimal text; each distinct value is formatted once."""
    rows = _rows()
    text_of = {d: f"{d:.6f}" for d in set(itertools.chain.from_iterable(rows))}
    return tuple(tuple(map(text_of.__getitem__, row)) for row in rows)


@lru_cache(maxsize=1)
def _table() -> np.ndarray:
    """_rows() as a read-only 150x150 float64 array, for code that computes on arrays."""
    import numpy as np

    table = np.array(_rows())
    table.setflags(write=False)
    return table


def tone_distance(l1: Transcription, l2: Transcription) -> float:
    """Area between the pitch curves of two transcriptions on [1, 3].

    Symmetric, nonnegative, and zero whenever the curves coincide (which can
    happen for distinct transcriptions, e.g. "35" and "345"). Equal bit for
    bit to the entry of _rows(), which is built the same way.
    """
    c1, c2 = curve_of(l1), curve_of(l2)
    return _abs_integral(c1.a - c2.a, c1.b - c2.b, c1.c - c2.c)


def categorical_distance(l1: Transcription, l2: Transcription) -> int:
    """0 if the two transcriptions are identical, 1 otherwise."""
    return 0 if l1.digits == l2.digits else 1


_ROW_BLOCK = 64  # rows per symmetry check and first linkage scan: keeps each temporary at 64 x n


class DistanceMatrix:
    """Symmetric nonnegative distance matrix with labelled rows; its attributes
    cannot be set.

    DistanceMatrix(labels, values) checks the array and keeps it as float64, with
    ``codes`` None. A matrix of build_distance_matrix keeps each label's canonical
    code in ``codes`` instead: its ``values`` is the tone table on those rows and
    columns, formed on first read and read-only, and _rows() has checked it.
    """

    codes: tuple[int, ...] | None = None

    def __init__(self, labels: Sequence[str], values) -> None:
        import numpy as np

        object.__setattr__(self, "labels", tuple(labels))
        n = len(self.labels)
        v = np.asarray(values, dtype=float)
        object.__setattr__(self, "values", v)
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
        for start in range(0, n, _ROW_BLOCK):  # |v - v.T| one row block at a time
            asym = v[start : start + _ROW_BLOCK] - v[:, start : start + _ROW_BLOCK].T
            np.abs(asym, out=asym)
            if not (asym <= 1e-9).all():
                raise InputError("distance matrix must be symmetric")

    @cached_property
    def values(self) -> np.ndarray:
        """The n x n float64 distances (set at once for a matrix built from an array)."""
        import numpy as np

        v = _table()[np.ix_(self.codes, self.codes)]
        v.setflags(write=False)
        return v

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r} of a DistanceMatrix")

    def __len__(self) -> int:
        return len(self.labels)

    def to_csv(self, path: str | os.PathLike | io.TextIOBase | None = None) -> str | None:
        """Serialize as CSV: header row of labels, then labelled rows, 6 decimals.

        Returns the text if path is None. Given a path or an open text stream, writes
        the lines to it as they are joined, in slices of at most 64 KiB, and returns
        None: then a matrix with codes holds the text of only its distinct lines, at
        most 150, and one built from an array one row's floats and line."""
        names = list(map(_quoted, self.labels))
        if self.codes is not None:
            # A label is its code's token, so each distinct code's whole line is joined
            # once from the table's texts.
            texts, row_of = _texts(), self.codes
            line = {code: ",".join([label, *map(texts[code].__getitem__, row_of)])
                    for code, label in dict(zip(row_of, self.labels)).items()}
            rows = ((line[code],) for code in row_of)
        else:
            rows = ((name, *row.tolist()) for name, row in zip(names, self.values))
        return _csv(("label", *names), rows, path)


def build_distance_matrix(ls: Sequence[Transcription]) -> DistanceMatrix:
    """Pairwise tone_distance matrix; labels preserve input order. It keeps the
    labels' canonical codes, so its values are formed only when read."""
    if len(ls) == 0:
        raise InputError("cannot build a distance matrix from an empty list")
    m = object.__new__(DistanceMatrix)  # no array to check: the codes come from _CODES
    vars(m).update(labels=tuple(t.token for t in ls), codes=tuple(_CODES[t.digits] for t in ls))
    return m


_INTERNED = {t.token: t for k in (2, 3)
             for t in map(Transcription, itertools.product(PITCH_LEVELS, repeat=k))}
_CODES = {t.digits: code for code, t in enumerate(_INTERNED.values())}  # digits -> canonical code


def canonical_transcriptions() -> list[Transcription]:
    """All 150 transcriptions: 25 two-digit then 125 three-digit, ascending. A new
    list on each call, of the shared instances that parse_transcription returns."""
    return list(_INTERNED.values())


@lru_cache(maxsize=1)
def tone_distance_database() -> DistanceMatrix:
    """The precomputed 150x150 distance matrix in canonical label order."""
    return build_distance_matrix(canonical_transcriptions())


class NormalizedContour(_Value):
    """Three relative-pitch samples in [0, 1]."""

    __match_args__ = ("values",)
    values: tuple[float, float, float]

    def __init__(self, values: tuple[float, float, float]) -> None:
        object.__setattr__(self, "values", values)
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
