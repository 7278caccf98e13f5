import copy
import io
import json
import math
import operator
import pickle
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from tonelab import (
    DistanceMatrix,
    InputError,
    NormalizedContour,
    PitchCurve,
    ToneLabError,
    Transcription,
    TranscriptionError,
    build_distance_matrix,
    canonical_transcriptions,
    categorical_distance,
    curve_of,
    normalize_contour,
    parse_transcription,
    relative_pitch,
    tone_distance,
    tone_distance_database,
    variance_metric,
)
from tonelab import tones

# ---------------------------------------------------------------------------
# oracles


def quadrature_distance(l1: Transcription, l2: Transcription, panels: int = 20) -> float:
    """Composite adaptive quadrature of |curve1 - curve2| over [1, 3].

    Uniform pre-subdivision guarantees the quadrature sees every sign dip:
    on this digit grid the two roots of a difference polynomial are never
    closer than 1/7, so 0.1-wide panels cannot straddle a whole dip.
    """
    c1, c2 = curve_of(l1), curve_of(l2)

    def integrand(x):
        return abs(c1(x) - c2(x))

    edges = np.linspace(1.0, 3.0, panels + 1)
    return sum(
        quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13, limit=100)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


ALL_TOKENS = [t.token for t in canonical_transcriptions()]

token_st = st.sampled_from(ALL_TOKENS)


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic():
    assert parse_transcription("35").digits == (3, 5)
    assert parse_transcription("312").digits == (3, 1, 2)


def test_parse_parenthesized():
    assert parse_transcription("(35)").digits == (3, 5)
    assert parse_transcription(" (312) ").digits == (3, 1, 2)


@pytest.mark.parametrize("bad", ["3555", "1", "", "96", "30", "a5", "3.5", "(35", "()"])
def test_parse_rejects(bad):
    with pytest.raises(TranscriptionError):
        parse_transcription(bad)


def test_transcription_validates_digits():
    with pytest.raises(TranscriptionError):
        Transcription((0, 3))
    with pytest.raises(TranscriptionError):
        Transcription((1, 2, 3, 4))


@given(token_st)
def test_parse_round_trips(token):
    t = parse_transcription(token)
    assert t.token == str(t) == token
    assert list(t) == [int(c) for c in token]


def test_canonical_transcriptions_are_the_shared_instances_in_a_new_list():
    first, second = canonical_transcriptions(), canonical_transcriptions()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    assert all(parse_transcription(t.token) is t for t in first)
    first.clear()
    assert len(canonical_transcriptions()) == 150


# ---------------------------------------------------------------------------
# value classes: what a caller sees is what frozen dataclasses showed


VALUES = [
    (Transcription((3, 1, 2)), "Transcription(digits=(3, 1, 2))", ("digits",), ((3, 1, 2),)),
    (PitchCurve(0.5, -2.5, 5.0), "PitchCurve(a=0.5, b=-2.5, c=5.0)", ("a", "b", "c"),
     (0.5, -2.5, 5.0)),
    (NormalizedContour((1.0, 0.0, 0.5)), "NormalizedContour(values=(1.0, 0.0, 0.5))",
     ("values",), ((1.0, 0.0, 0.5),)),
]


@pytest.mark.parametrize("value, text, names, fields", VALUES,
                         ids=["Transcription", "PitchCurve", "NormalizedContour"])
def test_value_classes_compare_hash_show_and_copy_by_their_fields(value, text, names, fields):
    cls = type(value)
    twin = cls(**dict(zip(names, fields)))
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert cls.__match_args__ == names
    assert tuple(getattr(value, name) for name in names) == fields
    assert repr(value) == text
    assert value != fields and value.__eq__(fields) is NotImplemented
    assert all(value != other for other, *_ in VALUES if type(other) is not cls)
    changed = cls(*fields[:-1], fields[-1][::-1] if isinstance(fields[-1], tuple) else -fields[-1])
    assert changed != value and not changed == value
    # a __slots__ class whose __setattr__ raises could not be unpickled by default
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*copies, copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and repr(copied) == text
        assert hash(copied) == hash(value)
    for name in (*names, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    with pytest.raises(TypeError):
        cls(*fields, fields[0])
    with pytest.raises(TypeError):
        cls(*fields[:-1])


def test_value_classes_match_their_fields_by_position():
    match Transcription((3, 5)):
        case PitchCurve() | NormalizedContour():
            raise AssertionError("matched another class")
        case Transcription(digits):
            assert digits == (3, 5)
    match PitchCurve(0.0, 1.0, 2.0):
        case PitchCurve(a, b, c):
            assert (a, b, c) == (0.0, 1.0, 2.0)
    match normalize_contour(parse_transcription("35")):
        case NormalizedContour(values):
            assert values == (0.0, 0.5, 1.0)


COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def test_transcriptions_order_by_digits_and_only_among_themselves():
    ts = canonical_transcriptions()
    assert [t.digits for t in sorted(ts)] == sorted(t.digits for t in ts)
    low, high = Transcription((3, 5)), Transcription((3, 5, 1))
    assert [op(low, high) for op in COMPARISONS] == [True, True, False, False]
    assert [op(high, low) for op in COMPARISONS] == [False, False, True, True]
    assert [op(low, Transcription((3, 5))) for op in COMPARISONS] == [False, True, False, True]
    for other in ((3, 5), "35", PitchCurve(0.0, 1.0, 2.0)):
        for op in COMPARISONS:
            with pytest.raises(TypeError):
                op(low, other)
            with pytest.raises(TypeError):
                op(other, low)
    for value, *_ in VALUES[1:]:
        for op in COMPARISONS:
            with pytest.raises(TypeError):
                op(value, value)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Transcription((3,)), TranscriptionError,
     "transcription must have 2 or 3 digits, got 1"),
    (lambda: Transcription((3, 5, 1, 2)), TranscriptionError,
     "transcription must have 2 or 3 digits, got 4"),
    (lambda: Transcription((0, 3)), TranscriptionError, "pitch digit out of range 1..5: 0"),
    (lambda: Transcription((3, True)), TranscriptionError,
     "pitch digit out of range 1..5: True"),
    (lambda: Transcription((3, 5.0)), TranscriptionError, "pitch digit out of range 1..5: 5.0"),
    (lambda: NormalizedContour((0.5, 0.5)), InputError,
     "normalized contour must have exactly 3 values"),
    (lambda: NormalizedContour((0.5, 1.5, 0.0)), InputError,
     "normalized contour value outside [0, 1]: 1.5"),
])
def test_value_classes_refuse_bad_fields_with_the_same_messages(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# pitch curves


def test_curve_of_falling_line():
    c = curve_of(parse_transcription("41"))
    assert (c.a, c.b, c.c) == (0.0, -1.5, 5.5)


def test_curve_of_fall_rise_quadratic():
    c = curve_of(parse_transcription("312"))
    assert (c.a, c.b, c.c) == (1.5, -6.5, 8.0)
    # independent oracle: solve the 3x3 Vandermonde system
    v = np.vander([1.0, 2.0, 3.0], 3)
    coeffs = np.linalg.solve(v, np.array([3.0, 1.0, 2.0]))
    assert np.allclose([c.a, c.b, c.c], coeffs)


def test_curve_of_level_tone_is_constant():
    c = curve_of(parse_transcription("55"))
    assert (c.a, c.b) == (0.0, 0.0)
    assert c(1.0) == c(2.4) == c(3.0) == 5.0


@given(token_st)
def test_curve_interpolates_knots(token):
    t = parse_transcription(token)
    c = curve_of(t)
    assert c(1.0) == pytest.approx(t.digits[0], abs=1e-12)
    assert c(3.0) == pytest.approx(t.digits[-1], abs=1e-12)
    if len(t) == 3:
        assert c(2.0) == pytest.approx(t.digits[1], abs=1e-12)
    else:
        assert c.a == 0.0


# ---------------------------------------------------------------------------
# tone distance


def test_distance_golden_value():
    # verified against the quadrature oracle; displays as 2.27 at 2 decimals
    d = tone_distance(parse_transcription("41"), parse_transcription("312"))
    assert d == pytest.approx(2.268354, abs=1e-6)
    assert f"{d:.2f}" == "2.27"
    assert d == pytest.approx(
        quadrature_distance(parse_transcription("41"), parse_transcription("312")),
        abs=1e-9,
    )


def test_distance_level_gap():
    assert tone_distance(parse_transcription("55"), parse_transcription("33")) == 4.0


def test_distance_coincident_curves():
    # the quadratic through (1,3),(2,4),(3,5) degenerates to the 35 line
    d = tone_distance(parse_transcription("35"), parse_transcription("345"))
    assert d == 0.0
    assert quadrature_distance(
        parse_transcription("35"), parse_transcription("345")
    ) == pytest.approx(0.0, abs=1e-12)


@given(token_st)
def test_distance_self_is_zero(token):
    t = parse_transcription(token)
    assert tone_distance(t, t) == 0.0


@given(token_st, token_st)
def test_distance_symmetric_nonnegative(a, b):
    l1, l2 = parse_transcription(a), parse_transcription(b)
    d = tone_distance(l1, l2)
    assert d >= 0.0
    assert tone_distance(l2, l1) == d


@given(token_st, token_st, st.integers(min_value=-4, max_value=4))
def test_distance_shift_invariant(a, b, offset):
    l1, l2 = parse_transcription(a), parse_transcription(b)
    shifted = []
    for t in (l1, l2):
        digits = tuple(d + offset for d in t.digits)
        if not all(1 <= d <= 5 for d in digits):
            return
        shifted.append(Transcription(digits))
    assert tone_distance(*shifted) == pytest.approx(tone_distance(l1, l2), abs=1e-12)


def test_distance_matches_quadrature_spot_checks():
    rng = np.random.default_rng(2024)
    ts = canonical_transcriptions()
    for _ in range(10):
        i, j = rng.integers(0, len(ts), size=2)
        assert tone_distance(ts[i], ts[j]) == pytest.approx(
            quadrature_distance(ts[i], ts[j]), abs=1e-9
        )


# ---------------------------------------------------------------------------
# distance matrix


def test_matrix_single_item():
    m = build_distance_matrix([parse_transcription("55")])
    assert m.labels == ("55",)
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == 0.0


def test_matrix_pair_golden():
    m = build_distance_matrix([parse_transcription("41"), parse_transcription("312")])
    assert m.labels == ("41", "312")
    assert m.values[0, 1] == m.values[1, 0] == pytest.approx(2.268354, abs=1e-6)


def test_matrix_empty_rejected():
    with pytest.raises(InputError):
        build_distance_matrix([])


def test_matrix_database_shape_and_order():
    db = tone_distance_database()
    assert len(db.labels) == 150
    assert db.labels[:3] == ("11", "12", "13")
    assert db.labels[25] == "111"
    assert db.labels[-1] == "555"
    assert np.array_equal(db.values, db.values.T)
    assert np.all(np.diag(db.values) == 0.0)


def _reference_abs_poly_integral(a: float, b: float, c: float) -> float:
    """Scalar closed form: |a*x^2 + b*x + c| integrated over [1, 3].

    The real roots inside (1, 3) split the domain; the absolute antiderivative
    differences of the pieces are added left to right.
    """
    lo, hi = 1.0, 3.0
    if a == 0.0:
        roots = [] if b == 0.0 else [r for r in (-c / b,) if lo < r < hi]
    else:
        disc = b * b - 4.0 * a * c
        roots = []
        if disc > 0.0:
            s = math.sqrt(disc)
            roots = sorted(r for r in ((-b - s) / (2.0 * a), (-b + s) / (2.0 * a))
                           if lo < r < hi)

    def antiderivative(x: float) -> float:
        return ((a / 3.0 * x + b / 2.0) * x + c) * x

    points = [lo, *roots, hi]
    total = 0.0
    for left, right in zip(points, points[1:]):
        total += abs(antiderivative(right) - antiderivative(left))
    return total


def reference_distance(l1: Transcription, l2: Transcription) -> float:
    c1, c2 = curve_of(l1), curve_of(l2)
    return _reference_abs_poly_integral(c1.a - c2.a, c1.b - c2.b, c1.c - c2.c)


def reference_matrix(ts) -> np.ndarray:
    memo = {}
    for a in ts:
        for b in ts:
            if (a.digits, b.digits) not in memo:
                memo[a.digits, b.digits] = reference_distance(a, b)
    return np.array([[memo[a.digits, b.digits] for b in ts] for a in ts])


def test_database_bit_identical_to_scalar_closed_form():
    # every entry of both triangles, each pair evaluated in its own argument order
    ts = canonical_transcriptions()
    ref = reference_matrix(ts)
    assert np.array_equal(tone_distance_database().values, ref)
    assert all(tone_distance(a, b) == ref[i, j]
               for i, a in enumerate(ts) for j, b in enumerate(ts))


@pytest.mark.parametrize("integral,match", [
    (lambda a, b, c: -0.0 if (a, b, c) == (0.0, 0.0, 0.0) else 1.0, "negative"),
    (lambda a, b, c: math.nan if a > 0.0 else 0.0, "non-finite"),
    (lambda a, b, c: 1.0, "zero diagonal"),
    (lambda a, b, c: 0.0 if (a, b, c) == (0.0, 0.0, 0.0) else 1.0 if (a, b, c) > (0.0,) * 3 else 2.0,
     "symmetric"),
], ids=["negative-zero", "nan", "diagonal", "asymmetric"])
def test_table_rows_are_checked_when_built(integral, match, monkeypatch):
    monkeypatch.setattr(tones, "_abs_integral", integral)
    with pytest.raises(ToneLabError, match=match):
        tones._rows()


def test_table_build_memory_stays_small():
    tones._table()  # any one-time allocations happen outside the measurement
    tracemalloc.start()
    try:
        tones._table.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 2**20


@pytest.mark.parametrize("order", ["seeded-600-with-repeats", "canonical-reversed"])
def test_matrix_bit_identical_to_scalar_closed_form(order):
    ts = canonical_transcriptions()
    if order == "canonical-reversed":
        ls = ts[::-1]
    else:
        ls = [ts[i] for i in np.random.default_rng(600).integers(0, len(ts), 600)]
    m = build_distance_matrix(ls)
    assert m.labels == tuple(t.token for t in ls)
    assert np.array_equal(m.values, reference_matrix(ls))


# In a fresh interpreter: build a matrix and the database, write their CSVs, then
# report whether numpy was loaded, and each matrix's values as bytes.
_NUMPY_FREE_CSV = """
import json, sys
from tonelab import build_distance_matrix, parse_transcription, tone_distance_database
matrices = [build_distance_matrix([parse_transcription(t) for t in sys.argv[1:]]),
            tone_distance_database()]
texts = [m.to_csv() for m in matrices]
loaded = "numpy" in sys.modules
print(json.dumps({"numpy_after_csv": loaded, "rows": [t.count("\\n") for t in texts],
                  "writeable": [m.values.flags.writeable for m in matrices],
                  "values": [m.values.tobytes().hex() for m in matrices]}))
"""


def test_matrix_and_its_csv_load_no_numpy_and_values_are_read_only():
    ts = canonical_transcriptions()
    ls = [ts[i] for i in np.random.default_rng(71).integers(0, len(ts), 70)] + ts[:3]
    out = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CSV, *(t.token for t in ls)],
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["numpy_after_csv"] is False
    assert report["rows"] == [len(ls) + 1, 151]
    assert report["writeable"] == [False, False]
    for hexed, items in zip(report["values"], (ls, ts)):
        values = np.frombuffer(bytes.fromhex(hexed), dtype=np.float64).reshape(len(items), -1)
        assert values.view(np.uint64).tobytes() == reference_matrix(items).view(np.uint64).tobytes()


def test_only_build_distance_matrix_makes_codes_and_values_cannot_be_written():
    m = build_distance_matrix([parse_transcription(t) for t in ("41", "312", "41")])
    assert m.codes == (tones._CODES[(4, 1)], tones._CODES[(3, 1, 2)], tones._CODES[(4, 1)])
    with pytest.raises(ValueError, match="read-only"):
        m.values[0, 1] = 0.0
    with pytest.raises(AttributeError):
        m.codes = (0, 0, 0)  # the values formed above stay those of the codes
    assert DistanceMatrix(("a",), np.zeros((1, 1))).codes is None
    with pytest.raises(TypeError, match="codes"):  # the one public constructor takes an array
        DistanceMatrix(("a", "b"), np.zeros((2, 2)), codes=(3, 149))


def test_csv_of_5000_tokens_streams_in_bounded_memory():
    # no n x n matrix is formed: 5,000 tokens would make a 200 MB one
    ts = canonical_transcriptions()
    ls = [ts[i] for i in np.random.default_rng(5001).integers(0, len(ts), 5000)]
    tones._texts()  # the cached tables are built outside the measurement
    sink = _Writes(keep=False)
    assert _peak_mib(lambda: build_distance_matrix(ls).to_csv(sink)) < 16
    assert sink.chars > 9 * 5000 * 5000


def test_matrix_validation():
    with pytest.raises(InputError):
        DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(InputError):
        DistanceMatrix(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(InputError):
        DistanceMatrix(("a", "b"), np.array([[1.0, 2.0], [2.0, 1.0]]))  # diagonal
    with pytest.raises(InputError):
        DistanceMatrix(("a",), np.array([[0.0, 0.0]]))  # shape
    with pytest.raises(InputError, match="^distance matrix needs at least one label$"):
        DistanceMatrix((), np.zeros((0, 0)))
    # symmetry is checked in blocks of 64 rows: entries in a partial last block,
    # and sizes at and just past one block
    for n, (i, j) in ((130, (129, 0)), (130, (129, 128)), (64, (63, 62)), (65, (64, 63))):
        v = _random_matrix(n, n).values.copy()
        DistanceMatrix(tuple(map(str, range(n))), v)
        v[i, j] += 1e-6
        with pytest.raises(InputError, match="symmetric"):
            DistanceMatrix(tuple(map(str, range(n))), v)
    # each error keeps its order: a non-finite entry is reported before asymmetry
    v = _random_matrix(70, 1).values.copy()
    v[69, 0] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        DistanceMatrix(tuple(map(str, range(70))), v)


def test_matrix_csv_format():
    m = build_distance_matrix([parse_transcription("41"), parse_transcription("312")])
    lines = m.to_csv().splitlines()
    assert lines[0] == "label,41,312"
    assert lines[1] == "41,0.000000,2.268354"
    assert lines[2] == "312,2.268354,0.000000"


def reference_csv(m: DistanceMatrix) -> str:
    """Frozen copy of the writer that formats every entry with an f-string."""
    lines = ["label," + ",".join(m.labels) + "\n"]
    for label, row in zip(m.labels, m.values):
        lines.append(label + "," + ",".join(f"{x:.6f}" for x in row) + "\n")
    return "".join(lines)


def _signed_zero_matrix() -> DistanceMatrix:
    # -0.0 passes validation and prints as "-0.000000"; values that round to
    # the same 6 decimals must still be formatted one by one
    v = np.array([
        [0.0, -0.0, 1e-7, 2.0000004],
        [-0.0, -0.0, 0.0, 2.0000006],
        [1e-7, 0.0, 0.0, -0.0],
        [2.0000004, 2.0000006, -0.0, 0.0],
    ])
    return DistanceMatrix(("a", "b", "c", "d"), v)


def _random_matrix(n: int, seed: int) -> DistanceMatrix:
    upper = np.triu(np.random.default_rng(seed).uniform(0.0, 9.0, (n, n)), 1)
    return DistanceMatrix(tuple(f"r{i}" for i in range(n)), upper + upper.T)


# Rows that differ only in the sign of a zero must print differently.
_SIGNED_ZERO_ROWS = DistanceMatrix(("a", "b", "c"), np.array(
    [[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))

CSV_CASES = {
    "seeded-600": lambda: build_distance_matrix(
        [parse_transcription(ALL_TOKENS[i])
         for i in np.random.default_rng(601).integers(0, 150, 600)]),
    "database": tone_distance_database,
    "signed-zeros": _signed_zero_matrix,
    # "35" and "345" have coincident curves: equal rows under different labels
    "repeated-rows": lambda: build_distance_matrix(
        [parse_transcription(t) for t in ("35", "345", "41", "35", "312", "41")]),
    "all-distinct": lambda: _random_matrix(9, 5),
    "signed-zero-rows": lambda: _SIGNED_ZERO_ROWS,
    "single": lambda: DistanceMatrix(("x",), np.zeros((1, 1))),
}


@pytest.mark.parametrize("which", CSV_CASES)
def test_csv_byte_identical_to_per_entry_writer(which, tmp_path):
    m = CSV_CASES[which]()
    path = tmp_path / "m.csv"
    assert m.to_csv(path) is None
    assert path.read_bytes() == reference_csv(m).encode("utf-8")
    if which == "signed-zeros":
        assert "-0.000000" in m.to_csv()
    if which == "signed-zero-rows":
        assert m.to_csv().splitlines()[1:3] == ["a,0.000000,0.000000,1.000000",
                                                "b,-0.000000,0.000000,1.000000"]


class _Writes:
    """A text sink that keeps each write, or only counts characters."""

    def __init__(self, keep: bool = True) -> None:
        self.keep, self.parts, self.chars = keep, [], 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        if self.keep:
            self.parts.append(text)
        return len(text)


@pytest.mark.parametrize("which", CSV_CASES)
def test_csv_to_a_stream_writes_what_the_text_holds(which):
    m = CSV_CASES[which]()
    sink = _Writes()
    assert m.to_csv(sink) is None
    assert "".join(sink.parts) == m.to_csv()
    assert max(map(len, sink.parts)) <= 1 << 16


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_matrix_validation_memory_stays_a_row_block():
    # the values themselves (7.6 MiB) exist before the measurement; a whole
    # |v - v.T| temporary would add as much again
    v = _random_matrix(1000, 4).values
    labels = tuple(map(str, range(1000)))
    assert _peak_mib(lambda: DistanceMatrix(labels, v)) < 2.0


def test_csv_memory_streamed_and_joined():
    m = CSV_CASES["seeded-600"]()
    text = m.to_csv()  # 3.1 MiB; one-time allocations happen outside the measurements
    sink = _Writes(keep=False)
    assert _peak_mib(lambda: m.to_csv(sink)) < 2.5
    assert sink.chars == len(text)
    # the text is joined from its lines, and a matrix with codes shares each distinct line
    del text
    assert _peak_mib(m.to_csv) < 4.6


def test_array_csv_to_a_path_holds_one_line(tmp_path):
    # 600 x 600 built from an array: 3.2 MB of CSV, which a path is given a line at a time
    m = _random_matrix(600, 7)
    path = tmp_path / "m.csv"
    assert _peak_mib(lambda: m.to_csv(path)) < 1
    assert path.read_bytes() == reference_csv(m).encode("utf-8")


def test_array_csv_text_holds_its_lines_not_its_cells():
    # the text and its joined lines; a join of every cell would hold each cell's string too
    m = _random_matrix(600, 8)
    size = len(m.to_csv())  # one-time allocations happen outside the measurement
    assert _peak_mib(m.to_csv) * 2**20 < 3 * size


def test_csv_quotes_labels_with_commas_quotes_or_line_breaks():
    import csv
    import io

    labels = ("a, b", 'q"t', "x,y.wav", "plain")
    v = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0],
                  [2.0, 1.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0]])
    text = DistanceMatrix(labels, v).to_csv()
    lines = text.splitlines()
    assert lines[0] == 'label,"a, b","q""t","x,y.wav",plain'
    assert lines[1] == '"a, b",0.000000,1.000000,2.000000,3.000000'
    assert lines[4] == "plain,3.000000,2.000000,1.000000,0.000000"
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["label", *labels]
    assert [row[0] for row in parsed[1:]] == list(labels)
    assert all(len(row) == 5 for row in parsed)


def test_array_csv_streams_one_row_at_a_time():
    # a 1,000 x 1,000 matrix built from an array: its 9.2 MB of CSV text is never held
    m = _random_matrix(1000, 6)
    sink = _Writes(keep=False)
    assert _peak_mib(lambda: m.to_csv(sink)) < 4
    assert sink.chars > 9 * 1000 * 1000


# Frozen copies of the hand-built writers that tones._csv and tones._json replaced.
class _SixDecimals(dict):
    """float64 bit pattern -> its 6-decimal text, formatted on first lookup."""

    def __missing__(self, key: int) -> str:
        value = struct.unpack("d", key.to_bytes(8, sys.byteorder))[0]
        text = self[key] = f"{value:.6f}"
        return text


def _old_matrix_csv(m: DistanceMatrix) -> str:
    bits = m.values.view(np.uint64)
    first: dict[bytes, int] = {}
    row_of = [first.setdefault(row.tobytes(), i) for i, row in enumerate(bits)]
    text_of = _SixDecimals()
    body = {i: ",".join(map(text_of.__getitem__, bits[i].tolist())) for i in first.values()}
    parts = ["label,", ",".join(m.labels), "\n"]
    for label, i in zip(m.labels, row_of):
        parts += (label, ",", body[i], "\n")
    return "".join(parts)


def _old_dendrogram_csv(dg) -> str:
    buf = io.StringIO()
    buf.write("cluster_a,cluster_b,height,new_size\n")
    for a, b, h, size in dg.steps:
        buf.write(f"{a},{b},{h:.6f},{size}\n")
    return buf.getvalue()


def _old_assignment_csv(assignment, items=None) -> str:
    names = list(items) if items is not None else [str(i) for i in range(len(assignment.labels))]
    buf = io.StringIO()
    buf.write("item,label\n")
    for name, label in zip(names, assignment.labels):
        buf.write(f"{name},{label}\n")
    return buf.getvalue()


def _old_f0_csv(track) -> str:
    buf = io.StringIO()
    buf.write("time_s,f0_hz\n")
    for t, f in zip(track.times, track.f0):
        buf.write(f"{t:.6f},{f:.6f}\n")
    return buf.getvalue()


def _old_mds_csv(labels, coords) -> str:
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    header = ["item", "x", "y"][: 1 + coords.shape[1]]
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for label, row in zip(labels, coords):
        buf.write(label + "," + ",".join(f"{x:.6f}" for x in row) + "\n")
    return buf.getvalue()


def _old_region_csv(report, region_ids) -> str:
    linkage_names = sorted(report["linkages"])
    lines = ["region," + ",".join(linkage_names)]
    for region in region_ids:
        row = [str(report["linkages"][name]["labels"][region]) for name in linkage_names]
        lines.append(region + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def _old_model_json(model) -> str:
    payload = {
        "format": "tonelab-linear-tone-model", "version": 1, "n_features": model.n_features,
        "weights": [list(row) for row in model.weights], "bias": list(model.bias),
        "squash": {"offset": 1.0, "scale": 4.0},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _writer_cases():
    """(name, new writer's text, frozen writer's text) on seeded and edge inputs."""
    from tonelab import cluster, learn, pitch
    from .synth import tone_clip

    rng = np.random.default_rng(13)
    matrices = [_random_matrix(n, seed) for n, seed in ((2, 1), (7, 2), (23, 3))]
    matrices += [_signed_zero_matrix(), _SIGNED_ZERO_ROWS, CSV_CASES["single"]()]
    for m in matrices:
        yield f"matrix-{len(m)}", m.to_csv(), _old_matrix_csv(m)
        for linkage in cluster.LINKAGES if len(m) > 1 else ():
            dg = cluster.hierarchical_cluster(m, linkage)
            yield f"dendrogram-{linkage}-{len(m)}", dg.to_csv(), _old_dendrogram_csv(dg)
        for dims in (1, 2)[: len(m) - 1]:
            coords = cluster.classical_mds(m, dims)
            yield (f"mds-{dims}-{len(m)}", cluster.mds_to_csv(m.labels, coords),
                   _old_mds_csv(m.labels, coords))
    # -0.0 heights, one step, Python and numpy float64 heights
    for h in (-0.0, 0.0, 1.5, np.float64(-0.0), np.float64(2.0000005)):
        dg = cluster.Dendrogram(((0, 1, h, 2),))
        yield f"dendrogram-one-{h!r}", dg.to_csv(), _old_dendrogram_csv(dg)
    for coords in ([[-0.0]], [[1.25, -0.0]], np.array([[-0.0, 3.0000005]])):
        yield (f"mds-one-{coords!r}", cluster.mds_to_csv(["r"], coords),
               _old_mds_csv(["r"], coords))

    points = rng.normal(size=(60, 3))
    for assignment in (cluster.dbscan(points, 0.5, 4), cluster.dbscan(points, 0.01, 4),
                       cluster.ClusterAssignment((cluster.NOISE,)),
                       cluster.ClusterAssignment((0,))):
        names = [f"clip{i}.wav" for i in range(len(assignment.labels))]
        yield "assignment", assignment.to_csv(), _old_assignment_csv(assignment)
        yield ("assignment-named", assignment.to_csv(names),
               _old_assignment_csv(assignment, names))

    tracks = [pitch.extract_f0(tone_clip(tok, base_hz=rng.uniform(150, 230), rng=rng))
              for tok in ("35", "214", "51")]
    tracks += [pitch.F0Track(np.array([-0.0]), np.array([-0.0]), 0.01),
               pitch.F0Track([0.005, 0.015], [0.0, 123.4567895], 0.01)]
    for track in tracks:
        yield f"f0-{len(track.times)}", track.to_csv(), _old_f0_csv(track)

    models = [learn.LinearToneModel(np.array([[-0.0, 1.0], [2.5, -3.0], [1e-7, 0.1]]),
                                    np.array([0.0, -0.0, 1.0]))]
    for seed in range(3):
        data = [(rng.normal(size=5), parse_transcription(ALL_TOKENS[int(i)]))
                for i in rng.integers(0, 150, 12)]
        models.append(learn.train_tone_model(data, epochs=20, seed=seed))
    for model in models:
        yield "model-json", model.to_json(), _old_model_json(model)


def test_writers_byte_identical_to_frozen_writers(tmp_path, capsys):
    for name, new, old in _writer_cases():
        assert new == old, name

    # the region-label CSV of dialect-cluster, on a seeded corpus
    from tonelab.cli import main
    from tonelab.dialect import load_corpus

    rng = np.random.default_rng(29)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("region\tword_id\ttranscription\n" + "".join(
        f"r{r}\tw{w}\t{ALL_TOKENS[int(rng.integers(0, 150))]}\n"
        for r in range(11) for w in range(6)), encoding="utf-8")
    out = tmp_path / "regions.csv"
    assert main(["dialect-cluster", "--corpus", str(corpus), "--linkage", "all",
                 "--out-csv", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = _old_region_csv(report, load_corpus(corpus).region_ids)
    assert out.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# JSON reports


def _escaped_region_report(shared: bool) -> dict:
    """dialect-cluster's report on regions whose names need JSON escapes; with shared
    False, each region lacks one word, so every pair has a coverage warning."""
    from tonelab.dialect import DialectCorpus, RegionLexicon, dialect_cluster_pipeline

    names = ('q"t', "back\\slash", "Zh\u014du \u6f6e\u5dde", "tab\there", "line\nbreak")
    rng = np.random.default_rng(37)
    regions = tuple(RegionLexicon(name, {f"w{w}": parse_transcription(ALL_TOKENS[int(i)])
                                         for w, i in enumerate(rng.integers(0, 150, 6))
                                         if shared or w != r})
                    for r, name in enumerate(names))
    return dialect_cluster_pipeline(DialectCorpus(regions), linkage="all")


def _model_payload() -> dict:
    # numpy float64 weights with signed zeros, as LinearToneModel.to_json passes them
    weights, bias = np.array([[-0.0, 1.0], [2.5, -3.0], [1e-7, 0.1]]), np.array([0.0, -0.0, 1.0])
    return {"format": "tonelab-linear-tone-model", "version": 1, "n_features": 2,
            "weights": [list(row) for row in weights], "bias": list(bias),
            "squash": {"offset": 1.0, "scale": 4.0}}


def test_json_pieces_join_to_what_json_dumps_writes():
    warned, unwarned = _escaped_region_report(False), _escaped_region_report(True)
    assert len(warned["coverage_warnings"]) == 10 and unwarned["coverage_warnings"] == []
    for obj in (warned, unwarned, _model_payload()):
        assert "".join(tones._json(obj)) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    text = "".join(tones._json(warned))
    assert '"q\\"t/back\\\\slash' in text and "\\u6f6e" in text and "tab\\there" in text


def _big_report(warnings: int) -> dict:
    report = _escaped_region_report(True)
    report["coverage_warnings"] = [f"r{i}/r{i + 1}: skipped {i % 7 + 1} unshared word(s)"
                                   for i in range(warnings)]
    return report


def test_json_report_goes_out_in_slices(monkeypatch):
    report = _big_report(5000)
    sink = _Writes()
    monkeypatch.setattr(sys, "stdout", sink)
    tones._write(tones._json(report), None)
    assert "".join(sink.parts) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert len(sink.parts) > 3 and max(map(len, sink.parts)) <= 1 << 16


def test_json_report_text_is_never_held_whole():
    report = _big_report(100_000)
    sink = _Writes(keep=False)
    assert _peak_mib(lambda: tones._write_all(tones._json(report), sink)) < 1
    assert sink.chars > 4.5 * 2**20  # the text the writes add up to


def test_tone_distance_is_the_table_entry_and_never_negative_zero():
    # the pure-Python pair evaluation against the vectorized table, by bits
    ts = canonical_transcriptions()
    table = tones._table()
    for i, a in enumerate(ts):
        for j, b in enumerate(ts):
            d = tone_distance(a, b)
            assert type(d) is float and d.hex() == float(table[i, j]).hex()
            assert math.copysign(1.0, d) == 1.0


# ---------------------------------------------------------------------------
# categorical distance


def test_categorical_distance():
    a, b = parse_transcription("35"), parse_transcription("345")
    assert categorical_distance(a, a) == 0
    assert categorical_distance(a, b) == 1
    assert categorical_distance(parse_transcription("55"), parse_transcription("44")) == 1


@given(token_st, token_st)
def test_categorical_is_binary_metric(a, b):
    l1, l2 = parse_transcription(a), parse_transcription(b)
    d = categorical_distance(l1, l2)
    assert d in (0, 1)
    assert d == categorical_distance(l2, l1)
    assert (d == 0) == (l1.digits == l2.digits)


# ---------------------------------------------------------------------------
# normalization


def test_relative_pitch_examples():
    assert relative_pitch(parse_transcription("412")) == pytest.approx(
        (1.0, 0.0, 1.0 / 3.0), abs=1e-12
    )
    assert relative_pitch(parse_transcription("25")) == (0.0, 1.0)
    assert relative_pitch(parse_transcription("55")) == (0.5, 0.5)


def test_normalize_contour_midpoint_expansion():
    assert normalize_contour(parse_transcription("25")).values == (0.0, 0.5, 1.0)


def test_normalize_contour_level_tone():
    assert normalize_contour(parse_transcription("55")).values == (0.5, 0.5, 0.5)


@given(token_st)
def test_normalize_contour_invariants(token):
    t = parse_transcription(token)
    values = normalize_contour(t).values
    assert len(values) == 3
    assert all(0.0 <= v <= 1.0 for v in values)
    if max(t.digits) != min(t.digits):
        assert min(values) == 0.0
        assert max(values) == 1.0


# ---------------------------------------------------------------------------
# variance metric


VARIANCE_REFERENCE = [
    ("445", 0.0000),
    ("45", 0.1225),
    ("245", 0.1608),
    ("255", 0.2311),
    ("154", 0.2829),
    ("251", 0.5243),
]


@pytest.mark.parametrize("other,expected", VARIANCE_REFERENCE)
def test_variance_reference_values(other, expected):
    v = variance_metric(parse_transcription("445"), parse_transcription(other))
    assert v == pytest.approx(expected, abs=5e-4)


def test_variance_against_independent_arithmetic():
    # recompute one value step by step: f1(445)=(0,0,1), f1(45)=(0,.5,1)
    sig = lambda x: 1.0 / (1.0 + math.exp(-x))
    expected = abs(sig(0.5) - sig(0.0))
    got = variance_metric(parse_transcription("445"), parse_transcription("45"))
    assert got == pytest.approx(expected, abs=1e-12)


@given(token_st, token_st)
def test_variance_symmetric_nonnegative(a, b):
    l1, l2 = parse_transcription(a), parse_transcription(b)
    v = variance_metric(l1, l2)
    assert v >= 0.0
    assert v == variance_metric(l2, l1)
    same_contour = normalize_contour(l1).values == normalize_contour(l2).values
    assert (v == 0.0) == same_contour


def test_variance_zero_for_all_three_digit_self_pairs():
    for t in canonical_transcriptions():
        if len(t) == 3:
            assert variance_metric(t, t) == 0.0
