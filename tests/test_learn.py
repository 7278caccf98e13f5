import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tonelab import (
    InputError,
    LinearToneModel,
    Transcription,
    decode_transcription,
    embed,
    linearity_margin,
    parse_transcription,
    pitch_distance,
    pitch_distance_subgradient,
    pitch_loss,
    train_tone_model,
)
from tonelab.learn import _uniform_draws
from .synth import labelled_clip_set
import tonelab


def finite_difference(z, y, h=1e-6):
    grad = []
    for i in range(3):
        zp = list(z)
        zm = list(z)
        zp[i] += h
        zm[i] -= h
        grad.append((pitch_distance(zp, y) - pitch_distance(zm, y)) / (2 * h))
    return np.array(grad)


triple_st = st.tuples(*[st.floats(min_value=1.0, max_value=5.0) for _ in range(3)])
token_st = st.sampled_from([t.token for t in tonelab.canonical_transcriptions()])


# ---------------------------------------------------------------------------
# pitch distance


def test_pitch_distance_two_digit_label():
    assert pitch_distance((3.0, 3.0, 3.0), parse_transcription("35")) == 3.0


def test_pitch_distance_exact_match():
    assert pitch_distance((2.0, 1.0, 2.0), parse_transcription("212")) == 0.0


def test_pitch_distance_midpoint_term_vanishes():
    assert pitch_distance((3.0, 4.0, 5.0), parse_transcription("35")) == 0.0


@given(triple_st, token_st)
def test_pitch_distance_nonnegative(z, token):
    y = parse_transcription(token)
    assert pitch_distance(z, y) >= 0.0


@given(token_st)
def test_pitch_distance_zero_iff_expanded_label(token):
    y = parse_transcription(token)
    if len(y) == 3:
        exact = tuple(float(d) for d in y.digits)
    else:
        p, q = y.digits
        exact = (float(p), (p + q) / 2.0, float(q))
    assert pitch_distance(exact, y) == 0.0
    nudged = (exact[0], exact[1] + 1e-9, exact[2])
    assert pitch_distance(nudged, y) > 0.0


@given(triple_st, st.sampled_from([t.token for t in tonelab.canonical_transcriptions()
                                   if len(t.token) == 2]))
def test_two_digit_label_equals_midpoint_expansion(z, token):
    # the 2-digit rule is exactly the 3-digit rule on the midpoint-expanded label
    y = parse_transcription(token)
    p, q = y.digits
    direct = pitch_distance(z, y)
    expanded = abs(z[0] - p) + abs(z[1] - (p + q) / 2) + abs(z[2] - q)
    assert direct == pytest.approx(expanded, abs=1e-12)


# ---------------------------------------------------------------------------
# loss


def test_pitch_loss_zero_on_exact_batch():
    batch = [((2.0, 1.0, 2.0), parse_transcription("212")),
             ((3.0, 4.0, 5.0), parse_transcription("35"))]
    assert pitch_loss(batch) == 0.0


def test_pitch_loss_additive():
    pair = ((3.0, 3.0, 3.0), parse_transcription("35"))
    assert pitch_loss([pair]) == 3.0
    assert pitch_loss([pair, pair]) == 6.0


def test_pitch_loss_empty_batch_rejected():
    with pytest.raises(InputError):
        pitch_loss([])


# ---------------------------------------------------------------------------
# subgradient


def test_subgradient_frozen_example():
    # central finite differences at z=(3,3,3), y=35 give (0, -1, -1):
    # the z2 term |z2 - 4| and the z3 term |z3 - 5| both sit below their targets
    g = pitch_distance_subgradient((3.0, 3.0, 3.0), parse_transcription("35"))
    assert np.array_equal(g, [0.0, -1.0, -1.0])
    fd = finite_difference((3.0, 3.0, 3.0), parse_transcription("35"))
    assert np.allclose(g[1:], fd[1:], atol=1e-5)  # component 0 is at the kink


def test_subgradient_zero_at_minimum():
    g = pitch_distance_subgradient((2.0, 1.0, 2.0), parse_transcription("212"))
    assert np.array_equal(g, [0.0, 0.0, 0.0])


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    tokens = [t.token for t in tonelab.canonical_transcriptions()]
    checked = 0
    while checked < 1000:
        z = tuple(rng.uniform(1.0, 5.0, 3))
        y = parse_transcription(tokens[rng.integers(len(tokens))])
        targets = (
            (y.digits[0], y.digits[1], y.digits[2])
            if len(y) == 3
            else (y.digits[0], sum(y.digits) / 2, y.digits[1])
        )
        if min(abs(zi - ti) for zi, ti in zip(z, targets)) < 1e-4:
            continue  # stay away from the kinks
        g = pitch_distance_subgradient(z, y)
        assert np.allclose(g, finite_difference(z, y), atol=1e-5)
        checked += 1


# ---------------------------------------------------------------------------
# decoder


def test_decode_collapses_near_linear_triple():
    assert decode_transcription((2.6, 3.4, 4.6), 0.5).token == "35"


def test_decode_keeps_contour_triple():
    assert decode_transcription((3.0, 1.0, 2.0), 0.5).token == "312"


def test_decode_level_tone_is_linear():
    assert decode_transcription((5.0, 5.0, 5.0)).token == "55"


def test_decode_rounds_half_away_from_zero():
    assert decode_transcription((3.5, 1.0, 2.5)).token == "413"


def test_decode_requires_positive_beta():
    with pytest.raises(InputError):
        decode_transcription((3.0, 3.0, 3.0), beta=0.0)
    with pytest.raises(InputError):
        decode_transcription((3.0, 3.0, 3.0), beta=float("nan"))


@pytest.mark.parametrize("z,shown", [((math.nan, 3, 3), "(nan, 3, 3)"),
                                     ((math.inf, 3, 3), "(inf, 3, 3)"),
                                     ((3, -math.inf, 3), "(3, -inf, 3)"),
                                     (np.array([3.0, 3.0, np.nan]), "(3.0, 3.0, nan)")],
                         ids=["nan", "inf", "minus-inf", "array-nan"])
def test_decode_refuses_a_non_finite_triple(z, shown):
    with pytest.raises(InputError) as exc:
        decode_transcription(z)
    assert str(exc.value) == f"pitch triple must be finite, got {shown}"


def test_decode_clamps_out_of_range_values():
    assert decode_transcription((0.2, 6.8, 3.0)).token == "153"
    assert decode_transcription((-2.0, 9.0, 12.0)).token == "155"


@given(triple_st, st.floats(min_value=0.05, max_value=2.0))
def test_decode_length_matches_linearity(z, beta):
    t = decode_transcription(z, beta)
    assert all(1 <= d <= 5 for d in t.digits)
    assert (len(t) == 2) == (linearity_margin(z) < beta)


# ---------------------------------------------------------------------------
# model + embedding


def test_embed_zero_model_maps_to_mid_scale():
    model = LinearToneModel(np.zeros((3, 20)), np.zeros(3))
    z = embed(model, np.zeros(20))
    assert z == (3.0, 3.0, 3.0)


def test_embed_is_deterministic_and_bounded():
    rng = np.random.default_rng(3)
    model = LinearToneModel(rng.normal(size=(3, 8)), rng.normal(size=3))
    x = rng.normal(size=8)
    z1 = embed(model, x)
    z2 = embed(model, x)
    assert z1 == z2
    assert all(1.0 <= v <= 5.0 for v in z1)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_embed_bit_identical_to_frozen_expression():
    # pre-activations from -800 to 800: exp overflows, and the sigmoid goes subnormal
    rng = np.random.default_rng(27)
    models = [LinearToneModel(rng.normal(size=(3, k)) * scale, rng.normal(size=3) * scale)
              for k, scale in ((2, 1.0), (8, 1.0), (20, 30.0), (20, 150.0)) for _ in range(50)]
    inputs = [(model, rng.normal(size=model.n_features)) for model in models]
    for u in (-800.0, -745.0, -720.0, -709.0, -40.0, -0.5, 0.0, 0.5, 40.0, 709.0, 745.0, 800.0):
        inputs.append((LinearToneModel(np.zeros((3, 2)), np.array([u, -u, u / 2])), np.zeros(2)))
    pre = np.array([model.weights @ x + model.bias for model, x in inputs])
    sigmoid = 1.0 / (1.0 + np.exp(-pre))
    assert pre.min() <= -800.0 and pre.max() >= 800.0
    assert ((0.0 < sigmoid) & (sigmoid < 2.0**-1022)).any()  # a subnormal one
    for model, x in inputs:
        expected = 1.0 + 4.0 / (1.0 + np.exp(-(model.weights @ x + model.bias)))
        assert np.array_equal(embed(model, x), expected)


def test_embed_refuses_a_nan_pre_activation_and_saturates_an_infinite_one():
    """+-1.5e308 weights: one row overflows to +inf, one to -inf, and one takes
    inf - inf. The infinite ones squash to 5 and 1; the NaN one is refused."""
    big = np.full(20, 1.5e308)
    x = np.ones(20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert embed(LinearToneModel(np.stack([big, -big, np.zeros(20)]), np.zeros(3)), x) == \
            (5.0, 1.0, 3.0)
        with pytest.raises(InputError) as got:
            embed(LinearToneModel(np.stack([big, -big, np.tile([1.5e308, -1.5e308], 10)]),
                                  np.zeros(3)), x)
    assert str(got.value) == "model output is not a number: its weights overflow on this input"


def test_embed_length_mismatch():
    model = LinearToneModel(np.zeros((3, 4)), np.zeros(3))
    with pytest.raises(InputError):
        embed(model, np.zeros(5))


def test_features_must_be_1d():
    """A contour feature is a plain array, so this is the one check on its shape."""
    message = "feature must be a 1-D vector, got shape (2, 20)"
    with pytest.raises(InputError) as got:
        embed(LinearToneModel(np.zeros((3, 20)), np.zeros(3)), np.zeros((2, 20)))
    assert str(got.value) == message
    data = [(np.zeros(20), parse_transcription("15")), (np.zeros((2, 20)), parse_transcription("51"))]
    with pytest.raises(InputError) as got:
        train_tone_model(data)
    assert str(got.value) == message


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = LinearToneModel(rng.normal(size=(3, 6)), rng.normal(size=3))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = LinearToneModel.load(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)


def test_model_save_into_missing_directory_names_the_path(tmp_path):
    model = LinearToneModel(np.zeros((3, 4)), np.zeros(3))
    path = tmp_path / "no-such-dir" / "model.json"
    with pytest.raises(InputError, match=f"cannot write {path}: No such file or directory"):
        model.save(path)


def test_model_json_rejects_bad_payloads(tmp_path):
    with pytest.raises(InputError):
        LinearToneModel.from_json("not json")
    with pytest.raises(InputError):
        LinearToneModel.from_json(json.dumps({"format": "something-else"}))
    with pytest.raises(InputError):
        LinearToneModel.load(tmp_path / "missing.json")
    valid = {"format": "tonelab-linear-tone-model", "version": 1,
             "weights": [[0.0] * 4] * 3, "bias": [0.0] * 3}
    path = tmp_path / "model.json"
    for change, message in (({"version": 2}, "unsupported model version 2"),
                            ({"weights": [[math.nan] * 4] * 3},  # json writes the literal NaN
                             "model weights and bias must be finite")):
        path.write_text(json.dumps({**valid, **change}), encoding="utf-8")
        with pytest.raises(InputError) as got:
            LinearToneModel.load(path)
        assert str(got.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# training


def _tiny_features(seed=0):
    rng = np.random.default_rng(seed)
    rise = np.linspace(-1, 1, 12)
    fall = -rise
    data = []
    for _ in range(10):
        data.append((rise + 0.05 * rng.standard_normal(12), parse_transcription("15")))
        data.append((fall + 0.05 * rng.standard_normal(12), parse_transcription("51")))
    return data


def test_train_zero_lr_returns_initialization():
    data = _tiny_features()
    model = train_tone_model(data, lr=0.0, epochs=50, seed=9)
    rng = np.random.default_rng(9)
    w0 = rng.uniform(-0.1, 0.1, size=(3, 12))
    b0 = rng.uniform(-0.1, 0.1, size=3)
    assert np.array_equal(model.weights, w0)
    assert np.array_equal(model.bias, b0)


# the last two have more than 4 words, so they run the extra-words loop
BOUNDARY_SEEDS = [2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**160 + 7]


@pytest.mark.parametrize("n", [6, 63, 303])
def test_uniform_draws_equal_numpy_default_rng(n):
    for seed in [*range(1000), *BOUNDARY_SEEDS]:
        ours = np.array(_uniform_draws(seed, n, -0.1, 0.1))
        assert ours.tobytes() == np.random.default_rng(seed).uniform(-0.1, 0.1, n).tobytes(), seed


def test_uniform_draws_known_answers():
    """Pinned, so that the model bytes for a seed hold whatever numpy's uniform() does."""
    assert [x.hex() for x in _uniform_draws(0, 3, -0.1, 0.1)] == [
        "0x1.c0cbca647ced0p-6", "-0x1.792e736320f47p-5", "-0x1.7808d4489d6d2p-4"]
    assert [x.hex() for x in _uniform_draws(3, 3, -0.1, 0.1)] == [
        "-0x1.536faaf3cd9dap-4", "-0x1.af35acaba6ce0p-5", "0x1.ed9bab612925cp-5"]
    assert [x.hex() for x in _uniform_draws(2**128, 3, -0.1, 0.1)] == [
        "0x1.2251bfa43cb4cp-5", "-0x1.a5172bbdbdfc0p-5", "0x1.6e3a448102d34p-6"]


def test_train_takes_a_numpy_integer_seed():
    data = _tiny_features()
    ours = train_tone_model(data, lr=0.0, epochs=0, seed=np.int64(3))
    assert np.array_equal(ours.weights, train_tone_model(data, lr=0.0, epochs=0, seed=3).weights)


def test_train_single_example_loss_strictly_decreases():
    data = [(np.linspace(-1, 1, 12), parse_transcription("15")),
            (-np.linspace(-1, 1, 12), parse_transcription("51"))]
    model = train_tone_model(data, lr=0.01, epochs=50, seed=1)
    first = model.loss_history[:11]
    assert all(a > b for a, b in zip(first, first[1:]))


def test_train_final_loss_never_exceeds_initial():
    model = train_tone_model(_tiny_features(), lr=0.3, epochs=40, seed=2)
    final = pitch_loss([(embed(model, f), y) for f, y in _tiny_features()])
    initial_model = train_tone_model(_tiny_features(), lr=0.0, epochs=1, seed=2)
    initial = pitch_loss([(embed(initial_model, f), y) for f, y in _tiny_features()])
    assert final <= initial + 1e-9


def test_train_is_bit_reproducible():
    a = train_tone_model(_tiny_features(), lr=0.01, epochs=30, seed=5)
    b = train_tone_model(_tiny_features(), lr=0.01, epochs=30, seed=5)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert a.loss_history == b.loss_history


def test_train_input_validation():
    with pytest.raises(InputError):
        train_tone_model([])
    one_label = [(np.zeros(4), parse_transcription("15"))] * 3
    with pytest.raises(InputError):
        train_tone_model(one_label)
    ragged = [(np.zeros(4), parse_transcription("15")),
              (np.zeros(5), parse_transcription("51"))]
    with pytest.raises(InputError):
        train_tone_model(ragged)
    with pytest.raises(InputError, match="seed must be >= 0"):
        train_tone_model([(np.zeros(4), parse_transcription("15")),
                          (np.zeros(4), parse_transcription("51"))], seed=-1)


def test_train_separable_synthetic_set():
    # 4 contour shapes, 40 clips; hold out 20%
    from tonelab import contour_feature, extract_f0

    clips = labelled_clip_set(["15", "51", "315", "513"], per_class=10, seed=11)
    data = [(contour_feature(extract_f0(clip)), label) for clip, label in clips]
    rng = np.random.default_rng(0)
    order = rng.permutation(len(data))
    held_out = [data[i] for i in order[:8]]
    training = [data[i] for i in order[8:]]
    model = train_tone_model(training, lr=0.002, epochs=2000, seed=7)
    hits = sum(
        1 for f, y in held_out if decode_transcription(embed(model, f)) == y
    )
    assert hits / len(held_out) >= 0.9
    train_hits = sum(
        1 for f, y in training if decode_transcription(embed(model, f)) == y
    )
    assert train_hits / len(training) >= 0.9
