import numpy as np
import pytest
from scipy.io import wavfile

from tonelab import (
    AudioClip,
    AudioError,
    F0Track,
    InputError,
    VoicingError,
    contour_feature,
    extract_f0,
    f0_baseline_transcribe,
    f0_baseline_triple,
    read_wav,
)
from tonelab.pitch import _cmndf, _difference_function, _frame_matrix
from .synth import SR, constant_track, tone_clip, tone_track


def sine_clip(freq, duration=0.5, amplitude=0.6, sr=SR):
    t = np.arange(int(duration * sr)) / sr
    return AudioClip(amplitude * np.sin(2 * np.pi * freq * t), sr)


# ---------------------------------------------------------------------------
# WAV loading


def test_read_wav_silence(tmp_path):
    path = tmp_path / "silence.wav"
    wavfile.write(path, 16000, np.zeros(16000, dtype=np.int16))
    clip = read_wav(path)
    assert clip.sample_rate == 16000
    assert len(clip.samples) == 16000
    assert np.all(clip.samples == 0.0)


def test_read_wav_stereo_averages_channels(tmp_path):
    path = tmp_path / "stereo.wav"
    left = (0.5 * np.ones(1000) * 32767).astype(np.int16)
    right = (-0.5 * np.ones(1000) * 32767).astype(np.int16)
    wavfile.write(path, 16000, np.stack([left, right], axis=1))
    clip = read_wav(path)
    assert clip.samples.ndim == 1
    assert np.abs(clip.samples).max() < 1e-4


def test_read_wav_float32(tmp_path):
    path = tmp_path / "float.wav"
    data = 0.25 * np.sin(2 * np.pi * 220 * np.arange(8000) / 16000).astype(np.float32)
    wavfile.write(path, 16000, data)
    clip = read_wav(path)
    assert np.allclose(clip.samples, data, atol=1e-7)


def test_read_wav_truncated_header(tmp_path):
    path = tmp_path / "broken.wav"
    path.write_bytes(b"RIFF\x10\x00\x00\x00WAVE")
    with pytest.raises(AudioError):
        read_wav(path)


def test_read_wav_missing_file(tmp_path):
    with pytest.raises(AudioError):
        read_wav(tmp_path / "nope.wav")


def test_audio_clip_validation():
    with pytest.raises(AudioError):
        AudioClip(np.zeros(0), 16000)
    with pytest.raises(AudioError):
        AudioClip(np.zeros(100), 4000)
    with pytest.raises(AudioError):
        AudioClip(np.full(100, 2.0), 16000)


# ---------------------------------------------------------------------------
# F0 extraction


def test_difference_function_matches_direct_loop():
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(3, 120))
    tau_max = 40
    w = 120 - tau_max
    fast = _difference_function(frames, tau_max)
    for fi in range(3):
        for tau in range(tau_max + 1):
            direct = np.sum((frames[fi, :w] - frames[fi, tau:tau + w]) ** 2)
            assert fast[fi, tau] == pytest.approx(direct, rel=1e-9, abs=1e-9)


def reference_f0(clip, frame_ms=40.0, hop_ms=10.0, fmin=50.0, fmax=600.0, threshold=0.15):
    """Frozen copy of the per-frame dip search; also returns each dip's tau."""
    sr = clip.sample_rate
    frame = int(round(frame_ms * sr / 1000.0))
    hop = int(round(hop_ms * sr / 1000.0))
    tau_max = int(sr / fmin)
    tau_min = max(2, int(sr / fmax))
    nd = _cmndf(_difference_function(_frame_matrix(clip.samples, frame, hop), tau_max))
    f0 = np.zeros(len(nd))
    taus = []
    for fi, row in enumerate(nd):
        below = row[tau_min:tau_max + 1] < threshold
        if not below.any():
            continue
        tau = tau_min + int(np.argmax(below))
        while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
            tau += 1
        taus.append(tau)
        delta = 0.0
        if tau_min < tau < tau_max:
            y0, y1, y2 = row[tau - 1], row[tau], row[tau + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom > 0:
                delta = 0.5 * (y0 - y2) / denom
                if not -1.0 < delta < 1.0:
                    delta = 0.0
        est = sr / (tau + delta)
        if fmin <= est <= fmax:
            f0[fi] = est
    return f0, taus, (tau_min, tau_max)


@pytest.mark.parametrize("case", [
    "sweeps", "glide-22050", "noise", "silence", "constant", "noisy-sine-8000",
    "dip-at-tau-min", "dip-at-tau-min-narrow", "dip-at-tau-max", "dip-at-tau-max-narrow",
])
def test_extract_f0_bit_identical_to_per_frame_loop(case):
    rng = np.random.default_rng(len(case))
    edge = None
    kw = {}
    if case == "sweeps":
        clips = [tone_clip(t, base_hz=rng.uniform(90, 300), rng=rng)
                 for t in ("55", "35", "214", "51", "313", "24")]
    elif case == "glide-22050":
        t = np.arange(int(0.5 * 22050)) / 22050
        clips = [AudioClip(0.6 * np.sin(2 * np.pi * np.cumsum(80.0 + 900.0 * t) / 22050), 22050)]
    elif case == "noise":
        clips = [AudioClip(a * rng.uniform(-1, 1, SR // 2), SR) for a in (0.01, 0.5, 1.0)]
    elif case == "silence":
        clips = [AudioClip(np.zeros(SR // 2), SR)]
    elif case == "constant":  # rounding leaves runs of equal zeros to descend over
        clips = [AudioClip(np.full(SR // 2, 0.5), SR), AudioClip(np.full(4000, -0.25), 8000)]
    elif case == "noisy-sine-8000":
        s = sine_clip(150.0, sr=8000).samples
        clips = [AudioClip(np.clip(s + 0.3 * rng.standard_normal(len(s)), -1, 1), 8000)]
    elif case == "dip-at-tau-min":
        clips, edge = [sine_clip(610.0)], 0
    elif case == "dip-at-tau-min-narrow":
        clips, edge, kw = [sine_clip(199.25)], 0, dict(fmin=100.0, fmax=200.0)
    elif case == "dip-at-tau-max":
        clips, edge = [sine_clip(50.0)], 1
    else:
        clips, edge, kw = [sine_clip(100.2)], 1, dict(fmin=100.0, fmax=300.0)
    for clip in clips:
        ref, taus, bounds = reference_f0(clip, **kw)
        got = extract_f0(clip, **kw).f0
        assert got.tobytes() == ref.tobytes()
        if edge is not None:
            assert bounds[edge] in taus


def test_sine_440_tracked_within_one_hz():
    track = extract_f0(sine_clip(440.0))
    voiced = track.f0[track.voiced_mask]
    assert len(voiced) == len(track.f0)  # clean sine: fully voiced
    assert np.abs(voiced - 440.0).max() < 1.0


def test_white_noise_mostly_unvoiced():
    rng = np.random.default_rng(0)
    clip = AudioClip(0.5 * rng.uniform(-1, 1, SR // 2), SR)
    track = extract_f0(clip)
    assert np.count_nonzero(track.f0 == 0) >= 0.8 * len(track.f0)


def test_linear_glide_within_three_percent():
    duration = 0.5
    t = np.arange(int(duration * SR)) / SR
    f_inst = 120.0 + (240.0 - 120.0) * t / duration
    phase = 2 * np.pi * np.cumsum(f_inst) / SR
    clip = AudioClip(0.6 * np.sin(phase), SR)
    track = extract_f0(clip)
    assert track.n_voiced > 10
    for ti, fi in zip(track.times, track.f0):
        if fi > 0:
            true = 120.0 + (240.0 - 120.0) * ti / duration
            assert abs(fi - true) / true < 0.03


def test_extract_f0_deterministic():
    clip = sine_clip(317.0)
    a = extract_f0(clip)
    b = extract_f0(clip)
    assert np.array_equal(a.f0, b.f0)
    assert np.array_equal(a.times, b.times)


def test_extract_f0_hop_shift():
    clip = sine_clip(260.0, duration=0.4)
    sr = clip.sample_rate
    hop = int(0.010 * sr)
    m = 3
    shifted = AudioClip(np.concatenate([np.zeros(m * hop), clip.samples]), sr)
    base = extract_f0(clip)
    moved = extract_f0(shifted)
    overlap = len(base.f0)
    assert np.array_equal(moved.f0[m:m + overlap], base.f0[:overlap])


def test_extract_f0_amplitude_invariant():
    quiet = extract_f0(sine_clip(300.0, amplitude=0.05))
    loud = extract_f0(sine_clip(300.0, amplitude=0.9))
    assert np.array_equal(quiet.voiced_mask, loud.voiced_mask)
    both = quiet.voiced_mask & loud.voiced_mask
    assert np.abs(quiet.f0[both] - loud.f0[both]).max() < 0.1


@pytest.mark.parametrize("sr", [8000, 22050, 44100])
def test_sine_tracking_across_sample_rates(sr):
    track = extract_f0(sine_clip(220.0, sr=sr))
    voiced = track.f0[track.voiced_mask]
    assert len(voiced) >= 0.9 * len(track.f0)
    assert np.abs(voiced - 220.0).max() < 1.0


def test_extract_f0_rejects_short_clip():
    clip = AudioClip(np.zeros(100), 16000)
    with pytest.raises(AudioError):
        extract_f0(clip)


def test_extract_f0_config_validation():
    clip = sine_clip(200.0)
    with pytest.raises(InputError):
        extract_f0(clip, fmin=700.0, fmax=800.0)
    with pytest.raises(InputError):
        extract_f0(clip, fmin=300.0, fmax=100.0)
    with pytest.raises(InputError):
        extract_f0(clip, threshold=0.0)


def test_f0_track_validation():
    with pytest.raises(InputError):
        F0Track(np.array([0.0, 0.0]), np.array([100.0, 100.0]), 0.01)  # times not increasing
    with pytest.raises(InputError):
        F0Track(np.array([0.0, 0.01]), np.array([100.0, 700.0]), 0.01)  # out of range
    with pytest.raises(InputError):
        F0Track(np.array([0.0, 0.01]), np.array([100.0, 100.0]), -1.0)


def test_f0_track_csv(tmp_path):
    track = F0Track(np.array([0.01, 0.02]), np.array([100.0, 0.0]), 0.01)
    text = track.to_csv()
    assert text.splitlines() == ["time_s,f0_hz", "0.010000,100.000000", "0.020000,0.000000"]
    path = tmp_path / "track.csv"
    track.to_csv(path)
    assert path.read_text() == text


# ---------------------------------------------------------------------------
# contour features


def test_contour_feature_constant_track_is_zero():
    feature = contour_feature(constant_track(200.0))
    assert len(feature) == 20
    assert np.all(feature.values == 0.0)


def test_contour_feature_rising_is_increasing():
    track = tone_track("15", n_frames=30)
    feature = contour_feature(track)
    assert np.all(np.diff(feature.values) > 0)


def test_contour_feature_needs_five_voiced_frames():
    f0 = np.array([0.0, 200.0, 210.0, 220.0, 0.0, 200.0])
    track = F0Track(np.arange(6) * 0.01 + 0.01, f0, 0.01)
    with pytest.raises(VoicingError):
        contour_feature(track)


def test_contour_feature_uses_longest_voiced_run():
    f0 = np.concatenate([np.full(3, 150.0), [0.0], np.linspace(200, 260, 8)])
    track = F0Track(np.arange(12) * 0.01 + 0.01, f0, 0.01)
    feature = contour_feature(track, k=8)
    assert np.all(np.diff(feature.values) > 0)  # picked the rising 8-frame run


def test_contour_feature_is_z_normalized():
    track = tone_track("315", n_frames=50)
    values = contour_feature(track).values
    assert values.mean() == pytest.approx(0.0, abs=1e-12)
    assert values.std() == pytest.approx(1.0, rel=1e-6)


def test_contour_feature_k_validation():
    with pytest.raises(InputError):
        contour_feature(constant_track(), k=1)


# ---------------------------------------------------------------------------
# quadratic-fit baseline


def test_baseline_rising_glide_full_range():
    track = tone_track("15", n_frames=40)
    assert f0_baseline_transcribe(track).token == "15"
    triple = f0_baseline_triple(track)
    assert triple[0] < 1.5 and triple[2] > 4.5


def test_baseline_convex_dip_middle_is_min():
    track = tone_track("414", n_frames=40)
    result = f0_baseline_transcribe(track)
    assert len(result) == 3
    assert result.digits[1] == min(result.digits)
    triple = f0_baseline_triple(track)
    assert triple[1] == pytest.approx(1.0, abs=1e-9)  # fit minimum maps to level 1


def test_baseline_constant_track_is_mid_level():
    assert f0_baseline_transcribe(constant_track(180.0)).token == "33"
    assert f0_baseline_triple(constant_track(180.0)) == (3.0, 3.0, 3.0)


def test_baseline_output_always_valid():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(6, 60))
        f0 = rng.uniform(80, 400, n)
        track = F0Track((np.arange(n) + 1) * 0.01, f0, 0.01)
        result = f0_baseline_transcribe(track)
        assert len(result) in (2, 3)
        assert all(1 <= d <= 5 for d in result.digits)


def test_baseline_needs_voiced_run():
    track = F0Track(np.array([0.01, 0.02, 0.03]), np.array([100.0, 110.0, 120.0]), 0.01)
    with pytest.raises(VoicingError):
        f0_baseline_transcribe(track)


def test_tone_clip_round_trip_through_extraction():
    # synthesized tones come back as their own transcriptions via the baseline
    for token in ("15", "51"):
        clip = tone_clip(token)
        track = extract_f0(clip)
        assert f0_baseline_transcribe(track).token == token
