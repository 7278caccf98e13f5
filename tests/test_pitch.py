import re
import struct
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

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
from tonelab.pitch import _longest_voiced_run, _workspace
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


def scipy_read_wav(path):
    """Frozen reference reader: scipy.io.wavfile plus read_wav's scaling."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rate, data = wavfile.read(path)
    if data.dtype == np.uint8:
        samples = (data.astype(float) - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = data.astype(float) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(float) / 2147483648.0
    else:
        samples = np.clip(data.astype(float), -1.0, 1.0)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioClip(samples, int(rate))


def riff(*chunks):
    """RIFF/WAVE bytes from (id, declared size, payload) chunks; odd payloads padded."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", size) + data + b"\0" * (len(data) & 1)
                              for cid, size, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, bits, rate=16000, extensible=False):
    block = channels * bits // 8
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                       rate * block, block, bits)
    if extensible:  # cbSize, valid bits, channel mask, subformat GUID
        head += struct.pack("<HHII", 22, bits, 0, tag)
        head += b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return (b"fmt ", len(head), head)


def _int24(values):
    return b"".join(int(v).to_bytes(3, "little", signed=True) for v in values)


def _wav_case(case, tmp_path):
    path = tmp_path / f"{case}.wav"
    rng = np.random.default_rng(len(case))
    pcm16 = rng.integers(-32768, 32768, 600).astype("<i2")
    if case == "u8":
        wavfile.write(path, 8000, rng.integers(0, 256, 900).astype(np.uint8))
    elif case == "i16":
        wavfile.write(path, 16000, pcm16)
    elif case == "i32":
        wavfile.write(path, 16000, rng.integers(-2**31, 2**31, 700).astype(np.int32))
    elif case == "f32-over-range":
        wavfile.write(path, 22050, rng.uniform(-1.5, 1.5, 700).astype(np.float32))
    elif case == "f64":
        wavfile.write(path, 44100, rng.uniform(-1, 1, 700))
    elif case == "i16-3-channel":
        wavfile.write(path, 16000, pcm16.reshape(-1, 3))
    elif case == "i24":
        values = [-2**23, -1, 0, 1, 2**23 - 1] + list(rng.integers(-2**23, 2**23, 400))
        path.write_bytes(riff(fmt_chunk(1, 1, 24), (b"data", 3 * len(values), _int24(values))))
    elif case == "i24-stereo-extensible":
        data = _int24(rng.integers(-2**23, 2**23, 400))
        path.write_bytes(riff(fmt_chunk(1, 2, 24, extensible=True), (b"data", len(data), data)))
    elif case == "f32-extensible":
        data = rng.uniform(-1, 1, 300).astype("<f4").tobytes()
        path.write_bytes(riff(fmt_chunk(3, 1, 32, extensible=True), (b"data", len(data), data)))
    elif case == "odd-list-before-data":
        path.write_bytes(riff(fmt_chunk(1, 1, 16), (b"LIST", 5, b"INFOx"),
                              (b"data", pcm16.nbytes, pcm16.tobytes())))
    else:  # the data chunk claims more bytes than the file holds
        path.write_bytes(riff(fmt_chunk(1, 1, 16), (b"data", 4 * pcm16.nbytes, pcm16.tobytes())))
    return path


@pytest.mark.parametrize("case", [
    "u8", "i16", "i32", "f32-over-range", "f64", "i16-3-channel", "i24",
    "i24-stereo-extensible", "f32-extensible", "odd-list-before-data", "truncated-data",
])
def test_read_wav_matches_scipy(case, tmp_path):
    path = _wav_case(case, tmp_path)
    got, want = read_wav(path), scipy_read_wav(path)
    assert got.sample_rate == want.sample_rate
    assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("chunks", [
    [(b"data", 2, b"\0\0"), fmt_chunk(1, 1, 16)],
    [fmt_chunk(1, 1, 16), (b"LIST", 4, b"INFO")],
    [fmt_chunk(6, 1, 8), (b"data", 2, b"\0\0")],  # A-law is not read
], ids=["data-before-fmt", "no-data", "a-law"])
def test_read_wav_rejects_bad_chunks(chunks, tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(riff(*chunks))
    with pytest.raises(AudioError, match=re.escape(f"malformed WAV file {path}: ")):
        read_wav(path)


def test_read_wav_truncated_header(tmp_path):
    path = tmp_path / "broken.wav"
    path.write_bytes(b"RIFF\x10\x00\x00\x00WAVE")
    with pytest.raises(AudioError):
        read_wav(path)


def test_read_wav_missing_file(tmp_path):
    with pytest.raises(AudioError):
        read_wav(tmp_path / "nope.wav")


def test_read_wav_errors_name_the_path(tmp_path):
    missing = tmp_path / "nope.wav"
    with pytest.raises(AudioError) as got:
        read_wav(missing)
    assert str(got.value) == f"WAV file not found: {missing}"
    with pytest.raises(AudioError) as got:
        read_wav(tmp_path)
    assert str(got.value) == f"cannot read WAV file {tmp_path}: Is a directory"


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
    ws = _workspace(120, tau_max)
    fast = ws.difference(frames, ws.conj_first(len(frames)))
    for fi in range(3):
        for tau in range(tau_max + 1):
            direct = np.sum((frames[fi, :w] - frames[fi, tau:tau + w]) ** 2)
            assert fast[fi, tau] == pytest.approx(direct, rel=1e-9, abs=1e-9)


# Frozen copies of the index-gather F0 kernel that extract_f0 must match bit for bit.


def frozen_frame_matrix(x, frame, hop):
    n_frames = 1 + (len(x) - frame) // hop
    idx = np.arange(n_frames)[:, None] * hop + np.arange(frame)[None, :]
    return x[idx]


def frozen_difference_function(frames, tau_max):
    n_frames, frame = frames.shape
    w = frame - tau_max
    prefix = frames[:, :w]
    sq = frames * frames
    energy_prefix = sq[:, :w].sum(axis=1)
    csum = np.concatenate([np.zeros((n_frames, 1)), np.cumsum(sq, axis=1)], axis=1)
    taus = np.arange(tau_max + 1)
    energy_shift = csum[:, taus + w] - csum[:, taus]
    nfft = 1 << int(frame + w - 1).bit_length()
    spectrum = np.fft.rfft(frames, nfft)
    prefix_spectrum = np.fft.rfft(prefix, nfft)
    corr = np.fft.irfft(spectrum * np.conj(prefix_spectrum), nfft)[:, : tau_max + 1]
    d = energy_prefix[:, None] + energy_shift - 2.0 * corr
    return np.maximum(d, 0.0)


def frozen_cmndf(d):
    out = np.ones_like(d)
    cums = np.cumsum(d[:, 1:], axis=1)
    taus = np.arange(1, d.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = d[:, 1:] * taus / cums
    out[:, 1:] = np.where(cums > 0, normalized, 1.0)
    return out


def reference_f0(clip, frame_ms=40.0, hop_ms=10.0, fmin=50.0, fmax=600.0, threshold=0.15):
    """Frozen copy of the kernel and the per-frame dip search; also returns each dip's tau."""
    sr = clip.sample_rate
    frame = int(round(frame_ms * sr / 1000.0))
    hop = int(round(hop_ms * sr / 1000.0))
    tau_max = int(sr / fmin)
    tau_min = max(2, int(sr / fmax))
    nd = frozen_cmndf(frozen_difference_function(
        frozen_frame_matrix(clip.samples, frame, hop), tau_max))
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


OPTION_SETS = [
    dict(fmin=80.0, fmax=400.0, frame_ms=30.0, hop_ms=5.0),
    dict(fmin=60.0, fmax=550.0, frame_ms=50.0, hop_ms=12.5, threshold=0.3),
]


def frames_clip(n_frames, sr, rng, frame_ms=40.0, hop_ms=10.0):
    """A noisy glide with exactly n_frames analysis frames."""
    frame, hop = int(round(frame_ms * sr / 1000.0)), int(round(hop_ms * sr / 1000.0))
    t = np.arange(frame + (n_frames - 1) * hop) / sr
    f = rng.uniform(90, 250) + 60.0 * np.sin(2 * np.pi * t / t[-1])
    x = 0.5 * np.sin(2 * np.pi * np.cumsum(f) / sr) + 0.05 * rng.standard_normal(len(t))
    return AudioClip(np.clip(x, -1, 1), sr)


# numpy multiplied the whole clip's spectra in one operand order for arrays of
# 256 KiB or more (16 kHz clips of >= 32 frames, 8 kHz of >= 64) and in the other
# below that (8 kHz and short clips); the cases cover both sides. The long-*
# cases span 1-3 blocks of 64 frames; long-8000-short-frames (2,064 bytes a
# frame) has multi-block clips on both sides of the rule (127 and 128 frames).
@pytest.mark.parametrize("case", [
    "sweeps", "glide-22050", "noise", "silence", "constant", "noisy-sine-8000",
    "dip-at-tau-min", "dip-at-tau-min-narrow", "dip-at-tau-max", "dip-at-tau-max-narrow",
    "noise-8000", "noise-22050", "noise-44100", "short-16000", "options-0", "options-1",
    "long-8000", "long-16000", "long-8000-short-frames",
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
        clips += [tone_clip(t, rng=rng, sr=8000) for t in ("15", "51", "315")]
    elif case.startswith("noise-"):
        sr = int(case[6:])
        clips = [AudioClip(a * rng.uniform(-1, 1, int(sr * rng.uniform(0.1, 0.7))), sr)
                 for a in (0.02, 0.4, 1.0)]
    elif case == "short-16000":
        clips = [tone_clip(t, rng=rng, duration=0.15) for t in ("15", "51")]
        clips.append(AudioClip(np.clip(clips[0].samples + 0.2 * rng.standard_normal(
            len(clips[0].samples)), -1, 1), SR))
    elif case.startswith("options-"):
        kw = OPTION_SETS[int(case[-1])]
        clips = [tone_clip(t, base_hz=rng.uniform(90, 300), rng=rng) for t in ("15", "513")]
        clips += [sine_clip(f, sr=sr) for f, sr in ((97.0, 8000), (333.0, 22050), (151.0, 44100))]
    elif case == "long-8000":
        clips = [frames_clip(n, 8000, rng) for n in (63, 64, 65, 128, 150)]
    elif case == "long-16000":
        clips = [frames_clip(n, SR, rng) for n in (31, 64, 65, 128, 150)]
    elif case == "long-8000-short-frames":
        kw = dict(frame_ms=20.0, fmin=60.0)
        clips = [frames_clip(n, 8000, rng, frame_ms=20.0) for n in (100, 127, 128, 150)]
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


def mixed_rate_clips(rng):
    return [frames_clip(n, sr, rng) for sr in (8000, SR, 22050, 44100) for n in (20, 64, 130)]


def test_extract_f0_threads_match_serial():
    clips = mixed_rate_clips(np.random.default_rng(21))
    serial = [extract_f0(c).f0.tobytes() for c in clips]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda c: extract_f0(c).f0.tobytes(), clips * 3,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 3


def test_extract_f0_result_survives_next_call():
    clips = mixed_rate_clips(np.random.default_rng(22))
    first = extract_f0(clips[1])
    f0, times = first.f0.copy(), first.times.copy()
    for clip in clips:
        extract_f0(clip)
    assert first.f0.tobytes() == f0.tobytes()
    assert first.times.tobytes() == times.tobytes()


def test_extract_f0_memory_does_not_grow_with_clip_length():
    clip = frames_clip(6001, SR, np.random.default_rng(23))  # 60 s
    extract_f0(clip)  # allocates this thread's workspace
    tracemalloc.start()
    try:
        extract_f0(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


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


def frozen_longest_voiced_run(mask):
    best_start, best_len = 0, 0
    start, length = 0, 0
    for i, voiced in enumerate(mask):
        if voiced:
            if length == 0:
                start = i
            length += 1
            if length > best_len:
                best_start, best_len = start, length
        else:
            length = 0
    return slice(best_start, best_start + best_len)


def test_longest_voiced_run_matches_frame_loop():
    rng = np.random.default_rng(21)
    masks = [np.zeros(0, bool), np.zeros(9, bool), np.ones(9, bool), np.ones(1, bool),
             np.array([1, 1, 0, 1, 1, 0, 1, 1], bool), np.array([0, 1, 1, 0, 1, 1, 1], bool)]
    masks += [rng.random(int(rng.integers(1, 60))) < p
              for p in (0.2, 0.5, 0.8, 0.95) for _ in range(50)]
    for mask in masks:
        track = F0Track(np.arange(len(mask)) * 0.01 + 0.01, np.where(mask, 200.0, 0.0), 0.01)
        assert _longest_voiced_run(track) == frozen_longest_voiced_run(mask)


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
