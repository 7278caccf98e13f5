"""Audio ingestion, F0 contour extraction, contour features, and the
quadratic-fit baseline pitch triple.

F0 estimation is autocorrelation-based with the cumulative mean normalized
difference function: per frame, the difference d(tau) between the frame and
its tau-shifted copy is normalized by its running mean, the first dip below
an absolute threshold is taken (default 0.15), and the dip location is
refined by parabolic interpolation. Frames with no qualifying dip are
unvoiced and carry f0 = 0.
"""
from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from ._defaults import (DEFAULT_FEATURE_POINTS, DEFAULT_FRAME_MS, DEFAULT_HOP_MS,
                        DEFAULT_YIN_THRESHOLD, F0_CEIL_HZ, F0_FLOOR_HZ)
from .errors import AudioError, InputError, VoicingError, naming
from .tones import _csv, _reading

_MIN_VOICED_FRAMES = 5


@dataclass(frozen=True)
class AudioClip:
    """Mono audio samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise AudioError("audio must be a nonempty 1-D sample array")
        if self.sample_rate < 8000:
            raise AudioError(f"sample rate must be >= 8000 Hz, got {self.sample_rate}")
        lo, hi = arr.min(), arr.max()  # a NaN or an infinity shows in one of them
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise AudioError("audio contains non-finite samples")
        if max(-lo, hi) > 1.0 + 1e-9:
            raise AudioError("audio samples must lie in [-1, 1]")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


# (format tag, bytes per sample) -> (sample dtype, offset, scale): a sample is
# (x - offset) / scale, clipped to [-1, 1]. 24-bit PCM is widened below.
_WAV_FORMATS = {(1, 1): ("u1", 128.0, 128.0), (1, 2): ("<i2", 0.0, 2.0**15),
                (1, 3): ("<i4", 0.0, 2.0**31), (1, 4): ("<i4", 0.0, 2.0**31),
                (3, 4): ("<f4", 0.0, 1.0), (3, 8): ("<f8", 0.0, 1.0)}
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
_KSDATAFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _decode_wav(raw: bytes) -> tuple[int, np.ndarray, float, float]:
    """(rate, samples, offset, scale) from RIFF/WAVE bytes; samples are (frames,
    channels) if there is more than one channel. Raises ValueError or struct.error."""
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    fmt = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk, size = struct.unpack_from("<4sI", raw, pos)
        pos += 8
        if chunk == b"fmt ":
            if size < 16:
                raise ValueError(f"fmt chunk of {size} bytes")
            tag, channels, rate, _, block_align, _ = struct.unpack_from("<HHIIHH", raw, pos)
            # The subformat GUID of an extensible header starts with the format tag.
            guid = raw[pos + 24:pos + 40] if size >= 40 else b""
            if tag == _WAVE_FORMAT_EXTENSIBLE and guid[4:] == _KSDATAFORMAT_TAIL:
                (tag,) = struct.unpack_from("<I", guid)
            if channels == 0 or block_align % channels:
                raise ValueError(f"{channels} channels with {block_align}-byte frames")
            width = block_align // channels
            if (tag, width) not in _WAV_FORMATS:
                raise ValueError(f"unsupported format tag {tag} with {8 * width}-bit samples")
            fmt = (channels, rate, width, *_WAV_FORMATS[tag, width])
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("data chunk before fmt chunk")
            channels, rate, width, dtype, offset, scale = fmt
            body = raw[pos:pos + size]
            body = body[:len(body) - len(body) % (width * channels)]
            if width == 3:  # left-justified into int32, as scipy.io.wavfile does
                body = np.pad(np.frombuffer(body, np.uint8).reshape(-1, 3), ((0, 0), (1, 0)))
            data = np.frombuffer(body, dtype=dtype)
            return rate, data.reshape(-1, channels) if channels > 1 else data, offset, scale
        pos += size + (size & 1)
    raise ValueError("no data chunk" if fmt else "no fmt chunk")


def read_wav(path: str | os.PathLike) -> AudioClip:
    """Load a RIFF/WAVE file (PCM or IEEE float); stereo is averaged to mono."""
    with _reading(path, "WAV file", AudioError, binary=True) as fh:
        try:
            rate, data, offset, scale = _decode_wav(fh.read())
        except (ValueError, struct.error) as exc:
            raise AudioError(f"malformed WAV file {path}: {exc}") from exc
    if data.size == 0:
        raise AudioError(f"WAV file contains no audio: {path}")
    samples = data.astype(float)  # the one float copy; the steps below write into it
    samples -= offset
    samples /= scale
    lo, hi = samples.min(), samples.max()
    if np.isfinite(lo) and np.isfinite(hi):  # an infinity is left for AudioClip to refuse
        np.clip(samples, -1.0, 1.0, out=samples)  # a no-op on PCM, already in [-1, 1)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    with naming(str(path)):
        return AudioClip(samples, int(rate))


@dataclass(frozen=True)
class F0Track:
    """Per-frame fundamental frequency; 0 marks unvoiced frames."""

    times: np.ndarray  # frame centers, seconds
    f0: np.ndarray  # Hz
    frame_hop: float  # seconds

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        f0 = np.asarray(self.f0, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "f0", f0)
        if times.shape != f0.shape or times.ndim != 1:
            raise InputError("times and f0 must be 1-D arrays of equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise InputError("frame times must be strictly increasing")
        if self.frame_hop <= 0:
            raise InputError("frame hop must be positive")
        voiced = f0[f0 > 0]
        if voiced.size and (voiced.min() < F0_FLOOR_HZ or voiced.max() > F0_CEIL_HZ):
            raise InputError(
                f"voiced f0 must lie in [{F0_FLOOR_HZ}, {F0_CEIL_HZ}] Hz"
            )

    @property
    def voiced_mask(self) -> np.ndarray:
        return self.f0 > 0

    @property
    def n_voiced(self) -> int:
        return int(np.count_nonzero(self.f0 > 0))

    def to_csv(self, path: str | os.PathLike | None = None) -> str:
        return _csv(("time_s", "f0_hz"), zip(self.times.tolist(), self.f0.tolist()), path)


# The F0 kernel walks a clip in blocks of at most this many frames, so its
# working set is fixed: 1.6 MiB of buffers at 16 kHz, 5.5 MiB at 44.1 kHz.
_BLOCK_FRAMES = 64
# NPY_MIN_ELIDE_BYTES: from this size on, numpy reuses a temporary operand as
# the output of a binary operator.
_ELIDE_BYTES = 256 * 1024


class _Workspace:
    """Buffers for the F0 kernel on blocks of up to _BLOCK_FRAMES frames of one
    (frame, tau_max, hop), reused from block to block and clip to clip."""

    def __init__(self, frame: int, tau_max: int, hop: int) -> None:
        self.frame, self.tau_max, self.hop = frame, tau_max, hop
        self.w = frame - tau_max
        self.nfft = 1 << int(frame + self.w - 1).bit_length()
        rows, bins = _BLOCK_FRAMES, self.nfft // 2 + 1
        self.bins = bins  # spectrum length
        self.squares = np.empty((rows - 1) * hop + frame)  # a block's sample span, squared
        self.energy = np.empty(rows)
        self.csum = np.zeros((rows, frame + 1))  # column 0 stays zero
        self.spectrum = np.empty((rows, bins), dtype=complex)
        self.product = np.empty((rows, bins), dtype=complex)
        # irfft writes corr over spectrum, which has no reader once the product is taken.
        self.corr = self.spectrum.view(float)[:, :self.nfft]
        self.d = np.empty((rows, tau_max + 1))
        # cmndf's running sums go over product, which has no reader once irfft has run.
        self.cums = self.product.view(float)[:, :tau_max]

    def conj_first(self, clip_frames: int) -> bool:
        """Operand order of the spectrum product for a clip of clip_frames frames.

        F0 must match the whole-clip expression `spectrum * np.conj(prefix_spectrum)`
        bit for bit. numpy computes that as conj(P) * S when it reuses the conj
        temporary in place (NPY_MIN_ELIDE_BYTES, 256 KiB or more) and as
        S * conj(P) below that, and the two complex products differ in the last
        bit, so every block uses the order of the whole clip.
        """
        return clip_frames * self.bins * 16 >= _ELIDE_BYTES

    def difference(self, span: np.ndarray, conj_first: bool) -> np.ndarray:
        """d[f, tau] = sum_{j<W} (x[j] - x[j+tau])^2 with W = frame - tau_max, for
        the frames that start every hop samples of span, at most _BLOCK_FRAMES of
        them; a view into this workspace."""
        w, nfft, tau_max = self.w, self.nfft, self.tau_max
        window = np.lib.stride_tricks.sliding_window_view  # read-only views
        frames = window(span, self.frame)[::self.hop]
        sq = window(np.multiply(span, span, out=self.squares[:len(span)]), self.frame)[::self.hop]
        n = len(frames)
        energy_prefix = np.sum(sq[:, :w], axis=1, out=self.energy[:n])
        csum = self.csum[:n]
        np.cumsum(sq, axis=1, out=csum[:, 1:])

        spectrum = np.fft.rfft(frames, nfft, out=self.spectrum[:n])
        product = np.fft.rfft(frames[:, :w], nfft, out=self.product[:n])
        np.conjugate(product, out=product)
        if conj_first:
            np.multiply(product, spectrum, out=product)
        else:
            np.multiply(spectrum, product, out=product)
        corr = np.fft.irfft(product, nfft, out=self.corr[:n])[:, :tau_max + 1]

        d = np.subtract(csum[:, w:w + tau_max + 1], csum[:, :tau_max + 1], out=self.d[:n])
        d += energy_prefix[:, None]
        corr *= 2.0
        d -= corr
        return np.maximum(d, 0.0, out=d)

    def cmndf(self, d: np.ndarray) -> np.ndarray:
        """Cumulative mean normalized difference, in place: d'(0)=1, d'(tau)=d(tau)*tau/sum."""
        body = d[:, 1:]
        cums = np.cumsum(body, axis=1, out=self.cums[:len(d)])
        body *= np.arange(1, d.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            body /= cums
        np.copyto(body, 1.0, where=~(cums > 0))
        d[:, 0] = 1.0
        return d


_local = threading.local()


def _workspace(frame: int, tau_max: int, hop: int) -> _Workspace:
    """This thread's workspace for (frame, tau_max, hop); they also fix nfft."""
    ws = getattr(_local, "workspace", None)
    if ws is None or (ws.frame, ws.tau_max, ws.hop) != (frame, tau_max, hop):
        ws = _local.workspace = _Workspace(frame, tau_max, hop)
    return ws


def _dip_f0(nd: np.ndarray, sr: int, tau_min: int, fmin: float, fmax: float,
            threshold: float) -> np.ndarray:
    """F0 per row of a normalized difference block; 0 where no dip qualifies."""
    tau_max = nd.shape[1] - 1
    # Per frame: the first tau >= tau_min below threshold, then downhill to tau_max at most.
    below = nd[:, tau_min:] < threshold
    first = tau_min + below.argmax(axis=1)
    stop = np.zeros(nd.shape, dtype=bool)
    np.less(nd[:, 1:], nd[:, :-1], out=stop[:, :-1])
    np.logical_not(stop, out=stop)
    stop &= np.arange(tau_max + 1) >= first[:, None]
    tau = stop.argmax(axis=1)

    # Parabolic refinement of interior dips whose delta lands in (-1, 1).
    rows = np.arange(len(nd))
    mid = np.clip(tau, 1, tau_max - 1)
    y0, y1, y2 = nd[rows, mid - 1], nd[rows, mid], nd[rows, mid + 1]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * (y0 - y2) / denom
    refine = (tau_min < tau) & (tau < tau_max) & (denom > 0) & (-1.0 < delta) & (delta < 1.0)
    est = sr / (tau + np.where(refine, delta, 0.0))
    return np.where(below.any(axis=1) & (fmin <= est) & (est <= fmax), est, 0.0)


def extract_f0(
    clip: AudioClip,
    *,
    frame_ms: float = DEFAULT_FRAME_MS,
    hop_ms: float = DEFAULT_HOP_MS,
    fmin: float = F0_FLOOR_HZ,
    fmax: float = F0_CEIL_HZ,
    threshold: float = DEFAULT_YIN_THRESHOLD,
) -> F0Track:
    """Estimate the per-frame fundamental frequency of a clip.

    Deterministic for a fixed configuration and invariant to positive
    amplitude scaling (the normalized difference is a ratio). Frames are
    processed in blocks of 64 through buffers that each thread allocates
    once per (frame, tau_max, hop) and keeps: 1.6 MiB at 16 kHz and 5.5 MiB at
    44.1 kHz with the default options. Memory does not grow with clip length.
    """
    if not F0_FLOOR_HZ <= fmin < fmax <= F0_CEIL_HZ:
        raise InputError(
            f"need {F0_FLOOR_HZ} <= fmin < fmax <= {F0_CEIL_HZ}, got [{fmin}, {fmax}]"
        )
    if not all(map(math.isfinite, (frame_ms, hop_ms, threshold))):
        raise InputError("frame and hop durations and the voicing threshold must be finite")
    if threshold <= 0:
        raise InputError("voicing threshold must be positive")
    sr = clip.sample_rate
    frame = int(round(frame_ms * sr / 1000.0))
    hop = int(round(hop_ms * sr / 1000.0))
    if frame <= 0 or hop <= 0:
        raise InputError("frame and hop must be positive durations")
    x = clip.samples
    if len(x) < frame:
        raise AudioError(
            f"clip of {len(x)} samples is shorter than one {frame}-sample frame"
        )
    tau_max = int(sr / fmin)
    tau_min = max(2, int(sr / fmax))
    if tau_max + 16 > frame:
        raise InputError(
            f"frame of {frame} samples is too short for fmin={fmin} Hz "
            f"(needs > {tau_max + 16})"
        )

    n_frames = 1 + (len(x) - frame) // hop
    ws = _workspace(frame, tau_max, hop)
    conj_first = ws.conj_first(n_frames)
    f0 = np.empty(n_frames)
    for lo in range(0, n_frames, _BLOCK_FRAMES):
        span = x[lo * hop:(lo + _BLOCK_FRAMES - 1) * hop + frame]
        nd = ws.cmndf(ws.difference(span, conj_first))
        f0[lo:lo + len(nd)] = _dip_f0(nd, sr, tau_min, fmin, fmax, threshold)

    times = (np.arange(n_frames) * hop + frame / 2.0) / sr
    return F0Track(times, f0, hop / sr)


def _longest_voiced_run(track: F0Track) -> slice:
    """The earliest of the longest runs of voiced frames; slice(0, 0) if none."""
    padded = np.zeros(len(track.f0) + 2, dtype=bool)
    padded[1:-1] = track.voiced_mask
    edges = np.flatnonzero(np.diff(padded)).tolist()  # run starts and stops, alternating
    if not edges:
        return slice(0, 0)
    lengths = [stop - start for start, stop in zip(edges[::2], edges[1::2])]
    k = lengths.index(max(lengths))
    return slice(edges[2 * k], edges[2 * k + 1])


def _sample_log_f0(track: F0Track, k: int) -> np.ndarray:
    """k evenly spaced log2-F0 samples over the longest voiced run."""
    run = _longest_voiced_run(track)
    n_run = run.stop - run.start
    if n_run < _MIN_VOICED_FRAMES:
        raise VoicingError(
            f"need at least {_MIN_VOICED_FRAMES} contiguous voiced frames, got {n_run}"
        )
    t_run = track.times[run]
    log_f0 = np.log2(track.f0[run])
    sample_times = np.linspace(t_run[0], t_run[-1], k)
    return np.interp(sample_times, t_run, log_f0)


def contour_feature(track: F0Track, k: int = DEFAULT_FEATURE_POINTS) -> np.ndarray:
    """Resample the longest voiced run's log-F0 at k points and z-normalize:
    a 1-D float64 array of k values.

    The variance floor (1e-6) keeps constant contours finite: a level tone
    yields the all-zero feature.
    """
    if k < 2:
        raise InputError("feature length must be at least 2")
    values = _sample_log_f0(track, k)
    if np.ptp(values) == 0.0:
        return np.zeros(k)
    centered = values - values.mean()
    scale = math.sqrt(max(float(centered.var()), 1e-6))
    return centered / scale


def f0_baseline_triple(track: F0Track) -> tuple[float, float, float]:
    """Pitch triple regressed from an F0 track by quadratic fitting.

    Fits a quadratic to 20 evenly sampled log-F0 points, reads the fitted
    values at the second, middle, and second-to-last points (indices 1, 9,
    18), and maps the fitted range [min, max] onto pitch levels [1, 5]. A
    flat fit (range < 1e-6) maps to mid-scale (3, 3, 3).
    """
    n_points = 20
    y = _sample_log_f0(track, n_points)
    xs = np.arange(n_points, dtype=float)
    coeffs = np.polyfit(xs, y, 2)
    fitted = np.polyval(coeffs, xs)
    lo = float(fitted.min())
    hi = float(fitted.max())
    if hi - lo < 1e-6:
        return (3.0, 3.0, 3.0)
    picked = fitted[[1, 9, 18]]
    scaled = 1.0 + 4.0 * (picked - lo) / (hi - lo)
    return (float(scaled[0]), float(scaled[1]), float(scaled[2]))
