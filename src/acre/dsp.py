"""Waveform-to-spectrogram processing: log-mel analysis, whitening, snippets, segmentation.

Everything here is a pure function over immutable value types; the one random
operation (snippet extraction) takes a caller-supplied generator. The analysis
contract is fixed, like a pre-trained encoder's front end, so that frame
counts have an exact closed form:

* SAMPLE_RATE = 32000 Hz input only (no resampler; a wrong rate is an error),
* N_FFT = 1024-point FFT, HOP = 320, Hann window, no centering or padding,
* N_MELS = 128 triangular mel filters from 0 Hz to Nyquist (2595*log10(1+f/700)),
* natural log with floor LOG_FLOOR = 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

SAMPLE_RATE = 32000
N_MELS = 128
N_FFT = 1024
HOP = 320
LOG_FLOOR = 1e-10


class DspError(Exception):
    pass


class TooShort(DspError):
    pass


class WrongSampleRate(DspError):
    pass


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if samples.size:  # min and max carry NaN and +-inf, so no full-size mask is needed
            lo, hi = float(samples.min()), float(samples.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("samples must be finite")
            if lo < -1.0 or hi > 1.0:
                raise ValueError("samples must lie in [-1, 1]")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Log-energy matrix of shape (frames, 128), time-major."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != N_MELS:
            raise ValueError(f"expected shape (frames, {N_MELS}), got {values.shape}")
        if values.shape[0] < 1:
            raise ValueError("spectrogram needs at least one frame")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrogram values must be finite")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WhiteningStats:
    """Global mean/std used to center and scale spectrogram cells."""

    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError("whitening stats must be finite")
        if self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std}")


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges() -> np.ndarray:
    """N_MELS + 2 frequencies in Hz, evenly spaced in mel from 0 Hz to Nyquist:
    each filter's left foot, center and right foot are three consecutive ones."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2))


def mel_center_frequencies() -> np.ndarray:
    """Center frequency in Hz of each of the N_MELS filters."""
    return _mel_edges()[1:-1]


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """Triangular filter matrix of shape (N_MELS, N_FFT//2 + 1), read-only.

    Filters are unnormalized triangles with feet on the neighboring centers,
    so rows are nonnegative and adjacent filters overlap: every FFT bin
    strictly between the first and last center gets positive total weight.
    """
    freqs = np.arange(N_FFT // 2 + 1, dtype=np.float64) * SAMPLE_RATE / N_FFT
    points = _mel_edges()
    left = points[:-2, None]
    center = points[1:-1, None]
    right = points[2:, None]
    rising = (freqs[None, :] - left) / (center - left)
    falling = (right - freqs[None, :]) / (right - center)
    fb = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False  # cached: a caller's edit would reach every later logmel
    return fb


@lru_cache(maxsize=1)
def _analysis_operators() -> tuple[np.ndarray, np.ndarray]:
    """The Hann window and the filterbank's first N_FFT // 2 columns as a
    (bins, N_MELS) matrix, both read-only.

    The filterbank's columns 0 (0 Hz) and N_FFT // 2 (Nyquist) are exactly zero,
    since the outer filters' feet sit there, so dropping the Nyquist bin leaves
    every product the same. It is dropped because OpenBLAS splits an inner
    dimension of 513 differently at one thread and at two, and 512 it does not.
    """
    window = np.hanning(N_FFT)
    window.flags.writeable = False
    return window, mel_filterbank()[:, : N_FFT // 2].T


def frame_count(n_samples: int) -> int:
    """Number of analysis frames for a signal of n_samples: 1 + (n - N_FFT) // HOP."""
    if n_samples < N_FFT:
        raise TooShort(f"need at least {N_FFT} samples, got {n_samples}")
    return 1 + (n_samples - N_FFT) // HOP


def seconds_to_frames(seconds: float) -> int:
    """Segment length in frames for a duration in seconds, at the hop rate.

    The hop of 320 samples at 32 kHz gives 100 frames per second, so ten
    seconds maps to 1000 frames.
    """
    return int(round(seconds * SAMPLE_RATE / HOP))


def row_blocks(n: int, size: int) -> list[slice]:
    """Slices of size rows covering range(n) in order, the last one taking the
    remainder (one slice when n < 2 * size).

    The remainder is folded in, not left as a short block of its own: OpenBLAS
    sends a product of a few rows down a small-matrix path that rounds
    differently from the same rows of a longer one.
    """
    blocks = max(n // size, 1)
    return [slice(k * size, n if k == blocks - 1 else (k + 1) * size) for k in range(blocks)]


# logmel analyses FRAME_BLOCK frames at a time, so its scratch (windowed
# frames, spectrum, power) is one block whatever the clip's length
FRAME_BLOCK = 256


def logmel(w: Waveform) -> Spectrogram:
    """Log-mel spectrogram of a 32 kHz waveform.

    Raises WrongSampleRate for any other rate (resampling is out of scope)
    and TooShort for signals shorter than one FFT window.
    """
    if w.sample_rate != SAMPLE_RATE:
        raise WrongSampleRate(f"expected {SAMPLE_RATE} Hz input, got {w.sample_rate} Hz")
    n = frame_count(len(w))  # raises TooShort
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, N_FFT)[::HOP]
    window, weights = _analysis_operators()
    out = np.empty((n, N_MELS))
    for rows in row_blocks(n, FRAME_BLOCK):
        # re, im interleaved, for the bins below Nyquist
        parts = np.fft.rfft(frames[rows] * window, axis=1).view(np.float64)[:, :N_FFT]
        parts *= parts
        mel = np.matmul(parts[:, 0::2] + parts[:, 1::2], weights, out=out[rows])
        del parts  # else it sits beside the next block's scratch
        np.maximum(mel, LOG_FLOOR, out=mel)
        np.log(mel, out=mel)
    return Spectrogram(out)


def whiten(s: Spectrogram, stats: WhiteningStats) -> Spectrogram:
    """Elementwise (x - mean) / std."""
    return Spectrogram((s.values - stats.mean) / stats.std)


def cell_sums(s: Spectrogram) -> tuple[int, float, float]:
    """(cell count, sum, sum of squares) of one spectrogram's cells."""
    v = s.values
    return v.size, float(v.sum()), float((v * v).sum())


def stats_from_sums(sums: Iterable[tuple[int, float, float]]) -> WhiteningStats:
    """Global mean/std (population) from spectrograms' cell_sums, added in
    order: the same order gives the same statistics to the last bit."""
    count = 0
    total = 0.0
    total_sq = 0.0
    for n, s, sq in sums:
        count += n
        total += s
        total_sq += sq
    if count == 0:
        raise DspError("no spectrograms supplied")
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    if var == 0.0:
        raise DspError("spectrogram cells have zero variance; whitening undefined")
    return WhiteningStats(mean=mean, std=math.sqrt(var))


def compute_whitening_stats(specs: Iterable[Spectrogram]) -> WhiteningStats:
    """Streaming global mean/std (population) over all cells of all spectrograms."""
    return stats_from_sums(map(cell_sums, specs))


def snippet_window(n: int, max_seconds: float, sample_rate: int, rng: np.random.Generator) -> slice:
    """The samples of an n-sample clip that a snippet keeps.

    A clip of at most max_len = round(max_seconds * sample_rate) samples is
    kept whole, and the generator is not drawn from. A longer one keeps max_len
    samples from a start drawn by one rng.integers(0, n - max_len + 1).
    """
    if not (math.isfinite(max_seconds) and max_seconds > 0):
        raise ValueError(f"max_seconds must be positive and finite, got {max_seconds}")
    if not math.isfinite(max_seconds * sample_rate):
        raise ValueError(f"max_seconds {max_seconds} at {sample_rate} Hz overflows a float sample count")
    max_len = int(round(max_seconds * sample_rate))
    if n <= max_len:
        return slice(0, n)
    start = int(rng.integers(0, n - max_len + 1))
    return slice(start, start + max_len)


def snippet_or_pad(w: Waveform, max_seconds: float, rng: np.random.Generator) -> Waveform:
    """Return w unchanged if short enough, else a uniformly random contiguous
    snippet, as snippet_window cuts it. ingest.read_wav(path, max_seconds, rng)
    gives the same snippet of a WAV file without decoding the rest."""
    window = snippet_window(len(w), max_seconds, w.sample_rate, rng)
    if window.stop - window.start == len(w):
        return w
    return Waveform(w.samples[window], w.sample_rate)


def segment(s: Spectrogram, seg_frames: int) -> list[Spectrogram]:
    """Cut into consecutive non-overlapping chunks of seg_frames frames.

    The final chunk is zero-padded to full length, so the count is always
    ceil(frames / seg_frames).
    """
    if seg_frames < 1:
        raise ValueError(f"seg_frames must be >= 1, got {seg_frames}")
    n = math.ceil(s.frames / seg_frames)
    out = []
    for k in range(n):
        chunk = s.values[k * seg_frames : (k + 1) * seg_frames]
        if chunk.shape[0] < seg_frames:
            padded = np.zeros((seg_frames, s.bins), dtype=np.float64)
            padded[: chunk.shape[0]] = chunk
            chunk = padded
        out.append(Spectrogram(chunk))
    return out
