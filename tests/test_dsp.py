import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acre import dsp
from conftest import run_at_blas_threads, snippet


def sine(freq, seconds, amplitude=0.5, rate=32000):
    t = np.arange(int(seconds * rate)) / rate
    return dsp.Waveform(amplitude * np.sin(2 * np.pi * freq * t), rate)


def count_frames_oracle(n_samples, n_fft=1024, hop=320):
    count, pos = 0, 0
    while pos + n_fft <= n_samples:
        count += 1
        pos += hop
    return count


def test_ten_seconds_gives_997_frames():
    assert dsp.frame_count(320000) == 997
    assert dsp.logmel(sine(440, 10.0)).frames == 997


@settings(max_examples=200, deadline=None)
@given(st.integers(1024, 400000))
def test_frame_count_matches_sliding_oracle(n):
    assert dsp.frame_count(n) == count_frames_oracle(n)


def test_logmel_rejects_wrong_rate_and_short_input():
    with pytest.raises(dsp.WrongSampleRate):
        dsp.logmel(dsp.Waveform(np.zeros(44100), 44100))
    with pytest.raises(dsp.TooShort):
        dsp.logmel(dsp.Waveform(np.zeros(1023), 32000))


def test_logmel_zero_input_hits_log_floor():
    s = dsp.logmel(dsp.Waveform(np.zeros(32000), 32000))
    assert np.all(s.values == math.log(1e-10))


def test_logmel_sine_argmax_bin():
    centers = dsp.mel_center_frequencies()
    expected = int(np.argmin(np.abs(centers - 1000.0)))
    s = dsp.logmel(sine(1000, 2.0))
    per_frame = np.argmax(s.values, axis=1)
    assert np.all(np.abs(per_frame - expected) <= 1)


@pytest.mark.parametrize("alpha", [2.0, 10.0])
def test_logmel_scale_covariance(alpha):
    w = sine(1000, 1.0, amplitude=0.05)
    base = dsp.logmel(w).values
    scaled = dsp.logmel(dsp.Waveform(alpha * w.samples, 32000)).values
    floor = math.log(1e-10)
    mask = (base > floor + 1.0) & (scaled > floor + 1.0)
    assert mask.any()
    assert np.abs((scaled - base)[mask] - 2.0 * math.log(alpha)).max() < 1e-4


def test_filterbank_nonnegative_with_full_coverage():
    fb = dsp.mel_filterbank()
    assert np.all(fb >= 0.0)
    freqs = np.arange(513) * 32000 / 1024
    centers = dsp.mel_center_frequencies()
    inside = (freqs > centers[0]) & (freqs < centers[-1])
    assert np.all(fb.sum(axis=0)[inside] > 0.0)


def test_whiten_identity_and_constant():
    rng = np.random.default_rng(0)
    s = dsp.Spectrogram(rng.normal(size=(5, 128)))
    assert np.array_equal(dsp.whiten(s, dsp.WhiteningStats(0.0, 1.0)).values, s.values)
    const = dsp.Spectrogram(np.full((4, 128), 3.25))
    assert np.all(dsp.whiten(const, dsp.WhiteningStats(3.25, 1.7)).values == 0.0)


def test_whiten_algebraic_inverse():
    rng = np.random.default_rng(1)
    s = dsp.Spectrogram(rng.normal(2.0, 3.0, size=(6, 128)))
    m, sd = 2.0, 3.0
    inverted = dsp.whiten(dsp.whiten(s, dsp.WhiteningStats(m, sd)), dsp.WhiteningStats(-m / sd, 1.0 / sd))
    assert np.abs(inverted.values - s.values).max() < 1e-6


def test_whitening_stats_streaming():
    rng = np.random.default_rng(2)
    blocks = [dsp.Spectrogram(rng.normal(1.5, 0.7, size=(n, 128))) for n in (3, 9, 5)]
    stats = dsp.stats_from_sums(map(dsp.cell_sums, blocks))
    cells = np.concatenate([b.values.reshape(-1) for b in blocks])
    assert stats.mean == pytest.approx(cells.mean(), abs=1e-12)
    assert stats.std == pytest.approx(cells.std(), abs=1e-12)


def test_whitening_stats_rejects_constant_input():
    with pytest.raises(dsp.DspError):
        dsp.stats_from_sums(map(dsp.cell_sums, [dsp.Spectrogram(np.ones((4, 128)))]))


def test_snippet_is_contiguous_subrange():
    w = sine(440, 45.0)
    rng = np.random.default_rng(7)
    out = snippet(w, 30.0, rng)
    assert len(out) == 30 * 32000
    # locate the snippet: it must be a contiguous cut of the input
    starts = [s for s in range(0, len(w) - len(out) + 1) if w.samples[s] == out.samples[0]]
    assert any(np.array_equal(w.samples[s : s + len(out)], out.samples) for s in starts)


def test_snippet_short_input_unchanged():
    w = sine(440, 10.0)
    rng = np.random.default_rng(0)
    out = snippet(w, 30.0, rng)
    assert out.samples.tobytes() == w.samples.tobytes()
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("max_seconds", [0.0, -1.0, math.nan, math.inf])
def test_snippet_rejects_non_positive_or_non_finite_length(max_seconds):
    with pytest.raises(ValueError, match=rf"^max_seconds must be positive and finite, got {max_seconds}$"):
        snippet(sine(440, 1.0), max_seconds, np.random.default_rng(0))


def test_snippet_rejects_a_length_whose_sample_count_overflows():
    # 1e308 s is finite, but 1e308 x 32000 samples is not: int() of it would raise OverflowError
    with pytest.raises(ValueError, match=r"^max_seconds 1e\+308 at 32000 Hz overflows a float sample count$"):
        dsp.snippet_window(32000, 1e308, 32000, np.random.default_rng(0))
    assert dsp.snippet_window(32000, 5.6e303, 32000, np.random.default_rng(0)) == slice(0, 32000)


def spec_of_frames(frames, seed=0):
    return dsp.Spectrogram(np.random.default_rng(seed).normal(size=(frames, 128)))


@pytest.mark.parametrize("frames,seg,expected", [(997, 1000, 1), (2991, 1000, 3), (1000, 1000, 1)])
def test_segment_counts(frames, seg, expected):
    assert len(dsp.segment(spec_of_frames(frames), seg)) == expected


def test_segment_pads_final_chunk():
    chunks = dsp.segment(spec_of_frames(997), 1000)
    assert chunks[0].frames == 1000
    assert np.all(chunks[0].values[997:] == 0.0)


def test_segment_exact_fit_is_identity():
    s = spec_of_frames(640)
    (only,) = dsp.segment(s, 640)
    assert np.array_equal(only.values, s.values)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 400), st.integers(1, 97))
def test_segment_concat_reproduces_input(frames, seg):
    s = spec_of_frames(frames, seed=frames)
    chunks = dsp.segment(s, seg)
    assert len(chunks) == math.ceil(frames / seg)
    joined = np.concatenate([c.values for c in chunks])[:frames]
    assert np.array_equal(joined, s.values)


def test_seconds_to_frames_hop_rate():
    assert dsp.seconds_to_frames(10.0) == 1000
    assert dsp.seconds_to_frames(2.0) == 200


def test_waveform_validation():
    with pytest.raises(ValueError):
        dsp.Waveform(np.array([0.0, 2.0]), 32000)
    with pytest.raises(ValueError):
        dsp.Waveform(np.array([np.nan]), 32000)
    with pytest.raises(ValueError):
        dsp.Waveform(np.zeros(4), 0)


@pytest.mark.parametrize(
    "bad,message",
    [(np.nan, "samples must be finite"), (np.inf, "samples must be finite"), (-np.inf, "samples must be finite"),
     (1.0 + 1e-12, r"samples must lie in \[-1, 1\]"), (-1.5, r"samples must lie in \[-1, 1\]")],
)
def test_waveform_names_what_is_wrong_with_a_sample(bad, message):
    x = np.linspace(-1.0, 1.0, 9)  # both ends are allowed
    assert dsp.Waveform(x, 32000).samples is not None
    x[4] = bad
    with pytest.raises(ValueError, match=message):
        dsp.Waveform(x, 32000)


def test_logmel_is_pinned_to_the_byte(blas_core):
    # sha256 of the float32 bytes of a log-mel and of the filterbank; a change
    # to the front end's arithmetic that moves any cell by one bit moves these
    rng = np.random.default_rng(9)
    t = np.arange(3 * 32000) / 32000
    w = dsp.Waveform(0.4 * np.sin(2 * np.pi * 440.0 * t) + rng.uniform(-0.5, 0.5, t.size), 32000)
    spec = dsp.logmel(w)
    assert spec.frames == 297
    arrays = (spec.values, dsp.mel_filterbank())
    assert [hashlib.sha256(a.astype(np.float32).tobytes()).hexdigest() for a in arrays] == [
        "baf05427ca6fe2b562c7f3d6fec59c1f986e2cee4701e95692d39e77e910fd36",
        "222e1d8b0613cc529da5357837722e1af805e55dbc86a9492cb85fe60e42f3cf",
    ], f"OpenBLAS core {blas_core}"
    # the float64 bytes too, at any BLAS thread count: the one-shot product's at one thread
    assert hashlib.sha256(spec.values.tobytes()).hexdigest() == (
        "77772eb2119d3d8a0ab563ec38a42f9bdce8a0c2ada897b3ed5f6808a1fa9230"
    ), f"OpenBLAS core {blas_core}"


def test_filterbank_is_exactly_zero_at_0_hz_and_nyquist():
    # the outer filters' feet sit on these bins, so logmel may leave Nyquist out
    fb = dsp.mel_filterbank()
    assert fb.shape == (128, 513)
    assert np.all(fb[:, 0] == 0.0) and np.all(fb[:, 512] == 0.0)
    assert np.all(fb[:, 1:512].sum(axis=0) > 0)


def test_filterbank_is_read_only_so_no_caller_can_change_logmel():
    w = sine(440, 1.0)
    before = dsp.logmel(w).values.tobytes()
    fb = dsp.mel_filterbank()
    with pytest.raises(ValueError, match="read-only"):
        fb *= 2
    assert dsp.logmel(w).values.tobytes() == before


@given(st.integers(0, 3000), st.integers(1, 600))
def test_row_blocks_cover_the_rows_in_order_and_fold_in_the_remainder(n, size):
    blocks = dsp.row_blocks(n, size)
    assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
    lengths = [len(range(n)[rows]) for rows in blocks]
    # no block is shorter than size unless it is the only one
    assert len(blocks) == 1 or min(lengths) >= size
    assert lengths[:-1] == [size] * (len(blocks) - 1) and lengths[-1] < 2 * size


ORACLE_FRAMES = (1, 8, 15, 16, 255, 256, 257, 511, 512, 513, 767, 2997)

# Per frame count of a seeded uniform-noise clip: whether logmel's float64 bytes
# equal the textbook one-shot log-mel's (every frame and all 513 bins in one
# product), and the sha256 of those bytes.
_LOGMEL_SCRIPT = """
import hashlib, sys
import numpy as np
from acre import dsp

def one_shot(x):
    frames = np.lib.stride_tricks.sliding_window_view(x, dsp.N_FFT)[:: dsp.HOP]
    spectra = np.fft.rfft(frames * np.hanning(dsp.N_FFT), axis=1)
    power = spectra.real**2 + spectra.imag**2
    return np.log(np.maximum(power @ dsp.mel_filterbank().T, dsp.LOG_FLOOR))

for n in map(int, sys.argv[1:]):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, dsp.N_FFT + dsp.HOP * (n - 1) + 100)
    got = dsp.logmel(dsp.Waveform(x, dsp.SAMPLE_RATE)).values
    print(n, got.tobytes() == one_shot(x).tobytes(), hashlib.sha256(got.tobytes()).hexdigest())
"""


@pytest.fixture(scope="module")
def logmel_runs():
    """{threads: {frames: (equals the one-shot oracle, sha256)}} at 1 and 2
    OpenBLAS threads, and the OpenBLAS kernel under "core"."""
    runs = {}
    for threads in ("1", "2"):
        stdout, runs["core"] = run_at_blas_threads(threads, "-c", _LOGMEL_SCRIPT, *map(str, ORACLE_FRAMES))
        rows = [line.split() for line in stdout.splitlines()]
        runs[threads] = {int(n): (same == "True", digest) for n, same, digest in rows}
    return runs


@pytest.mark.parametrize("frames", ORACLE_FRAMES)
def test_logmel_is_the_one_shot_log_mel_bitwise_at_one_thread(logmel_runs, frames):
    # block edges, a remainder folded into the last block, and a 30-s clip
    assert logmel_runs["1"][frames][0], f"OpenBLAS core {logmel_runs['core']}"


def test_logmel_is_bitwise_the_same_at_one_and_two_blas_threads(logmel_runs):
    # an inner dimension of 513 bins is split differently by OpenBLAS at one
    # thread and at two; logmel contracts over the 512 below Nyquist
    one, two = ({n: d for n, (_, d) in logmel_runs[threads].items()} for threads in ("1", "2"))
    assert one == two, f"OpenBLAS core {logmel_runs['core']}"


def test_logmel_holds_its_output_and_one_block():
    dsp.logmel(sine(440, 1.0))  # the cached window and filterbank are not scratch
    w = dsp.Waveform(np.random.default_rng(2).uniform(-1.0, 1.0, 30 * 32000), 32000)
    tracemalloc.start()
    try:
        spec = dsp.logmel(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.frames == 2997
    # one block of at most 511 frames windowed (511 x 1024 float64) and its
    # spectrum (511 x 513 complex128): 8.4 MB; whole-clip temporaries were 46 MB
    assert peak < spec.values.nbytes + 2 * 512 * 1024 * 8
