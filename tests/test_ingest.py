import gc
import re
import struct
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acre import cli, ingest
from conftest import raw_wav_bytes, snippet, traced_peak, write_wav_float32, write_wav_pcm16


def write_manifest(path, rows, header=None):
    header = header or "file_name,caption_1,caption_2,caption_3,caption_4,caption_5"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def test_load_manifest_two_rows(tmp_path):
    m = tmp_path / "m.csv"
    write_manifest(
        m,
        [
            "a.wav,c1,c2,c3,c4,c5",
            'b.wav,"one, with comma",x2,x3,x4,x5',
        ],
    )
    records = ingest.load_manifest(m)
    assert len(records) == 2
    assert sum(len(r.captions) for r in records) == 10
    assert records[0].clip_id == "a.wav"
    assert records[0].audio_path == tmp_path / "a.wav"
    assert records[1].captions[0] == "one, with comma"


def test_load_manifest_keywords_and_audio_dir(tmp_path):
    # a keywords column, like any unknown column, is ignored
    m = tmp_path / "m.csv"
    write_manifest(
        m,
        ["a.wav,c1,c2,c3,c4,c5,dog;water; wind"],
        header="file_name,caption_1,caption_2,caption_3,caption_4,caption_5,keywords",
    )
    records = ingest.load_manifest(m, audio_dir=tmp_path / "elsewhere")
    assert records == [ingest.ClipRecord("a.wav", tmp_path / "elsewhere", ("c1", "c2", "c3", "c4", "c5"))]
    assert records[0].audio_path == tmp_path / "elsewhere" / "a.wav"


def test_load_manifest_missing_column(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("file_name,caption_1,caption_2,caption_3,caption_4\nx.wav,a,b,c,d\n")
    with pytest.raises(ingest.MissingColumn, match="caption_5"):
        ingest.load_manifest(m)


@pytest.mark.parametrize(
    "header, column",
    [
        ("file_name,caption_1,caption_2,caption_3,caption_4,caption_5,caption_1", "caption_1"),
        ("file_name,caption_1,caption_2,caption_3,caption_4,caption_5,file_name", "file_name"),
        ("file_name,caption_1,caption_2,caption_3,caption_4,caption_5, caption_3 ", "caption_3"),
    ],
    ids=["caption", "file-name", "padded"],
)
def test_load_manifest_refuses_a_required_column_named_twice(tmp_path, header, column):
    m = tmp_path / "m.csv"
    write_manifest(m, ["a.wav,c1,c2,c3,c4,c5,SIX"], header=header)
    with pytest.raises(ingest.IngestError) as excinfo:
        ingest.load_manifest(m)
    assert str(excinfo.value) == f"{m}: line 1: column {column!r} appears more than once"


def test_load_manifest_keeps_a_repeated_unknown_column(tmp_path):
    m = tmp_path / "m.csv"
    header = "file_name,caption_1,caption_2,caption_3,caption_4,caption_5,k,k"
    write_manifest(m, ["a.wav,c1,c2,c3,c4,c5,x,y"], header=header)
    assert [rec.captions for rec in ingest.load_manifest(m)] == [("c1", "c2", "c3", "c4", "c5")]


def test_load_manifest_wrong_caption_count(tmp_path):
    m = tmp_path / "m.csv"
    write_manifest(m, ["a.wav,c1,c2,c3,c4,c5", "b.wav,c1,c2,c3,c4"])
    with pytest.raises(ingest.WrongCaptionCount, match="row 3"):
        ingest.load_manifest(m)


@pytest.mark.parametrize("rows", [[], ["", ""]])
def test_load_manifest_rejects_header_only(tmp_path, rows):
    m = tmp_path / "m.csv"
    write_manifest(m, rows)
    with pytest.raises(ingest.IngestError) as excinfo:
        ingest.load_manifest(m)
    assert str(excinfo.value) == f"{m}: no clip rows after the header"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", ingest.MissingColumn, "empty manifest"),
        ("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n ,a,b,c,d,e\n", ingest.MissingColumn,
         "row 2: empty file_name"),
    ],
    ids=["empty-file", "empty-file-name"],
)
def test_load_manifest_rejects_empty_file_and_file_name(tmp_path, text, error, message):
    m = tmp_path / "m.csv"
    m.write_text(text)
    with pytest.raises(error) as excinfo:
        ingest.load_manifest(m)
    assert str(excinfo.value) == f"{m}: {message}"


def test_load_manifest_refuses_a_nul_byte_in_a_file_name(tmp_path):
    m = tmp_path / "m.csv"
    write_manifest(m, ["a.wav,1,2,3,4,5", "b\0.wav,1,2,3,4,5"])
    with pytest.raises(ingest.IngestError) as excinfo:
        ingest.load_manifest(m)
    assert str(excinfo.value) == f"{m}: row 3: file_name 'b\\x00.wav' holds a NUL byte"


def test_load_manifest_duplicate_clip(tmp_path):
    m = tmp_path / "m.csv"
    write_manifest(m, ["a.wav,1,2,3,4,5", "a.wav,1,2,3,4,5"])
    with pytest.raises(ingest.DuplicateClipId, match="row 3"):
        ingest.load_manifest(m)


def test_load_augmented_captions(tmp_path):
    f = tmp_path / "aug.jsonl"
    f.write_text(
        '{"clip_id": "a.wav", "caption_index": 0, "variants": ["v0", "v1", "v2", "v3", "v4"]}\n'
    )
    sets = ingest.load_augmented_captions(f)
    assert len(sets) == 1
    assert sets[0].variants == ("v0", "v1", "v2", "v3", "v4")


@pytest.mark.parametrize(
    "reader, text",
    [
        (ingest.load_manifest, "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\na.wav,p,q,r,s,t\n"),
        (ingest.load_augmented_captions, '{"clip_id": "a.wav", "caption_index": 0, "variants": ["1", "2", "3", "4", "5"]}\n'),
        (cli.parse_config_file, "seed = 3\nmanifest = a.csv\n"),
    ],
    ids=["manifest", "augmented-captions", "config"],
)
def test_readers_skip_a_utf8_byte_order_mark(tmp_path, reader, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert reader(marked) == reader(plain)


def test_augmented_caption_totals(tmp_path):
    # a scaled-down version of the production bookkeeping: clips x 5 captions x 5 variants
    f = tmp_path / "aug.jsonl"
    lines = []
    for clip in range(12):
        for ci in range(5):
            variants = [f'"c{clip}-{ci}-{v}"' for v in range(5)]
            lines.append(
                f'{{"clip_id": "clip{clip}", "caption_index": {ci}, "variants": [{",".join(variants)}]}}'
            )
    f.write_text("\n".join(lines) + "\n")
    sets = ingest.load_augmented_captions(f)
    assert sum(len(s.variants) for s in sets) == 12 * 5 * 5
    # full-corpus arithmetic pinned by the same constants
    assert 3840 * ingest.CAPTIONS_PER_CLIP * ingest.VARIANTS_PER_CAPTION == 96_000


def test_augmented_variant_count_mismatch(tmp_path):
    f = tmp_path / "aug.jsonl"
    f.write_text('{"clip_id": "a", "caption_index": 1, "variants": ["1", "2", "3", "4"]}\n')
    with pytest.raises(ingest.VariantCountMismatch, match="line 1"):
        ingest.load_augmented_captions(f)


def test_augmented_duplicate_key(tmp_path):
    f = tmp_path / "aug.jsonl"
    line = '{"clip_id": "a", "caption_index": 0, "variants": ["1", "2", "3", "4", "5"]}\n'
    f.write_text(line + line)
    with pytest.raises(ingest.IngestError, match="duplicate"):
        ingest.load_augmented_captions(f)


@pytest.mark.parametrize(
    "fields, message",
    [
        ('"clip_id": 7, "caption_index": 1', "clip_id must be a string, got 7"),
        ('"clip_id": null, "caption_index": 1', "clip_id must be a string, got None"),
        ('"clip_id": "a", "caption_index": 1.7', "caption_index must be an integer, got 1.7"),
        ('"clip_id": "a", "caption_index": 1.0', "caption_index must be an integer, got 1.0"),
        ('"clip_id": "a", "caption_index": "1"', "caption_index must be an integer, got '1'"),
        ('"clip_id": "a", "caption_index": true', "caption_index must be an integer, got True"),
    ],
    ids=["int-clip-id", "null-clip-id", "fractional-index", "float-index", "string-index", "bool-index"],
)
def test_augmented_rejects_mistyped_keys(tmp_path, fields, message):
    f = tmp_path / "aug.jsonl"
    good = '{"clip_id": "b", "caption_index": 0, "variants": ["1", "2", "3", "4", "5"]}'
    f.write_text(good + "\n{" + fields + ', "variants": ["1", "2", "3", "4", "5"]}\n')
    with pytest.raises(ingest.IngestError) as excinfo:
        ingest.load_augmented_captions(f)
    assert str(excinfo.value) == f"{f}: line 2: {message}"


@pytest.mark.parametrize(
    "variant, shown",
    [("null", "None"), ("1", "1"), ('""', "''"), ('"  "', "'  '"), ("true", "True"), ('["x"]', "['x']")],
    ids=["null", "number", "empty", "blank", "bool", "list"],
)
def test_augmented_rejects_non_string_or_blank_variants(tmp_path, variant, shown):
    f = tmp_path / "aug.jsonl"
    f.write_text('{"clip_id": "a", "caption_index": 1, "variants": ["v0", "v1", ' + variant + ', "v3", "v4"]}\n')
    with pytest.raises(ingest.IngestError) as excinfo:
        ingest.load_augmented_captions(f)
    assert str(excinfo.value) == f"{f}: line 1 (clip 'a'): variant 2 must be a non-blank string, got {shown}"


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"clip_id": "a", ', "line 1: invalid JSON record: "),
        ('{"clip_id": "a", "variants": ["1", "2", "3", "4", "5"]}', "line 1: missing key 'caption_index'"),
        ('{"caption_index": 0, "variants": ["1", "2", "3", "4", "5"]}', "line 1: missing key 'clip_id'"),
        ('{"clip_id": "a", "caption_index": 5, "variants": ["1", "2", "3", "4", "5"]}',
         "line 1: caption_index 5 outside 0..4"),
        ("[1, 2]", "line 1: record must be a JSON object, got list"),
        ('"x"', "line 1: record must be a JSON object, got str"),
        ("5", "line 1: record must be a JSON object, got int"),
        ('{"clip_id": "a", "caption_index": 0, "variants": ["1", "2", "3", "4", "5"]}\n\n[]',
         "line 3: record must be a JSON object, got list"),
    ],
    ids=["invalid-json", "missing-key", "missing-clip-id", "index-5", "list", "string", "number", "list-on-line-3"],
)
def test_augmented_rejects_malformed_records(tmp_path, line, message):
    f = tmp_path / "aug.jsonl"
    f.write_text(line + "\n")
    with pytest.raises(ingest.IngestError) as excinfo:
        ingest.load_augmented_captions(f)
    assert str(excinfo.value).startswith(f"{f}: {message}")


def test_augmented_unknown_clip_is_fine(tmp_path):
    f = tmp_path / "aug.jsonl"
    f.write_text('{"clip_id": "never-seen", "caption_index": 0, "variants": ["1","2","3","4","5"]}\n')
    assert len(ingest.load_augmented_captions(f)) == 1


def test_read_wav_pcm16_scaling(tmp_path):
    p = tmp_path / "x.wav"
    write_wav_pcm16(p, np.array([-32768, 0, 16384, 32767], dtype=np.int16))
    w = ingest.read_wav(p)
    assert w.sample_rate == 32000
    assert w.samples[0] == -1.0  # symmetric-range convention, exact
    assert w.samples[1] == 0.0
    assert w.samples[2] == 0.5
    assert w.samples[3] == 32767 / 32768


def test_read_wav_duration(tmp_path):
    p = tmp_path / "x.wav"
    write_wav_pcm16(p, np.zeros(32000, dtype=np.int16))
    w = ingest.read_wav(p)
    assert len(w) == 32000 and w.duration == 1.0


def test_read_wav_stereo_cancellation(tmp_path):
    p = tmp_path / "x.wav"
    rng = np.random.default_rng(0)
    left = rng.uniform(-0.5, 0.5, 4000).astype(np.float32)
    write_wav_float32(p, np.stack([left, -left], axis=1))
    w = ingest.read_wav(p)
    assert np.all(w.samples == 0.0)


def test_read_wav_stereo_mean(tmp_path):
    p = tmp_path / "x.wav"
    write_wav_float32(p, np.array([[0.5, -0.5], [0.25, 0.75]], dtype=np.float32))
    w = ingest.read_wav(p)
    assert np.allclose(w.samples, [0.0, 0.5])


@pytest.mark.parametrize("channels", [1, 2, 3, 6, 7, 8, 9])
@pytest.mark.parametrize("code,bits", [(1, 16), (3, 32)], ids=["int16", "float32"])
def test_read_wav_mono_mix_is_the_interleaved_mean_bitwise(tmp_path, code, bits, channels):
    # more frames than one mix block; float32 exponents spread wide enough that
    # the order of the channel sum shows in the last bit, and -0.0 samples: in
    # one channel, and in every channel of a frame, whose mean is +0.0
    rng = np.random.default_rng(channels)
    n = ingest.MIX_BLOCK + 1001
    if bits == 16:
        x, scale = rng.integers(-32768, 32768, (n, channels)), 32768.0
    else:
        x, scale = (rng.uniform(-1.0, 1.0, (n, channels)) * 10.0 ** rng.integers(-20, 1, (n, channels))), 1.0
        x = x.astype(np.float32)
        x[5, 0] = x[ingest.MIX_BLOCK + 7] = x[ingest.MIX_BLOCK + 8, -1] = -0.0
    expected = (x.astype(np.float64) / scale).reshape(-1, channels).mean(axis=1)
    p = tmp_path / "x.wav"
    p.write_bytes(raw_wav_bytes(x.ravel(), 32000, channels, fmt_code=code, bits=bits))
    assert ingest.read_wav(p).samples.tobytes() == expected.tobytes()


def test_read_wav_holds_its_output_and_one_block(tmp_path):
    p = tmp_path / "long.wav"
    x = np.random.default_rng(0).integers(-20000, 20000, (40 * 32000, 2)).astype(np.int16)
    write_wav_pcm16(p, x)
    w, peak = traced_peak(lambda: ingest.read_wav(p))
    assert len(w) == 40 * 32000
    # the samples plus one raw block (64 KB) and its float64 copy (0.26 MB);
    # the file's bytes (5 MB) are not held, and a float64 copy of the
    # interleaved data alone would be 20 MB
    assert peak < w.samples.nbytes + 500_000


@pytest.mark.parametrize(
    "channels,code,bits,frames", [(65535, 1, 16, 5), (9000, 3, 32, 30)], ids=["int16-65535", "float32-9000"]
)
def test_read_wav_of_many_channels_holds_a_bounded_block(tmp_path, channels, code, bits, frames):
    # a 16384-frame block sized by the header's channel count alone would be
    # 8 GiB of float64 at 65535 channels; here blocks of 2 and 14 frames
    rng = np.random.default_rng(channels)
    if bits == 16:
        x, scale = rng.integers(-32768, 32768, (frames, channels)), 32768.0
    else:
        x = rng.uniform(-1.0, 1.0, (frames, channels)) * 10.0 ** rng.integers(-20, 1, (frames, channels))
        x, scale = x.astype(np.float32), 1.0
    expected = (x.astype(np.float64) / scale).reshape(-1, channels).mean(axis=1)
    raw = bytearray(raw_wav_bytes(x.ravel(), 32000, 1, fmt_code=code, bits=bits))
    struct.pack_into("<H", raw, 22, channels)  # byte rate and block align stay mono's: read_wav reads neither
    p = tmp_path / "x.wav"
    p.write_bytes(raw)
    w, peak = traced_peak(lambda: ingest.read_wav(p))
    assert w.samples.tobytes() == expected.tobytes()
    assert peak < 2_000_000


def test_read_wav_refuses_a_snippet_whose_sample_count_overflows(tmp_path):
    p = tmp_path / "x.wav"
    write_wav_pcm16(p, np.zeros((100, 1), dtype=np.int16))
    with pytest.raises(ValueError, match=r"^max_seconds 1e\+308 at 32000 Hz overflows a float sample count$"):
        ingest.read_wav(p, 1e308, np.random.default_rng(0))


def write_long_wav(path, seconds: int, channels: int, bits: int) -> None:
    """A WAV of `seconds` repeats of one second of noise, written a second at a time."""
    rng = np.random.default_rng(seconds)
    if bits == 16:
        second = rng.integers(-20000, 20000, (32000, channels)).astype("<i2")
    else:
        second = rng.uniform(-1.2, 1.2, (32000, channels)).astype("<f4")
    head = raw_wav_bytes(second[:0].ravel(), 32000, channels, fmt_code=1 if bits == 16 else 3, bits=bits)
    size = seconds * second.nbytes
    with open(path, "wb") as fh:
        fh.write(head[:4] + struct.pack("<I", len(head) - 8 + size) + head[8:-4] + struct.pack("<I", size))
        for _ in range(seconds):
            fh.write(second.tobytes())


@pytest.mark.parametrize(
    "channels,bits", [(2, 16), (1, 32), (2, 32)], ids=["int16-stereo", "float32-mono", "float32-stereo"]
)
def test_read_wav_decodes_a_long_clip_in_the_memory_of_its_window(tmp_path, channels, bits):
    p = tmp_path / "ten-minutes.wav"
    write_long_wav(p, 600, channels, bits)
    w, peak = traced_peak(lambda: ingest.read_wav(p, 30.0, np.random.default_rng(3)))
    assert len(w) == 30 * 32000
    # the window's float64 samples, one float64 mix block and 1 MB, however long
    # the file: decoding all of the stereo 16-bit one and then cutting took 231 MB
    assert peak < w.samples.nbytes + ingest.MIX_BLOCK * channels * 8 + 1_000_000


class FixedStart:
    """A stand-in generator whose integers() returns one start and logs its bounds."""

    def __init__(self, start):
        self.start = start
        self.calls = []

    def integers(self, low, high):
        self.calls.append((low, high))
        return self.start


def noise_frames(rng, n, channels, bits):
    """int16 frames, or float32 frames with wide exponents and overshoot past +-1."""
    if bits == 16:
        return rng.integers(-32768, 32768, (n, channels)).astype(np.int16)
    x = rng.uniform(-1.3, 1.3, (n, channels)) * 10.0 ** rng.integers(-20, 1, (n, channels))
    return x.astype(np.float32)


def mono_oracle(x, bits):
    """The interleaved mean of int16 or float32 frames, scaled and clipped as read_wav does."""
    mono = (x.astype(np.float64) / (32768.0 if bits == 16 else 1.0)).mean(axis=1)
    return mono if bits == 16 else np.clip(mono, -1.0, 1.0)


WINDOW_FRAMES = 20_000  # 0.625 s at 32 kHz: more than one mix block, not a multiple of one


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("channels", [1, 2, 6])
@pytest.mark.parametrize("bits", [16, 32], ids=["int16", "float32"])
def test_read_wav_window_is_decode_all_then_snippet_bitwise(tmp_path, bits, channels, where):
    n = 3 * ingest.MIX_BLOCK + 777
    x = noise_frames(np.random.default_rng(channels), n, channels, bits)
    p = tmp_path / "x.wav"
    p.write_bytes(raw_wav_bytes(x.ravel(), 32000, channels, fmt_code=1 if bits == 16 else 3, bits=bits))
    start = {"start": 0, "middle": 12_345, "end": n - WINDOW_FRAMES}[where]
    seconds = WINDOW_FRAMES / 32000
    windowed, whole = FixedStart(start), FixedStart(start)
    got = ingest.read_wav(p, seconds, windowed)
    expected = snippet(ingest.read_wav(p), seconds, whole)
    assert got.samples.tobytes() == expected.samples.tobytes()
    assert got.samples.tobytes() == mono_oracle(x, bits)[start : start + WINDOW_FRAMES].tobytes()
    assert windowed.calls == whole.calls == [(0, n - WINDOW_FRAMES + 1)]


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["shorter", "exactly-as-long", "one-frame-longer"])
@pytest.mark.parametrize("bits", [16, 32], ids=["int16", "float32"])
def test_read_wav_window_draws_as_the_whole_decode_cut(tmp_path, bits, extra):
    n = WINDOW_FRAMES + extra
    x = noise_frames(np.random.default_rng(n), n, 2, bits)
    p = tmp_path / "x.wav"
    p.write_bytes(raw_wav_bytes(x.ravel(), 16000, 2, fmt_code=1 if bits == 16 else 3, bits=bits))
    seconds = WINDOW_FRAMES / 16000  # the window is counted at the file's rate
    windowed, whole = np.random.default_rng(11), np.random.default_rng(11)
    got = ingest.read_wav(p, seconds, windowed)
    expected = snippet(ingest.read_wav(p), seconds, whole)
    assert len(got) == min(n, WINDOW_FRAMES) and got.sample_rate == expected.sample_rate == 16000
    assert got.samples.tobytes() == expected.samples.tobytes()
    assert windowed.bit_generator.state == whole.bit_generator.state
    drew = windowed.bit_generator.state != np.random.default_rng(11).bit_generator.state
    assert drew == (extra > 0)


def test_read_wav_float32_clips_overshoot(tmp_path):
    p = tmp_path / "x.wav"
    write_wav_float32(p, np.array([1.25, -1.5, 0.5], dtype=np.float32))
    w = ingest.read_wav(p)
    assert list(w.samples) == [1.0, -1.0, 0.5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_wav_refuses_non_finite_float_samples(tmp_path, bad):
    # the overshoot clip would turn +-inf into a full-scale sample
    p = tmp_path / "x.wav"
    x = np.linspace(-0.5, 0.5, 16, dtype=np.float32)
    x[5], x[9] = bad, -bad
    write_wav_float32(p, x)
    with pytest.raises(ingest.NonFiniteValue, match=re.escape(f"{p}: samples must be finite")):
        ingest.read_wav(p)


NON_FINITE_FRAMES = 5 * ingest.MIX_BLOCK + 100


@pytest.mark.parametrize("window", ["whole", "start", "middle", "end"])
@pytest.mark.parametrize("block", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "nan-and-inf", "inf-and--inf-in-one-frame"])
def test_read_wav_refuses_a_non_finite_sample_in_any_block_in_or_out_of_the_window(tmp_path, bad, block, window):
    # the message names the whole file's peak: NaN wherever a NaN is, inf else,
    # even when the one NaN is outside the window and an inf is inside it
    n, span = NON_FINITE_FRAMES, ingest.MIX_BLOCK
    x = np.random.default_rng(5).uniform(-0.5, 0.5, (n, 2)).astype(np.float32)
    at = {"first": 7, "middle": 2 * span + 50, "last": n - 3}[block]
    if bad == "nan-and-inf":
        x[at, 0] = np.nan
        x[3 * span + 9 if block != "last" else 11, 1] = np.inf  # in a block the window may hold
    elif bad == "inf-and--inf-in-one-frame":  # no NaN on disk; the frame's mean is one
        x[at] = np.inf, -np.inf
    else:
        x[at, 1] = float(bad)
    p = tmp_path / "x.wav"
    p.write_bytes(raw_wav_bytes(x.ravel(), 32000, 2, fmt_code=3, bits=32))
    peak = "nan" if "nan" in bad or "one-frame" in bad else "inf"
    message = re.escape(f"{p}: samples must be finite, got peak {peak}") + "$"
    if window == "whole":
        with pytest.raises(ingest.NonFiniteValue, match=message):
            ingest.read_wav(p)
        return
    start = {"start": 0, "middle": 2 * span + 5, "end": n - span}[window]
    with pytest.raises(ingest.NonFiniteValue, match=message):
        ingest.read_wav(p, span / 32000, FixedStart(start))


SIGNALLING_NAN = 0x7F800001  # float32 bits: exponent all ones, quiet bit clear


@pytest.mark.parametrize("window", ["whole", "window-holding-it", "window-before-it"])
@pytest.mark.parametrize(
    "channels, bad", [(1, "signalling-nan"), (2, "signalling-nan"), (2, "inf-and--inf-in-one-frame")]
)
def test_read_wav_refuses_a_signalling_nan_or_an_inf_pair_without_a_warning(tmp_path, channels, bad, window):
    # a numpy RuntimeWarning fails the test (pyproject's filterwarnings): the
    # float64 cast of a signalling NaN and inf + -inf in a frame's sum each warn
    n, span = 3 * ingest.MIX_BLOCK + 5, ingest.MIX_BLOCK
    x = np.random.default_rng(channels).uniform(-0.5, 0.5, (n, channels)).astype(np.float32)
    at = span + 9
    if bad == "signalling-nan":
        x.view(np.uint32)[at, -1] = SIGNALLING_NAN
    else:
        x[at] = np.inf, -np.inf
    p = tmp_path / "x.wav"
    p.write_bytes(raw_wav_bytes(x.ravel(), 32000, channels, fmt_code=3, bits=32))
    assert np.isnan(np.frombuffer(p.read_bytes()[44:], "<f4")).sum() == (bad == "signalling-nan")
    with pytest.raises(ingest.NonFiniteValue, match=re.escape(f"{p}: samples must be finite, got peak nan") + "$"):
        if window == "whole":
            ingest.read_wav(p)
        else:
            ingest.read_wav(p, span / 32000, FixedStart(span if window == "window-holding-it" else 0))


def test_read_wav_extensible_format(tmp_path):
    # WAVE_FORMAT_EXTENSIBLE wrapping PCM16: code 0xFFFE, real code at offset 24
    pcm = np.array([100, -100], dtype="<i2")
    ext = struct.pack("<HHIIHH", 0xFFFE, 1, 32000, 64000, 2, 16)
    ext += struct.pack("<HHI", 22, 16, 1) + struct.pack("<H", 1) + b"\x00" * 14
    payload = pcm.tobytes()
    raw = b"RIFF" + struct.pack("<I", 20 + len(ext) + len(payload)) + b"WAVE"
    raw += b"fmt " + struct.pack("<I", len(ext)) + ext
    raw += b"data" + struct.pack("<I", len(payload)) + payload
    p = tmp_path / "x.wav"
    p.write_bytes(raw)
    w = ingest.read_wav(p)
    assert np.allclose(w.samples, [100 / 32768, -100 / 32768])


def test_read_wav_unsupported_encoding(tmp_path):
    p = tmp_path / "x.wav"
    p.write_bytes(raw_wav_bytes(np.zeros(4, dtype=np.int16), 32000, 1, fmt_code=7))  # mu-law
    with pytest.raises(ingest.UnsupportedEncoding) as excinfo:
        ingest.read_wav(p)
    assert str(excinfo.value) == (
        f"{p}: unsupported encoding (format code 7, 16-bit); only 16-bit PCM and 32-bit IEEE float are handled"
    )


def test_read_wav_corrupt_header(tmp_path):
    p = tmp_path / "x.wav"
    p.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(ingest.CorruptHeader):
        ingest.read_wav(p)
    p.write_bytes(raw_wav_bytes(np.zeros(4, dtype=np.int16), 32000, 1)[:-3])  # truncated data
    with pytest.raises(ingest.CorruptHeader):
        ingest.read_wav(p)


def riff(*chunks, tail=b""):
    """A RIFF/WAVE file of the given (id, body) chunks, an odd-sized body
    followed by its pad byte, then `tail`."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + bytes(len(data) & 1) for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body + tail


PCM_FMT = struct.pack("<HHIIHH", 1, 1, 32000, 64000, 2, 16)


@pytest.mark.parametrize(
    "raw, message",
    [
        (riff((b"data", b"\x00\x00")), "no fmt chunk"),
        (riff((b"fmt ", PCM_FMT)), "no data chunk"),
        (riff((b"fmt ", PCM_FMT[:14]), (b"data", b"\x00\x00")), "fmt chunk too small (14 bytes)"),
        (riff((b"fmt ", struct.pack("<HHIIHH", 0xFFFE, 1, 32000, 64000, 2, 16) + b"\x00" * 6), (b"data", b"\x00\x00")),
         "extensible fmt chunk too small"),
        (riff((b"fmt ", struct.pack("<HHIIHH", 1, 0, 32000, 0, 0, 16)), (b"data", b"")),
         "invalid fmt fields (channels=0, rate=32000)"),
        (riff((b"fmt ", struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)), (b"data", b"\x00\x00")),
         "invalid fmt fields (channels=1, rate=0)"),
        (riff((b"fmt ", struct.pack("<HHIIHH", 1, 2, 32000, 128000, 4, 16)), (b"data", b"\x00" * 6)),
         "data size 6 not a multiple of frame size 4"),
        (riff((b"fmt ", PCM_FMT), (b"data", b"\x00" * 8))[:-1], "truncated b'data' chunk"),
        (riff((b"LIST", b"\x00" * 10), (b"fmt ", PCM_FMT), (b"data", b"\x00\x00"))[:25], "truncated b'LIST' chunk"),
        (riff((b"fmt ", PCM_FMT), (b"data", b"\x00\x00"), (b"LIST", b"\x00" * 4))[:-1], "truncated b'LIST' chunk"),
        (b"RIFX" + bytes(40), "not a RIFF/WAVE file"),
        (b"RIFF\x04\x00\x00\x00WAV", "not a RIFF/WAVE file"),
    ],
    ids=["no-fmt", "no-data", "small-fmt", "small-extensible-fmt", "zero-channels", "zero-rate", "partial-frame",
         "truncated-data", "truncated-list-before-fmt", "truncated-chunk-after-data", "not-riff", "short-riff"],
)
def test_read_wav_rejects_malformed_chunks(tmp_path, raw, message):
    p = tmp_path / "x.wav"
    p.write_bytes(raw)
    with pytest.raises(ingest.CorruptHeader) as excinfo:
        ingest.read_wav(p)
    assert str(excinfo.value) == f"{p}: {message}"


PCM_FRAMES = np.arange(-2000, 2000, dtype="<i2") * 16
PCM_DATA = (b"data", PCM_FRAMES.tobytes())


@pytest.mark.parametrize(
    "raw",
    [
        riff((b"LIST", b"\x04\x00\x00\x00INFO"), (b"fmt ", PCM_FMT), PCM_DATA),
        riff((b"fmt ", PCM_FMT), (b"junk", b"odd"), PCM_DATA),
        riff(PCM_DATA, (b"fmt ", PCM_FMT)),
        riff((b"fmt ", PCM_FMT), PCM_DATA, tail=b"\x00" * 7),
        riff((b"fmt ", struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)), (b"fmt ", PCM_FMT), PCM_DATA),
    ],
    ids=["list-before-fmt", "odd-chunk-and-pad-before-data", "fmt-after-data", "7-trailing-bytes", "last-fmt-counts"],
)
def test_read_wav_finds_its_chunks_wherever_they_are(tmp_path, raw):
    p = tmp_path / "x.wav"
    p.write_bytes(raw)
    w = ingest.read_wav(p)
    assert w.sample_rate == 32000
    assert w.samples.tobytes() == (PCM_FRAMES / 32768.0).tobytes()
    window = ingest.read_wav(p, 0.05, FixedStart(1234))  # 1600 frames, reached by seeking
    assert window.samples.tobytes() == w.samples[1234 : 1234 + 1600].tobytes()


def test_dump_round_trip(tmp_path):
    p = tmp_path / "d.embd"
    rng = np.random.default_rng(1)
    entries = [(f"id{i:03d}", rng.normal(size=1024).astype(np.float32)) for i in range(10)]
    ingest.write_embedding_dump(entries, p)
    dump = ingest.read_embedding_dump(p)
    assert dump.dim == 1024
    assert len(dump.entries) == 10
    for (wid, wvec), (rid, rvec) in zip(entries, dump.entries):
        assert wid == rid
        assert wvec.tobytes() == rvec.tobytes()  # bit-exact


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=20), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[0],
    ),
    st.integers(1, 6),
)
def test_dump_round_trip_property(tmp_path_factory, items, dim):
    p = tmp_path_factory.mktemp("dump") / "d.embd"
    rng = np.random.default_rng(items[0][1])
    entries = [(name, rng.normal(size=dim).astype(np.float32)) for name, _ in items]
    ingest.write_embedding_dump(entries, p)
    dump = ingest.read_embedding_dump(p)
    assert [e[0] for e in dump.entries] == [e[0] for e in entries]
    assert all(a[1].tobytes() == b[1].tobytes() for a, b in zip(entries, dump.entries))


def test_dump_bad_magic(tmp_path):
    p = tmp_path / "d.embd"
    ingest.write_embedding_dump([("a", np.ones(3, dtype=np.float32))], p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(ingest.BadMagic):
        ingest.read_embedding_dump(p)


def test_dump_truncated(tmp_path):
    p = tmp_path / "d.embd"
    ingest.write_embedding_dump([("a", np.ones(3, dtype=np.float32))], p)
    p.write_bytes(p.read_bytes()[:-2])
    with pytest.raises(ingest.TruncatedFile):
        ingest.read_embedding_dump(p)


def test_dump_rejects_nan(tmp_path):
    p = tmp_path / "d.embd"
    with pytest.raises(ingest.NonFiniteValue, match="non-finite"):
        ingest.write_embedding_dump([("a", np.array([1.0, np.nan]))], p)
    ingest.write_embedding_dump([("a", np.array([1.0, 2.0]))], p)
    raw = bytearray(p.read_bytes())
    raw[24:28] = np.array([np.inf], dtype="<f4").tobytes()  # the second value of the block at byte 20
    p.write_bytes(bytes(raw))
    with pytest.raises(ingest.NonFiniteValue, match="'a' contains non-finite"):
        ingest.read_embedding_dump(p)


def test_dump_rejects_dim_mismatch(tmp_path):
    entries = [("a", np.ones(3)), ("b", np.ones(4))]
    with pytest.raises(ingest.DimMismatch, match="'b'"):
        ingest.write_embedding_dump(entries, tmp_path / "d.embd")


@pytest.mark.parametrize(
    "entries, message",
    [
        ([("a", np.ones((2, 3))), ("b", np.ones((3, 2)))], "entry 'a': expected a 1-d vector, got shape (2, 3)"),
        ([("a", np.ones(1)), ("b", np.float32(2.0))], "entry 'b': expected a 1-d vector, got shape ()"),
    ],
    ids=["matrices", "scalar"],
)
def test_dump_refuses_vectors_that_are_not_1d(tmp_path, entries, message):
    with pytest.raises(ingest.DimMismatch) as excinfo:
        ingest.write_embedding_dump(entries, tmp_path / "d.embd")
    assert str(excinfo.value) == message
    assert list(tmp_path.iterdir()) == []


def test_dump_rejects_zero_length_vectors(tmp_path):
    p = tmp_path / "d.embd"
    with pytest.raises(ingest.IngestError, match="^entry 'a': cannot write a zero-length vector$"):
        ingest.write_embedding_dump([("a", np.array([], np.float32))], p)
    assert not p.exists() and list(tmp_path.iterdir()) == []


def test_dump_rejects_empty_and_duplicates(tmp_path):
    with pytest.raises(ingest.IngestError):
        ingest.write_embedding_dump([], tmp_path / "d.embd")
    entries = [("a", np.ones(3)), ("a", np.ones(3))]
    with pytest.raises(ingest.IngestError, match="duplicate"):
        ingest.write_embedding_dump(entries, tmp_path / "d.embd")


def hand_dump(entries, dim=2, count=None, version=2):
    """Dump bytes built by hand, for files the writer refuses to produce: the
    header, the vectors from byte 20, then each id with its u16 length. Version
    1 interleaves each id with its vector."""
    raw = struct.pack("<4sIIQ", b"ACRE", version, dim, len(entries) if count is None else count)
    ids = [struct.pack("<H", len(id_bytes)) + id_bytes for id_bytes, _ in entries]
    vecs = [np.asarray(vec, dtype="<f4").tobytes() for _, vec in entries]
    if version == 1:
        return raw + b"".join(i + v for i, v in zip(ids, vecs))
    return raw + b"".join(vecs) + b"".join(ids)


def test_dump_rejects_other_version(tmp_path):
    p = tmp_path / "d.embd"
    p.write_bytes(hand_dump([(b"a", [1.0, 2.0])], version=1))
    message = f"{p}: dump version 1, expected 2; re-export it with acre embed"
    with pytest.raises(ingest.CorruptHeader) as excinfo:
        ingest.read_embedding_dump(p)
    assert str(excinfo.value) == message


def test_dump_golden_bytes(tmp_path):
    p = tmp_path / "d.embd"
    ingest.write_embedding_dump([("a", np.array([1.0, -2.0])), ("bé", np.array([0.5, 3.0]))], p)
    header = b"ACRE" + (2).to_bytes(4, "little") + (2).to_bytes(4, "little") + (2).to_bytes(8, "little")
    block = bytes.fromhex("0000803f" "000000c0" "0000003f" "00004040")  # 1.0, -2.0, 0.5, 3.0
    table = b"\x01\x00a" + b"\x03\x00b\xc3\xa9"
    assert p.read_bytes() == header + block + table
    dump = ingest.read_embedding_dump(p)
    ingest.write_embedding_dump(dump.entries, tmp_path / "again.embd")
    assert (tmp_path / "again.embd").read_bytes() == p.read_bytes()


THREE = [(b"a", [1.0, 2.0]), (b"b", [3.0, 4.0]), (b"c", [5.0, 6.0])]  # 53 bytes: 20 header, 24 vectors, 9 ids


MALFORMED_DUMPS = [
    (hand_dump([(b"a", [1.0, 2.0]), (b"a", [3.0, 4.0])]), ingest.IngestError, "duplicate entry id 'a'"),
    (hand_dump([(b"\xff\xfe", [1.0, 2.0])]), ingest.CorruptHeader, "entry id is not valid UTF-8"),
    (hand_dump(THREE) + b"\x00", ingest.CorruptHeader, "1 trailing bytes"),
    # the fourth row takes the first 8 bytes of the id table, which then lacks a length
    (hand_dump(THREE, count=4), ingest.TruncatedFile, "id table cut short at entry 0$"),
    (hand_dump(THREE, count=2**62), ingest.TruncatedFile, f"{2**62} x 2 vectors end at byte {20 + 2**65}, past the end at 53$"),
    (hand_dump(THREE)[:40], ingest.TruncatedFile, "3 x 2 vectors end at byte 44, past the end at 40$"),
    (hand_dump(THREE)[:-1], ingest.TruncatedFile, "id table cut short at entry 2$"),
    (hand_dump([THREE[0], (b"b", [3.0, np.nan]), THREE[2]]), ingest.NonFiniteValue, "entry 'b' contains non-finite"),
    (hand_dump(THREE)[:19], ingest.TruncatedFile, "19 bytes, shorter than the 20-byte header$"),
    (hand_dump([(b"a", [])], dim=0), ingest.CorruptHeader, "zero dimension$"),
    # the writer refuses an empty dump; a 20-byte one must not size anything from its dim
    (hand_dump([], dim=2**32 - 1), ingest.CorruptHeader, "zero entries$"),
]
MALFORMED_IDS = [
    "duplicate-id", "bad-utf8-id", "trailing-bytes", "count-plus-one", "count-2-pow-62", "cut-vector",
    "cut-id", "nan-middle", "short-header", "zero-dim", "zero-entries",
]


@pytest.mark.parametrize("raw, error, message", MALFORMED_DUMPS, ids=MALFORMED_IDS)
def test_dump_read_rejects_malformed_bytes(tmp_path, raw, error, message):
    p = tmp_path / "d.embd"
    p.write_bytes(raw)
    t0 = time.perf_counter()
    with pytest.raises(error, match=message) as caught:
        ingest.read_embedding_dump(p)
    assert caught.type is error
    # a count the bytes cannot hold fails the size check, never by sizing from it
    assert time.perf_counter() - t0 < 5.0


def test_dump_read_refuses_rows_cut_short_after_the_checks(tmp_path, monkeypatch):
    p = tmp_path / "d.embd"
    p.write_bytes(hand_dump(THREE))
    read_index = ingest._read_dump_index

    def read_index_then_cut(fh, path):
        index = read_index(fh, path)
        with open(path, "r+b") as out:  # in place, as a writer that does not rename would
            out.truncate(20 + 8 + 4)
        return index

    monkeypatch.setattr(ingest, "_read_dump_index", read_index_then_cut)
    with pytest.raises(ingest.TruncatedFile) as short:
        ingest.read_embedding_dump(p)
    assert str(short.value) == f"{p}: entry 'b' reads 4 of 8 bytes; the file changed after it was checked"


def test_dump_read_holds_the_matrix_not_the_file(tmp_path):
    n, dim = 2731, 768  # 8.4 MB of float32 vectors
    p = tmp_path / "big.embd"
    vectors = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
    ingest.write_embedding_dump(((f"clip{i:05d}", v) for i, v in enumerate(vectors)), p)
    dump, peak = traced_peak(lambda: ingest.read_embedding_dump(p))
    assert np.array_equal(np.stack([v for _, v in dump.entries]), vectors)
    # the matrix plus one view, id and tuple per entry; the file's bytes on top of it would be 2x
    assert peak < 1.5 * vectors.nbytes


def refusal(read, path):
    """The (kind, message) that read raises on path, checking that no file
    handle is left to the garbage collector."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            read(path)
        except ingest.IngestError as exc:
            kind, message = type(exc), str(exc)
        else:
            kind = message = None
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    return kind, message


def open_only(path):
    ingest.DumpReader(path).close()


def read_in_spans(span):
    """A read of a dump's every row, span rows at a time (all at once for None)."""

    def read(path):
        with ingest.DumpReader(path) as reader:
            n = len(reader.ids)
            for start in range(0, n, span or n):
                reader.rows(start, min(start + (span or n), n))

    return read


@pytest.mark.parametrize("span", [1, 2, None], ids=["1-row", "2-row", "all-rows"])
@pytest.mark.parametrize(
    "raw",
    [raw for raw, _, _ in MALFORMED_DUMPS]
    + [
        hand_dump([*THREE[:2], (b"c", [np.inf, 1.0])]),
        # a non-finite first row does not hide a bad id table
        hand_dump([(b"a", [np.nan, 1.0]), *THREE[1:]])[:-1],
    ],
    ids=[*MALFORMED_IDS, "inf-last-row", "nan-and-cut-id"],
)
def test_dump_reader_refuses_what_read_embedding_dump_refuses(tmp_path, raw, span):
    # a fault of the header or the id table fails the open; a non-finite row
    # (nan-middle, inf-last-row) opens, and the read of any span holding it
    # fails naming that row's entry
    p = tmp_path / "d.embd"
    p.write_bytes(raw)
    expected = refusal(ingest.read_embedding_dump, p)
    assert expected[0] is not None
    row_fault = expected[0] is ingest.NonFiniteValue
    assert refusal(open_only, p) == ((None, None) if row_fault else expected)
    assert refusal(read_in_spans(span), p) == expected


class CountedFile:
    """A file object that counts the bytes its reads return. readinto returns
    at most `most` bytes a call, as one read of a file past 2 GiB does."""

    def __init__(self, fh, most):
        self._fh, self.most, self.bytes_read = fh, most, 0

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def read(self, *size):
        data = self._fh.read(*size)
        self.bytes_read += len(data)
        return data

    def readinto(self, buf):
        got = self._fh.readinto(memoryview(buf).cast("B")[: self.most])
        self.bytes_read += got
        return got


def counted_opens(monkeypatch, most=1 << 40):
    """The CountedFiles of every file ingest opens from here on."""
    files = []

    def counted(*args, **kwargs):
        files.append(CountedFile(open(*args, **kwargs), most))
        return files[-1]

    monkeypatch.setattr(ingest, "open", counted, raising=False)
    return files


def test_opening_a_dump_reads_no_row(tmp_path, monkeypatch):
    n, dim = 1400, 768  # 4.3 MB of float32 vectors
    p = tmp_path / "big.embd"
    ingest.write_embedding_dump(((f"clip{i:05d}", np.full(dim, i)) for i in range(n)), p)
    files = counted_opens(monkeypatch)
    with ingest.DumpReader(p) as reader:
        opened = files[0].bytes_read
        row = reader[700]
    assert opened == p.stat().st_size - n * dim * 4  # the header and the id table
    assert files[0].bytes_read == opened + dim * 4
    assert row.tobytes() == np.full(dim, 700, "<f4").tobytes()


def test_dump_rows_read_whole_through_short_reads(tmp_path, monkeypatch):
    # a read returns at most about 2 GiB on Linux; here 1000 bytes, not a whole row
    n, dim = 300, 64
    p = tmp_path / "d.embd"
    vectors = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
    ingest.write_embedding_dump(((f"clip{i:03d}", v) for i, v in enumerate(vectors)), p)
    files = counted_opens(monkeypatch, most=1000)
    assert ingest.read_embedding_dump(p).matrix.tobytes() == vectors.tobytes()
    with ingest.DumpReader(p) as reader:
        assert reader.rows(7, 290).tobytes() == vectors[7:290].tobytes()
    assert len(files) == 2


def test_dump_reader_reads_only_the_rows_asked_for(tmp_path):
    n, dim = 2731, 768  # 8.4 MB of float32 vectors
    p = tmp_path / "big.embd"
    vectors = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
    ingest.write_embedding_dump(((f"clip{i:05d}", v) for i, v in enumerate(vectors)), p)
    rows = (2730, 0, 1366)

    def read_rows():
        with ingest.DumpReader(p) as reader:
            got = [reader[i] for i in rows]
            for outside in (-1, n):  # a negative row would seek into the header
                with pytest.raises(IndexError, match=rf"row {outside} outside 0\.\.{n - 1}$"):
                    reader[outside]
        return reader, got

    (reader, got), peak = traced_peak(read_rows)
    assert (reader.shape, reader.dim, len(reader.ids)) == ((n, dim), dim, n)
    assert reader.ids[:2] == ["clip00000", "clip00001"]
    assert all(v.tobytes() == vectors[i].tobytes() and not v.flags.writeable for v, i in zip(got, rows))
    # the id table, the ids and the rows read; the matrix would be 8.4 MB
    assert peak < 0.5 * vectors.nbytes


def test_dump_reader_fails_closed_on_a_file_rewritten_after_the_check(tmp_path):
    p = tmp_path / "d.embd"
    p.write_bytes(hand_dump(THREE))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with ingest.DumpReader(p) as reader:
            with open(p, "r+b") as fh:  # in place, as a writer that does not rename would
                fh.seek(20 + 8)
                fh.write(np.array([np.nan, 1.0], dtype="<f4").tobytes())
            with pytest.raises(ingest.NonFiniteValue) as nan:
                reader[1]
            with open(p, "r+b") as fh:
                fh.truncate(20 + 8 + 4)
            with pytest.raises(ingest.TruncatedFile) as short:
                reader[1]
            assert reader[0].tobytes() == np.array([1.0, 2.0], dtype="<f4").tobytes()
        del reader
        gc.collect()
    assert str(nan.value) == f"{p}: entry 'b' contains non-finite values"
    assert str(short.value) == f"{p}: entry 'b' reads 4 of 8 bytes; the file changed after it was checked"
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_dump_write_holds_the_file_once(tmp_path):
    n, dim = 2731, 768
    p = tmp_path / "big.embd"
    vectors = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
    entries = [(f"clip{i:05d}", v) for i, v in enumerate(vectors)]
    _, peak = traced_peak(lambda: ingest.write_embedding_dump(entries, p))
    # the buffer being built, plus a small per-entry list; a copy of it on write would be 2x
    assert peak < 1.5 * p.stat().st_size


def test_atomic_write_replaces_target_without_leftovers(tmp_path):
    p = tmp_path / "out.txt"
    p.write_bytes(b"old contents")
    ingest.atomic_write(p, b"new")
    assert p.read_bytes() == b"new"
    assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path):
    p = tmp_path / "out" / "metrics.csv"
    p.mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        ingest.atomic_write(p, b"x")
    assert [f.name for f in p.parent.iterdir()] == ["metrics.csv"]
