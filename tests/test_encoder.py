import hashlib
import math
import time

import numpy as np
import pytest

from acre import dsp, encoder


def spec_of_frames(frames, seed=0):
    return dsp.Spectrogram(np.random.default_rng(seed).normal(size=(frames, 128)))


def count_patches_oracle(frames, g):
    rows = 0
    f = 0
    while f + g.patch_f <= 128:
        rows += 1
        f += g.stride_f
    cols = 0
    t = 0
    while t + g.patch_t <= frames:
        cols += 1
        t += g.stride_t
    return rows, cols


def test_patch_grid_shapes_for_presets():
    s = spec_of_frames(997)
    grid = encoder.extract_patches(s, encoder.PRESETS["passt-n"])
    assert (grid.rows, grid.cols, len(grid)) == (8, 62, 496)
    grid = encoder.extract_patches(s, encoder.PRESETS["passt-s"])
    assert (grid.rows, grid.cols) == (12, 99)


def test_patch_values_match_direct_slicing():
    s = spec_of_frames(100, seed=3)
    g = encoder.PatchGeometry(patch_f=16, patch_t=16, stride_f=16, stride_t=16)
    grid = encoder.extract_patches(s, g)
    for i in (0, 5, len(grid) - 1):
        r, c = grid.tags[i]
        block = s.values[c * 16 : c * 16 + 16, r * 16 : r * 16 + 16]
        assert np.array_equal(grid.patches[i], block.reshape(-1))


def test_patch_count_random_configs_vs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = encoder.PatchGeometry(
            patch_f=int(rng.integers(1, 129)),
            patch_t=int(rng.integers(1, 64)),
            stride_f=int(rng.integers(1, 40)),
            stride_t=int(rng.integers(1, 40)),
        )
        frames = int(rng.integers(g.patch_t, 500))
        rows, cols = encoder.patch_grid_shape(frames, g)
        assert (rows, cols) == count_patches_oracle(frames, g)


def test_single_column_when_frames_equal_patch():
    g = encoder.PatchGeometry(patch_t=37, stride_t=13)
    _, cols = encoder.patch_grid_shape(37, g)
    assert cols == 1


def test_extract_rejects_short_input():
    with pytest.raises(encoder.InputTooShort):
        encoder.extract_patches(spec_of_frames(10), encoder.PRESETS["passt-n"])


@pytest.mark.parametrize(
    "preset,frames,expected", [("passt-n", 997, 282), ("passt-s", 997, 392)]
)
def test_patchout_fixture_counts(preset, frames, expected):
    g = encoder.PRESETS[preset]
    grid = encoder.extract_patches(spec_of_frames(frames), g)
    out = encoder.structured_patchout(grid, g.drop_f, g.drop_t, np.random.default_rng(0))
    assert len(out) == expected


def test_patchout_survivors_form_cartesian_product():
    grid = encoder.extract_patches(spec_of_frames(200), encoder.PRESETS["passt-n"])
    out = encoder.structured_patchout(grid, 3, 4, np.random.default_rng(5))
    kept_rows = sorted({int(r) for r, _ in out.tags})
    kept_cols = sorted({int(c) for _, c in out.tags})
    assert len(kept_rows) == grid.rows - 3
    assert len(kept_cols) == grid.cols - 4
    assert len(out) == len(kept_rows) * len(kept_cols)
    assert {(int(r), int(c)) for r, c in out.tags} == {(r, c) for r in kept_rows for c in kept_cols}


@pytest.mark.parametrize("preset", ["passt-n", "passt-s"])
def test_patchout_matches_per_tag_loop(preset):
    g = encoder.PRESETS[preset]
    grid = encoder.extract_patches(spec_of_frames(997), g)
    out = encoder.structured_patchout(grid, g.drop_f, g.drop_t, np.random.default_rng(7))
    # reference: the same two draws, then a per-tag membership loop
    rng = np.random.default_rng(7)
    rows = set(rng.choice(grid.rows, size=g.drop_f, replace=False).tolist())
    cols = set(rng.choice(grid.cols, size=g.drop_t, replace=False).tolist())
    keep = [r not in rows and c not in cols for r, c in grid.tags.tolist()]
    assert np.array_equal(out.tags, grid.tags[keep])
    assert np.array_equal(out.patches, grid.patches[keep])


def test_patch_grid_rejects_duplicate_tags():
    with pytest.raises(ValueError, match="position tags must be unique"):
        encoder.PatchGrid(1, 3, np.zeros((3, 4)), np.array([[0, 0], [0, 2], [0, 0]]))


def test_patchout_zero_is_identity():
    grid = encoder.extract_patches(spec_of_frames(100), encoder.PRESETS["passt-n"])
    assert encoder.structured_patchout(grid, 0, 0, np.random.default_rng(0)) is grid


def test_patchout_rejects_full_drop():
    grid = encoder.extract_patches(spec_of_frames(100), encoder.PRESETS["passt-n"])
    with pytest.raises(encoder.DropExceedsGrid):
        encoder.structured_patchout(grid, grid.rows, 0, np.random.default_rng(0))


@pytest.fixture(scope="module")
def toy_grid():
    return encoder.extract_patches(spec_of_frames(120, seed=9), encoder.PRESETS["passt-n"])


def test_audio_encode_deterministic(toy_grid):
    p = encoder.EncoderParams(seed=13)
    assert np.array_equal(encoder.audio_encode(toy_grid, p), encoder.audio_encode(toy_grid, p))


def test_audio_encode_permutation_invariant(toy_grid):
    p = encoder.EncoderParams(seed=13)
    base = encoder.audio_encode(toy_grid, p)
    perm = np.random.default_rng(3).permutation(len(toy_grid))
    shuffled = encoder.PatchGrid(toy_grid.rows, toy_grid.cols, toy_grid.patches[perm], toy_grid.tags[perm])
    assert np.abs(encoder.audio_encode(shuffled, p) - base).max() < 1e-5


def test_audio_encode_sensitive_to_patch_change(toy_grid):
    p = encoder.EncoderParams(seed=13)
    patched = toy_grid.patches.copy()
    patched[0] += 1.0
    other = encoder.PatchGrid(toy_grid.rows, toy_grid.cols, patched, toy_grid.tags)
    assert np.abs(encoder.audio_encode(other, p) - encoder.audio_encode(toy_grid, p)).max() > 1e-8


def test_audio_encode_seed_changes_everything(toy_grid):
    a = encoder.audio_encode(toy_grid, encoder.EncoderParams(seed=1))
    b = encoder.audio_encode(toy_grid, encoder.EncoderParams(seed=2))
    assert np.abs(a - b).max() > 1e-6


def test_audio_encode_rejects_empty_grid():
    empty = encoder.PatchGrid(2, 2, np.zeros((0, 256)), np.zeros((0, 2), dtype=int))
    with pytest.raises(encoder.EmptyGrid):
        encoder.audio_encode(empty, encoder.EncoderParams(seed=0))


def test_embed_long_audio_mean(toy_grid):
    p = encoder.EncoderParams(seed=4)
    g = encoder.PRESETS["passt-n"]
    spec = spec_of_frames(120, seed=9)  # toy_grid's spectrogram
    one = encoder.audio_encode(toy_grid, p)
    thrice = dsp.Spectrogram(np.tile(spec.values, (3, 1)))
    assert np.abs(encoder.embed_long_audio(thrice, 120, g, p) - one).max() < 1e-6
    assert np.array_equal(encoder.embed_long_audio(spec, 120, g, p), one)
    other = spec_of_frames(120, seed=10)
    u = encoder.audio_encode(toy_grid, p)
    v = encoder.audio_encode(encoder.extract_patches(other, g), p)
    both = dsp.Spectrogram(np.vstack([spec.values, other.values]))
    assert np.array_equal(encoder.embed_long_audio(both, 120, g, p), (u + v) / 2)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("A Dog Barks, loudly!", "a dog barks loudly"),
        ("", ""),
        ("it's 5 o'clock", "its 5 oclock"),
        ("  spaced\tout\n lines ", "spaced out lines"),
        ("semi;colons--and.dots", "semicolonsanddots"),
    ],
)
def test_normalize_text(raw, expected):
    assert encoder.normalize_text(raw) == expected


@pytest.fixture(scope="module")
def vocab():
    return encoder.Vocabulary.default()


def test_tokenize_simple(vocab):
    ts = encoder.tokenize("a dog in water", vocab)
    assert ts.pieces == ("a", "dog", "in", "water")
    assert ts.ids[0] == vocab.cls_id


def test_tokenize_truncates_at_32(vocab):
    ts = encoder.tokenize(" ".join(["dog"] * 40), vocab)
    assert ts.content_length == 32
    assert len(ts.ids) == 33


def test_tokenize_empty_is_class_token_only(vocab):
    ts = encoder.tokenize("", vocab)
    assert ts.ids == (vocab.cls_id,)
    assert ts.pieces == ()


def test_tokenize_unknown_word_is_single_unk(vocab):
    ts = encoder.tokenize("αβγ", vocab)
    assert ts.pieces == (encoder.UNK_TOKEN,)
    assert ts.ids[1] == vocab.unk_id


def test_tokenize_round_trip_without_unk(vocab):
    text = "a quiet dog barks near running water"
    ts = encoder.tokenize(text, vocab)
    assert encoder.UNK_TOKEN not in ts.pieces
    words, current = [], ""
    for piece in ts.pieces:
        if piece.startswith("##"):
            current += piece[2:]
        else:
            if current:
                words.append(current)
            current = piece
    words.append(current)
    assert " ".join(words) == text


def test_tokenize_greedy_prefers_longest_match():
    v = encoder.Vocabulary(["[UNK]", "[CLS]", "water", "w", "##a", "##t", "##e", "##r", "##fall", "waterfall"])
    assert encoder.tokenize("waterfall", v).pieces == ("waterfall",)
    assert encoder.tokenize("watere", v).pieces == ("water", "##e")


def unbounded_wordpiece(word, vocab):
    """Greedy longest-match-first WordPiece trying every end position of the
    rest of the word: the oracle for the bounded search."""
    pieces, start = [], 0
    while start < len(word):
        for end in range(len(word), start, -1):
            candidate = ("##" if start else "") + word[start:end]
            if candidate in vocab.index:
                pieces.append(candidate)
                start = end
                break
        else:
            return None
    return pieces


def test_wordpiece_gives_the_unbounded_search_pieces(vocab):
    rng = np.random.default_rng(26)
    parts = [piece.removeprefix("##") for piece in vocab.pieces if not piece.startswith("[")]
    alphabet = list("abcdefghijklmnopqrstuvwxyz0123456789#é")
    words = ["".join(rng.choice(parts, size=rng.integers(1, 6))) for _ in range(2000)]
    words += ["".join(rng.choice(alphabet, size=rng.integers(1, 30))) for _ in range(2000)]
    words += ["waterfall" * 3, "9" * 25, "##dog", "a##b"]
    for word in words:
        assert encoder._wordpiece(word, vocab) == unbounded_wordpiece(word, vocab), word


def test_wordpiece_looks_up_each_position_at_most_longest_times(vocab):
    class CountingIndex(dict):
        lookups = 0

        def __contains__(self, key):
            CountingIndex.lookups += 1
            return super().__contains__(key)

    counting = encoder.Vocabulary(vocab.pieces)
    counting.index = CountingIndex(vocab.index)
    word = "9" * 10_000
    assert encoder._wordpiece(word, counting) == ["9"] + ["##9"] * (len(word) - 1)
    assert vocab.longest == 10
    assert CountingIndex.lookups <= vocab.longest * len(word)


def test_tokenize_of_a_100000_character_word_is_quick(vocab):
    t0 = time.perf_counter()
    assert encoder.tokenize("9" * 100_000, vocab).content_length == encoder.MAX_CONTENT_TOKENS
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed  # 0.5 s on a 2-vCPU host; a search over every end position takes hours


def test_text_encode_deterministic_and_shaped(vocab):
    p = encoder.EncoderParams(seed=21)
    ts = encoder.tokenize("rain on a window", vocab)
    a = encoder.text_encode(ts, p, len(vocab))
    assert a.shape == (64,)
    assert np.array_equal(a, encoder.text_encode(ts, p, len(vocab)))


def test_text_encode_class_token_only(vocab):
    p = encoder.EncoderParams(seed=21)
    out = encoder.text_encode(encoder.tokenize("", vocab), p, len(vocab))
    assert out.shape == (64,) and np.all(np.isfinite(out))


def test_text_encode_position_sensitive(vocab):
    p = encoder.EncoderParams(seed=21)
    a = encoder.text_encode(encoder.tokenize("dog water", vocab), p, len(vocab))
    b = encoder.text_encode(encoder.tokenize("water dog", vocab), p, len(vocab))
    assert np.abs(a - b).max() > 1e-6


def test_text_encode_rejects_out_of_vocab_ids(vocab):
    ts = encoder.TokenSeq(ids=(len(vocab) + 5,), pieces=())
    with pytest.raises(encoder.EncoderError):
        encoder.text_encode(ts, encoder.EncoderParams(seed=0), len(vocab))


def random_captions(vocab, count, seed):
    """count captions of 0 to 40 whole-word pieces, so token lengths repeat and
    some captions run past the 32-token cap."""
    words = [w for w in vocab.pieces if not w.startswith(("##", "["))]
    rng = np.random.default_rng(seed)
    return [" ".join(rng.choice(words, size=int(rng.integers(0, 41)))) for _ in range(count)]


def test_text_encode_batch_rows_are_per_caption_text_encode_bitwise(vocab):
    p = encoder.EncoderParams(seed=21)
    seqs = [encoder.tokenize(c, vocab) for c in random_captions(vocab, 120, seed=4)]
    assert len({len(t.ids) for t in seqs}) > 20
    batch = encoder.text_encode_batch(seqs, p, len(vocab))
    assert batch.shape == (120, encoder.WIDTH) and batch.dtype == np.float32
    for row, t in zip(batch, seqs):
        assert np.array_equal(row, encoder.text_encode(t, p, len(vocab)))


def test_text_encode_batch_of_nothing_is_0_by_width(vocab):
    out = encoder.text_encode_batch([], encoder.EncoderParams(seed=0), len(vocab))
    assert out.shape == (0, encoder.WIDTH) and out.dtype == np.float32


@pytest.mark.parametrize("bad_id", [-1, 10**6], ids=["negative", "past-the-end"])
def test_text_encode_batch_rejects_out_of_vocab_ids(vocab, bad_id):
    good = encoder.tokenize("rain on a window", vocab)
    bad = encoder.TokenSeq(ids=(vocab.cls_id, bad_id), pieces=("x",))
    with pytest.raises(encoder.EncoderError, match=f"outside vocabulary of size {len(vocab)}"):
        encoder.text_encode_batch([good, bad], encoder.EncoderParams(seed=0), len(vocab))


def test_geometry_presets_cover_expected_settings():
    assert encoder.PRESETS["passt-n"].drop_t == 15
    assert encoder.PRESETS["passt-s"].drop_t == 50
    assert encoder.PRESETS["passt-s20"].drop_t == 80
    assert encoder.PRESETS["passt-s20"].max_input_seconds == 20.0


# ---------------------------------------------------------------- numerics
# The textbook formulas the encoder's in-place helpers must reproduce.


def reference_layer_norm(x, eps=1e-5):
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + eps)


def reference_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_gelu(x, cube):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * cube(x))))


# a token-major activation and a (heads, n, n) score tensor
NUMERIC_SHAPES = pytest.mark.parametrize("shape", [(37, 64), (4, 61, 61)], ids=["tokens", "scores"])


@NUMERIC_SHAPES
def test_layer_norm_is_bitwise_the_textbook_formula(shape):
    x = np.random.default_rng(1).normal(0.5, 3.0, shape)
    before = x.copy()
    assert np.array_equal(encoder._layer_norm(x), reference_layer_norm(x))
    assert np.array_equal(x, before)


@NUMERIC_SHAPES
def test_softmax_is_bitwise_the_textbook_formula(shape):
    x = np.random.default_rng(2).normal(0.0, 3.0, shape)
    assert np.array_equal(encoder._softmax(x.copy()), reference_softmax(x))


@NUMERIC_SHAPES
def test_gelu_is_the_tanh_formula_with_the_cube_by_multiplication(shape):
    x = np.random.default_rng(3).normal(size=shape)
    before = x.copy()
    out = encoder._gelu(x)
    assert np.array_equal(x, before)
    assert np.array_equal(out, reference_gelu(x, lambda v: v * v * v))
    # x**3 rounds differently from x*x*x in about 0.3% of elements
    assert np.abs(out - reference_gelu(x, lambda v: v**3)).max() <= 4.5e-16


@pytest.mark.parametrize("n", [1188, 33], ids=["passt-s-grid", "capped-caption"])
def test_float32_stack_stays_within_1e5_of_float64(n):
    # the encoders run the stack in float32 on weights drawn in float64 and cast once
    rng = np.random.default_rng(n)
    blocks64 = encoder._draw_blocks(rng)
    blocks32 = tuple(blk.astype(np.float32) for blk in blocks64)
    tokens = rng.normal(size=(n, encoder.WIDTH))
    ref = encoder._encode_tokens(tokens, blocks64)
    out = encoder._encode_tokens(tokens.astype(np.float32), blocks32)
    assert ref.dtype == np.float64 and out.dtype == np.float32
    assert np.linalg.norm(out - ref) <= 1e-5 * np.linalg.norm(ref)


def test_encoder_outputs_are_pinned_to_the_byte(vocab, blas_core):
    # sha256 of the float32 bytes a dump would hold; a change to the encoder's
    # arithmetic that moves any dump by one bit moves these digests
    p = encoder.EncoderParams(seed=3)
    grid = encoder.extract_patches(spec_of_frames(997, seed=5), encoder.PRESETS["passt-n"])
    audio = encoder.audio_encode(grid, p)
    text = encoder.text_encode(encoder.tokenize("a dog barks while rain falls on a tin roof", vocab), p, len(vocab))
    assert [hashlib.sha256(v.astype(np.float32).tobytes()).hexdigest() for v in (audio, text)] == [
        "bb88823fc7b576d507e154a1aef1f8646aa423c5c6f41f0b0973250ee9ba7125",
        "61c80516993dcd26860cf78a9bef2aef1609b0b070c79e607e25bf116f857278",
    ], f"OpenBLAS core {blas_core}"
