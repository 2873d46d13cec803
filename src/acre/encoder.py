"""Frozen toy encoders for both modalities, plus the patch and token front ends.

The audio side turns a spectrogram into a grid of patches (optionally thinned
by structured patchout) and runs a small frozen self-attention stack over the
patch tokens; the text side runs the same stack over WordPiece tokens and
returns the class-token output. Both stacks have a fixed shape, DEPTH = 2
blocks of WIDTH = 64 with HEADS = 4 attention heads, as a pre-trained encoder's
shape is fixed by its weights. All weights are drawn once, from the seed that
each call takes from its caller (with the vocabulary size, on the text side),
and never trained: learning happens entirely in the projection heads, and
real pre-trained encoders can be swapped in through embedding dumps. Both
stacks run in float32. embed_long_audio, the one long-audio path from a
whitened spectrogram to a clip vector, is what acre embed and the sweep run.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, fields
from functools import lru_cache
from importlib import resources

import numpy as np

from .dsp import N_MELS, Spectrogram, segment
from .seeding import derive_seed

MAX_CONTENT_TOKENS = 32
DEPTH = 2
WIDTH = 64
HEADS = 4
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"


class EncoderError(Exception):
    pass


class InputTooShort(EncoderError):
    pass


class DropExceedsGrid(EncoderError):
    pass


class EmptyGrid(EncoderError):
    pass


@dataclass(frozen=True)
class PatchGeometry:
    """Patch extraction and patchout settings for one audio front end."""

    patch_f: int = 16
    patch_t: int = 16
    stride_f: int = 16
    stride_t: int = 16
    drop_f: int = 0
    drop_t: int = 0
    max_input_seconds: float = 10.0

    def __post_init__(self):
        if self.patch_f < 1 or self.patch_t < 1:
            raise ValueError("patch sides must be >= 1")
        if self.stride_f < 1 or self.stride_t < 1:
            raise ValueError("strides must be >= 1")
        if self.drop_f < 0 or self.drop_t < 0:
            raise ValueError("patchout counts must be >= 0")
        if self.patch_f > N_MELS:
            raise ValueError(f"patch_f {self.patch_f} exceeds {N_MELS} mel bins")


# Named presets: 16x16 patches with either non-overlapping or overlapping
# strides, patchout tuned per stride, and the positional-encoding span that
# bounds how much audio one encoder pass may see.
PRESETS: dict[str, PatchGeometry] = {
    "passt-n": PatchGeometry(stride_f=16, stride_t=16, drop_f=2, drop_t=15, max_input_seconds=10.0),
    "passt-s": PatchGeometry(stride_f=10, stride_t=10, drop_f=4, drop_t=50, max_input_seconds=10.0),
    "passt-s20": PatchGeometry(stride_f=10, stride_t=10, drop_f=4, drop_t=80, max_input_seconds=20.0),
}


@dataclass(frozen=True)
class PatchGrid:
    """Patch vectors with their (frequency-row, time-column) position tags.

    rows/cols describe the full extraction grid; after patchout the patch list
    shrinks but tags keep referring to the original grid positions.
    """

    rows: int
    cols: int
    patches: np.ndarray  # (n, patch_f * patch_t)
    tags: np.ndarray  # (n, 2) int, row-major (row, col)

    def __post_init__(self):
        patches = np.asarray(self.patches, dtype=np.float64)
        tags = np.asarray(self.tags, dtype=np.int64)
        object.__setattr__(self, "patches", patches)
        object.__setattr__(self, "tags", tags)
        if patches.ndim != 2 or tags.ndim != 2 or tags.shape[1] != 2:
            raise ValueError("patches must be (n, d), tags must be (n, 2)")
        if patches.shape[0] != tags.shape[0]:
            raise ValueError("patches and tags disagree on patch count")
        if len(np.unique(tags, axis=0)) != tags.shape[0]:
            raise ValueError("position tags must be unique")

    def __len__(self) -> int:
        return self.patches.shape[0]


def patch_grid_shape(frames: int, g: PatchGeometry) -> tuple[int, int]:
    """Closed-form grid shape: rows x cols before any patchout."""
    if frames < g.patch_t:
        raise InputTooShort(f"{frames} frames < patch_t {g.patch_t}")
    rows = 1 + (N_MELS - g.patch_f) // g.stride_f
    cols = 1 + (frames - g.patch_t) // g.stride_t
    return rows, cols


def extract_patches(s: Spectrogram, g: PatchGeometry) -> PatchGrid:
    """Slice a spectrogram into a row-major grid of flattened patches."""
    rows, cols = patch_grid_shape(s.frames, g)
    # windows: (time positions, freq positions, patch_t, patch_f)
    windows = np.lib.stride_tricks.sliding_window_view(s.values, (g.patch_t, g.patch_f))
    windows = windows[:: g.stride_t, :: g.stride_f]
    patches = windows.transpose(1, 0, 2, 3).reshape(rows * cols, g.patch_t * g.patch_f)
    grid_r, grid_c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    tags = np.stack([grid_r.reshape(-1), grid_c.reshape(-1)], axis=1)
    return PatchGrid(rows=rows, cols=cols, patches=patches, tags=tags)


def structured_patchout(grid: PatchGrid, drop_f: int, drop_t: int, rng: np.random.Generator) -> PatchGrid:
    """Drop whole frequency rows and time columns, chosen uniformly without replacement.

    Surviving patches keep their original position tags, so the encoder still
    sees where each patch came from.
    """
    if drop_f >= grid.rows:
        raise DropExceedsGrid(f"drop_f {drop_f} >= rows {grid.rows}")
    if drop_t >= grid.cols:
        raise DropExceedsGrid(f"drop_t {drop_t} >= cols {grid.cols}")
    if drop_f == 0 and drop_t == 0:
        return grid
    dropped_rows = rng.choice(grid.rows, size=drop_f, replace=False)
    dropped_cols = rng.choice(grid.cols, size=drop_t, replace=False)
    keep = ~(np.isin(grid.tags[:, 0], dropped_rows) | np.isin(grid.tags[:, 1], dropped_cols))
    return PatchGrid(rows=grid.rows, cols=grid.cols, patches=grid.patches[keep], tags=grid.tags[keep])


@dataclass(frozen=True)
class EncoderParams:
    """Seed of a frozen toy encoder."""

    seed: int


@dataclass(frozen=True)
class _Block:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def astype(self, dtype) -> "_Block":
        return _Block(*(getattr(self, f.name).astype(dtype) for f in fields(self)))


def _draw_blocks(rng: np.random.Generator) -> tuple[_Block, ...]:
    w, hidden = WIDTH, 4 * WIDTH
    blocks = []
    for _ in range(DEPTH):
        blocks.append(
            _Block(
                wq=rng.normal(0.0, w**-0.5, (w, w)),
                wk=rng.normal(0.0, w**-0.5, (w, w)),
                wv=rng.normal(0.0, w**-0.5, (w, w)),
                wo=rng.normal(0.0, w**-0.5, (w, w)),
                w1=rng.normal(0.0, w**-0.5, (hidden, w)),
                b1=rng.normal(0.0, 0.02, hidden),
                w2=rng.normal(0.0, hidden**-0.5, (w, hidden)),
                b2=rng.normal(0.0, 0.02, w),
            )
        )
    return tuple(blocks)


# Both stacks run in float32. Their weights are drawn in float64 and cast once
# here, so the cached copies are float32.


@lru_cache(maxsize=32)
def _audio_weights(p: EncoderParams, patch_dim: int):
    rng = np.random.default_rng(derive_seed(p.seed, "toy-audio-encoder"))
    w_in = rng.normal(0.0, patch_dim**-0.5, (WIDTH, patch_dim))
    b_in = rng.normal(0.0, 0.02, WIDTH)
    blocks = tuple(blk.astype(np.float32) for blk in _draw_blocks(rng))
    return w_in.astype(np.float32), b_in.astype(np.float32), blocks


@lru_cache(maxsize=32)
def _text_weights(p: EncoderParams, vocab_size: int):
    rng = np.random.default_rng(derive_seed(p.seed, "toy-text-encoder"))
    table = rng.normal(0.0, 1.0, (vocab_size, WIDTH))
    return table.astype(np.float32), tuple(blk.astype(np.float32) for blk in _draw_blocks(rng))


# These elementwise helpers dominate the encoder's cost, so each works in place
# in one buffer, in its input's dtype. _layer_norm and _gelu never write to
# their input. All three keep the textbook formulas' order of operations, so
# they agree with them bitwise, except that _gelu cubes by multiplication.


def _layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    d = x - x.mean(axis=-1, keepdims=True)
    var = (d * d).mean(axis=-1, keepdims=True)  # what x.var computes, without a second centring
    d /= np.sqrt(var + eps)
    return d


def _gelu(x: np.ndarray) -> np.ndarray:
    """tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    t = x * x
    t *= x  # the cube by multiplication; x**3 goes through pow, several times slower
    t *= 0.044715
    t += x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: x is overwritten and returned."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


# OpenBLAS splits a long inner dimension of a product at a point that depends
# on its thread count (in sgemm on an AVX-512 Xeon, for most lengths from 452),
# and float32 rounds differently on each side of the split. So attention
# contracts over at most KEY_BLOCK keys per product and adds the blocks in
# order, which keeps every output the same at any thread count.
KEY_BLOCK = 256


def _attention(x: np.ndarray, blk: _Block) -> np.ndarray:
    """Self-attention over the token axis of x, shaped (..., n, WIDTH)."""
    *lead, n, w = x.shape
    hd = w // HEADS
    q = (x @ blk.wq.T).reshape(*lead, n, HEADS, hd).swapaxes(-3, -2)
    k = (x @ blk.wk.T).reshape(*lead, n, HEADS, hd).swapaxes(-3, -2)
    v = (x @ blk.wv.T).reshape(*lead, n, HEADS, hd).swapaxes(-3, -2)
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(hd)
    weights = _softmax(scores)
    out = weights[..., :KEY_BLOCK] @ v[..., :KEY_BLOCK, :]
    for start in range(KEY_BLOCK, n, KEY_BLOCK):
        out += weights[..., start : start + KEY_BLOCK] @ v[..., start : start + KEY_BLOCK, :]
    return out.swapaxes(-3, -2).reshape(*lead, n, w) @ blk.wo.T


def _encode_tokens(tokens: np.ndarray, blocks: tuple[_Block, ...]) -> np.ndarray:
    """Run the stack over tokens shaped (..., n, WIDTH); leading axes are
    independent sequences of one length."""
    x = tokens
    for blk in blocks:
        x = x + _attention(_layer_norm(x), blk)
        y = _layer_norm(x)
        x = x + _gelu(y @ blk.w1.T + blk.b1) @ blk.w2.T + blk.b2
    return _layer_norm(x)


def _sinusoid(positions: np.ndarray, dim: int) -> np.ndarray:
    pos = positions.astype(np.float64)[:, None]
    idx = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (idx // 2)) / dim)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


def audio_encode(grid: PatchGrid, p: EncoderParams) -> np.ndarray:
    """Encode a patch grid to a WIDTH-dim vector with the frozen audio stack.

    Patches are linearly projected, given a sinusoidal 2-D positional code
    built from their (row, col) tags, run through the attention blocks, and
    mean-pooled. Position comes only from the tags, so reordering the patch
    list does not change the result.
    """
    if len(grid) == 0:
        raise EmptyGrid("cannot encode an empty patch grid")
    w_in, b_in, blocks = _audio_weights(p, grid.patches.shape[1])
    half = WIDTH // 2
    pos = np.concatenate(
        [_sinusoid(grid.tags[:, 0], half), _sinusoid(grid.tags[:, 1], WIDTH - half)], axis=1
    )
    tokens = grid.patches.astype(np.float32) @ w_in.T + b_in + pos.astype(np.float32)
    return _encode_tokens(tokens, blocks).mean(axis=0)


def embed_long_audio(s: Spectrogram, seg_frames: int, g: PatchGeometry, p: EncoderParams) -> np.ndarray:
    """The one long-audio path: encode each seg_frames-frame segment of a
    whitened spectrogram (dsp.segment) and average the encodings."""
    return np.mean([audio_encode(extract_patches(chunk, g), p) for chunk in segment(s, seg_frames)], axis=0)


def normalize_text(c: str) -> str:
    """Lowercase, strip Unicode punctuation, collapse whitespace."""
    kept = [ch for ch in c.lower() if not unicodedata.category(ch).startswith("P")]
    return " ".join("".join(kept).split())


class Vocabulary:
    """WordPiece vocabulary: one piece per line, '##' marks continuations."""

    def __init__(self, pieces: list[str]):
        if len(set(pieces)) != len(pieces):
            raise ValueError("vocabulary contains duplicate pieces")
        for required in (UNK_TOKEN, CLS_TOKEN):
            if required not in pieces:
                raise ValueError(f"vocabulary must contain {required}")
        self.pieces = list(pieces)
        self.index = {piece: i for i, piece in enumerate(pieces)}
        self.unk_id = self.index[UNK_TOKEN]
        self.cls_id = self.index[CLS_TOKEN]
        # the most characters of a word one piece can cover, '##' not counted
        self.longest = max(len(piece.removeprefix("##")) for piece in pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    @classmethod
    def default(cls) -> "Vocabulary":
        ref = resources.files("acre").joinpath("data/wordpiece_vocab.txt")
        return cls([line.strip() for line in ref.read_text(encoding="utf-8").splitlines() if line.strip()])


@dataclass(frozen=True)
class TokenSeq:
    """Class token followed by at most MAX_CONTENT_TOKENS content ids."""

    ids: tuple[int, ...]
    pieces: tuple[str, ...]  # content pieces only, aligned with ids[1:]

    def __post_init__(self):
        if not self.ids:
            raise ValueError("token sequence must contain the class token")
        if len(self.ids) - 1 != len(self.pieces):
            raise ValueError("ids and pieces disagree")
        if len(self.pieces) > MAX_CONTENT_TOKENS:
            raise ValueError(f"more than {MAX_CONTENT_TOKENS} content tokens")

    @property
    def content_length(self) -> int:
        return len(self.pieces)


def _wordpiece(word: str, vocab: Vocabulary) -> list[str] | None:
    pieces = []
    start = 0
    while start < len(word):
        end = min(len(word), start + vocab.longest)  # no longer candidate is in the vocabulary
        match = None
        while start < end:
            candidate = word[start:end]
            if start > 0:
                candidate = "##" + candidate
            if candidate in vocab.index:
                match = candidate
                break
            end -= 1
        if match is None:
            return None
        pieces.append(match)
        start = end
    return pieces


def tokenize(c: str, vocab: Vocabulary) -> TokenSeq:
    """Greedy longest-match-first WordPiece over a normalized string.

    Words with no subword cover collapse to a single UNK; output is truncated
    to 32 content tokens and prefixed with the class token.
    """
    ids = [vocab.cls_id]
    pieces: list[str] = []
    for word in c.split():
        word_pieces = _wordpiece(word, vocab)
        if word_pieces is None:
            word_pieces = [UNK_TOKEN]
        for piece in word_pieces:
            if len(pieces) == MAX_CONTENT_TOKENS:
                return TokenSeq(tuple(ids), tuple(pieces))
            pieces.append(piece)
            ids.append(vocab.index[piece])
    return TokenSeq(tuple(ids), tuple(pieces))


def text_encode_batch(seqs: list[TokenSeq], p: EncoderParams, vocab_size: int) -> np.ndarray:
    """Encode token sequences with the frozen bidirectional stack; return the
    class-token outputs as an (N, WIDTH) float32 array, rows in input order.

    Sequences of one length run as one stacked batch, with no padding, so a
    row does not depend on what else is in the batch. vocab_size fixes the
    embedding table, and must match the vocabulary the ids came from.
    """
    table, blocks = _text_weights(p, vocab_size)
    by_length: dict[int, list[int]] = {}
    for i, t in enumerate(seqs):
        by_length.setdefault(len(t.ids), []).append(i)
    out = np.empty((len(seqs), WIDTH), dtype=np.float32)
    for length, rows in by_length.items():
        idx = np.array([seqs[i].ids for i in rows], dtype=np.int64)
        if idx.min() < 0 or idx.max() >= vocab_size:
            raise EncoderError(f"token id outside vocabulary of size {vocab_size}")
        tokens = table[idx] + _sinusoid(np.arange(length), WIDTH).astype(np.float32)
        out[rows] = _encode_tokens(tokens, blocks)[:, 0]
    return out


def text_vectors(texts: list[str], seed: int) -> np.ndarray:
    """The text encoder of global seed ``seed`` on raw texts: normalized,
    tokenized with the shipped vocabulary and encoded in one batch, a row per
    text. embed's captions and variants and rank's query all come this way."""
    vocab = Vocabulary.default()
    params = EncoderParams(seed=derive_seed(seed, "text-encoder"))
    return text_encode_batch([tokenize(normalize_text(text), vocab) for text in texts], params, len(vocab))


def text_encode(t: TokenSeq, p: EncoderParams, vocab_size: int) -> np.ndarray:
    """The class-token output of one sequence: text_encode_batch's row for it."""
    return text_encode_batch([t], p, vocab_size)[0]
