"""Seeded input generator for the three benchmark corpora.

Everything here is a function of the workload seed alone. Sizes (clip
durations, caption lengths, corpus sizes) are fixed per slot so that work per
run does not change with the seed; the seed only draws content. The program
receives nothing but the files written here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

RATE = 32000
CAPTIONS = 5
VARIANTS = 5

# embed-wav: 24 clips covering one zero-padded 10 s segment (<= 10 s), two or
# three segments (10-30 s) and the random 30 s snippet (> 30 s).
EMBED_DURATIONS = (
    4.0, 5.0, 6.0, 7.5, 8.0, 9.0, 10.0, 11.0, 12.5, 14.0, 16.0, 18.0,
    20.0, 22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 35.0, 38.0, 42.0, 46.0, 50.0,
)
EMBED_FORMATS = ("pcm16-mono", "pcm16-stereo", "float32-mono")

# train-eval: synthetic 768-d encoder outputs, two noisy linear views of one latent.
DUMP_DIM = 768
LATENT_DIM = 64
TRAIN_CLIPS = 2048
EVAL_CLIPS = 1000
# Chosen so mAP@10 after the benchmark's short training sits mid-range.
LATENT_NOISE = 3.0

# rank-serve: 768-d audio corpus; captions are 64-d because `acre rank` always
# encodes the query with the toy text encoder (width 64).
RANK_CLIPS = 2000
RANK_TEXT_DIM = 64
RANK_QUERIES = 400

_VOCAB = Path(__file__).resolve().parent.parent / "src" / "acre" / "data" / "wordpiece_vocab.txt"
# Words the WordPiece vocabulary cannot cover (every piece is ASCII), so each
# one tokenizes to [UNK].
OOV_WORDS = ("café", "naïve", "façade", "jalapeño", "über", "smörgås", "crème", "añejo")


def rng_for(seed: int, tag: str) -> np.random.Generator:
    digest = hashlib.sha256(f"perfbench:{seed}:{tag}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def vocab_words() -> list[str]:
    """Whole words of the shipped vocabulary (no specials, no continuations)."""
    pieces = [line.strip() for line in _VOCAB.read_text(encoding="utf-8").splitlines()]
    return [p for p in pieces if len(p) > 1 and not p.startswith(("##", "["))]


def captions(rng: np.random.Generator, words: list[str], lengths, oov_prob: float = 0.08) -> list[str]:
    """One caption per entry of lengths; each word is out of vocabulary with oov_prob."""
    total = int(sum(lengths))
    picks = np.asarray(words, dtype=object)[rng.integers(len(words), size=total)]
    oov = rng.random(total) < oov_prob
    picks[oov] = np.asarray(OOV_WORDS, dtype=object)[rng.integers(len(OOV_WORDS), size=int(oov.sum()))]
    ends = np.cumsum(lengths)
    return [" ".join(picks[end - n : end]) for n, end in zip(lengths, ends)]


def caption_length(slot: int) -> int:
    """3..40 words, fixed per slot; lengths past 32 exceed the token cap."""
    return 3 + (slot * 7919) % 38


# ---------------------------------------------------------------- files


def wav_bytes(samples: np.ndarray, fmt: str) -> bytes:
    """RIFF/WAVE bytes for float samples in [-1, 1], shape (n,) or (n, channels)."""
    x = samples if samples.ndim == 2 else samples[:, None]
    channels = x.shape[1]
    if fmt.startswith("pcm16"):
        code, bits = 1, 16
        payload = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2").tobytes()
    else:
        code, bits = 3, 32
        payload = x.astype("<f4").tobytes()
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, code, channels, RATE, RATE * block, block, bits)
    return header + b"data" + struct.pack("<I", len(payload)) + payload


def synth_clip(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Tones and a chirp in a 1 s grain, tiled under a slow envelope, plus noise; peak 0.8.

    Only the grain and the envelope (at 100 Hz) are synthesized; the rest is
    tiling and fresh noise, so generation stays cheap next to what acre does
    with the clip.
    """
    n = int(round(seconds * RATE))
    t = np.arange(RATE, dtype=np.float32) / RATE
    grain = np.zeros(RATE, dtype=np.float32)
    for _ in range(int(rng.integers(2, 5))):
        grain += rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * rng.uniform(80, 6000) * t + rng.uniform(0, 6.3))
    f0, f1 = rng.uniform(200, 4000, 2)
    grain += 0.5 * np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t * t / 2))
    x = np.resize(grain, n)
    x += np.float32(rng.uniform(0.05, 0.5)) * rng.standard_normal(n, dtype=np.float32)
    steps = np.arange(-(-n // 320), dtype=np.float32) / 100
    x *= np.repeat(0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.1, 2.0) * steps), 320)[:n].astype(np.float32)
    return 0.8 * x / np.max(np.abs(x))


def write_manifest(path: Path, rows: list[tuple[str, list[str]]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name"] + [f"caption_{k}" for k in range(1, CAPTIONS + 1)])
        for clip_id, caps in rows:
            writer.writerow([clip_id] + caps)


def write_variants(path: Path, rows: list[tuple[str, int, list[str]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for clip_id, index, variants in rows:
            fh.write(json.dumps({"clip_id": clip_id, "caption_index": index, "variants": variants}) + "\n")


def text_rows(seed: int, tag: str, clip_ids: list[str], lengths=None, with_variants: bool = False):
    """Manifest rows for clip_ids, and augmented-caption rows when asked."""
    rng = rng_for(seed, f"text:{tag}")
    words = vocab_words()
    slots = range(len(clip_ids) * CAPTIONS)
    caps = captions(rng, words, [lengths(s) if lengths else 6 + s % 10 for s in slots])
    manifest = [(cid, caps[i * CAPTIONS : (i + 1) * CAPTIONS]) for i, cid in enumerate(clip_ids)]
    if not with_variants:
        return manifest, []
    # a variant swaps one word of its caption for another vocabulary word
    swaps = rng.integers(len(words), size=(len(caps), VARIANTS))
    variants = []
    for i, cid in enumerate(clip_ids):
        for k in range(CAPTIONS):
            slot = i * CAPTIONS + k
            base = caps[slot].split()
            vs = []
            for j in range(VARIANTS):
                w = list(base)
                w[(j * 3 + k) % len(w)] = words[swaps[slot, j]]
                vs.append(" ".join(w))
            variants.append((cid, k, vs))
    return manifest, variants


# ---------------------------------------------------------------- corpora


def embed_corpus(seed: int, root: Path, slots=range(len(EMBED_DURATIONS))) -> dict:
    """WAVs in mixed formats plus manifest and variants for `acre embed`.

    slots picks which of the EMBED_DURATIONS clips to write; slot i always has
    the same duration and format.
    """
    audio = root / "audio"
    audio.mkdir(parents=True, exist_ok=True)
    ids = [f"clip{i:02d}.wav" for i in slots]
    for i, clip_id in zip(slots, ids):
        rng = rng_for(seed, f"wav:{i}")
        fmt = EMBED_FORMATS[i % len(EMBED_FORMATS)]
        x = synth_clip(rng, EMBED_DURATIONS[i])
        if fmt.endswith("stereo"):
            x = np.stack([x, np.roll(x, 37) * 0.9], axis=1)
        (audio / clip_id).write_bytes(wav_bytes(x, fmt))
    manifest, variants = text_rows(seed, "embed", ids, lengths=caption_length, with_variants=True)
    write_manifest(root / "manifest.csv", manifest)
    write_variants(root / "variants.jsonl", variants)
    return {"manifest": root / "manifest.csv", "audio": audio, "variants": root / "variants.jsonl", "ids": ids}


class LatentViews:
    """Two random linear views (audio, caption) of shared latents, plus noise."""

    def __init__(self, seed: int, tag: str, text_dim: int):
        self.rng = rng_for(seed, f"latent:{tag}")
        self.view_a = self.rng.standard_normal((DUMP_DIM, LATENT_DIM)) / np.sqrt(LATENT_DIM)
        self.view_t = self.rng.standard_normal((text_dim, LATENT_DIM)) / np.sqrt(LATENT_DIM)

    def latents(self, n: int) -> np.ndarray:
        return self.rng.standard_normal((n, LATENT_DIM))

    def _view(self, z: np.ndarray, view: np.ndarray) -> np.ndarray:
        out = self.rng.standard_normal((len(z), view.shape[0]), dtype=np.float32)
        out *= np.float32(LATENT_NOISE)
        out += z.astype(np.float32) @ view.T.astype(np.float32)
        return out

    def audio(self, z: np.ndarray) -> np.ndarray:
        return self._view(z, self.view_a)

    def text(self, z: np.ndarray) -> np.ndarray:
        return self._view(z, self.view_t)


def _caption_entries(views: LatentViews, ids: list[str], z: np.ndarray) -> list:
    caps = views.text(np.repeat(z, CAPTIONS, axis=0))
    return [(f"{cid}#{k}", caps[i * CAPTIONS + k]) for i, cid in enumerate(ids) for k in range(CAPTIONS)]


def train_eval_corpus(seed: int, root: Path, write_dump) -> dict:
    """Dumps, manifests and variants for train -> finetune -> evaluate.

    write_dump is the program's own dump writer, so setup time includes it.
    """
    views = LatentViews(seed, "train-eval", DUMP_DIM)
    out = {}
    for split, n in (("train", TRAIN_CLIPS), ("eval", EVAL_CLIPS)):
        ids = [f"{split}{i:04d}" for i in range(n)]
        z = views.latents(n)
        dumps = root / f"{split}_dumps"
        dumps.mkdir(parents=True, exist_ok=True)
        write_dump(list(zip(ids, views.audio(z))), dumps / "audio.embd")
        write_dump(_caption_entries(views, ids, z), dumps / "captions.embd")
        manifest, variants = text_rows(seed, split, ids, with_variants=split == "train")
        write_manifest(root / f"{split}.csv", manifest)
        if split == "train":
            # each variant is a fresh noisy caption view of the clip's latent
            zv = np.repeat(z, CAPTIONS * VARIANTS, axis=0)
            vecs = views.text(zv)
            keys = [f"{cid}#{k}@{j}" for cid in ids for k in range(CAPTIONS) for j in range(VARIANTS)]
            write_dump(list(zip(keys, vecs)), dumps / "variants.embd")
            write_variants(root / "variants.jsonl", variants)
        out[split] = {"manifest": root / f"{split}.csv", "dumps": dumps}
    out["variants"] = root / "variants.jsonl"
    return out


def rank_corpus(seed: int, root: Path, write_dump) -> dict:
    """A 2000-clip corpus with 64-d caption dumps, plus the query texts."""
    views = LatentViews(seed, "rank", RANK_TEXT_DIM)
    ids = [f"r{i:05d}.wav" for i in range(RANK_CLIPS)]
    z = views.latents(RANK_CLIPS)
    dumps = root / "dumps"
    dumps.mkdir(parents=True, exist_ok=True)
    write_dump(list(zip(ids, views.audio(z))), dumps / "audio.embd")
    write_dump(_caption_entries(views, ids, z), dumps / "captions.embd")
    manifest, _ = text_rows(seed, "rank", ids)
    write_manifest(root / "manifest.csv", manifest)
    rng = rng_for(seed, "queries")
    words = vocab_words()
    queries = captions(rng, words, [caption_length(q) for q in range(RANK_QUERIES)], oov_prob=0.1)
    return {"manifest": root / "manifest.csv", "dumps": dumps, "queries": queries}
