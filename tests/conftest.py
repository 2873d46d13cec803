import contextlib
import csv
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from acre import cli, dsp, space
from acre.seeding import derive_seed


def write_wav_pcm16(path, data: np.ndarray, rate: int = 32000) -> None:
    """Independent PCM16 writer (scipy); data is int16 or float in [-1, 1]."""
    if data.dtype != np.int16:
        data = np.round(np.asarray(data, dtype=np.float64) * 32768.0).clip(-32768, 32767).astype(np.int16)
    wavfile.write(path, rate, data)


def write_wav_float32(path, data: np.ndarray, rate: int = 32000) -> None:
    wavfile.write(path, rate, np.asarray(data, dtype=np.float32))


def raw_wav_bytes(data_int16: np.ndarray, rate: int, channels: int, fmt_code: int = 1, bits: int = 16) -> bytes:
    """Hand-packed WAV for header-level edge cases."""
    payload = data_int16.astype("<i2").tobytes() if bits == 16 else data_int16.astype("<f4").tobytes()
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, channels, rate, rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


def snippet(w: dsp.Waveform, seconds: float, rng: np.random.Generator) -> dsp.Waveform:
    """The snippet ingest.read_wav(path, seconds, rng) decodes, cut here from
    the whole decode w by dsp.snippet_window: the windowed decoder's oracle."""
    return dsp.Waveform(w.samples[dsp.snippet_window(len(w), seconds, w.sample_rate, rng)], w.sample_rate)


def traced_peak(fn):
    """fn()'s result and the tracemalloc peak of the call: the most bytes that
    Python and numpy held at once, of what was allocated after the call began."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def write_v1_checkpoint(path, d_out=4, d_in_audio=3, d_in_text=2) -> None:
    """A zero-valued checkpoint in the version-1 layout: magic, version, dims,
    step, Adam step, config digest, then the heads and both Adam moments."""
    header = struct.pack("<4sIIIIQQ8s", b"ACKP", 1, d_out, d_in_audio, d_in_text, 3, 3, bytes(8))
    head_params = d_out * (d_in_audio + d_in_text + 2)
    Path(path).write_bytes(header + np.zeros(3 * head_params, dtype="<f4").tobytes())


def write_v2_checkpoint(path, d_out=4, d_in_audio=3, d_in_text=2) -> None:
    """A zero-valued checkpoint in the version-2 layout: magic, version, dims,
    step, config digest, then the heads."""
    header = struct.pack("<4sIIIIQ8s", b"ACKP", 2, d_out, d_in_audio, d_in_text, 3, bytes(8))
    head_params = d_out * (d_in_audio + d_in_text + 2)
    Path(path).write_bytes(header + np.zeros(head_params, dtype="<f4").tobytes())


def _blas_core(stderr: str) -> str:
    """The OpenBLAS kernel a child named: OPENBLAS_VERBOSE=2 prints 'Core: <name>'."""
    core = re.search(r"^Core: (\S+)", stderr, re.MULTILINE)
    return core[1] if core else "unknown"


def run_at_blas_threads(threads: str, *args: str) -> tuple[str, str]:
    """Runs ``python *args`` with acre importable and OPENBLAS_NUM_THREADS set,
    and asserts it exits 0. Returns its stdout and the OpenBLAS kernel it
    loaded, so a byte comparison across thread counts can say which kernel it
    was made on."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OPENBLAS_VERBOSE": "2"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout, _blas_core(result.stderr)


@pytest.fixture(scope="session")
def blas_core() -> str:
    """The OpenBLAS kernel this process's environment loads, named by one child
    that imports numpy, so an in-process byte pin can say which kernel it failed on."""
    env = {**os.environ, "OPENBLAS_VERBOSE": "2"}
    args = [sys.executable, "-c", "import numpy"]
    return _blas_core(subprocess.run(args, env=env, capture_output=True, text=True, timeout=120).stderr)


def query_set(triples):
    """(query id, vector, target id) triples as evaluate's queries: the ids,
    the vectors stacked one row per query, and the targets."""
    query_ids, vectors, target_ids = zip(*triples)
    return list(query_ids), np.stack(vectors), list(target_ids)


def make_latent_pairs(seed, n_train=200, n_eval=50, latent_dim=32, d_audio=48, d_text=40, noise=0.05):
    """Two random linear views of shared latents, plus Gaussian noise."""
    rng = np.random.default_rng(derive_seed(seed, "synthetic-latents"))
    view_a = rng.normal(0, 1, (d_audio, latent_dim)) / np.sqrt(latent_dim)
    view_t = rng.normal(0, 1, (d_text, latent_dim)) / np.sqrt(latent_dim)

    def draw(n, tag):
        out = []
        for i in range(n):
            z = rng.normal(0, 1, latent_dim)
            a = view_a @ z + rng.normal(0, noise, d_audio)
            t = view_t @ z + rng.normal(0, noise, d_text)
            out.append(space.TrainPair(f"{tag}{i:04d}", a, (t,)))
        return out

    return draw(n_train, "train"), draw(n_eval, "eval")


def write_wav_dataset(root: Path) -> dict:
    """Six one-second tones plus a manifest and an augmented-captions file
    under root; the same bytes on every call."""
    audio_dir = root / "audio"
    audio_dir.mkdir()
    rng = np.random.default_rng(42)
    rate = 32000
    names = []
    for i in range(6):
        t = np.arange(rate) / rate
        x = 0.4 * np.sin(2 * np.pi * 200 * (i + 1) * t) + 0.05 * rng.normal(size=rate)
        names.append(f"clip{i}.wav")
        write_wav_pcm16(audio_dir / names[-1], np.clip(x, -0.99, 0.99), rate)

    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name"] + [f"caption_{k}" for k in range(1, 6)] + ["keywords"])
        for i, name in enumerate(names):
            caps = [f"a tone of kind {i} sounds {adj}" for adj in ("loud", "soft", "distant", "near", "steady")]
            writer.writerow([name] + caps + ["tone;synthetic"])

    augmented = root / "augmented.jsonl"
    with open(augmented, "w") as fh:
        for name in names:
            for ci in range(5):
                fh.write(
                    json.dumps(
                        {
                            "clip_id": name,
                            "caption_index": ci,
                            "variants": [f"variant {v} of caption {ci} for {name}" for v in range(5)],
                        }
                    )
                    + "\n"
                )
    return {"dir": root, "audio_dir": audio_dir, "manifest": manifest, "augmented": augmented, "names": names}


@pytest.fixture
def wav_dataset(tmp_path):
    return write_wav_dataset(tmp_path)


def embed_wav_dumps(ds: dict, out: Path) -> Path:
    """acre embed's dumps of a wav dataset at seed 5, variants included."""
    argv = ["embed", "--manifest", str(ds["manifest"]), "--audio-dir", str(ds["audio_dir"])]
    argv += ["--augmented-captions", str(ds["augmented"]), "--out", str(out), "--seed", "5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return out


@pytest.fixture(scope="session")
def embedded_wav_dataset(tmp_path_factory) -> Path:
    """embed_wav_dumps of a session copy of wav_dataset, run once per session:
    each embed starts worker processes that import numpy."""
    ds = write_wav_dataset(tmp_path_factory.mktemp("wav-dataset"))
    return embed_wav_dumps(ds, ds["dir"] / "wav-dumps")


@pytest.fixture
def wav_dumps(wav_dataset, embedded_wav_dataset):
    """A copy of acre embed's dumps of wav_dataset at seed 5, variants included:
    the directory every train, finetune, evaluate and rank reads with --encoder
    dump:. test_cached_wav_dumps_are_a_fresh_embed checks the copy is a fresh embed's bytes."""
    return Path(shutil.copytree(embedded_wav_dataset, wav_dataset["dir"] / "wav-dumps"))
