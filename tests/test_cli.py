import errno
import gc
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from acre import cli, dsp, embedding, encoder, ingest, retrieval, space
from acre.seeding import derive_seed
from conftest import (
    embed_wav_dumps, raw_wav_bytes, run_at_blas_threads, traced_peak, write_v1_checkpoint, write_v2_checkpoint,
    write_wav_float32, write_wav_pcm16,
)


def run(args):
    return cli.main(args)


def common(ds, out, extra=()):
    return [
        "--manifest", str(ds["manifest"]),
        "--audio-dir", str(ds["audio_dir"]),
        "--out", str(out),
        "--seed", "5",
        *extra,
    ]


def dump_encoder(dumps):
    return ["--encoder", f"dump:{dumps}"]


def test_embed_writes_dumps(wav_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["embed", *common(wav_dataset, out)]) == 0
    audio = ingest.read_embedding_dump(out / "audio.embd")
    captions = ingest.read_embedding_dump(out / "captions.embd")
    assert len(audio.entries) == 6
    assert len(captions.entries) == 30
    assert audio.dim == 64
    assert "embedded 6 clips" in capsys.readouterr().out


def test_embed_rerun_is_byte_identical(wav_dataset, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["embed", *common(wav_dataset, out1)]) == 0
    assert run(["embed", *common(wav_dataset, out2)]) == 0
    assert (out1 / "audio.embd").read_bytes() == (out2 / "audio.embd").read_bytes()
    assert (out1 / "captions.embd").read_bytes() == (out2 / "captions.embd").read_bytes()


def test_embed_missing_audio_exits_2(wav_dataset, tmp_path, capsys):
    (wav_dataset["audio_dir"] / "clip0.wav").unlink()
    code = run(["embed", *common(wav_dataset, tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "clip0.wav" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embed_non_finite_float_wav_exits_2(wav_dataset, tmp_path, capsys, bad):
    x = np.full(32000, 0.1, dtype=np.float32)
    x[5], x[9] = bad, -bad
    bad_wav = wav_dataset["audio_dir"] / "clip3.wav"
    write_wav_float32(bad_wav, x)
    out = tmp_path / "run"
    assert run(["embed", *common(wav_dataset, out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: NonFiniteValue: {bad_wav}: samples must be finite")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("channels, bad", [(1, "signalling-nan"), (2, "inf-and--inf-in-one-frame")])
def test_embed_of_a_clip_whose_mix_is_invalid_prints_one_error_line(wav_dataset, tmp_path, channels, bad):
    # in a child, so the stderr of embed's workers is seen too: they run under
    # numpy's default filters, where a RuntimeWarning prints before the error line
    x = np.full((32000, channels), 0.1, dtype=np.float32)
    if bad == "signalling-nan":
        x.view(np.uint32)[5, -1] = 0x7F800001
    else:
        x[5] = np.inf, -np.inf
    bad_wav = wav_dataset["audio_dir"] / "clip1.wav"
    bad_wav.write_bytes(raw_wav_bytes(x.ravel(), 32000, channels, fmt_code=3, bits=32))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "acre.cli", "embed", *common(wav_dataset, tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: NonFiniteValue: {bad_wav}: samples must be finite, got peak nan\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "rate, samples, message",
    [
        (44100, 44100, "WrongSampleRate: {wav}: expected 32000 Hz input, got 44100 Hz"),
        (32000, 500, "TooShort: {wav}: need at least 1024 samples, got 500"),
    ],
    ids=["44.1 kHz", "500 samples"],
)
def test_embed_dsp_error_names_the_clip(wav_dataset, tmp_path, capsys, rate, samples, message):
    bad_wav = wav_dataset["audio_dir"] / "clip4.wav"
    write_wav_pcm16(bad_wav, np.zeros(samples, dtype=np.int16), rate)
    out = tmp_path / "run"
    assert run(["embed", *common(wav_dataset, out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(wav=bad_wav)}\n"
    assert not out.exists()


# argv: audio dir, seed, whitening mean and std, clip ids. Prints each clip's
# id, segment count and library-path vector, as hex of its float32 bytes.
LIBRARY_PATH = """
import math, sys
import numpy as np
from acre import dsp, encoder, ingest
from acre.seeding import derive_seed
audio_dir, seed, mean, std, *clips = sys.argv[1:]
seed, stats = int(seed), dsp.WhiteningStats(float(mean), float(std))
preset = encoder.PRESETS["passt-n"]
seg_frames = dsp.seconds_to_frames(preset.max_input_seconds)
params = encoder.EncoderParams(seed=derive_seed(seed, "audio-encoder"))
for clip_id in clips:
    rng = np.random.default_rng(derive_seed(seed, f"snippet:{clip_id}"))
    w = ingest.read_wav(f"{audio_dir}/{clip_id}")
    spec = dsp.logmel(dsp.Waveform(w.samples[dsp.snippet_window(len(w), 30.0, w.sample_rate, rng)], w.sample_rate))
    vector = encoder.embed_long_audio(dsp.whiten(spec, stats), seg_frames, preset, params)
    print(clip_id, math.ceil(spec.frames / seg_frames), vector.astype("<f4").tobytes().hex())
"""


def test_embed_runs_the_library_path_bitwise(tmp_path, capsys):
    # a 35-s clip goes through the 30-s snippet draw, and a 12-s clip is two
    # 10-s passt-n segments averaged
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    rng = np.random.default_rng(12)
    seconds = {"long.wav": 35.0, "mid.wav": 12.0}
    for name, length in seconds.items():
        n = int(length * 32000)
        write_wav_pcm16(audio_dir / name, 0.3 * np.sin(np.arange(n) / 7.0) + 0.05 * rng.normal(size=n))
    manifest = tmp_path / "manifest.csv"
    rows = [f"{name}," + ",".join(f"clip {name} caption {k}" for k in range(5)) for name in seconds]
    manifest.write_text("\n".join(["file_name,caption_1,caption_2,caption_3,caption_4,caption_5", *rows]) + "\n")
    out, seed = tmp_path / "run", 5
    argv = ["embed", "--manifest", str(manifest), "--audio-dir", str(audio_dir), "--out", str(out)]
    assert run([*argv, "--seed", str(seed)]) == 0
    mean, std = re.search(r"whiten mean=(\S+) std=(\S+)\)$", capsys.readouterr().out.strip()).groups()
    # the library path runs at one BLAS thread, as embed's workers do: under
    # OpenBLAS's Haswell kernels the encoders' bytes depend on the thread count
    stdout, core = run_at_blas_threads("1", "-c", LIBRARY_PATH, str(audio_dir), str(seed), mean, std, *seconds)
    expected = [line.split() for line in stdout.splitlines()]
    assert [(clip_id, segments) for clip_id, segments, _ in expected] == [("long.wav", "3"), ("mid.wav", "2")]
    dump = ingest.read_embedding_dump(out / "audio.embd")
    assert [clip_id for clip_id, _ in dump.entries] == list(seconds)
    for (_, row), (_, _, vector) in zip(dump.entries, expected):
        assert row.astype("<f4").tobytes().hex() == vector, f"OpenBLAS core {core}"


def test_embed_variants(wav_dataset, tmp_path):
    out = tmp_path / "run"
    args = ["embed", *common(wav_dataset, out), "--augmented-captions", str(wav_dataset["augmented"])]
    assert run(args) == 0
    variants = ingest.read_embedding_dump(out / "variants.embd")
    assert len(variants.entries) == 6 * 5 * 5


def test_embed_without_variants_removes_an_earlier_variants_dump(wav_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    flagged = ["--seed", "1", "--augmented-captions", str(wav_dataset["augmented"])]
    assert run(["embed", *common(wav_dataset, out, flagged)]) == 0
    assert (out / "variants.embd").exists()
    assert run(["embed", *common(wav_dataset, out, ["--seed", "2"])]) == 0
    assert not (out / "variants.embd").exists()
    capsys.readouterr()
    finetune = [*dump_encoder(out), "--seed", "2", "--epochs", "1", "--batch-size", "3", "--strict"]
    assert run(["finetune", *common(wav_dataset, tmp_path / "ft", finetune)]) == 2
    assert capsys.readouterr().err == (
        "error: MissingAugmentation: finetune --strict requires variants.embd in the --encoder directory\n"
    )


def test_embed_preset_changes_the_audio_not_its_width(wav_dataset, tmp_path):
    outs = {preset: tmp_path / preset for preset in ("passt-n", "passt-s")}
    for preset, out in outs.items():
        assert run(["embed", *common(wav_dataset, out), "--preset", preset]) == 0
    n, s = (ingest.read_embedding_dump(out / "audio.embd") for out in outs.values())
    assert n.dim == s.dim == 64
    assert (outs["passt-n"] / "audio.embd").read_bytes() != (outs["passt-s"] / "audio.embd").read_bytes()
    assert (outs["passt-n"] / "captions.embd").read_bytes() == (outs["passt-s"] / "captions.embd").read_bytes()


def test_embed_with_its_printed_whitening_is_byte_identical(wav_dataset, tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["embed", *common(wav_dataset, first)]) == 0
    mean, std = re.search(r"whiten mean=(\S+) std=(\S+)\)$", capsys.readouterr().out.strip()).groups()
    assert run(["embed", *common(wav_dataset, second), "--whiten", f"{mean},{std}"]) == 0
    for name in ("audio.embd", "captions.embd"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


class StubChannel:
    """A worker's channel that records the cell sums sent and answers with fixed statistics."""

    def __init__(self):
        self.sent = []

    def send(self, value):
        self.sent.append(value)

    def receive(self):
        return dsp.WhiteningStats(0.5, 2.0)


def hum_share(audio: Path, copies: int, whiten: dsp.WhiteningStats | None) -> embedding.Share:
    """A share of copies 30-s clips of one hum, and five captions per clip."""
    audio.mkdir(exist_ok=True)
    if not (audio / "clip0.wav").exists():
        x = 0.3 * np.sin(np.arange(30 * 32000) / 7.0) + 0.05 * np.random.default_rng(1).normal(size=30 * 32000)
        write_wav_pcm16(audio / "clip0.wav", x)
    for i in range(1, copies):
        (audio / f"clip{i}.wav").write_bytes((audio / "clip0.wav").read_bytes())
    clips = [(f"clip{i}.wav", audio / f"clip{i}.wav") for i in range(copies)]
    texts = ["a hum", "a low hum", "a steady hum", "a hum indoors", "a quiet hum"] * copies
    return embedding.Share(0, encoder.PRESETS["passt-n"], 30.0, whiten, clips, texts)


def share_peaks(audio: Path, whiten: dsp.WhiteningStats | None) -> dict[int, int]:
    """run_share's tracemalloc peak at 2 and at 8 copies of a 30-s clip. The
    log-mels live in embed's workers, so their share function runs here, in
    process, where tracemalloc can see it."""
    peaks = {}
    for copies in (2, 2, 8):  # the first run fills the encoders' caches
        share, channel = hum_share(audio, copies, whiten), StubChannel()
        (audio_rows, _), peaks[copies] = traced_peak(lambda: embedding.run_share(share, channel))
        assert audio_rows.shape == (copies, encoder.WIDTH)
        assert [len(sums) for sums in channel.sent] == ([] if whiten else [copies])  # one message of cell sums
    return peaks


def test_embed_with_fixed_whitening_holds_one_log_mel_at_a_time(tmp_path):
    # a 30-s clip's float64 log-mel is 3 MB; with --whiten a worker keeps none past its encode
    peaks = share_peaks(tmp_path / "audio", dsp.WhiteningStats(0.5, 2.0))
    assert peaks[8] < peaks[2] + 1_000_000, peaks


def test_embed_with_computed_whitening_holds_one_log_mel_at_a_time(tmp_path):
    # without --whiten a worker spills each log-mel to disk until the statistics arrive
    peaks = share_peaks(tmp_path / "audio", None)
    assert peaks[8] < peaks[2] + 1_000_000, peaks


class FullDisk:
    """A temp file whose writes fail as on a full disk."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class Emptied(FullDisk):
    """A temp file that has lost its bytes by the time they are read back."""

    def write(self, data):
        return memoryview(data).nbytes

    def seek(self, offset):
        return offset

    def readinto(self, buffer):
        return 0


@pytest.mark.parametrize("spill, reason", [(FullDisk, "No space left on device"), (Emptied, "read 0 of the ")])
def test_a_spill_that_fails_is_an_os_error_naming_the_temp_directory(tmp_path, monkeypatch, spill, reason):
    monkeypatch.setattr(embedding.tempfile, "TemporaryFile", spill)
    with pytest.raises(OSError) as info:
        embedding.run_share(hum_share(tmp_path, 2, None), StubChannel())
    assert not isinstance(info.value, embedding.ClipFailed)
    assert str(info.value).startswith(f"[Errno {info.value.errno}] log-mel spill in {tempfile.gettempdir()}: {reason}")


def test_embed_leaves_nothing_in_its_temp_directory(wav_dataset, tmp_path, monkeypatch, capsys):
    spill = tmp_path / "spill"
    spill.mkdir()
    monkeypatch.setenv("TMPDIR", str(spill))  # the workers' temp directory
    assert run(["embed", *common(wav_dataset, tmp_path / "ok")]) == 0
    assert list(spill.iterdir()) == []
    write_wav_pcm16(wav_dataset["audio_dir"] / "clip5.wav", np.zeros(500, dtype=np.int16))
    assert run(["embed", *common(wav_dataset, tmp_path / "failed")]) == 2
    assert "error: TooShort:" in capsys.readouterr().err
    assert list(spill.iterdir()) == []


def test_embed_is_bitwise_the_same_at_one_and_two_blas_threads(wav_dataset, tmp_path):
    # a 10-s clip under passt-s is 1188 tokens: attention over that many keys
    # in one product would be split by OpenBLAS differently at one thread and two
    rng = np.random.default_rng(8)
    hum = 0.3 * np.sin(np.arange(320000) / 9.0) + 0.05 * rng.normal(size=320000)
    write_wav_pcm16(wav_dataset["audio_dir"] / "long.wav", hum)
    with open(wav_dataset["manifest"], "a") as fh:
        fh.write("long.wav," + ",".join(f"a long hum number {k}" for k in range(5)) + ",hum\n")
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for threads, out in zip(("1", "2"), outs):
        args = ["embed", *common(wav_dataset, out), "--preset", "passt-s"]
        args += ["--augmented-captions", str(wav_dataset["augmented"])]
        _, core = run_at_blas_threads(threads, "-m", "acre.cli", *args)
    for name in ("audio.embd", "captions.embd", "variants.embd"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), f"OpenBLAS core {core}"


def test_cached_wav_dumps_are_a_fresh_embed(wav_dataset, wav_dumps, tmp_path):
    fresh = embed_wav_dumps(wav_dataset, tmp_path / "fresh")
    for name in ("audio.embd", "captions.embd", "variants.embd"):
        assert (fresh / name).read_bytes() == (wav_dumps / name).read_bytes(), name


@pytest.fixture
def started_workers(monkeypatch):
    """Every process embed starts, recorded."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(embedding.subprocess, "Popen", Recorded)
    return started


def test_embed_workers_run_one_thread_under_every_blas(monkeypatch):
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    for name in threads:
        monkeypatch.setenv(name, "8")  # the parent's own setting does not reach the workers
    envs = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, env=None, **kwargs):
            envs.append(env)
            super().__init__(*args, env=env, **kwargs)

    monkeypatch.setattr(embedding.subprocess, "Popen", Spy)
    with embedding._workers(2) as workers:
        assert len(workers) == 2
    assert [{name: env[name] for name in threads} for env in envs] == [dict.fromkeys(threads, "1")] * 2
    assert all(env["PATH"] == os.environ["PATH"] for env in envs)


def cpus(monkeypatch, n):
    monkeypatch.setattr(embedding.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("n", [1, 7])
def test_embed_bytes_do_not_depend_on_the_worker_count(wav_dataset, wav_dumps, tmp_path, monkeypatch, started_workers, n):
    cpus(monkeypatch, n)
    out = embed_wav_dumps(wav_dataset, tmp_path / "run")
    assert len(started_workers) == min(n, 6)  # never more workers than clips
    assert all(worker.returncode == 0 for worker in started_workers)
    for name in ("audio.embd", "captions.embd", "variants.embd"):
        assert (out / name).read_bytes() == (wav_dumps / name).read_bytes(), name


def test_embed_counts_the_cpus_where_the_os_has_no_affinity(
    wav_dataset, wav_dumps, tmp_path, monkeypatch, started_workers
):
    monkeypatch.delattr(embedding.os, "sched_getaffinity")  # as on macOS and Windows
    monkeypatch.setattr(embedding.os, "cpu_count", lambda: 3)
    out = embed_wav_dumps(wav_dataset, tmp_path / "run")
    assert len(started_workers) == 3
    for name in ("audio.embd", "captions.embd", "variants.embd"):
        assert (out / name).read_bytes() == (wav_dumps / name).read_bytes(), name


@pytest.mark.parametrize("whiten", [[], ["--whiten", "0.5,2"]], ids=["computed", "fixed"])
def test_embed_names_the_first_failing_clip_in_manifest_order(
    wav_dataset, tmp_path, capsys, monkeypatch, started_workers, whiten
):
    # with two workers clip1 is the first clip of worker 1's share and clip4
    # the third of worker 0's: the error names clip1, as one process would
    cpus(monkeypatch, 2)
    for name in ("clip1.wav", "clip4.wav"):
        write_wav_pcm16(wav_dataset["audio_dir"] / name, np.zeros(500, dtype=np.int16))
    out = tmp_path / "run"
    assert run(["embed", *common(wav_dataset, out, whiten)]) == 2
    bad = wav_dataset["audio_dir"] / "clip1.wav"
    assert capsys.readouterr().err == f"error: TooShort: {bad}: need at least 1024 samples, got 500\n"
    assert not out.exists()
    assert len(started_workers) == 2 and all(worker.returncode is not None for worker in started_workers)


def test_a_bug_in_a_worker_is_a_traceback_with_the_workers_traceback(
    wav_dataset, tmp_path, capsys, monkeypatch, started_workers
):
    # the worker's dsp.logmel raises a KeyError: a bug, not an input error
    broken = "import acre.dsp; acre.dsp.logmel = lambda w: {}['broken logmel']; serve()"
    monkeypatch.setattr(embedding, "WORKER_CODE", embedding.WORKER_CODE.replace("serve()", broken))
    out = tmp_path / "run"
    with pytest.raises(KeyError, match="broken logmel") as info:
        run(["embed", *common(wav_dataset, out)])
    assert isinstance(info.value.__cause__, embedding.WorkerTraceback)
    printed = "".join(traceback.format_exception(info.value))
    assert "Traceback (most recent call last)" in str(info.value.__cause__)
    assert "in run_share" in printed and "in log_mel" in printed
    assert "error:" not in capsys.readouterr().err
    assert not out.exists()
    assert started_workers and all(worker.returncode is not None for worker in started_workers)


def test_a_worker_that_dies_is_a_traceback(wav_dataset, tmp_path, capsys, monkeypatch, started_workers):
    monkeypatch.setattr(embedding, "WORKER_CODE", "import sys; sys.exit(3)")
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run(["embed", *common(wav_dataset, out)])
    assert "error:" not in capsys.readouterr().err
    assert not out.exists()
    assert started_workers and all(worker.returncode is not None for worker in started_workers)


def start_worker():
    return subprocess.Popen(
        [sys.executable, "-c", embedding.WORKER_CODE], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def test_a_worker_exits_quietly_when_its_input_ends(wav_dataset):
    idle = start_worker()
    assert idle.communicate(timeout=60) == (b"", b"")
    assert idle.returncode == 0
    # one that has sent its cell sums and waits for the statistics
    waiting = start_worker()
    clips = [(name, wav_dataset["audio_dir"] / name) for name in wav_dataset["names"][:2]]
    share = embedding.Share(5, encoder.PRESETS["passt-n"], 30.0, None, clips, ["a tone"])
    pickle.dump(share, waiting.stdin)
    waiting.stdin.flush()
    failure, sums = pickle.load(waiting.stdout)
    assert failure is None and [count for count, _, _ in sums] == [97 * dsp.N_MELS] * 2
    assert waiting.communicate(timeout=60) == (b"", b"")
    assert waiting.returncode == 0


def test_killing_embed_leaves_no_worker_running(wav_dataset, tmp_path):
    rng = np.random.default_rng(3)
    hum = 0.3 * np.sin(np.arange(30 * 32000) / 5.0) + 0.01 * rng.normal(size=30 * 32000)
    for name in wav_dataset["names"]:  # long enough that the kill lands while the workers run
        write_wav_pcm16(wav_dataset["audio_dir"] / name, hum)
    code = f"from acre import cli; cli.main({['embed', *common(wav_dataset, tmp_path / 'run')]!r})"
    spill = tmp_path / "spill"
    spill.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "TMPDIR": str(spill)}
    parent = subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE)
    children = Path(f"/proc/{parent.pid}/task/{parent.pid}/children")
    expected, workers = min(2, len(os.sched_getaffinity(0))), []
    deadline = time.monotonic() + 60
    while len(workers) < expected and time.monotonic() < deadline:
        workers = children.read_text().split() if children.exists() else []
        time.sleep(0.05)
    parent.kill()
    parent.wait()
    parent.stderr.close()
    assert len(workers) == expected

    def running(pid):
        try:  # a zombie has exited; whoever adopted it reaps it
            return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 60
    while any(running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(running(pid) for pid in workers)
    assert list(spill.iterdir()) == []  # the workers' log-mel spills went with them


def split_manifest(ds, tmp_path, parts):
    """The dataset manifest as len(parts) manifests holding those row ranges."""
    header, *rows = ds["manifest"].read_text().splitlines()
    paths = []
    for i, part in enumerate(parts):
        paths.append(tmp_path / f"part{i}.csv")
        paths[-1].write_text("\n".join([header, *(rows[j] for j in part)]) + "\n")
    return paths


def test_train_over_two_manifests_equals_one(wav_dataset, wav_dumps, tmp_path):
    halves = split_manifest(wav_dataset, tmp_path, [range(0, 3), range(3, 6)])
    train = ["--epochs", "2", "--batch-size", "3", "--seed", "5", *dump_encoder(wav_dumps)]
    one, two = tmp_path / "one", tmp_path / "two"
    assert run(["train", "--manifest", str(wav_dataset["manifest"]), "--out", str(one), *train]) == 0
    assert run(["train", "--manifest", f"{halves[0]},{halves[1]}", "--out", str(two), *train]) == 0
    for name in ("checkpoint.ackp", "loss.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_clip_in_two_manifests_is_input_error(wav_dataset, tmp_path, capsys):
    overlapping = split_manifest(wav_dataset, tmp_path, [range(0, 3), range(2, 6)])
    argv = ["--audio-dir", str(wav_dataset["audio_dir"]), "--out", str(tmp_path / "out"), "--epochs", "1"]
    assert run(["train", *argv, "--manifest", str(overlapping[0]), "--manifest", str(overlapping[1])]) == 2
    assert capsys.readouterr().err == "error: DuplicateClipId: clip id 'clip2.wav' appears in multiple manifests\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--out", "{tmp}/out"], "no manifest given (use --manifest or the config file)"),
        (["train", "--manifest", "{tmp}/m.csv"], "no output directory given (use --out)"),
        (["rank", "--manifest", "{tmp}/m.csv", "--query", "a tone"], "rank requires --checkpoint"),
    ],
    ids=["no-manifest", "no-out", "rank-without-checkpoint"],
)
def test_missing_required_setting_is_usage_error(tmp_path, capsys, argv, message):
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: UsageError: {message}\n"
    assert not (tmp_path / "out").exists()


def test_train_then_evaluate(wav_dataset, wav_dumps, tmp_path, capsys):
    out = tmp_path / "run"
    dump = dump_encoder(wav_dumps)
    train_args = ["train", *common(wav_dataset, out, dump), "--epochs", "6", "--batch-size", "3", "--lr-max", "1e-2"]
    assert run(train_args) == 0
    assert (out / "checkpoint.ackp").exists()
    loss_lines = (out / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "step,lr,loss,text_to_audio,audio_to_text"
    assert len(loss_lines) == 1 + 12  # 6 epochs x 2 steps

    eval_args = [
        "evaluate", *common(wav_dataset, tmp_path / "eval", dump),
        "--checkpoint", str(out / "checkpoint.ackp"),
    ]
    assert run(eval_args) == 0
    text = capsys.readouterr().out
    assert "mAP@10" in text
    metrics = (tmp_path / "eval" / "metrics.csv").read_text()
    assert metrics.splitlines()[0] == "metric,value"


def test_evaluate_reads_the_dumps_whatever_the_embedding_settings(wav_dataset, wav_dumps, tmp_path):
    # the seed's encoder weights, the preset, the snippet length and whitening
    # shape what embed writes; evaluate reads that, so none of them moves its metrics
    dump, ckpt = dump_encoder(wav_dumps), tmp_path / "run" / "checkpoint.ackp"
    assert run(["train", *common(wav_dataset, ckpt.parent, dump), "--epochs", "4", "--batch-size", "3"]) == 0
    evaluate = ["evaluate", "--checkpoint", str(ckpt)]
    assert run([*evaluate, *common(wav_dataset, tmp_path / "seed5", dump)]) == 0
    expected = (tmp_path / "seed5" / "metrics.csv").read_bytes()
    cases = [
        ["--seed", "0"], ["--seed", "9"], ["--preset", "passt-s"], ["--snippet-seconds", "1"], ["--whiten", "0.5,2"],
    ]
    for i, extra in enumerate(cases):
        assert run([*evaluate, *common(wav_dataset, tmp_path / f"case{i}", [*dump, *extra])]) == 0
        assert (tmp_path / f"case{i}" / "metrics.csv").read_bytes() == expected, extra


@pytest.mark.parametrize("command", ["train", "finetune", "evaluate", "rank"])
def test_commands_without_dumps_point_at_acre_embed(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\nabsent.wav,a,b,c,d,e\n")
    ckpt = tmp_path / "init.ackp"
    rng = np.random.default_rng(0)
    heads = (space.ProjectionHead.initialize(4, 8, rng), space.ProjectionHead.initialize(3, 8, rng))
    space.save_checkpoint(ckpt, *heads)
    extra = {"evaluate": ["--checkpoint", str(ckpt)], "rank": ["--checkpoint", str(ckpt), "--query", "a tone"]}
    assert run([command, "--manifest", str(manifest), "--out", str(tmp_path / "out"), *extra.get(command, [])]) == 2
    assert capsys.readouterr().err == (
        f"error: UsageError: {command} reads embedding dumps: pass --encoder dump:<dir> (written by acre embed)\n"
    )
    assert not (tmp_path / "out").exists()


def test_train_rerun_byte_identical(wav_dataset, wav_dumps, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        train = ["train", *common(wav_dataset, out, dump_encoder(wav_dumps)), "--epochs", "4", "--batch-size", "3"]
        assert run(train) == 0
        outs.append(out)
    assert (outs[0] / "checkpoint.ackp").read_bytes() == (outs[1] / "checkpoint.ackp").read_bytes()
    assert (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()


def test_train_zero_epochs_equals_initialization(wav_dataset, wav_dumps, tmp_path):
    out = tmp_path / "run"
    assert run(["train", *common(wav_dataset, out, dump_encoder(wav_dumps)), "--epochs", "0", "--batch-size", "3"]) == 0
    ckpt = space.load_checkpoint(out / "checkpoint.ackp")
    from acre.seeding import derive_seed

    expected = space.ProjectionHead.initialize(64, 1024, np.random.default_rng(derive_seed(5, "audio-head")))
    assert np.array_equal(ckpt.audio_head.weight, expected.weight.astype(np.float32).astype(np.float64))


def test_finetune_strict_without_augmentations_fails(wav_dataset, wav_dumps, tmp_path, capsys):
    out, dump = tmp_path / "run", dump_encoder(wav_dumps)
    assert run(["train", *common(wav_dataset, out, dump), "--epochs", "1", "--batch-size", "3"]) == 0
    (wav_dumps / "variants.embd").unlink()
    code = run(
        [
            "finetune", *common(wav_dataset, tmp_path / "ft", dump),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--epochs", "1", "--batch-size", "3", "--strict",
        ]
    )
    assert code == 2
    assert "MissingAugmentation" in capsys.readouterr().err


def test_finetune_warns_when_variants_cover_no_clip(wav_dataset, wav_dumps, tmp_path):
    width = ingest.read_embedding_dump(wav_dumps / "captions.embd").dim
    elsewhere = [(f"other.wav#0@{j}", np.ones(width)) for j in range(5)]
    ingest.write_embedding_dump(elsewhere, wav_dumps / "variants.embd")
    args = ["--epochs", "1", "--batch-size", "3", *dump_encoder(wav_dumps)]
    with pytest.warns(UserWarning, match="swaps will never fire"):
        assert run(["finetune", *common(wav_dataset, tmp_path / "ft"), *args]) == 0


def test_finetune_reads_its_variants_from_the_dump_alone(wav_dataset, wav_dumps, tmp_path):
    dump = dump_encoder(wav_dumps)
    assert run(["train", *common(wav_dataset, tmp_path / "pre", dump), "--epochs", "1", "--batch-size", "3"]) == 0
    finetune = [*dump, "--checkpoint", str(tmp_path / "pre" / "checkpoint.ackp"), "--epochs", "2", "--batch-size", "3"]
    flagged = ["--augmented-captions", str(wav_dataset["augmented"])]
    assert run(["finetune", *common(wav_dataset, tmp_path / "with", finetune), *flagged]) == 0
    assert run(["finetune", *common(wav_dataset, tmp_path / "without", finetune)]) == 0
    for name in ("checkpoint.ackp", "loss.csv"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()


def test_finetune_strict_on_dumps_written_outside_embed(tmp_path, capsys):
    ids = [f"c{i}.wav" for i in range(4)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{c},a,b,c,d,e\n" for c in ids)
    )
    rng = np.random.default_rng(0)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    ingest.write_embedding_dump([(c, rng.normal(size=6)) for c in ids], dumps / "audio.embd")
    captions = [f"{c}#{k}" for c in ids for k in range(5)]
    ingest.write_embedding_dump([(key, rng.normal(size=5)) for key in captions], dumps / "captions.embd")
    variants = [(f"{key}@{j}", rng.normal(size=5)) for key in captions for j in range(5)]
    ingest.write_embedding_dump(variants, dumps / "variants.embd")
    argv = [
        "finetune", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--out", str(tmp_path / "out"),
        "--epochs", "1", "--batch-size", "2", "--strict",
    ]
    assert run(argv) == 0
    assert "finetune: 4 clips, 2 steps" in capsys.readouterr().out
    assert list(tmp_path.rglob("*.jsonl")) == []


def test_finetune_with_augmentations(wav_dataset, wav_dumps, tmp_path):
    out, dump = tmp_path / "run", dump_encoder(wav_dumps)
    assert run(["train", *common(wav_dataset, out, dump), "--epochs", "2", "--batch-size", "3"]) == 0
    code = run(
        [
            "finetune", *common(wav_dataset, tmp_path / "ft", dump),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--epochs", "2", "--batch-size", "3", "--strict",
        ]
    )
    assert code == 0
    assert (tmp_path / "ft" / "checkpoint.ackp").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_refuses_checkpoint_beyond_float32(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ids = [f"c{i:02d}.wav" for i in range(64)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
        + "".join(f"{c},a,b,c,d,e\n" for c in ids)
    )
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    ingest.write_embedding_dump([(c, rng.normal(size=16)) for c in ids], dumps / "audio.embd")
    ingest.write_embedding_dump(
        [(f"{c}#{k}", rng.normal(size=12)) for c in ids for k in range(5)], dumps / "captions.embd"
    )
    out = tmp_path / "run"
    # training runs in float32, so lr 1e200 overflows inside Adam and the next loss is nan
    code = run(
        [
            "train", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--out", str(out),
            "--batch-size", "16", "--epochs", "2", "--lr-max", "1e200",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: NonFiniteValue: pretrain step 2: loss is nan"]
    assert list(out.glob("checkpoint.ackp*")) == []


def test_finetune_refuses_variants_of_another_width(tmp_path, capsys):
    ids = [f"c{i}.wav" for i in range(4)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{c},a,b,c,d,e\n" for c in ids)
    )
    rng = np.random.default_rng(0)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    ingest.write_embedding_dump([(c, rng.normal(size=4)) for c in ids], dumps / "audio.embd")
    captions = [(f"{c}#{k}", rng.normal(size=5)) for c in ids for k in range(5)]
    ingest.write_embedding_dump(captions, dumps / "captions.embd")
    seven_d = [(f"{key}@{j}", rng.normal(size=7)) for key, _ in captions for j in range(5)]
    ingest.write_embedding_dump(seven_d, dumps / "variants.embd")
    out = tmp_path / "out"
    argv = [
        "finetune", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--out", str(out),
        "--epochs", "1", "--batch-size", "2",
    ]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: DimMismatch: variant dim 7 != caption dim 5\n"
    assert not out.exists()


def test_train_refuses_a_non_finite_gradient_on_the_last_step(tmp_path, monkeypatch, capsys):
    # Adam turns the inf into NaN parameters, and save_checkpoint refuses them
    _, argv = finetune_dumps(tmp_path, 16, 8)
    exact = space.loss_gradients
    calls = []

    def inf_gradient_at_the_last_step(*args, **kwargs):
        loss, grad = exact(*args, **kwargs)
        calls.append(loss)
        if len(calls) == 4:
            grad[0] = np.inf  # audio weight [0, 0]
        return loss, grad

    monkeypatch.setattr(space, "loss_gradients", inf_gradient_at_the_last_step)
    out = tmp_path / "out"
    assert run(["train", *argv[1:5], "--out", str(out), "--epochs", "1", "--batch-size", "4"]) == 2
    assert len(calls) == 4 and all(math.isfinite(loss.value) for loss in calls)
    err = "error: NonFiniteValue: audio.weight is not finite as float32; checkpoint not written\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


def finetune_dumps(tmp_path, n_clips, text_dim, audio_dim=16):
    """A manifest and a dump directory with audio, caption and variant dumps
    of n_clips clips (5 captions, 5 variants each); the finetune argv over them."""
    ids = [f"c{i:03d}.wav" for i in range(n_clips)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{c},a,b,c,d,e\n" for c in ids)
    )
    rng = np.random.default_rng(3)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    ingest.write_embedding_dump([(c, rng.normal(size=audio_dim)) for c in ids], dumps / "audio.embd")
    captions = [f"{c}#{k}" for c in ids for k in range(5)]
    ingest.write_embedding_dump([(key, rng.normal(size=text_dim)) for key in captions], dumps / "captions.embd")
    variants = ((f"{key}@{j}", rng.normal(size=text_dim)) for key in captions for j in range(5))
    ingest.write_embedding_dump(variants, dumps / "variants.embd")
    argv = [
        "finetune", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--out", str(tmp_path / "out"),
        "--epochs", "1", "--batch-size", "16", "--out-dim", "16", "--swap-prob", "0.5", "--strict",
    ]
    return dumps / "variants.embd", argv


def owner(array):
    """The array that owns array's memory: array itself, or the base of its view."""
    while array.base is not None:
        array = array.base
    return array


@pytest.mark.parametrize("command", ["train", "finetune"])
def test_training_holds_no_float64_initial_head_and_one_gradient(tmp_path, monkeypatch, command):
    # train's initial heads are seeded draws, finetune's the --checkpoint heads
    # load_checkpoint widens to float64; once copied into the float32 vector
    # neither lives on through the loop, and no step's gradient outlives its step
    _, argv = finetune_dumps(tmp_path, 48, 10)
    pre = tmp_path / "pre"
    run_args = ["--epochs", "2", "--batch-size", "16", "--out-dim", "16"]
    assert run(["train", *argv[1:5], "--out", str(pre), *run_args]) == 0
    if command == "finetune":
        argv = [*argv, *run_args, "--checkpoint", str(pre / "checkpoint.ackp")]
    else:
        argv = ["train", *argv[1:5], "--out", str(tmp_path / "again"), *run_args]
    initial, grads, steps = [], [], []

    def kept(heads):
        initial.extend(weakref.ref(owner(array)) for head in heads for array in (head.weight, head.bias))
        assert all(ref().dtype == np.float64 for ref in initial)
        return heads

    exact_initialize, exact_load = space.ProjectionHead.initialize, space.load_checkpoint
    initialize = classmethod(lambda cls, *args: kept([exact_initialize(*args)])[0])
    monkeypatch.setattr(space.ProjectionHead, "initialize", initialize)
    monkeypatch.setattr(space, "load_checkpoint", lambda path: kept(exact_load(path)))

    def loss_gradients(*args):
        assert all(ref() is None for ref in grads), f"step {len(grads) - 1}'s gradient is still held"
        loss, grad = exact_gradients(*args)
        grads.append(weakref.ref(grad))
        return loss, grad

    def adam_step(*args):
        assert all(ref() is None for ref in initial), "an initial head is still held"
        steps.append(exact_adam(*args))

    exact_gradients, exact_adam = space.loss_gradients, space.adam_step
    monkeypatch.setattr(space, "loss_gradients", loss_gradients)
    monkeypatch.setattr(space, "adam_step", adam_step)
    assert run(argv) == 0
    assert len(initial) == 4 and len(steps) == len(grads) == 6


def test_finetune_reads_no_undrawn_variant_row(tmp_path):
    # 3200 variants of 512 floats: 8 steps of 16 clips draw at most 128 of them
    variants, argv = finetune_dumps(tmp_path, 128, 512)
    assert variants.stat().st_size >= 4_000_000
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, peak = traced_peak(lambda: run(argv))
        gc.collect()
    assert code == 0
    assert peak < variants.stat().st_size, peak
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("rewrite", ["non-finite", "truncated"])
def test_finetune_fails_closed_on_variants_rewritten_after_the_check(tmp_path, monkeypatch, capsys, rewrite):
    variants, argv = finetune_dumps(tmp_path, 16, 8)
    readers = []

    class RewrittenAfterTheCheck(ingest.DumpReader):
        def __init__(self, path):
            super().__init__(path)
            if self.path != variants:  # read_embedding_dump opens a DumpReader too
                return
            readers.append(self)
            with open(path, "r+b") as fh:  # in place, as a writer that does not rename would
                if rewrite == "truncated":
                    fh.truncate(20)
                else:
                    fh.seek(20)
                    fh.write(np.full(len(self.ids) * self.dim, np.nan, dtype="<f4").tobytes())

    monkeypatch.setattr(ingest, "DumpReader", RewrittenAfterTheCheck)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(argv) == 2
        readers.clear()
        gc.collect()
    kind, detail = {
        "non-finite": ("NonFiniteValue", "contains non-finite values"),
        "truncated": ("TruncatedFile", "reads 0 of 32 bytes; the file changed after it was checked"),
    }[rewrite]
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {kind}: {re.escape(str(variants))}: entry 'c\d+\.wav#\d@\d' {detail}\n", err), err
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert not (tmp_path / "out").exists()


def test_finetune_refuses_a_checkpoint_of_another_out_dim(tmp_path, capsys, monkeypatch):
    _, argv = finetune_dumps(tmp_path, 16, 10, audio_dim=12)
    given = [*argv[1:5], "--epochs", "1", "--batch-size", "16"]  # --manifest and --encoder, then the run
    pre, fine = tmp_path / "pre", tmp_path / "fine"
    assert run(["train", *given, "--out", str(pre), "--out-dim", "8"]) == 0
    capsys.readouterr()

    def no_dump(path, *args):  # the checkpoint is refused before any dump is opened
        raise AssertionError(f"{path} was opened")

    monkeypatch.setattr(ingest, "DumpReader", no_dump)
    monkeypatch.setattr(ingest, "read_embedding_dump", no_dump)
    argv = ["finetune", *given, "--checkpoint", str(pre / "checkpoint.ackp"), "--out", str(fine), "--out-dim", "256"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: DimMismatch: init heads project to dims (8, 8), out_dim is 256\n"
    assert not (fine / "checkpoint.ackp").exists()


def duplicate_last_id(raw):
    # 400 rows of 8 floats, then ids of 12 bytes each, 'c000.wav#0@0' to 'c015.wav#4@4'
    table = 20 + 400 * 32
    return raw[:-12] + raw[table + 2 : table + 14]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: b"NOPE" + raw[4:],
        lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:],
        lambda raw: raw[:20 + 100],
        duplicate_last_id,
        lambda raw: raw + b"\x00",
        lambda raw: raw[:-1],
    ],
    ids=["bad-magic", "version-1", "cut-block", "duplicate-id", "trailing-bytes", "cut-id"],
)
def test_finetune_refuses_a_bad_variants_dump_before_step_0(tmp_path, monkeypatch, capsys, corrupt):
    variants, argv = finetune_dumps(tmp_path, 16, 8)
    variants.write_bytes(corrupt(variants.read_bytes()))
    with pytest.raises(ingest.IngestError) as eager:
        ingest.read_embedding_dump(variants)
    monkeypatch.setattr(space, "loss_gradients", None)  # refused before step 0
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {type(eager.value).__name__}: {eager.value}\n"
    assert not (tmp_path / "out").exists()


def test_finetune_refuses_a_non_finite_variant_row_when_it_draws_it(tmp_path, monkeypatch, capsys):
    # a row is checked when a swap reads it: the run stops there, mid-run, and writes nothing
    variants, argv = finetune_dumps(tmp_path, 16, 8)
    argv = [*argv, "--epochs", "3"]  # one step per epoch
    steps, first_drawn = [], {}  # variant row -> the steps run before a swap first drew it
    exact = space.loss_gradients

    def counted_step(*args, **kwargs):
        steps.append(None)
        return exact(*args, **kwargs)

    class Drawn(ingest.DumpReader):
        def __getitem__(self, i):
            first_drawn.setdefault(i, len(steps))
            return super().__getitem__(i)

    monkeypatch.setattr(space, "loss_gradients", counted_step)
    monkeypatch.setattr(ingest, "DumpReader", Drawn)
    assert run([*argv, "--out", str(tmp_path / "clean")]) == 0
    row, before = max(first_drawn.items(), key=lambda drawn: drawn[1])
    assert before == 2  # first drawn in the last step
    entry = ingest.read_embedding_dump(variants).ids[row]
    with open(variants, "r+b") as fh:
        fh.seek(20 + row * 8 * 4 + 12)
        fh.write(np.array([np.nan], "<f4").tobytes())
    steps.clear()
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: NonFiniteValue: {variants}: entry {entry!r} contains non-finite values\n"
    assert len(steps) == 2
    assert not (tmp_path / "out").exists()


def test_finetune_never_reads_a_variant_row_no_caption_names(tmp_path):
    # a non-finite row under an id of no manifest caption is never drawn, so never checked
    variants, argv = finetune_dumps(tmp_path, 16, 8)
    assert run(argv) == 0
    dump = ingest.read_embedding_dump(variants)
    extra = np.full(dump.dim, np.nan, "<f4")
    raw = bytearray(variants.read_bytes())
    table = 20 + dump.matrix.nbytes
    raw[12:20] = (len(dump.ids) + 1).to_bytes(8, "little")  # by hand: the writer refuses a non-finite vector
    stray = "other.wav#0@0".encode()
    variants.write_bytes(raw[:table] + extra.tobytes() + raw[table:] + len(stray).to_bytes(2, "little") + stray)
    with pytest.raises(ingest.NonFiniteValue, match="entry 'other.wav#0@0' contains non-finite values"):
        ingest.read_embedding_dump(variants)
    assert run([*argv, "--out", str(tmp_path / "stray")]) == 0
    for name in ("checkpoint.ackp", "loss.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "stray" / name).read_bytes()


def test_finetune_takes_variants_interleaved_by_an_external_writer(tmp_path):
    variants, argv = finetune_dumps(tmp_path, 16, 8)
    assert run(argv) == 0
    # every '@0' row first, then every '@1' row, and so on: no caption's rows are contiguous
    interleaved = sorted(ingest.read_embedding_dump(variants).entries, key=lambda e: int(e[0].rpartition("@")[2]))
    assert [key for key, _ in interleaved[:2]] == ["c000.wav#0@0", "c000.wav#1@0"]
    ingest.write_embedding_dump(interleaved, variants)
    assert run([*argv, "--out", str(tmp_path / "interleaved")]) == 0
    for name in ("checkpoint.ackp", "loss.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "interleaved" / name).read_bytes()


def test_train_and_evaluate_never_open_variants(wav_dataset, wav_dumps, tmp_path, monkeypatch):
    reader = ingest.DumpReader

    def refuse_variants(path):  # read_embedding_dump opens the other dumps through it
        if Path(path).name == "variants.embd":
            raise AssertionError(f"opened {path}")
        return reader(path)

    monkeypatch.setattr(ingest, "DumpReader", refuse_variants)
    assert (wav_dumps / "variants.embd").exists()
    dump = dump_encoder(wav_dumps)
    assert run(["train", *common(wav_dataset, tmp_path / "pre", dump), "--epochs", "1", "--batch-size", "3"]) == 0
    ckpt = [*dump, "--checkpoint", str(tmp_path / "pre" / "checkpoint.ackp")]
    assert run(["evaluate", *common(wav_dataset, tmp_path / "eval", ckpt)]) == 0
    with pytest.raises(AssertionError, match="variants.embd"):  # the patch bites where the file is read
        run(["finetune", *common(wav_dataset, tmp_path / "ft", ckpt), "--epochs", "1", "--batch-size", "3"])


def fixed_checkpoint(path, audio_dim, text_dim, out_dim=16):
    rng = np.random.default_rng(7)
    audio, text = (space.ProjectionHead.initialize(d_in, out_dim, rng) for d_in in (audio_dim, text_dim))
    space.save_checkpoint(path, audio, text)
    return ["--checkpoint", str(path)]


@pytest.mark.parametrize("command", ["train", "finetune", "evaluate"])
@pytest.mark.parametrize(
    "dump_name, key, kind",
    [("audio.embd", "c005.wav", "audio"), ("captions.embd", "c005.wav#3", "caption")],
    ids=["audio", "caption"],
)
def test_a_manifest_id_missing_from_its_dump_is_one_usage_error(tmp_path, capsys, command, dump_name, key, kind):
    variants, argv = finetune_dumps(tmp_path, 8, 6)
    path = variants.parent / dump_name
    dump = ingest.read_embedding_dump(path)
    ingest.write_embedding_dump([(i, row) for i, row in zip(dump.ids, dump.matrix) if i != key], path)
    extra = {"evaluate": fixed_checkpoint(tmp_path / "fixed.ackp", 16, 6)}.get(command, [])
    assert run([command, *argv[1:], *extra]) == 2
    assert capsys.readouterr().err == f"error: UsageError: no {kind} embedding for {key!r}\n"
    assert not (tmp_path / "out").exists()


def test_dumps_in_another_order_with_extra_rows_give_the_same_bytes(tmp_path):
    # variants.embd stays in order: its per-caption '@j' file order sets the swap stream
    variants, argv = finetune_dumps(tmp_path, 16, 8)
    dumps = variants.parent
    evaluate = ["evaluate", *argv[1:5], *fixed_checkpoint(tmp_path / "fixed.ackp", 16, 8)]

    def outputs(tag):
        runs = {"train": ["train", *argv[1:]], "finetune": argv, "evaluate": evaluate}
        for name, command in runs.items():
            assert run([*command, "--out", str(tmp_path / tag / name)]) == 0
        files = ("train/checkpoint.ackp", "train/loss.csv", "finetune/checkpoint.ackp", "finetune/loss.csv",
                 "evaluate/metrics.csv", "evaluate/report.txt")
        return {name: (tmp_path / tag / name).read_bytes() for name in files}

    in_order = outputs("manifest")
    rng = np.random.default_rng(11)
    for name, extra in (("audio.embd", "extra{}.wav"), ("captions.embd", "c000.wav#{}")):
        dump = ingest.read_embedding_dump(dumps / name)
        rows = [*zip(dump.ids, dump.matrix), *((extra.format(5 + i), rng.normal(size=dump.dim)) for i in range(3))]
        ingest.write_embedding_dump([rows[k] for k in rng.permutation(len(rows))], dumps / name)
        assert ingest.read_embedding_dump(dumps / name).ids[: len(dump.ids)] != dump.ids
    assert outputs("shuffled") == in_order


def test_finetune_checks_variants_before_it_reads_the_other_dumps(tmp_path, capsys):
    variants, argv = finetune_dumps(tmp_path, 16, 8)
    variants.write_bytes(b"NOPE" + variants.read_bytes()[4:])
    (variants.parent / "audio.embd").unlink()
    with pytest.raises(ingest.IngestError) as eager:
        ingest.read_embedding_dump(variants)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {type(eager.value).__name__}: {eager.value}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_missing_checkpoint_exits_2(wav_dataset, tmp_path, capsys):
    code = run(
        [
            "evaluate", *common(wav_dataset, tmp_path / "eval"),
            "--checkpoint", str(tmp_path / "nope.ackp"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("version, write", [(1, write_v1_checkpoint), (2, write_v2_checkpoint)], ids=["v1", "v2"])
def test_evaluate_rejects_older_checkpoint_versions(wav_dataset, tmp_path, capsys, version, write):
    old = tmp_path / "old.ackp"
    write(old)
    code = run(["evaluate", *common(wav_dataset, tmp_path / "eval"), "--checkpoint", str(old)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: SpaceError: {old}: unsupported checkpoint version {version}, expected 3\n"


def test_evaluate_refuses_a_checkpoint_of_zero_output_dim(wav_dataset, tmp_path, capsys):
    # a bare 20-byte header: d_out 0 makes the body empty, so the size check alone would pass it
    empty = tmp_path / "empty.ackp"
    empty.write_bytes(struct.pack("<4sIIII", b"ACKP", 3, 0, 4, 4))
    assert run(["evaluate", *common(wav_dataset, tmp_path / "eval"), "--checkpoint", str(empty)]) == 2
    err = f"error: SpaceError: {empty}: zero dimension: d_out 0, audio d_in 4, text d_in 4\n"
    assert capsys.readouterr().err == err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "case",
    [
        "evaluate without checkpoint", "evaluate truncated checkpoint", "embed missing wav", "embed missing variants",
        "embed empty variants", "embed variants of other clips", "embed infinite snippet",
    ],
)
def test_failed_command_leaves_no_out_directory(wav_dataset, tmp_path, capsys, case):
    out = tmp_path / "never"
    if case == "evaluate without checkpoint":
        argv = ["evaluate", *common(wav_dataset, out)]
    elif case == "evaluate truncated checkpoint":
        truncated = tmp_path / "short.ackp"
        truncated.write_bytes(space.CHECKPOINT_MAGIC + b"\x02")
        argv = ["evaluate", *common(wav_dataset, out), "--checkpoint", str(truncated)]
    elif case == "embed missing wav":
        (wav_dataset["audio_dir"] / "clip0.wav").unlink()
        argv = ["embed", *common(wav_dataset, out)]
    elif case == "embed missing variants":
        argv = ["embed", *common(wav_dataset, out), "--augmented-captions", str(tmp_path / "missing.jsonl")]
    elif case in ("embed empty variants", "embed variants of other clips"):
        variants = tmp_path / "variants.jsonl"
        if case == "embed empty variants":
            variants.write_text("")
        else:
            variants.write_text('{"clip_id": "other.wav", "caption_index": 0, "variants": ["a", "b", "c", "d", "e"]}\n')
        (wav_dataset["audio_dir"] / "clip0.wav").unlink()  # the refusal comes before any audio is read
        argv = ["embed", *common(wav_dataset, out), "--augmented-captions", str(variants)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snippet_seconds = inf\n")
        argv = ["embed", "--config", str(cfg), *common(wav_dataset, out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if case == "embed infinite snippet":
        assert err == f"error: UsageError: {cfg}: line 1: snippet_seconds must be positive and finite, got 'inf'\n"
    if case in ("embed empty variants", "embed variants of other clips"):
        assert err == f"error: IngestError: {variants}: no record names a clip of the manifest\n"
    assert not out.exists()


# each case's error line starts with this, {file} naming the broken file
UNREADABLE_TEXT = {
    "manifest field past the csv limit": "IngestError: {file}: line 3: field larger than field limit (131072)",
    "manifest not UTF-8": "IngestError: {file}: line 3: not UTF-8 (byte 0xff: invalid start byte)",
    "variants nested 100000 deep": "IngestError: {file}: line 2: invalid JSON record: maximum recursion depth",
    "variants index of 5000 digits": "IngestError: {file}: line 2: invalid JSON record: Exceeds the limit",
    "variants not UTF-8": "IngestError: {file}: line 2: not UTF-8 (byte 0xff: invalid start byte)",
    "config not UTF-8": "UsageError: {file}: line 2: not UTF-8 (byte 0xff: invalid start byte)",
}


@pytest.mark.parametrize("case", UNREADABLE_TEXT)
def test_unreadable_text_input_is_one_error_line_naming_its_file(wav_dataset, tmp_path, capsys, case):
    out = tmp_path / "never"
    argv = ["embed", *common(wav_dataset, out), "--augmented-captions", str(wav_dataset["augmented"])]
    kind = case.split()[0]
    if kind == "config":
        file = tmp_path / "run.cfg"
        file.write_bytes(b"seed = 5\n# run\n")
        argv = ["embed", "--config", str(file), *argv[1:]]
    else:
        file = wav_dataset["augmented" if kind == "variants" else "manifest"]
    lines = file.read_bytes().splitlines(keepends=True)
    if case == "manifest field past the csv limit":
        lines[2] = b"clip1.wav," + b"x" * (131072 + 1) + b",b,c,d,e\n"
    elif case == "variants nested 100000 deep":
        lines[1] = b"[" * 100000 + b"\n"
    elif case == "variants index of 5000 digits":
        index = b"7" * 5000
        lines[1] = b'{"clip_id": "clip0.wav", "caption_index": ' + index + b', "variants": ["a", "b", "c", "d", "e"]}\n'
    else:  # 0xff occurs nowhere in UTF-8
        row = 2 if kind == "manifest" else 1
        lines[row] = b"\xff" + lines[row]
    file.write_bytes(b"".join(lines))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + UNREADABLE_TEXT[case].format(file=file)) and len(err.splitlines()) == 1, err[:300]
    assert not out.exists()


def test_a_key_error_inside_a_command_propagates_as_a_bug(wav_dataset, tmp_path, monkeypatch):
    # no input reaches a KeyError, so one is a bug: a traceback, not an input error's exit 2
    def broken(settings):
        raise KeyError("clip0.wav")

    monkeypatch.setattr(cli, "cmd_evaluate", broken)
    with pytest.raises(KeyError, match="clip0.wav"):
        run(["evaluate", *common(wav_dataset, tmp_path / "eval")])


@pytest.mark.parametrize("value", ["0", "-1", "nan", "abc"])
def test_bad_snippet_seconds_is_refused_before_any_audio_is_read(wav_dataset, tmp_path, capsys, value):
    (wav_dataset["audio_dir"] / "clip0.wav").unlink()
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        run(["embed", *common(wav_dataset, out), "--snippet-seconds", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"acre embed: error: argument --snippet-seconds: must be positive and finite, got {value!r}"
    )
    assert "clip0.wav" not in err and not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("value,samples", [("0.01", 320), ("0.0319", 1021)])
def test_snippet_shorter_than_one_fft_window_is_a_usage_error(wav_dataset, tmp_path, capsys, where, value, samples):
    # every clip would be too short; the error names the setting, not the first clip
    out = tmp_path / "never"
    if where == "flag":
        argv = ["embed", *common(wav_dataset, out), "--snippet-seconds", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snippet_seconds = {value}\n")
        argv = ["embed", "--config", str(cfg), *common(wav_dataset, out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: UsageError: snippet_seconds (--snippet-seconds) {value} is below one FFT window: "
        f"need at least 1024 samples, got {samples}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("value", ["1e308", "1e306", "5.7e303"])
def test_snippet_whose_sample_count_overflows_is_a_usage_error(wav_dataset, tmp_path, capsys, where, value):
    # finite seconds, but not a finite number of samples at 32 kHz, which int() cannot take
    (wav_dataset["audio_dir"] / "clip0.wav").unlink()  # the refusal comes before any audio is read
    out = tmp_path / "never"
    if where == "flag":
        argv = ["embed", *common(wav_dataset, out), "--snippet-seconds", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snippet_seconds = {value}\n")
        argv = ["embed", "--config", str(cfg), *common(wav_dataset, out)]
    assert run(argv) == 2
    err = f"error: UsageError: snippet_seconds (--snippet-seconds) {float(value)!r} is too long\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "finetune"])
@pytest.mark.parametrize("value", ["-1", "1.5", "abc"])
def test_a_bad_epochs_is_refused_naming_epochs(tmp_path, capsys, command, value):
    # parsed where it is read, so the error names --epochs or the config line,
    # not the TrainConfig field of the other phase
    with pytest.raises(SystemExit) as exc:
        run([command, "--epochs", value, "--out", str(tmp_path / "never")])
    assert exc.value.code == 2
    flag = capsys.readouterr().err.splitlines()[-1]
    assert flag == f"acre {command}: error: argument --epochs: must be a non-negative integer, got {value!r}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 3\nepochs = {value}\n")
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "never")]) == 2
    line = f"error: UsageError: {cfg}: line 2: epochs must be a non-negative integer, got {value!r}\n"
    assert capsys.readouterr().err == line
    assert not (tmp_path / "never").exists()


def test_snippet_of_exactly_one_fft_window_embeds(wav_dataset, tmp_path):
    out = tmp_path / "run"
    assert run(["embed", *common(wav_dataset, out), "--snippet-seconds", "0.032"]) == 0
    assert len(ingest.read_embedding_dump(out / "audio.embd").entries) == 6


def test_dump_encoder_refuses_version_1_dump(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\na.wav,a,b,c,d,e\n")
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    # version 1 interleaved each id (u16 length, UTF-8) with its vector
    header = struct.pack("<4sIIQ", b"ACRE", 1, 2, 1)
    (dumps / "audio.embd").write_bytes(header + struct.pack("<H", 5) + b"a.wav" + np.ones(2, "<f4").tobytes())
    out = tmp_path / "out"
    assert run(["train", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: CorruptHeader: {dumps / 'audio.embd'}: dump version 1, expected 2; re-export it with acre embed"
    ]
    assert not out.exists()


def test_rank_prints_ordering(wav_dataset, wav_dumps, tmp_path, capsys):
    out, dump = tmp_path / "run", dump_encoder(wav_dumps)
    train = ["train", *common(wav_dataset, out, dump), "--epochs", "6", "--batch-size", "3", "--lr-max", "1e-2"]
    assert run(train) == 0
    capsys.readouterr()
    code = run(
        [
            "rank", *common(wav_dataset, tmp_path / "rankout", dump),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--query", "a tone of kind 2 sounds loud",
            "--top", "3",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split()[0] == "1"


def test_rank_scores_are_projected_cosines(wav_dataset, wav_dumps, tmp_path, capsys):
    emb, out = wav_dumps, tmp_path / "run"
    dump = dump_encoder(emb)
    assert run(["train", *common(wav_dataset, out, dump), "--epochs", "2", "--batch-size", "3"]) == 0
    capsys.readouterr()
    query = "a tone of kind 2 sounds loud"
    code = run(
        [
            "rank", *common(wav_dataset, tmp_path / "rankout", dump),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--query", query,
            "--top", "6",
        ]
    )
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
    printed = {clip_id: float(score) for _, score, clip_id in rows}

    ckpt = space.load_checkpoint(out / "checkpoint.ackp")
    audio = ingest.read_embedding_dump(emb / "audio.embd").as_dict()
    vocab = encoder.Vocabulary.default()
    params = encoder.EncoderParams(seed=derive_seed(5, "text-encoder"))
    q = encoder.text_encode(encoder.tokenize(encoder.normalize_text(query), vocab), params, len(vocab))
    q = space.project(q, ckpt.text_head)
    assert len(printed) == len(audio) == 6
    for clip_id, vec in audio.items():
        a = space.project(vec, ckpt.audio_head)
        cosine = a @ q / (np.linalg.norm(a) * np.linalg.norm(q))
        assert abs(printed[clip_id] - cosine) <= 5.1e-5  # printed to four decimals
    scores = [float(score) for _, score, _ in rows]
    assert scores == sorted(scores, reverse=True)


def test_rank_rejects_clip_without_audio_embedding(wav_dataset, wav_dumps, tmp_path, capsys):
    out, dump = tmp_path / "run", dump_encoder(wav_dumps)
    assert run(["train", *common(wav_dataset, out, dump), "--epochs", "1", "--batch-size", "3"]) == 0
    with open(wav_dataset["manifest"], "a", encoding="utf-8") as fh:
        fh.write("ghost.wav,a,b,c,d,e\n")
    capsys.readouterr()
    code = run(
        [
            "rank", *common(wav_dataset, tmp_path / "rankout", dump),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--query", "a tone",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: UsageError: no audio embedding for 'ghost.wav'\n"


def write_rank_inputs(tmp_path, rng, rows, dump_order, out_dim=8):
    """Writes a manifest of rows' clip ids, their audio dump and a checkpoint
    of random out_dim heads, and returns the rank argv over them. With
    dump_order "shuffled-with-extras", the dump holds three rows the manifest
    does not name too, in another order."""
    ids = list(rows)
    dim = len(rows[ids[0]])
    if dump_order != "manifest":
        rows = {**rows, **{f"extra{i}.wav": rng.normal(size=dim).astype(np.float32) for i in range(3)}}
        items = list(rows.items())
        rows = dict(items[k] for k in rng.permutation(len(items)))
    dumps = tmp_path / "dumps"
    ingest.write_embedding_dump(rows.items(), dumps / "audio.embd")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{i},a,b,c,d,e\n" for i in ids)
    )
    checkpoint = tmp_path / "checkpoint.ackp"
    heads = (space.ProjectionHead.initialize(d_in, out_dim, rng) for d_in in (dim, encoder.WIDTH))
    space.save_checkpoint(checkpoint, *heads)
    return ["rank", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--checkpoint", str(checkpoint)]


def rank_oracle(argv, ids, query):
    """retrieval.rank's result for the query over the clips ids, from the
    files argv names, as `rank --seed 5` would score them."""
    dumps = Path(argv[argv.index("--encoder") + 1].removeprefix("dump:"))
    ckpt = space.load_checkpoint(argv[argv.index("--checkpoint") + 1])
    audio = ingest.read_embedding_dump(dumps / "audio.embd").as_dict()
    index = retrieval.RetrievalIndex.build(ids, space.project(np.stack([audio[i] for i in ids]), ckpt.audio_head))
    [q] = encoder.text_vectors([query], 5)
    return retrieval.rank(space.project(q, ckpt.text_head), index)


def rank_lines(result, top):
    ranked = list(zip(result.ranked_ids, result.scores))[:top]
    return "".join(f"{k:>3}  {score:+.4f}  {clip_id}\n" for k, (clip_id, score) in enumerate(ranked, start=1))


@pytest.mark.parametrize("top", [3, 40], ids=["top-3", "top-past-the-clips"])
@pytest.mark.parametrize("dump_order", ["manifest", "shuffled-with-extras"])
def test_rank_prints_the_lines_of_the_rank_oracle(tmp_path, capsys, top, dump_order):
    rng = np.random.default_rng(29)
    ids = [f"clip{i:02d}.wav" for i in range(12)]
    rows = {clip_id: rng.normal(size=16).astype(np.float32) for clip_id in ids}
    rows["clip09.wav"] = rows["clip02.wav"].copy()  # an exact tie, broken by ascending id
    argv = write_rank_inputs(tmp_path, rng, rows, dump_order)
    query = "a tone of kind 2 sounds loud"
    assert run([*argv, "--seed", "5", "--query", query, "--top", str(top)]) == 0

    result = rank_oracle(argv, ids, query)
    tied = result.ranked_ids.index("clip02.wav")
    assert result.ranked_ids[tied + 1] == "clip09.wav" and result.scores[tied] == result.scores[tied + 1]
    expected = rank_lines(result, top)
    assert capsys.readouterr().out == expected
    assert len(expected.splitlines()) == min(top, len(ids))


@pytest.mark.parametrize("top", ["1", "through-the-tie", "past-the-clips"])
@pytest.mark.parametrize("dump_order", ["manifest", "shuffled-with-extras"])
def test_rank_in_many_blocks_prints_the_lines_of_the_rank_oracle(tmp_path, capsys, monkeypatch, top, dump_order):
    # blocks of 4, 4, 4, 4 and 7 rows; ties inside the last block, across a
    # block boundary and across three blocks, in manifest positions whose ids
    # do not sort in manifest order
    monkeypatch.setattr(retrieval, "RANK_BLOCK", 4)
    rng = np.random.default_rng(34)
    ids = [f"clip{i:02d}.wav" for i in rng.permutation(23)]
    rows = {clip_id: rng.normal(size=16).astype(np.float32) for clip_id in ids}
    for copies in ((3, 4), (1, 9, 18, 21)):
        for position in copies[1:]:
            rows[ids[position]] = rows[ids[copies[0]]].copy()
    argv = write_rank_inputs(tmp_path, rng, rows, dump_order)
    query = "a tone of kind 2 sounds loud"
    result = rank_oracle(argv, ids, query)
    group = sorted(ids[position] for position in (1, 9, 18, 21))
    first = result.ranked_ids.index(group[0])
    assert result.ranked_ids[first : first + 4] == tuple(group)
    assert len(set(result.scores[first : first + 4].tolist())) == 1
    k = {"1": 1, "through-the-tie": first + 2, "past-the-clips": 40}[top]
    assert run([*argv, "--seed", "5", "--query", query, "--top", str(k)]) == 0
    assert capsys.readouterr().out == rank_lines(result, k)


@pytest.mark.parametrize(
    "zero, message",
    [
        ("audio-head", "clip 'clip05.wav' projects to a zero vector under the audio head"),
        ("row-in-a-later-block", "clip 'clip02.wav' projects to a zero vector under the audio head"),
        ("text-head", "the query projects to a zero vector under the text head"),
    ],
)
def test_rank_names_the_input_that_projects_to_zero(tmp_path, capsys, monkeypatch, zero, message):
    monkeypatch.setattr(retrieval, "RANK_BLOCK", 4)
    rng = np.random.default_rng(35)
    ids = [f"clip{i:02d}.wav" for i in (5, 3, 8, 0, 7, 1, 6, 2, 4)]
    rows = {clip_id: rng.normal(size=16).astype(np.float32) for clip_id in ids}
    rows["clip02.wav"] = rows["clip04.wav"] = np.zeros(16, np.float32)  # the 8th and 9th rows: the second block
    argv = write_rank_inputs(tmp_path, rng, rows, "manifest")
    ckpt = space.load_checkpoint(argv[-1])
    heads = {"audio": ckpt.audio_head, "text": ckpt.text_head}
    if zero == "row-in-a-later-block":  # with no bias, a zero row projects to zero
        heads["audio"] = space.ProjectionHead(ckpt.audio_head.weight, np.zeros(8))
    else:
        kind = zero.removesuffix("-head")
        heads[kind] = space.ProjectionHead(np.zeros_like(heads[kind].weight), np.zeros(8))
    space.save_checkpoint(argv[-1], heads["audio"], heads["text"])
    assert run([*argv, "--query", "a tone"]) == 2
    assert capsys.readouterr() == ("", f"error: ZeroNormVector: {message}\n")


@pytest.mark.parametrize(
    "kind, zero, message",
    [
        ("audio", "head", "clip 'clip05.wav' projects to a zero vector under the audio head"),
        ("audio", "rows", "clip 'clip02.wav' projects to a zero vector under the audio head"),
        ("text", "head", "query 'clip00.wav#0' projects to a zero vector under the text head"),
        ("text", "rows", "query 'clip03.wav#4' projects to a zero vector under the text head"),
    ],
    ids=["audio-head", "audio-rows-in-a-later-block", "text-head", "caption-rows-out-of-query-id-order"],
)
def test_evaluate_names_the_input_that_projects_to_zero(tmp_path, capsys, monkeypatch, kind, zero, message):
    monkeypatch.setattr(retrieval, "RANK_BLOCK", 4)
    monkeypatch.setattr(retrieval, "EVAL_BLOCK", 4)
    rng = np.random.default_rng(37)
    ids = [f"clip{i:02d}.wav" for i in (5, 3, 8, 0, 7, 1, 6, 2, 4)]
    audio = {clip_id: rng.normal(size=16).astype(np.float32) for clip_id in ids}
    captions = {f"{clip_id}#{k}": rng.normal(size=12).astype(np.float32) for clip_id in ids for k in range(5)}
    audio["clip02.wav"] = audio["clip04.wav"] = np.zeros(16, np.float32)  # the 8th and 9th clips: the second block
    # rows 1 and 9 of the captions; in query-id order, 'clip03.wav#4' (the 20th query) comes first
    captions["clip05.wav#1"] = captions["clip03.wav#4"] = np.zeros(12, np.float32)
    dumps = tmp_path / "dumps"
    ingest.write_embedding_dump(audio.items(), dumps / "audio.embd")
    ingest.write_embedding_dump(captions.items(), dumps / "captions.embd")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{i},a,b,c,d,e\n" for i in ids)
    )
    heads = {"audio": space.ProjectionHead.initialize(16, 8, rng), "text": space.ProjectionHead.initialize(12, 8, rng)}
    weight = heads[kind].weight if zero == "rows" else np.zeros_like(heads[kind].weight)
    heads[kind] = space.ProjectionHead(weight, np.zeros(8))  # with no bias, a zero row projects to zero
    space.save_checkpoint(tmp_path / "checkpoint.ackp", heads["audio"], heads["text"])
    argv = ["evaluate", "--manifest", str(manifest), *dump_encoder(dumps)]
    argv += ["--checkpoint", str(tmp_path / "checkpoint.ackp"), "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: ZeroNormVector: {message}\n")
    assert not (tmp_path / "out").exists()


def test_rank_prints_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    rng = np.random.default_rng(36)
    n = 3 * retrieval.RANK_BLOCK + 37
    ids = [f"c{i:04d}.wav" for i in range(n)]
    rows = {clip_id: rng.normal(size=256).astype(np.float32) for clip_id in ids}
    argv = write_rank_inputs(tmp_path, rng, rows, "manifest", out_dim=1024)
    outs, cores = [], []
    for threads in ("1", "2"):
        out, core = run_at_blas_threads(threads, "-m", "acre.cli", *argv, "--query", "a loud tone", "--top", str(n))
        outs.append(out)
        cores.append(core)
    assert len(outs[0].splitlines()) == n
    assert outs[0] == outs[1], f"OpenBLAS core {cores[0]}"


def test_rank_holds_less_than_the_projected_corpus(tmp_path):
    n, out_dim = 8192, 512
    rng = np.random.default_rng(37)
    rows = {f"c{i:05d}.wav": rng.normal(size=32).astype(np.float32) for i in range(n)}
    argv = write_rank_inputs(tmp_path, rng, rows, "manifest", out_dim=out_dim)
    code, peak = traced_peak(lambda: run([*argv, "--query", "a loud tone"]))
    assert code == 0
    assert peak < n * out_dim * 8, peak


@pytest.mark.parametrize("top", ["0", "-3"])
def test_rank_rejects_top_below_one(wav_dataset, tmp_path, capsys, top):
    code = run(
        [
            "rank", *common(wav_dataset, tmp_path / "rankout"),
            "--checkpoint", str(tmp_path / "unused.ackp"),
            "--query", "a tone",
            "--top", top,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "--top" in err


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "1"]) == 0
    *shapes, verdict = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in shapes] == [f"gradcheck shape={s}" for s in cli.GRADCHECK_SHAPES]
    assert "PASS" in verdict


@pytest.mark.parametrize(
    "argv", [["embed", "--patchout"], ["gradcheck", "--shapes", "8x16x12"]], ids=["patchout", "gradcheck-shapes"]
)
def test_removed_flags_are_argument_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"acre: error: unrecognized arguments: {' '.join(argv[1:])}"


def test_gradcheck_perturbed_fails(monkeypatch, capsys):
    monkeypatch.setattr(space, "gradient_check", lambda seed, shape: 1e-2)
    assert run(["gradcheck", "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_file_with_flag_override(wav_dataset, wav_dumps, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "# demo config",
                f"manifest = {wav_dataset['manifest']}",
                f"encoder = dump:{wav_dumps}",
                "seed = 9",
                "epochs = 1",
                "batch_size = 3",
                f"out = {tmp_path / 'from_config'}",
            ]
        )
    )
    assert run(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "checkpoint.ackp").exists()
    # flags win over the config file
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "flag_out")]) == 0
    assert (tmp_path / "flag_out" / "checkpoint.ackp").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("lr = 5.0", "line 2: unknown key 'lr'"),
        ("top = 3", "line 2: unknown key 'top'"),
        ("strict = ture", "line 2: strict must be one of 1/true/yes/on/0/false/no/off, got 'ture'"),
        ("lr_max = abc", "line 2: lr_max must be float, got 'abc'"),
        ("seed = 1.5", "line 2: seed must be int, got '1.5'"),
        ("whiten = 1", "line 2: whiten must be finite 'mean,std' with std > 0, got '1'"),
        ("encoder = gpu", "line 2: encoder must be 'dump:<dir>', got 'gpu'"),
        ("encoder = toy", "line 2: encoder must be 'dump:<dir>', got 'toy'"),
        ("patchout = yes", "line 2: unknown key 'patchout'"),
        ("epochs = 2", "line 2: epochs already set on line 1"),
    ],
)
def test_config_file_rejects_unknown_key_and_bad_switch(wav_dataset, tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epochs = 1\n{line}\n")
    code = run(
        [
            "rank", "--config", str(cfg), *common(wav_dataset, tmp_path / "x"),
            "--checkpoint", str(tmp_path / "unused.ackp"),
            "--query", "a tone",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: UsageError: {cfg}: {message}\n"


def test_nul_byte_in_a_manifest_file_name_is_one_error_line(wav_dataset, tmp_path, capsys):
    manifest = tmp_path / "nul.csv"
    manifest.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\nclip\x000.wav,a,b,c,d,e\n")
    out = tmp_path / "run"
    args = ["embed", "--manifest", str(manifest), "--audio-dir", str(wav_dataset["audio_dir"]), "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: IngestError: {manifest}: row 2: file_name 'clip\\x000.wav' holds a NUL byte\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("audio_dir", "au\0dio"), ("manifest", "a.csv,b\0.csv"), ("encoder", "dump:e\0")])
def test_nul_byte_in_a_config_path_is_a_usage_error_naming_the_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run(["embed", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    nul = repr(value.removeprefix("dump:").split(",")[-1])
    assert capsys.readouterr().err == f"error: UsageError: {cfg}: line 1: {key} must not hold a NUL byte, got {nul}\n"
    assert not (tmp_path / "x").exists()


def test_nul_byte_in_a_path_flag_is_an_argument_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["embed", "--out", "ru\0n"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "acre embed: error: argument --out: must not hold a NUL byte, got 'ru\\x00n'"
    )


def test_config_file_switch_words(tmp_path):
    cfg = tmp_path / "run.cfg"
    for word, value in (("Off", False), ("YES", True)):
        cfg.write_text(f"strict = {word}\n")
        assert settings_for(["embed", "--config", str(cfg)]).strict is value


def settings_for(argv):
    return cli._build_settings(cli.build_parser().parse_args(argv))


# one value per setting, none of them the default; a switch is "yes"
SETTING_VALUES = {
    "manifest": "a.csv,b.csv",
    "audio_dir": "audio",
    "augmented_captions": "variants.jsonl",
    "encoder": "dump:emb",
    "preset": "passt-s",
    "epochs": "3",
    "seed": "7",
    "out": "runs/x",
    "strict": "yes",
    "checkpoint": "runs/c.ackp",
    "batch_size": "8",
    "lr_max": "1e-3",
    "lr_min": "1e-6",
    "finetune_lr_max": "5e-4",
    "swap_prob": "0.5",
    "temperature": "0.5",
    "out_dim": "32",
    "warmup_epochs": "2",
    "snippet_seconds": "10",
    "whiten": "0.5,2",
}


@pytest.mark.parametrize(
    "command", [["embed"], ["train"], ["finetune"], ["evaluate"], ["rank", "--query", "q"]], ids=lambda argv: argv[0]
)
def test_config_line_parses_like_its_flag(tmp_path, command):
    assert set(SETTING_VALUES) == {s.key for s in cli.SETTINGS}
    default = settings_for(command)
    cfg = tmp_path / "run.cfg"
    for key, value in SETTING_VALUES.items():
        cfg.write_text(f"{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        from_flag = settings_for([*command, flag] if value == "yes" else [*command, flag, value])
        from_config = settings_for([*command, "--config", str(cfg)])
        assert from_config == from_flag != default, key


def test_flags_replace_config_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("manifest = a.csv, b.csv\nout = runs/x\n")
    from_config = settings_for(["train", "--config", str(cfg)])
    assert from_config.manifest == [Path("a.csv"), Path("b.csv")] and from_config.out == Path("runs/x")
    flags = settings_for(["train", "--config", str(cfg), "--manifest", "c.csv", "--manifest", "d.csv", "--out", ""])
    assert flags.manifest == [Path("c.csv"), Path("d.csv")]
    assert flags.out is None  # an empty value means unset, not the working directory


@pytest.mark.parametrize("command", ["train", "train-dump", "evaluate", "rank"])
def test_header_only_manifest_is_input_error(wav_dataset, wav_dumps, tmp_path, capsys, command):
    ckpt = tmp_path / "run" / "checkpoint.ackp"
    train = ["train", *common(wav_dataset, ckpt.parent, dump_encoder(wav_dumps)), "--epochs", "0", "--batch-size", "3"]
    assert run(train) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n\n")
    extra = {
        "train": [],
        "train-dump": ["--encoder", f"dump:{tmp_path / 'no-dumps'}"],
        "evaluate": ["--checkpoint", str(ckpt)],
        "rank": ["--checkpoint", str(ckpt), "--query", "a tone"],
    }[command]
    capsys.readouterr()
    code = run([command.split("-")[0], "--manifest", str(empty), "--out", str(tmp_path / "out"), *extra])
    assert code == 2
    assert capsys.readouterr().err == f"error: IngestError: {empty}: no clip rows after the header\n"


def test_unknown_preset_is_input_error(wav_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = resnet\n")
    code = run(["embed", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "preset" in capsys.readouterr().err


def test_train_config_error_names_both_values(tmp_path, capsys):
    # lr_min is never given: its default must show, next to the lr_max that was
    code = run(["train", "--lr-max", "1e-8", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == "error: ValueError: lr_min (1e-07) must be below lr_max (1e-08)\n"


def test_finetune_rejects_inverted_schedule(wav_dataset, tmp_path, capsys):
    code = run(
        [
            "finetune", *common(wav_dataset, tmp_path / "ft"),
            "--finetune-lr-max", "1e-8", "--epochs", "1", "--batch-size", "3",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: ValueError: lr_min (1e-07) must be below finetune_lr_max (1e-08)\n"
    assert not (tmp_path / "ft" / "checkpoint.ackp").exists()


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("finetune", ["--finetune-lr-max", "1e-8"], "lr_min (1e-07) must be below finetune_lr_max (1e-08)"),
        ("train", ["--epochs", "1", "--warmup-epochs", "5"], "warmup_epochs (5) must not exceed pretrain_epochs (1)"),
        ("finetune", ["--strict"], "MissingAugmentation: finetune --strict requires variants.embd in the --encoder"),
        ("train", ["--checkpoint", "{tmp}/nope.ackp"], "{tmp}/nope.ackp"),
        ("finetune", ["--checkpoint", "{tmp}/v1.ackp"], "SpaceError: {tmp}/v1.ackp: unsupported checkpoint version 1"),
        ("train", ["--temperature", "nan"], "ValueError: temperature must be finite, got nan"),
        ("train", ["--lr-max", "inf"], "ValueError: lr_max must be finite, got inf"),
    ],
    ids=[
        "inverted-schedule", "warmup-beyond-epochs", "strict-without-variants", "missing-checkpoint", "v1-checkpoint",
        "nan-temperature", "inf-lr-max",
    ],
)
def test_training_config_errors_come_before_any_audio_is_read(tmp_path, capsys, command, extra, message):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("file_name,caption_1,caption_2,caption_3,caption_4,caption_5\nabsent.wav,a,b,c,d,e\n")
    write_v1_checkpoint(tmp_path / "v1.ackp")
    args = ["--manifest", str(manifest), "--out", str(tmp_path / "out"), *(a.format(tmp=tmp_path) for a in extra)]
    assert run([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message.format(tmp=tmp_path) in err and "absent.wav" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "lr_max, last_line",
    [
        ("abc", "acre train: error: argument --lr-max: invalid float value: 'abc'"),
        ("1e-8", "error: ValueError: lr_min (1e-07) must be below lr_max (1e-08)"),
    ],
    ids=["unparseable", "out-of-range"],
)
def test_python_m_acre_cli_prints_no_runtime_warning(tmp_path, lr_max, last_line):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "acre.cli", "train", "--lr-max", lr_max],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.splitlines()[-1] == last_line


def test_embed_rejects_dump_encoder(wav_dataset, tmp_path, capsys):
    code = run(["embed", *common(wav_dataset, tmp_path / "x"), "--encoder", "dump:/tmp/nowhere"])
    assert code == 2
    assert capsys.readouterr().err == "error: UsageError: embed runs the encoders and writes dumps; it takes no --encoder\n"
    assert not (tmp_path / "x").exists()
