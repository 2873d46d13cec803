"""acre embed's encoder work, run on one worker process per CPU.

``embed`` starts n = min(CPUs, clips) workers, each a fresh interpreter at one
BLAS thread running ``serve``, and gives worker w the clips and the texts at
positions w, w + n, w + 2n, ... (its ``Share``). One pickle per message goes
over each worker's stdin and stdout:

1. parent -> worker: the share.
2. Unless the whitening statistics are given, worker -> parent: the cell sums
   of each of its clips' log-mels (``dsp.cell_sums``). The worker has spilled
   the log-mels to one unlinked temp file, and encodes its texts while the
   parent adds the sums in manifest order (``dsp.stats_from_sums``) and
   sends the statistics back.
3. worker -> parent: its audio and text vectors, which the parent puts back
   in manifest and text order.

A worker stops at its first failure and replies with it instead, so the
lowest failing manifest position among the replies is the failure a single
process would have met first; the parent re-raises it there. Every vector
depends on its own clip or text alone, and every worker runs one BLAS thread,
so the bytes depend on neither the CPU count nor the BLAS thread count.

Workers start with ``python -c``, not multiprocessing's spawn, which would
re-import the caller's ``__main__``. This module does not import acre.cli, so
a worker imports numpy and the encoders only. A worker exits when its stdin
ends, so a parent that is killed leaves none running.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import pickle
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dsp, encoder, ingest
from .seeding import derive_seed

# acre's own src directory goes first on the worker's path, so the worker
# imports the same acre as its parent
WORKER_CODE = (
    f"import sys; sys.path.insert(0, {str(Path(__file__).absolute().parents[1])!r}); "
    "from acre.embedding import serve; serve()"
)


class Share(NamedTuple):
    """The inputs of one embed, or the part of them one worker encodes.
    whiten is None when the statistics come from the clips themselves."""

    seed: int
    preset: encoder.PatchGeometry
    snippet_seconds: float
    whiten: dsp.WhiteningStats | None
    clips: list[tuple[str, Path]]  # (clip id, audio path)
    texts: list[str]


class ClipFailed(Exception):
    """Raised from the exception of the share's clip at position ``args[0]``."""


class WorkerTraceback(Exception):
    """A worker's formatted traceback: the cause of its exception's re-raise here."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


@contextlib.contextmanager
def _clip(k: int):
    try:
        yield
    except Exception as exc:
        raise ClipFailed(k) from exc


def run_share(share: Share, channel: _Channel | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A share's audio and text vectors, rows in share order.

    One log-mel is held at a time. With share.whiten given, each clip is
    encoded as soon as its log-mel exists. Without it, pass 1 appends each
    log-mel's float64 bytes to one unlinked temp file (102 KB per second of
    audio, in tempfile.gettempdir()) while channel trades their cell sums for
    the statistics; pass 2 reads each log-mel back and encodes it. The file
    goes when the share ends or the worker dies.
    """
    params = encoder.EncoderParams(seed=derive_seed(share.seed, "audio-encoder"))
    seg_frames = dsp.seconds_to_frames(share.preset.max_input_seconds)

    def log_mel(clip_id: str, path: Path) -> dsp.Spectrogram:
        rng = np.random.default_rng(derive_seed(share.seed, f"snippet:{clip_id}"))
        try:  # no waveform outlives its log-mel into the next clip's decode
            return dsp.logmel(ingest.read_wav(path, share.snippet_seconds, rng))
        except dsp.DspError as exc:  # the same kind, naming the clip among thousands
            raise type(exc)(f"{path}: {exc}") from None

    def encode(spec: dsp.Spectrogram, stats: dsp.WhiteningStats) -> np.ndarray:
        return encoder.embed_long_audio(dsp.whiten(spec, stats), seg_frames, share.preset, params)

    audio = np.empty((len(share.clips), encoder.WIDTH), dtype=np.float32)
    if share.whiten is not None:
        texts = encoder.text_vectors(share.texts, share.seed)
        for k, clip in enumerate(share.clips):
            with _clip(k):
                audio[k] = encode(log_mel(*clip), share.whiten)
        return audio, texts
    with _spilling():
        spill = tempfile.TemporaryFile()
    with spill:
        sums, frames = [], []
        for k, clip in enumerate(share.clips):
            with _clip(k):
                spec = log_mel(*clip)
            sums.append(dsp.cell_sums(spec))
            frames.append(spec.frames)
            with _spilling():
                spill.write(spec.values)
            del spec  # else it sits beside the next clip's decode
        channel.send(sums)
        texts = encoder.text_vectors(share.texts, share.seed)
        stats = channel.receive()
        with _spilling():
            spill.seek(0)
        for k, n in enumerate(frames):
            spec = _read_back(spill, n)
            with _clip(k):
                audio[k] = encode(spec, stats)
            del spec
    return audio, texts


@contextlib.contextmanager
def _spilling():
    """An OSError of the spill, raised again naming the directory it is in."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, f"log-mel spill in {tempfile.gettempdir()}: {exc.strerror or exc}") from exc


def _read_back(spill, frames: int) -> dsp.Spectrogram:
    """The next log-mel of frames frames in spill; a short read is an error."""
    values = np.empty((frames, dsp.N_MELS))
    with _spilling():
        got = spill.readinto(values)
        if got != values.nbytes:
            raise OSError(errno.EIO, f"read {got} of the {values.nbytes} bytes of a log-mel")
    return dsp.Spectrogram(values)


class _Channel:
    """A worker's end of the pipes: pickles in on stdin, and out on stdout as
    (failure, value) pairs. The parent is gone when either pipe closes, and the
    worker then exits."""

    def __init__(self):
        self.inbox = sys.stdin.buffer
        self.outbox = os.fdopen(os.dup(1), "wb")
        os.dup2(2, 1)  # a stray print goes to stderr, not into a reply

    def send(self, value, failure: tuple | None = None) -> None:
        try:
            pickle.dump((failure, value), self.outbox, protocol=pickle.HIGHEST_PROTOCOL)
            self.outbox.flush()
        except BrokenPipeError:
            os._exit(0)

    def receive(self):
        try:
            return pickle.load(self.inbox)
        except EOFError:
            os._exit(0)


def serve() -> None:
    """A worker's main: run the share read from stdin, and reply with its
    vectors, or with its first failure, that failure's share position (None
    outside the clips) and its formatted traceback."""
    channel = _Channel()
    share = channel.receive()
    try:
        vectors = run_share(share, channel)
    except Exception as exc:
        k, failure = (exc.args[0], exc.__cause__) if isinstance(exc, ClipFailed) else (None, exc)
        channel.send(None, (k, failure, "".join(traceback.format_exception(failure))))
    else:
        channel.send(vectors)


def _send(worker: subprocess.Popen, message) -> None:
    try:
        pickle.dump(message, worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        worker.stdin.flush()
    except BrokenPipeError:  # not an OSError of the input's: the worker died
        raise RuntimeError(f"embed worker {worker.pid} exited with code {worker.wait()} before reading") from None


def _replies(workers: list[subprocess.Popen]) -> list:
    """One value from each worker, or the failure first in manifest order."""
    failures, values = [], []
    for worker in workers:
        try:
            failure, value = pickle.load(worker.stdout)
        except EOFError:
            raise RuntimeError(f"embed worker {worker.pid} exited with code {worker.wait()} before replying") from None
        failures.append(failure)
        values.append(value)
    n = len(workers)
    failed = [(math.inf if f[0] is None else w + f[0] * n, w) for w, f in enumerate(failures) if f is not None]
    if failed:
        _, failure, formatted = failures[min(failed)[1]]
        raise failure from WorkerTraceback(formatted)
    return values


@contextlib.contextmanager
def _workers(n: int):
    """n started workers; none is left running when the block ends."""
    # one BLAS thread under OpenBLAS, MKL, Accelerate and any OpenMP build
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    env = {**os.environ, **dict.fromkeys(threads, "1")}
    workers = []
    try:
        for _ in range(n):
            workers.append(subprocess.Popen(
                [sys.executable, "-c", WORKER_CODE], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env))
        yield workers
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    finally:
        for worker in workers:
            with contextlib.suppress(BrokenPipeError):  # a dead worker's unsent input
                worker.stdin.close()
            worker.stdout.close()
            worker.wait()


def _cpus() -> int:
    """The CPUs this process may run on; all of them where the OS cannot say (not Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def embed(job: Share) -> tuple[np.ndarray, np.ndarray, dsp.WhiteningStats]:
    """The audio vectors (a row per clip) and text vectors (a row per text) of
    job, and the whitening statistics they used, from one worker per CPU."""
    n = min(_cpus(), len(job.clips))
    with _workers(n) as workers:
        for w, worker in enumerate(workers):
            _send(worker, job._replace(clips=job.clips[w::n], texts=job.texts[w::n]))
        stats = job.whiten
        if stats is None:
            sums = _replies(workers)
            stats = dsp.stats_from_sums(sums[p % n][p // n] for p in range(len(job.clips)))
            for worker in workers:
                _send(worker, stats)
        vectors = _replies(workers)
    audio = np.empty((len(job.clips), encoder.WIDTH), dtype=np.float32)
    texts = np.empty((len(job.texts), encoder.WIDTH), dtype=np.float32)
    for w, (audio_rows, text_rows) in enumerate(vectors):
        audio[w::n], texts[w::n] = audio_rows, text_rows
    return audio, texts, stats
