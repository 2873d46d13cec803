"""Dataset and file-format layer: caption manifests, augmented captions, WAV audio,
and the binary embedding-dump container.

External formats
----------------
Manifest CSV (UTF-8, quoted fields allowed; a leading byte-order mark is
skipped, as it is in the augmented-captions file)::

    file_name,caption_1,caption_2,caption_3,caption_4,caption_5

One row per clip; the file name doubles as the clip id; other columns are
ignored.

Augmented captions: UTF-8 JSON lines, one record per line::

    {"clip_id": "...", "caption_index": 0, "variants": ["...", ...5 non-blank strings]}

WAV audio: RIFF/WAVE with a ``fmt `` chunk for 16-bit PCM or 32-bit IEEE
float (plain or WAVE_FORMAT_EXTENSIBLE), any channel count, and a ``data``
chunk. read_wav finds the two by seeking from chunk header to chunk header,
so other chunks may come before, between or after them, and it never holds
the file's bytes: it reads one block of at most MIX_BYTES at a time, and only
the snippet it is asked for (float files are read whole once, in blocks, to
check that every sample is finite).

Embedding dump (binary, little-endian): magic ``ACRE``, version u32=3,
dim u32, count u64 (neither zero), then one count x dim block of 32-bit floats
from byte 20, then the id block to the end of the file: each id's UTF-8 bytes
and one NUL byte, in row order. Round-trips bit-exactly. A DumpReader checks
the header and the id block when it opens a dump, and each row as it reads it.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Waveform, snippet_window

CAPTIONS_PER_CLIP = 5
VARIANTS_PER_CAPTION = 5

_REQUIRED_COLUMNS = ("file_name", "caption_1", "caption_2", "caption_3", "caption_4", "caption_5")

DUMP_MAGIC = b"ACRE"
_DUMP_VERSION = 3
_HEADER = struct.Struct("<4sIIQ")

# read_wav mixes MIX_BLOCK frames at a time, fewer past 8 channels: its raw and
# float64 scratch is one block of at most MIX_BYTES, whatever a header's channel count
MIX_BLOCK = 1 << 14
MIX_BYTES = 1 << 20


class IngestError(Exception):
    pass


class MissingColumn(IngestError):
    pass


class DuplicateClipId(IngestError):
    pass


class WrongCaptionCount(IngestError):
    pass


class VariantCountMismatch(IngestError):
    pass


class UnsupportedEncoding(IngestError):
    pass


class CorruptHeader(IngestError):
    pass


class DimMismatch(IngestError):
    pass


class NonFiniteValue(IngestError):
    pass


class BadMagic(IngestError):
    pass


class TruncatedFile(IngestError):
    pass


@dataclass(frozen=True)
class ClipRecord:
    """A manifest row: its clip id, the directory its audio file is in, and its captions."""

    clip_id: str
    audio_dir: Path
    captions: tuple[str, ...]

    @property
    def audio_path(self) -> Path:
        """The clip's audio file, joined when asked: only embed opens it."""
        return self.audio_dir / self.clip_id


@dataclass(frozen=True)
class AugmentedCaptionSet:
    clip_id: str
    caption_index: int
    variants: tuple[str, ...]


@dataclass(frozen=True)
class EmbeddingDump:
    """A dump's ids in row order and its read-only (count, dim) float32 matrix.
    acre itself reads the two fields; ``dim``, ``entries`` and ``as_dict()``
    have no caller in src/acre and are kept as perfbench's read API."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def entries(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(id, row) pairs in row order; each row is a view of the matrix."""
        return tuple(zip(self.ids, self.matrix))

    def as_dict(self) -> dict[str, np.ndarray]:
        return dict(zip(self.ids, self.matrix))


def open_text(path) -> io.TextIOWrapper:
    """A UTF-8 text file opened as open(path, newline="") would, a leading byte-order mark skipped.
    It is decoded whole first, so bytes that are not UTF-8 are an IngestError
    naming the file and the line, raised here rather than from a later read."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the input after any byte-order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise IngestError(f"{path}: line {line}: not UTF-8 (byte {exc.object[exc.start]:#04x}: {exc.reason})") from None
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


def load_manifest(path, audio_dir=None) -> list[ClipRecord]:
    """Parse a manifest CSV into ClipRecords, preserving row order.

    Audio paths resolve against audio_dir when given, else against the
    manifest's own directory. Every malformed row raises with its line number;
    nothing is dropped silently, and a manifest without clip rows raises.
    """
    path = Path(path)
    base = Path(audio_dir) if audio_dir is not None else path.parent
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise MissingColumn(f"{path}: empty manifest")
    header = [name.strip() for name in rows[0]]
    col = {name: i for i, name in enumerate(header)}
    for name in _REQUIRED_COLUMNS:
        if name not in col:
            raise MissingColumn(f"{path}: missing column {name!r}")
        if header.count(name) > 1:  # col keeps the last one; which of them is meant is unknown
            raise IngestError(f"{path}: line 1: column {name!r} appears more than once")
    name_idx = col["file_name"]
    caption_cells = operator.itemgetter(*(col[f"caption_{k + 1}"] for k in range(CAPTIONS_PER_CLIP)))

    records: list[ClipRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        clip_id = row[name_idx].strip() if name_idx < len(row) else ""
        if not clip_id:
            raise MissingColumn(f"{path}: row {lineno}: empty file_name")
        if "\0" in clip_id:  # open() would refuse it, naming neither the manifest nor the row
            raise IngestError(f"{path}: row {lineno}: file_name {clip_id!r} holds a NUL byte")
        if clip_id in seen:
            raise DuplicateClipId(f"{path}: row {lineno}: duplicate clip id {clip_id!r}")
        seen.add(clip_id)
        try:
            captions = caption_cells(row)
        except IndexError:  # a short row
            captions = ()
        if not (captions and all(map(str.strip, captions))):
            raise WrongCaptionCount(
                f"{path}: row {lineno} (clip {clip_id!r}): expected {CAPTIONS_PER_CLIP} non-empty captions"
            )
        records.append(ClipRecord(clip_id, base, captions))
    if not records:
        raise IngestError(f"{path}: no clip rows after the header")
    return records


def load_augmented_captions(path) -> list[AugmentedCaptionSet]:
    """Parse a JSON-lines augmented-captions file.

    Clip ids are not checked against any manifest here; that validation
    belongs to the caller that has one.
    """
    path = Path(path)
    sets: list[AugmentedCaptionSet] = []
    seen: set[tuple[str, int]] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer past 4300 digits, deep nesting
                raise IngestError(f"{path}: line {lineno}: invalid JSON record: {exc}") from None
            if not isinstance(rec, dict):
                raise IngestError(f"{path}: line {lineno}: record must be a JSON object, got {type(rec).__name__}")
            for key in ("clip_id", "caption_index", "variants"):
                if key not in rec:
                    raise IngestError(f"{path}: line {lineno}: missing key {key!r}")
            clip_id, caption_index, variants = rec["clip_id"], rec["caption_index"], rec["variants"]
            if not isinstance(clip_id, str):
                raise IngestError(f"{path}: line {lineno}: clip_id must be a string, got {clip_id!r}")
            if type(caption_index) is not int:  # a JSON integer: not 1.7, "1" or true
                raise IngestError(f"{path}: line {lineno}: caption_index must be an integer, got {caption_index!r}")
            if not isinstance(variants, list) or len(variants) != VARIANTS_PER_CAPTION:
                got = len(variants) if isinstance(variants, list) else type(variants).__name__
                raise VariantCountMismatch(
                    f"{path}: line {lineno} (clip {clip_id!r}): expected {VARIANTS_PER_CAPTION} variants, got {got}"
                )
            if not 0 <= caption_index < CAPTIONS_PER_CLIP:
                raise IngestError(f"{path}: line {lineno}: caption_index {caption_index} outside 0..4")
            for j, variant in enumerate(variants):
                if not isinstance(variant, str) or not variant.strip():
                    raise IngestError(
                        f"{path}: line {lineno} (clip {clip_id!r}): variant {j} must be a non-blank string, "
                        f"got {variant!r}"
                    )
            key = (clip_id, caption_index)
            if key in seen:
                raise IngestError(f"{path}: line {lineno}: duplicate (clip_id, caption_index) {key!r}")
            seen.add(key)
            sets.append(AugmentedCaptionSet(clip_id, caption_index, tuple(variants)))
    return sets


def _wav_layout(path: Path, fh) -> tuple[np.dtype, int, int, int, int]:
    """(sample dtype, channels, rate, data offset, frame count) of an open
    RIFF/WAVE file, found by seeking from chunk header to chunk header.

    Every declared chunk size is checked against the file's size. Of several
    fmt or data chunks the last one counts, and fewer than 8 trailing bytes
    are ignored.
    """
    end = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise CorruptHeader(f"{path}: not a RIFF/WAVE file")
    chunks = {}  # chunk id -> (body offset, body size), for fmt and data
    pos = 12
    while pos + 8 <= end:
        fh.seek(pos)
        chunk_id, size = struct.unpack("<4sI", fh.read(8))
        if pos + 8 + size > end:
            raise CorruptHeader(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id in (b"fmt ", b"data"):
            chunks[chunk_id] = (pos + 8, size)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if b"fmt " not in chunks:
        raise CorruptHeader(f"{path}: no fmt chunk")
    if b"data" not in chunks:
        raise CorruptHeader(f"{path}: no data chunk")
    fmt_at, fmt_size = chunks[b"fmt "]
    if fmt_size < 16:
        raise CorruptHeader(f"{path}: fmt chunk too small ({fmt_size} bytes)")
    fh.seek(fmt_at)
    fmt = fh.read(min(fmt_size, 26))

    code, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if code == 0xFFFE:  # extensible: the real code sits in the sub-format GUID
        if fmt_size < 26:
            raise CorruptHeader(f"{path}: extensible fmt chunk too small")
        (code,) = struct.unpack_from("<H", fmt, 24)
    if channels < 1 or rate < 1:
        raise CorruptHeader(f"{path}: invalid fmt fields (channels={channels}, rate={rate})")

    if code == 1 and bits == 16:
        dtype = np.dtype("<i2")
    elif code == 3 and bits == 32:
        dtype = np.dtype("<f4")
    else:
        raise UnsupportedEncoding(
            f"{path}: unsupported encoding (format code {code}, {bits}-bit); "
            "only 16-bit PCM and 32-bit IEEE float are handled"
        )

    data_at, data_size = chunks[b"data"]
    frame_bytes = channels * dtype.itemsize
    if data_size % frame_bytes != 0:
        raise CorruptHeader(f"{path}: data size {data_size} not a multiple of frame size {frame_bytes}")
    return dtype, channels, rate, data_at, data_size // frame_bytes


def read_wav(path, max_seconds: float | None = None, rng: np.random.Generator | None = None) -> Waveform:
    """Decode a RIFF/WAVE file to a mono waveform in [-1, 1].

    Accepts 16-bit PCM and 32-bit IEEE float (plain or WAVE_FORMAT_EXTENSIBLE);
    multichannel input is averaged to mono. Integer samples are scaled by
    1/32768, the symmetric-range convention, so int16 -32768 maps to -1.0
    exactly. Float samples must be finite (NonFiniteValue otherwise, naming the
    largest |sample|, NaN if one is NaN); finite overshoot past +-1 is clipped.

    With max_seconds given, only the snippet that dsp.snippet_window cuts from
    the file's frame count is decoded, drawing its start from rng when the clip
    is longer: the same bytes and the same draw as cutting the whole decode
    with that window. An int16 file is read only there; a float file is read
    whole once, in blocks, because every sample on disk must be finite, but
    only the snippet's frames are mixed.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        dtype, channels, rate, data_at, n = _wav_layout(path, fh)
        window = slice(0, n) if max_seconds is None else snippet_window(n, max_seconds, rate, rng)
        samples = np.empty(window.stop - window.start)
        # (first frame, last frame + 1, the float64 rows they mix into, or None: checked, not mixed)
        spans = [(window.start, window.stop, samples)]
        if dtype.kind == "f":
            spans = [(0, window.start, None), *spans, (window.stop, n, None)]
        fh.seek(data_at + spans[0][0] * channels * dtype.itemsize)
        step = min(MIX_BLOCK, MIX_BYTES // (8 * channels))  # 2 or more: channels is a u16
        raw = np.empty((step, channels), dtype)
        wide = np.empty((step, channels))
        peak = 0.0
        # a signalling NaN warns in the cast to float64 and inf + -inf in a frame's
        # sum; either is refused below, in one NonFiniteValue, so neither may warn
        with np.errstate(invalid="ignore"):
            for first, stop, out in spans:
                for at in range(first, stop, step):
                    block = raw[: min(step, stop - at)]
                    if fh.readinto(block) != block.nbytes:  # the file shrank since it was opened
                        raise CorruptHeader(f"{path}: truncated {b'data'!r} chunk")
                    if dtype.kind == "f":  # np.maximum, not max(): it keeps a NaN
                        peak = np.maximum(peak, max(-block.min(), block.max()))
                    if out is None:
                        continue
                    mix = out[at - first : at - first + len(block)]
                    # the bits of numpy's row sums of float64 frames, as in a
                    # whole-file reshape(-1, channels).mean(axis=1). Below 8
                    # channels numpy adds left to right from +0.0, so 2-7 are added
                    # a column at a time, several times faster than a reduce along
                    # so narrow an axis, and adding +0.0 maps a frame of -0.0 to
                    # +0.0 as the reduce does; 8 or more are summed pairwise
                    frames = wide[: len(block)]
                    frames[...] = block
                    if 2 <= channels < 8:
                        np.add(frames[:, 0], frames[:, 1], out=mix)
                        for c in range(2, channels):
                            mix += frames[:, c]
                        if dtype.kind == "f":
                            mix += 0.0
                    else:
                        np.add.reduce(frames, axis=1, out=mix)
    if not np.isfinite(peak):  # NaN or +-inf: clipping would turn inf into a full-scale sample
        raise NonFiniteValue(f"{path}: samples must be finite, got peak {float(peak)}")
    samples /= channels
    if dtype.kind == "i":
        samples /= 32768.0  # exact, so it may follow the mean
    else:
        np.clip(samples, -1.0, 1.0, out=samples)  # float files may carry headroom overshoot
    return Waveform(samples, int(rate))


def atomic_write(path, payload: bytes | bytearray) -> None:
    """Write payload to path through a per-process temp file and a rename,
    creating the parent directory first.

    Readers see either the old file or the new one, never a partial write.
    A failed write or rename removes the temp file and re-raises its error.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (path.name + f".tmp.{os.getpid()}")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_embedding_dump(entries, path) -> None:
    """Write (id, vector) pairs, every vector 1-d and of one length, in the
    binary dump format, atomically: the vectors, then the id block, into one
    buffer, so the file is held once. An id may not hold a NUL, which ends it."""
    items = [(str(i), np.asarray(v)) for i, v in entries]
    if not items:
        raise IngestError("cannot write an empty embedding dump")
    dim = items[0][1].size
    if dim == 0:
        raise IngestError(f"entry {items[0][0]!r}: cannot write a zero-length vector")
    buf = bytearray(_HEADER.pack(DUMP_MAGIC, _DUMP_VERSION, dim, len(items)))
    seen: set[str] = set()
    for entry_id, vec in items:
        if vec.ndim != 1:
            raise DimMismatch(f"entry {entry_id!r}: expected a 1-d vector, got shape {vec.shape}")
        vec = vec.astype("<f4", copy=False)
        if vec.size != dim:
            raise DimMismatch(f"entry {entry_id!r}: dim {vec.size} != {dim}")
        if not np.all(np.isfinite(vec)):
            raise NonFiniteValue(f"entry {entry_id!r}: vector contains non-finite values")
        if entry_id in seen:
            raise IngestError(f"duplicate entry id {entry_id!r}")
        if "\0" in entry_id:
            raise IngestError(f"entry id {entry_id!r} holds a NUL byte")
        seen.add(entry_id)
        buf += vec.tobytes()
    buf += "".join(entry_id + "\0" for entry_id, _ in items).encode("utf-8")
    atomic_write(path, buf)


def _read_dump_index(fh, path: Path) -> tuple[int, list[str]]:
    """A dump's dim and its ids, in row order. The header is checked against
    the open file's size first, so an untrusted header sizes nothing; then the
    id block, which runs from the end of the vector block to the end of the
    file and must hold exactly count NUL-terminated UTF-8 ids, no two alike."""
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER.size:
        raise TruncatedFile(f"{path}: {size} bytes, shorter than the {_HEADER.size}-byte header")
    magic, version, dim, count = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != DUMP_MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r}")
    if version != _DUMP_VERSION:
        raise CorruptHeader(f"{path}: dump version {version}, expected {_DUMP_VERSION}; re-export it with acre embed")
    if dim == 0:
        raise CorruptHeader(f"{path}: zero dimension")
    if count == 0:
        raise CorruptHeader(f"{path}: zero entries")
    block_end = _HEADER.size + count * dim * 4
    if block_end > size:
        raise TruncatedFile(f"{path}: {count} x {dim} vectors end at byte {block_end}, past the end at {size}")
    fh.seek(block_end)
    try:
        *ids, tail = str(fh.read(), "utf-8").split("\0")
    except UnicodeDecodeError:
        raise CorruptHeader(f"{path}: entry ids are not valid UTF-8") from None
    if tail or len(ids) != count:  # a cut or extended last id leaves bytes after the last NUL
        extra = len(tail.encode())
        raise CorruptHeader(f"{path}: {len(ids)} NUL-terminated ids and {extra} bytes after them, expected {count}")
    if len(set(ids)) != count:
        duplicate = next(entry_id for entry_id, n in Counter(ids).items() if n > 1)
        raise IngestError(f"{path}: duplicate entry id {duplicate!r}")
    return dim, ids


class DumpReader:
    """An embedding dump held open, its rows read from the file when asked.

    Opening reads and checks the header, against the file's size, and then the
    id block; it reads no row. reader[i] reads row i, and reader.rows(start,
    stop) a span of rows, with one seek and readinto, and checks them as they
    are read: a row that reads short or holds a non-finite value is a
    TruncatedFile or NonFiniteValue naming its entry. So the reader holds the
    ids, never the matrix; its shape is the matrix's. Use it as a context
    manager: the file handle closes on exit, and on any error while opening.
    """

    def __init__(self, path):
        self.path = Path(path)
        # unbuffered: a row is read from the file when asked, never from a
        # buffer filled by an earlier read
        self._fh = open(self.path, "rb", buffering=0)
        try:
            self.dim, self.ids = _read_dump_index(self._fh, self.path)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "DumpReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ids), self.dim

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop as a new read-only float32 matrix. A float64 sum of
        finite float32 values cannot overflow, and NaN or inf carries through
        it: one value per row instead of a full-size bool mask."""
        rows = np.empty((stop - start, self.dim), dtype="<f4")
        self._fh.seek(_HEADER.size + start * self.dim * 4)
        view, got = memoryview(rows).cast("B"), 0
        while got < len(view) and (n := self._fh.readinto(view[got:])):  # one read stops short of 2 GiB
            got += n
        if got != rows.nbytes:
            entry, part = divmod(got, self.dim * 4)
            raise TruncatedFile(
                f"{self.path}: entry {self.ids[start + entry]!r} reads {part} of {self.dim * 4} bytes; "
                "the file changed after it was checked"
            )
        with np.errstate(invalid="ignore"):  # a signalling NaN warns as it widens to float64
            bad = np.flatnonzero(~np.isfinite(rows.sum(axis=-1, dtype=np.float64)))
        if bad.size:
            raise NonFiniteValue(f"{self.path}: entry {self.ids[start + bad[0]]!r} contains non-finite values")
        rows.flags.writeable = False
        return rows

    def __getitem__(self, i: int) -> np.ndarray:
        """Row i's vector, read from the file now, as a fresh read-only array."""
        if not 0 <= i < len(self.ids):
            raise IndexError(f"{self.path}: row {i} outside 0..{len(self.ids) - 1}")
        return self.rows(i, i + 1)[0]


def read_embedding_dump(path) -> EmbeddingDump:
    """A dump written by write_embedding_dump, bit-exact: a DumpReader's
    checks, then one read of every row into the read-only matrix."""
    with DumpReader(path) as reader:
        return EmbeddingDump(ids=tuple(reader.ids), matrix=reader.rows(0, len(reader.ids)))
