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

Embedding dump (binary, little-endian): magic ``ACRE``, version u32=2,
dim u32, count u64 (neither zero), then one count x dim block of 32-bit floats
from byte 20, then the id table to the end of the file: per entry a u16 byte
length and the UTF-8 id. Round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Waveform

CAPTIONS_PER_CLIP = 5
VARIANTS_PER_CAPTION = 5

_REQUIRED_COLUMNS = ("file_name", "caption_1", "caption_2", "caption_3", "caption_4", "caption_5")

DUMP_MAGIC = b"ACRE"
_DUMP_VERSION = 2
_HEADER = struct.Struct("<4sIIQ")

# read_wav mixes multichannel audio to mono MIX_BLOCK frames at a time, so its
# float64 scratch is one block rather than a copy of the whole file
MIX_BLOCK = 1 << 14


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
    """A dump's ids in row order and its read-only (count, dim) float32 matrix."""

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
    col = {name.strip(): i for i, name in enumerate(rows[0])}
    for name in _REQUIRED_COLUMNS:
        if name not in col:
            raise MissingColumn(f"{path}: missing column {name!r}")
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


def read_wav(path) -> Waveform:
    """Decode a RIFF/WAVE file to a mono waveform in [-1, 1].

    Accepts 16-bit PCM and 32-bit IEEE float (plain or WAVE_FORMAT_EXTENSIBLE);
    multichannel input is averaged to mono. Integer samples are scaled by
    1/32768, the symmetric-range convention, so int16 -32768 maps to -1.0
    exactly. Float samples must be finite (NonFiniteValue otherwise); finite
    overshoot past +-1 is clipped.
    """
    path = Path(path)
    raw = path.read_bytes()
    view = memoryview(raw)  # chunk bodies are slices of it, not copies
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptHeader(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise CorruptHeader(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise CorruptHeader(f"{path}: no fmt chunk")
    if data is None:
        raise CorruptHeader(f"{path}: no data chunk")
    if len(fmt) < 16:
        raise CorruptHeader(f"{path}: fmt chunk too small ({len(fmt)} bytes)")

    code, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if code == 0xFFFE:  # extensible: the real code sits in the sub-format GUID
        if len(fmt) < 26:
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

    frame_bytes = channels * bits // 8
    if len(data) % frame_bytes != 0:
        raise CorruptHeader(f"{path}: data size {len(data)} not a multiple of frame size {frame_bytes}")

    frames = np.frombuffer(data, dtype=dtype).reshape(-1, channels)
    # numpy's own row sums, one block of float64 frames at a time: the same bits
    # as a whole-file reshape(-1, channels).mean(axis=1), and mono passes through
    # exactly (a one-element sum is the element, and dividing by 1 is exact)
    samples = np.empty(frames.shape[0])
    for start in range(0, samples.size, MIX_BLOCK):
        block = slice(start, start + MIX_BLOCK)
        np.add.reduce(frames[block].astype(np.float64), axis=1, out=samples[block])
    samples /= channels
    if dtype.kind == "i":
        samples /= 32768.0  # exact, so it may follow the mean
    lo, hi = (float(samples.min()), float(samples.max())) if samples.size else (0.0, 0.0)
    peak = max(-lo, hi)
    if not np.isfinite(peak):  # NaN or +-inf: clipping would turn inf into a full-scale sample
        raise NonFiniteValue(f"{path}: samples must be finite, got peak {peak}")
    if peak > 1.0:
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
    binary dump format, atomically: the vectors, then the id table, into one
    buffer, so the file is held once."""
    items = [(str(i), np.asarray(v)) for i, v in entries]
    if not items:
        raise IngestError("cannot write an empty embedding dump")
    dim = items[0][1].size
    if dim == 0:
        raise IngestError(f"entry {items[0][0]!r}: cannot write a zero-length vector")
    buf = bytearray(_HEADER.pack(DUMP_MAGIC, _DUMP_VERSION, dim, len(items)))
    table = bytearray()
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
        seen.add(entry_id)
        id_bytes = entry_id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise IngestError(f"entry id too long ({len(id_bytes)} bytes)")
        buf += vec.tobytes()
        table += len(id_bytes).to_bytes(2, "little") + id_bytes
    buf += table
    atomic_write(path, buf)


def _read_dump_index(fh, path: Path) -> tuple[int, list[str]]:
    """A dump's dim and its ids, in row order. The header is checked against
    the open file's size first, so an untrusted header sizes nothing; then the
    id table, which runs from the end of the vector block to the end of the file."""
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
    table = fh.read()
    ids: dict[str, None] = {}  # insertion-ordered, and a duplicate costs one lookup
    pos = 0
    for row in range(count):
        # a cut length prefix reads short, so this one check also catches it
        start = pos + 2
        pos = start + int.from_bytes(table[pos:start], "little")
        if pos > len(table):
            raise TruncatedFile(f"{path}: id table cut short at entry {row}")
        try:
            entry_id = str(table[start:pos], "utf-8")
        except UnicodeDecodeError:
            raise CorruptHeader(f"{path}: entry id is not valid UTF-8") from None
        if entry_id in ids:
            raise IngestError(f"{path}: duplicate entry id {entry_id!r}")
        ids[entry_id] = None
    if pos != len(table):
        raise CorruptHeader(f"{path}: {len(table) - pos} trailing bytes")
    return dim, list(ids)


def _read_rows(fh, path: Path, ids: list[str], dim: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of a checked dump as a new read-only float32 matrix; a
    short read or a non-finite row (the file changed after its header was
    checked) is a TruncatedFile or NonFiniteValue naming the entry. A float64
    sum of finite float32 values cannot overflow, and NaN or inf carries
    through it: one value per row instead of a full-size bool mask."""
    rows = np.empty((stop - start, dim), dtype="<f4")
    fh.seek(_HEADER.size + start * dim * 4)
    got = fh.readinto(rows)
    if got != rows.nbytes:
        entry, part = divmod(got, dim * 4)
        raise TruncatedFile(
            f"{path}: entry {ids[start + entry]!r} reads {part} of {dim * 4} bytes; "
            "the file changed after it was checked"
        )
    bad = np.flatnonzero(~np.isfinite(rows.sum(axis=-1, dtype=np.float64)))
    if bad.size:
        raise NonFiniteValue(f"{path}: entry {ids[start + bad[0]]!r} contains non-finite values")
    rows.flags.writeable = False
    return rows


def read_embedding_dump(path) -> EmbeddingDump:
    """Read a dump written by write_embedding_dump; bit-exact round trip.

    After the header and the id table, one readinto fills the read-only
    (count, dim) float32 matrix; row i belongs to ids[i].
    """
    path = Path(path)
    with open(path, "rb") as fh:
        dim, ids = _read_dump_index(fh, path)
        matrix = _read_rows(fh, path, ids, dim, 0, len(ids))
    return EmbeddingDump(ids=tuple(ids), matrix=matrix)


# DumpReader checks a dump's vectors this many bytes of rows at a time
CHECK_BLOCK_BYTES = 1 << 20


class DumpReader:
    """An embedding dump held open and read one row at a time, when asked.

    Opening checks the whole file in one streaming pass, with the errors and
    messages of read_embedding_dump: the header, the id table and every row
    finite. reader[i] then reads row i with one seek and readinto, so the
    reader holds the ids, never the matrix; its shape is the matrix's. A row
    that reads short or non-finite later (the file was rewritten in place
    after the check) is a TruncatedFile or NonFiniteValue naming its entry.
    Use it as a context manager: the file handle closes on exit, and on any
    error while opening.
    """

    def __init__(self, path):
        self.path = Path(path)
        # unbuffered: a row is read from the file when asked, never from a
        # buffer filled by an earlier read
        self._fh = open(self.path, "rb", buffering=0)
        try:
            self.dim, self.ids = _read_dump_index(self._fh, self.path)
            step = max(1, CHECK_BLOCK_BYTES // (4 * self.dim))
            for start in range(0, len(self.ids), step):
                _read_rows(self._fh, self.path, self.ids, self.dim, start, min(start + step, len(self.ids)))
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

    def __getitem__(self, i: int) -> np.ndarray:
        """Row i's vector, read from the file now, as a fresh read-only array."""
        if not 0 <= i < len(self.ids):
            raise IndexError(f"{self.path}: row {i} outside 0..{len(self.ids) - 1}")
        return _read_rows(self._fh, self.path, self.ids, self.dim, i, i + 1)[0]
