"""Seeded mutation fuzz of acre's readers.

Aim 3's promise for a bad input file is an input error: one ``error: <Kind>:
<message>`` line and exit 2, never a traceback and never a quiet number. So
every mutant of a valid checkpoint, embedding dump, WAV, manifest,
augmented-captions file or config file must read back or raise one of
cli._ERROR_KINDS, and so must tokenizing random Unicode. A dump that reads
back must give the ids and rows that README's layout gives, and evaluate,
finetune and rank, run in process on a mutated dump, must exit 0 or print one
error line with exit 2. The seeds and case counts are fixed, so a failure
names a case that reruns the same way; the file takes about 5 s (2 vCPUs).
"""

import json
import struct

import numpy as np
import pytest

from acre import cli, encoder, ingest, space
from conftest import raw_wav_bytes, read_dump_by_layout, snippet

# u32 values that overwrite four bytes: the edges of u32 and i32, plus the
# file's own size (appended per file)
U32_EDGES = (0, 1, 2**31 - 1, 2**32 - 1)
MUTATORS = ("byte set", "truncation", "extension", "u32 overwrite", "bit flips")


def mutants(data: bytes, seed: int, count: int):
    """count (mutator, bytes) mutants of data, each made by one mutator drawn
    from MUTATORS with a generator of the given seed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        name = MUTATORS[rng.integers(len(MUTATORS))]
        buf = bytearray(data)
        if name == "byte set":
            buf[rng.integers(len(buf))] = rng.integers(256)
        elif name == "truncation":
            del buf[rng.integers(len(buf)) :]
        elif name == "extension":
            buf += rng.bytes(int(rng.integers(1, 9)))
        elif name == "u32 overwrite":
            at = rng.integers(len(buf) - 3)
            buf[at : at + 4] = struct.pack("<I", (*U32_EDGES, len(data))[rng.integers(len(U32_EDGES) + 1)])
        else:
            for bit in rng.integers(len(buf) * 8, size=rng.integers(1, 5)):
                buf[bit // 8] ^= 1 << (bit % 8)
        yield name, bytes(buf)


def read_or_refuse(read, path, cases) -> tuple[int, int]:
    """Writes each case to path and reads it with read; returns how many read
    back and how many were refused with a kind in cli._ERROR_KINDS. Any other
    exception fails the test, naming the case."""
    outcomes = [0, 0]
    for k, (name, data) in enumerate(cases):
        path.write_bytes(data)
        try:
            read(path)
        except cli._ERROR_KINDS:
            outcomes[1] += 1
        except Exception as exc:
            raise AssertionError(f"case {k} ({name}): {type(exc).__name__}: {exc}") from exc
        else:
            outcomes[0] += 1
    return tuple(outcomes)


def checkpoint_bytes(tmp_path, rng, d_a, d_t, d_out) -> bytes:
    path = tmp_path / "valid.ackp"
    heads = (space.ProjectionHead.initialize(d_in, d_out, rng) for d_in in (d_a, d_t))
    space.save_checkpoint(path, *heads)
    return path.read_bytes()


def dump_bytes(tmp_path, rng, ids, dim) -> bytes:
    path = tmp_path / "valid.embd"
    ingest.write_embedding_dump([(i, rng.normal(size=dim).astype(np.float32)) for i in ids], path)
    return path.read_bytes()


def read_whole(path) -> tuple[list[str], bytes]:
    dump = ingest.read_embedding_dump(path)
    return list(dump.ids), dump.matrix.tobytes()


def rows_in_spans(path, span=2) -> tuple[list[str], bytes]:
    with ingest.DumpReader(path) as reader:
        n = len(reader.ids)
        return reader.ids, b"".join(reader.rows(start, min(start + span, n)).tobytes() for start in range(0, n, span))


def as_the_layout_reads(read):
    """read, and a check that what it accepts is what README's layout gives:
    the same ids and row bytes, where any other outcome fails the case."""

    def checked(path):
        got = read(path)  # an input error here is a refusal
        try:
            expected = read_dump_by_layout(path)
        except Exception as exc:
            raise AssertionError(f"read back, but the layout refuses it: {type(exc).__name__}: {exc}") from exc
        assert got == expected, "read back other ids or rows than the layout gives"

    return checked


def test_mutated_checkpoints_read_back_or_are_input_errors(tmp_path):
    data = checkpoint_bytes(tmp_path, np.random.default_rng(1), 4, 2, 3)
    read, refused = read_or_refuse(space.load_checkpoint, tmp_path / "x.ackp", mutants(data, 2, 3000))
    assert read > 100 and refused > 100


@pytest.mark.parametrize("read", [read_whole, rows_in_spans], ids=["whole", "rows-in-spans"])
def test_mutated_dumps_read_back_or_are_input_errors(tmp_path, read):
    # ids of one, two and many bytes (UTF-8 too), so cuts land inside ids and characters
    data = dump_bytes(tmp_path, np.random.default_rng(3), ["a", "clip1.wav", "é#0", "clip3.wav#4@2", "z" * 40], 3)
    outcomes = read_or_refuse(as_the_layout_reads(read), tmp_path / "x.embd", mutants(data, 4, 3000))
    assert min(outcomes) > 100


def test_rank_on_a_mutated_checkpoint_prints_its_lines_or_one_error_line(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ids = [f"c{i}.wav" for i in range(6)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{i},a,b,c,d,e\n" for i in ids)
    )
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    (dumps / "audio.embd").write_bytes(dump_bytes(tmp_path, rng, ids, 3))
    data = checkpoint_bytes(tmp_path, rng, 3, encoder.WIDTH, 4)
    # a signalling NaN as the first audio weight: its cast to float64 warns
    snan = data[:20] + struct.pack("<I", 0x7F800001) + data[24:]
    checkpoint = tmp_path / "x.ackp"
    argv = ["rank", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--checkpoint", str(checkpoint)]
    exits = []
    for k, (name, case) in enumerate([("signalling NaN", snan), *mutants(data, 6, 40)]):
        checkpoint.write_bytes(case)
        exits.append(cli.main([*argv, "--query", "a"]))
        out, err = capsys.readouterr()
        if exits[-1] == 0:
            assert err == "" and len(out.splitlines()) == len(ids), (k, name)
        else:
            assert exits[-1] == 2 and out == "", (k, name)
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (k, name, err)
        if k == 0:
            assert err == f"error: NonFiniteValue: {checkpoint}: audio.weight is not finite\n"
    assert 0 in exits


# each dump with the commands that read it: rank reads no caption, and only finetune opens variants
DUMP_READERS = [
    ("audio.embd", "evaluate"), ("audio.embd", "finetune"), ("audio.embd", "rank"),
    ("captions.embd", "evaluate"), ("captions.embd", "finetune"), ("variants.embd", "finetune"),
]


def test_commands_on_a_mutated_dump_print_their_lines_or_one_error_line(tmp_path, capsys):
    rng = np.random.default_rng(12)
    ids = [f"c{i}.wav" for i in range(6)]
    captions = [f"{c}#{k}" for c in ids for k in range(5)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{i},a,b,c,d,e\n" for i in ids)
    )
    valid = {
        "audio.embd": dump_bytes(tmp_path, rng, ids, 3),
        "captions.embd": dump_bytes(tmp_path, rng, captions, 4),
        "variants.embd": dump_bytes(tmp_path, rng, [f"{key}@{j}" for key in captions for j in range(5)], 4),
    }
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    # evaluate's text head takes the 4-d caption rows; rank's the encoder's query vector
    (tmp_path / "eval.ackp").write_bytes(checkpoint_bytes(tmp_path, rng, 3, 4, 4))
    (tmp_path / "rank.ackp").write_bytes(checkpoint_bytes(tmp_path, rng, 3, encoder.WIDTH, 4))
    given = ["--manifest", str(manifest), "--encoder", f"dump:{dumps}"]
    argvs = {
        "evaluate": ["evaluate", *given, "--checkpoint", str(tmp_path / "eval.ackp"), "--out", str(tmp_path / "out")],
        "finetune": [
            "finetune", *given, "--out", str(tmp_path / "out"), "--epochs", "1", "--batch-size", "6",
            "--out-dim", "4", "--swap-prob", "0.5", "--strict",
        ],
        "rank": ["rank", *given, "--checkpoint", str(tmp_path / "rank.ackp"), "--query", "a"],
    }
    exits = []
    for seed, (name, command) in enumerate(DUMP_READERS):
        for k, (mutator, case) in enumerate(mutants(valid[name], 20 + seed, 80)):
            for other, data in valid.items():
                (dumps / other).write_bytes(case if other == name else data)
            exits.append(cli.main(argvs[command]))
            out, err = capsys.readouterr()
            where = (name, command, k, mutator)
            if exits[-1] == 0:
                assert err == "", where
                assert command != "rank" or len(out.splitlines()) == len(ids), where
            else:
                assert exits[-1] == 2 and out == "", where
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (*where, err)
    assert exits.count(0) > 100 and exits.count(2) > 100


class At:
    """A stand-in generator whose integers(low, high) is the first, middle or
    last start: a windowed read and the cut of a whole read draw the same."""

    def __init__(self, where):
        self.where = where

    def integers(self, low, high):
        return {"start": low, "middle": (low + high - 1) // 2, "end": high - 1}[self.where]


def read_wav_whole_and_windowed(path):
    """Reads path whole, then windowed at the start, middle and end of the
    clip; each windowed read must be refused as the whole read is, or equal
    its cut."""
    try:
        whole = ingest.read_wav(path)
    except cli._ERROR_KINDS as exc:
        whole = exc
    for where in ("start", "middle", "end"):
        try:
            got = ingest.read_wav(path, WAV_WINDOW_SECONDS, At(where))
        except cli._ERROR_KINDS as exc:
            assert isinstance(whole, Exception), (where, exc)
            continue
        assert not isinstance(whole, Exception), (where, whole)
        expected = snippet(whole, WAV_WINDOW_SECONDS, At(where))
        assert got.sample_rate == expected.sample_rate and got.samples.tobytes() == expected.samples.tobytes(), where
    if isinstance(whole, Exception):
        raise whole


WAV_FRAMES = 600
WAV_WINDOW_SECONDS = 250 / 32000  # shorter than the clip at most mutated rates, so the three windows differ


@pytest.mark.parametrize("bits", [16, 32], ids=["int16", "float32"])
@pytest.mark.parametrize("channels", [1, 2])
def test_mutated_wavs_read_back_or_are_input_errors(tmp_path, bits, channels):
    rng = np.random.default_rng(10 * bits + channels)
    x = rng.uniform(-1.2, 1.2, (WAV_FRAMES, channels))  # float32 overshoot is clipped
    x = np.round(x * 20000).astype(np.int16) if bits == 16 else x.astype(np.float32)
    data = raw_wav_bytes(x.ravel(), 32000, channels, fmt_code=1 if bits == 16 else 3, bits=bits)
    read, refused = read_or_refuse(read_wav_whole_and_windowed, tmp_path / "x.wav", mutants(data, 7 + bits, 800))
    assert read > 100 and refused > 100


MANIFEST = (
    "file_name,caption_1,caption_2,caption_3,caption_4,caption_5,keywords\n"
    'a.wav,a dog barks,"rain, then thunder",a car,é ü ß,birds,x;y\n'
    "sub/b.wav,one,two,three,four,five,\n"
)
AUGMENTED = "".join(
    json.dumps({"clip_id": clip_id, "caption_index": k, "variants": [f"variant {j} of {k}" for j in range(5)]}) + "\n"
    for clip_id in ("a.wav", "b.wav")
    for k in (0, 3)
)
CONFIG = "# a run\nseed = 3\nepochs=2\nlr_max = 1e-3\nstrict = yes\nmanifest = a.csv, b.csv\nwhiten = 0.5,2\n"
# characters that mean something to one of the text formats, and some that are wide in UTF-8
TEXT_SPECIALS = ',"\n\r=#{}[]:\\\x00\ufeff\u2028 \té€𝄞'


def text_mutants(text: str, seed: int, count: int):
    """count mutants of a text file: half from mutants() on its UTF-8 bytes,
    half with characters of TEXT_SPECIALS or random code points inserted,
    replaced or deleted, written back as UTF-8 (surrogates escaped)."""
    rng = np.random.default_rng(seed)
    yield from mutants(text.encode("utf-8"), seed, count // 2)
    for _ in range(count - count // 2):
        chars = list(text)
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(len(chars) + 1))
            special = rng.random() < 0.7
            pick = TEXT_SPECIALS[rng.integers(len(TEXT_SPECIALS))] if special else chr(rng.integers(0x110000))
            op = rng.integers(3)
            if op == 0 or at == len(chars):
                chars.insert(at, pick)
            elif op == 1:
                chars[at] = pick
            else:
                del chars[at]
        yield "characters", "".join(chars).encode("utf-8", "surrogatepass")


@pytest.mark.parametrize(
    "read, text, name",
    [
        (ingest.load_manifest, MANIFEST, "manifest.csv"),
        (ingest.load_augmented_captions, AUGMENTED, "augmented.jsonl"),
        (cli.parse_config_file, CONFIG, "run.cfg"),
    ],
    ids=["load_manifest", "load_augmented_captions", "parse_config_file"],
)
def test_mutated_text_files_read_back_or_are_input_errors(tmp_path, read, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    read(path)  # the file mutated reads back
    read_back, refused = read_or_refuse(read, path, text_mutants(text, len(name), 1500))
    assert read_back > 100 and refused > 100


def test_tokenizing_random_unicode_gives_a_token_sequence():
    rng = np.random.default_rng(11)
    vocab = encoder.Vocabulary.default()
    words = list(vocab.index)
    for k in range(1500):
        parts = []
        for _ in range(rng.integers(0, 12)):
            if rng.random() < 0.5:
                parts.append(words[rng.integers(len(words))])
            else:  # any code point, surrogates included, or one from the ASCII and Latin-1 range
                top = 0x110000 if rng.random() < 0.5 else 0x100
                parts.append("".join(map(chr, rng.integers(0, top, size=rng.integers(1, 9)))))
        text = "".join(part + (" " if rng.random() < 0.6 else "") for part in parts)
        try:
            seq = encoder.tokenize(encoder.normalize_text(text), vocab)
        except cli._ERROR_KINDS:
            continue
        except Exception as exc:
            raise AssertionError(f"case {k}: {text!r}: {type(exc).__name__}: {exc}") from exc
        assert seq.ids[0] == vocab.cls_id and len(seq.ids) == len(seq.pieces) + 1 <= encoder.MAX_CONTENT_TOKENS + 1, k
