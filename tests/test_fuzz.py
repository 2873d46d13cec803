"""Seeded mutation fuzz of acre's binary readers.

Aim 3's promise for a bad input file is an input error: one ``error: <Kind>:
<message>`` line and exit 2, never a traceback and never a quiet number. So
every mutant of a valid checkpoint or embedding dump must read back or raise
one of cli._ERROR_KINDS. The seeds and case counts are fixed, so a failure
names a case that reruns the same way; the file takes about 1.5 s (2 vCPUs).
"""

import struct

import numpy as np
import pytest

from acre import cli, encoder, ingest, space

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


def rows_in_spans(path, span=2):
    with ingest.DumpReader(path) as reader:
        for start in range(0, len(reader.ids), span):
            reader.rows(start, min(start + span, len(reader.ids)))


def test_mutated_checkpoints_read_back_or_are_input_errors(tmp_path):
    data = checkpoint_bytes(tmp_path, np.random.default_rng(1), 4, 2, 3)
    read, refused = read_or_refuse(space.load_checkpoint, tmp_path / "x.ackp", mutants(data, 2, 3000))
    assert read > 100 and refused > 100


@pytest.mark.parametrize("read", [ingest.read_embedding_dump, rows_in_spans], ids=["whole", "rows-in-spans"])
def test_mutated_dumps_read_back_or_are_input_errors(tmp_path, read):
    # ids of one, two and many bytes (UTF-8 too), so cuts land inside lengths and characters
    data = dump_bytes(tmp_path, np.random.default_rng(3), ["a", "clip1.wav", "é#0", "clip3.wav#4@2", "z" * 40], 3)
    outcomes = read_or_refuse(read, tmp_path / "x.embd", mutants(data, 4, 3000))
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
