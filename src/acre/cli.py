"""Command-line surface: embed, train, finetune, evaluate, rank, gradcheck.

Runs are declared by a flat key=value config file plus flags; flags win. Each
setting is declared once, in ``SETTINGS`` (the training ones as TrainConfig's
fields): its flag, config key, parser and default. Every command is
deterministic for a fixed seed: all module seeds derive from the global one,
and output files are written atomically (temp + rename).

Exit codes: 0 success, 1 check failure, 2 input error. Input errors (the
kinds in ``_ERROR_KINDS``) print one machine-parseable line: ``error: <Kind>:
<message>``. Any other exception, a KeyError say, is a bug: a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, get_type_hints

import numpy as np

from . import dsp, encoder, ingest, retrieval, space

GRADCHECK_SHAPES = ((8, 16, 12), (4, 32, 8), (64, 24, 16))
GRADCHECK_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


_ERROR_KINDS = (
    UsageError,
    ingest.IngestError,
    dsp.DspError,
    encoder.EncoderError,
    space.SpaceError,
    retrieval.RetrievalError,
    OSError,
    ValueError,
)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _switch(text: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise argparse.ArgumentTypeError(f"must be one of {'/'.join(_BOOLEANS)}, got {text!r}")
    return _BOOLEANS[text.lower()]


def _file_path(text: str) -> Path:
    """A path open() can take: a NUL byte would fail there, naming no setting."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"must not hold a NUL byte, got {text!r}")
    return Path(text)


def _path(text: str) -> Path | None:
    """An empty value means unset; a bare Path('') would be the working directory."""
    return _file_path(text) if text else None


def _paths(text: str) -> list[Path]:
    return [_file_path(part.strip()) for part in text.split(",") if part.strip()]


def _preset(text: str) -> encoder.PatchGeometry:
    if text not in encoder.PRESETS:
        raise argparse.ArgumentTypeError(f"must be one of {'/'.join(sorted(encoder.PRESETS))}, got {text!r}")
    return encoder.PRESETS[text]


def _dump_dir(text: str) -> Path:
    """'dump:<dir>' -> the embedding-dump directory."""
    if not text.startswith("dump:") or text == "dump:":
        raise argparse.ArgumentTypeError(f"must be 'dump:<dir>', got {text!r}")
    return _file_path(text[len("dump:") :])


def _mean_std(text: str) -> dsp.WhiteningStats:
    try:
        mean, std = (float(part) for part in text.split(","))
        return dsp.WhiteningStats(mean=mean, std=std)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be finite 'mean,std' with std > 0, got {text!r}") from None


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """A setting's parser: the value parse(text) if ok accepts it, else 'must be <rule>'."""
    def checked(text: str) -> Any:
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return checked


_seconds = _checked(float, lambda value: math.isfinite(value) and value > 0, "positive and finite")
_count = _checked(int, lambda value: value >= 0, "a non-negative integer")


class Setting(NamedTuple):
    """One run setting: flag ``--<key with dashes>`` and config key ``key``,
    whose values both go through ``parse``. A ``_switch`` flag takes no value;
    a list-valued setting extends its list on each repeated flag."""

    key: str
    parse: Callable[[str], Any]
    default: Any
    help: str | None = None


# TrainConfig's fields are settings too, but for seed (a setting of its own)
# and the two epoch counts, which epochs sets together
_TRAIN_TYPES = {
    key: kind for key, kind in get_type_hints(space.TrainConfig).items()
    if key not in ("seed", "pretrain_epochs", "finetune_epochs")
}

SETTINGS = (
    Setting("manifest", _paths, [], "manifest CSVs, comma-separated (repeatable)"),
    Setting("audio_dir", _path, None, "base directory for audio paths"),
    Setting("augmented_captions", _path, None, "JSONL variants file, embedded into variants.embd"),
    Setting("encoder", _dump_dir, None, "dump:<dir> written by embed (needed by train/finetune/evaluate/rank)"),
    Setting("preset", _preset, encoder.PRESETS["passt-n"], "patch geometry: " + " | ".join(sorted(encoder.PRESETS))),
    Setting("epochs", _count, None, "epoch count override"),
    Setting("seed", int, 0, "global seed (default 0)"),
    Setting("out", _path, None, "output directory"),
    Setting("strict", _switch, False, "finetune: fail on a caption without variants"),
    Setting("checkpoint", _path, None, "checkpoint path (evaluate/rank input, train init)"),
    # a field of another type fails here, at import, rather than be misparsed
    *(Setting(key, {int: int, float: float}[kind], None) for key, kind in _TRAIN_TYPES.items()),
    Setting("snippet_seconds", _seconds, 30.0, "longest audio kept per clip, in seconds"),
    Setting("whiten", _mean_std, None, "fixed whitening stats as 'mean,std'"),
)


def parse_config_file(path) -> dict[str, Any]:
    """Flat key = value lines; '#' starts a comment; blank lines ignored.

    Every key must name a setting, and its value goes through the parser its
    flag uses; an unknown key, a key set twice or a value that does not parse
    is a usage error naming the line, so no setting is ever silently dropped,
    overwritten or misread. So is a file that is not UTF-8.
    """
    parsers = {s.key: s.parse for s in SETTINGS}
    out: dict[str, Any] = {}
    set_on: dict[str, int] = {}
    try:
        with ingest.open_text(path) as fh:
            text = fh.read()
    except ingest.IngestError as exc:
        raise UsageError(str(exc)) from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in parsers:
            raise UsageError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise UsageError(f"{path}: line {lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            out[key] = parsers[key](value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{path}: line {lineno}: {key} {exc}") from None
        except ValueError:
            raise UsageError(f"{path}: line {lineno}: {key} must be {parsers[key].__name__}, got {value!r}") from None
    return out


def _build_settings(args: argparse.Namespace) -> argparse.Namespace:
    """One attribute per ``SETTINGS`` key: table defaults, then the config file,
    then the flags given. The training keys and epochs move into ``train``, a
    TrainConfig whose own defaults fill the ones left unset; seed stays in both."""
    values = {s.key: s.default for s in SETTINGS}
    if args.config:
        values.update(parse_config_file(args.config))
    values.update((key, value) for key, value in vars(args).items() if key in values)
    train = {key: values.pop(key) for key in _TRAIN_TYPES}
    train["pretrain_epochs"] = train["finetune_epochs"] = values.pop("epochs")
    given = {key: value for key, value in train.items() if value is not None}
    return argparse.Namespace(**values, train=space.TrainConfig(seed=values["seed"], **given))


def _load_records(settings: argparse.Namespace) -> list[ingest.ClipRecord]:
    if not settings.manifest:
        raise UsageError("no manifest given (use --manifest or the config file)")
    records: list[ingest.ClipRecord] = []
    seen: set[str] = set()
    for path in settings.manifest:
        for rec in ingest.load_manifest(path, settings.audio_dir):
            if rec.clip_id in seen:
                raise ingest.DuplicateClipId(f"clip id {rec.clip_id!r} appears in multiple manifests")
            seen.add(rec.clip_id)
            records.append(rec)
    return records


def _dump_rows(settings: argparse.Namespace, command: str, dump_name: str, ids: list[str], kind: str) -> np.ndarray:
    """The raw (pre-projection) rows for ids, in that order, of the named file in
    the --encoder dump directory: its matrix itself when the two orders agree,
    else one fancy-indexed copy. Only embed runs the encoders; every other
    command reads its dumps."""
    if settings.encoder is None:
        raise UsageError(f"{command} reads embedding dumps: pass --encoder dump:<dir> (written by acre embed)")
    dump = ingest.read_embedding_dump(settings.encoder / dump_name)
    if tuple(ids) == dump.ids:
        return dump.matrix
    row = dict(zip(dump.ids, range(len(dump.ids))))
    try:
        rows = [row[key] for key in ids]
    except KeyError as exc:
        raise UsageError(f"no {kind} embedding for {exc.args[0]!r}") from None
    return dump.matrix[rows]


def _train_pairs(
    records: list[ingest.ClipRecord], settings: argparse.Namespace, command: str,
    variants: ingest.DumpReader | None = None,
) -> list[space.TrainPair]:
    """A pair per record: its audio row and its captions' consecutive rows.
    Given finetune's open variants.embd, each caption also gets the numbers of
    the rows whose id is '<caption id>@<j>', in file order: train reads a row
    from the reader only when it draws it."""
    audio = _dump_rows(settings, command, "audio.embd", [rec.clip_id for rec in records], "audio")
    keys = [f"{rec.clip_id}#{k}" for rec in records for k in range(len(rec.captions))]
    captions = _dump_rows(settings, command, "captions.embd", keys, "caption")
    rows: dict[str, list[int]] = {}
    for row, key in enumerate(variants.ids if variants is not None else ()):
        rows.setdefault(key.rpartition("@")[0], []).append(row)
    pairs, end = [], 0
    for rec, vector in zip(records, audio):
        start, end = end, end + len(rec.captions)
        variant_rows = tuple(tuple(rows.get(key, ())) for key in keys[start:end])
        pairs.append(space.TrainPair(rec.clip_id, vector, tuple(captions[start:end]), variant_rows))
    return pairs


def _require_out(settings: argparse.Namespace) -> Path:
    """The --out directory; it is created by the first write into it, so a
    command that fails before writing leaves none behind."""
    if settings.out is None:
        raise UsageError("no output directory given (use --out)")
    return settings.out


def _loss_csv(curve) -> str:
    lines = ["step,lr,loss,text_to_audio,audio_to_text"]
    lines += [f"{p.step},{p.lr!r},{p.loss!r},{p.text_to_audio!r},{p.audio_to_text!r}" for p in curve]
    return "\n".join(lines)


def cmd_embed(settings: argparse.Namespace) -> int:
    from . import embedding  # its process machinery is embed's alone; the other commands skip its import

    if settings.encoder is not None:
        raise UsageError("embed runs the encoders and writes dumps; it takes no --encoder")
    try:  # a snippet shorter than one FFT window would make every clip too short
        dsp.frame_count(int(round(settings.snippet_seconds * dsp.SAMPLE_RATE)))
    except dsp.TooShort as exc:
        raise UsageError(f"snippet_seconds (--snippet-seconds) {settings.snippet_seconds!r} is below one FFT window: {exc}")
    except OverflowError:  # round(inf): past about 5.6e303 s the sample count overflows
        raise UsageError(f"snippet_seconds (--snippet-seconds) {settings.snippet_seconds!r} is too long") from None
    out = _require_out(settings)
    records = _load_records(settings)
    aug_sets = None
    if settings.augmented_captions is not None:
        known = {rec.clip_id for rec in records}
        aug_sets = [a for a in ingest.load_augmented_captions(settings.augmented_captions) if a.clip_id in known]
        if not aug_sets:
            raise ingest.IngestError(f"{settings.augmented_captions}: no record names a clip of the manifest")
    captions = [(f"{rec.clip_id}#{k}", cap) for rec in records for k, cap in enumerate(rec.captions)]
    variants = [(f"{a.clip_id}#{a.caption_index}@{j}", v) for a in aug_sets or () for j, v in enumerate(a.variants)]
    job = embedding.Share(
        settings.seed, settings.preset, settings.snippet_seconds, settings.whiten,
        [(rec.clip_id, rec.audio_path) for rec in records], [text for _, text in captions + variants],
    )
    audio, text_rows, stats = embedding.embed(job)
    ingest.write_embedding_dump([(rec.clip_id, row) for rec, row in zip(records, audio)], out / "audio.embd")
    ingest.write_embedding_dump([(key, row) for (key, _), row in zip(captions, text_rows)], out / "captions.embd")
    if aug_sets is not None:
        rows = text_rows[len(captions) :]
        ingest.write_embedding_dump([(key, row) for (key, _), row in zip(variants, rows)], out / "variants.embd")
    else:  # a variants.embd left by an earlier embed would pair another run's vectors with these captions
        (out / "variants.embd").unlink(missing_ok=True)
    print(
        f"embedded {len(records)} clips, {len(captions)} captions, "
        f"{len(variants)} variants -> {out} (whiten mean={stats.mean!r} std={stats.std!r})"
    )
    return 0


def _run_training(settings: argparse.Namespace, command: str) -> int:
    phase = "pretrain" if command == "train" else "finetune"
    # a one-slot list that the train call empties: the float64 heads are then
    # held by train alone (CPython 3.11 on moves call arguments into the callee),
    # which drops them once they are copied into its float32 vector
    init = [] if settings.checkpoint is None else [space.load_checkpoint(settings.checkpoint)]
    space.check_phase(settings.train, phase, *init)
    variants = None if settings.encoder is None else settings.encoder / "variants.embd"
    has_variants = phase == "finetune" and variants is not None and variants.exists()
    if phase == "finetune" and settings.strict and not has_variants:
        raise space.MissingAugmentation("finetune --strict requires variants.embd in the --encoder directory")
    out = _require_out(settings)
    records = _load_records(settings)
    # variants.embd: header and id block checked before the other dumps are read, each row when training draws it
    with ingest.DumpReader(variants) if has_variants else contextlib.nullcontext() as reader:
        pairs = _train_pairs(records, settings, command, reader)
        result = space.train(
            pairs, settings.train, phase=phase, strict=settings.strict, init=init.pop() if init else None,
            variants=reader,
        )
    checkpoint = out / "checkpoint.ackp"
    space.save_checkpoint(checkpoint, result.audio_head, result.text_head)
    ingest.atomic_write(out / "loss.csv", (_loss_csv(result.curve) + "\n").encode("utf-8"))
    first = result.curve[0].loss if result.curve else float("nan")
    last = result.curve[-1].loss if result.curve else float("nan")
    print(
        f"{phase}: {len(pairs)} clips, {result.total_steps} steps, "
        f"loss {first:.4f} -> {last:.4f}, checkpoint -> {checkpoint}"
    )
    return 0


def cmd_evaluate(settings: argparse.Namespace) -> int:
    out = _require_out(settings)
    if settings.checkpoint is None:
        raise UsageError("evaluate requires --checkpoint")
    ckpt = space.load_checkpoint(settings.checkpoint)
    records = _load_records(settings)
    queries, index = retrieval.build_eval(_train_pairs(records, settings, "evaluate"), ckpt.audio_head, ckpt.text_head)
    report = retrieval.evaluate(queries, index)
    table = retrieval.format_metrics_table(report)
    ingest.atomic_write(out / "metrics.csv", (retrieval.metrics_csv(report) + "\n").encode("utf-8"))
    ingest.atomic_write(out / "report.txt", (table + "\n").encode("utf-8"))
    print(table)
    return 0


def cmd_rank(settings: argparse.Namespace, query: str, top: int) -> int:
    if top < 1:
        raise UsageError(f"--top must be >= 1, got {top}")
    if settings.checkpoint is None:
        raise UsageError("rank requires --checkpoint")
    ckpt = space.load_checkpoint(settings.checkpoint)
    records = _load_records(settings)
    ids = [rec.clip_id for rec in records]
    audio = _dump_rows(settings, "rank", "audio.embd", ids, "audio")
    [qvec] = encoder.text_vectors([query], settings.seed)
    ranked = retrieval.top_k(space.project(qvec, ckpt.text_head), ids, audio, ckpt.audio_head, top)
    for position, (clip_id, score) in enumerate(ranked, start=1):
        print(f"{position:>3}  {score:+.4f}  {clip_id}")
    return 0


def cmd_gradcheck(seed: int) -> int:
    worst = 0.0
    for shape in GRADCHECK_SHAPES:
        err = space.gradient_check(seed, shape)
        print(f"gradcheck shape={shape}: max relative error {err:.3e}")
        worst = max(worst, err)
    if worst < GRADCHECK_TOLERANCE:
        print(f"gradcheck PASS (max {worst:.3e} < {GRADCHECK_TOLERANCE})")
        return 0
    print(f"gradcheck FAIL (max {worst:.3e} >= {GRADCHECK_TOLERANCE})")
    return 1


def build_parser() -> argparse.ArgumentParser:
    # the flags of the commands that take settings, built once and shared as a parent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file; flags override it")
    for s in SETTINGS:
        if s.parse is _switch:
            kind = {"action": "store_const", "const": True}
        else:
            kind = {"type": s.parse, "action": "extend" if isinstance(s.default, list) else "store"}
        # an absent flag sets nothing, so it cannot mask a config value
        common.add_argument("--" + s.key.replace("_", "-"), dest=s.key, default=argparse.SUPPRESS, help=s.help, **kind)

    parser = argparse.ArgumentParser(prog="acre", description="audio-caption retrieval engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("embed", "train", "finetune", "evaluate"):
        sub.add_parser(name, parents=[common])

    rank_p = sub.add_parser("rank", parents=[common])
    rank_p.add_argument("--query", required=True, help="text query")
    rank_p.add_argument("--top", type=int, default=10)

    grad_p = sub.add_parser("gradcheck")
    grad_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(args.seed)
        settings = _build_settings(args)
        if args.command == "embed":
            return cmd_embed(settings)
        if args.command == "evaluate":
            return cmd_evaluate(settings)
        if args.command == "rank":
            return cmd_rank(settings, args.query, args.top)
        return _run_training(settings, args.command)
    except _ERROR_KINDS as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
