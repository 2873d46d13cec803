"""The three workloads: what each sets up, which CLI commands one timed
operation runs, how the outputs are checked, and its end-to-end figures.

Why these three:
- embed-wav stresses ingest.read_wav, dsp and encoder (WAV -> log-mel -> toy
  transformer, plus text encoding); space and retrieval do not run.
- train-eval stresses space (loss gradients, Adam, checkpoints) and
  retrieval.evaluate over bulk dump reads; dsp and encoder do not run.
- rank-serve is a closed loop with one client issuing `acre rank` queries: the
  same modules used per query instead of in bulk, where per-invocation cost
  (manifest and dump parsing, projecting the whole corpus) dominates.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracles

REFERENCE = Path(__file__).resolve().parent / "reference_embed.npz"
# The reference corpus: a fixed seed and five embed-wav slots covering each
# WAV format and each segment regime (one padded segment, several segments,
# the random snippet of a clip over 30 s).
REFERENCE_SEED = 0
REFERENCE_SLOTS = (0, 8, 13, 19, 23)
# Toy encoders run in float64 today; a float32 rewrite must stay this close.
REFERENCE_ATOL = 2e-3
TOY_WIDTH = 64


@dataclass
class Command:
    name: str
    argv: list[str]
    out: Path
    wall_s: float = 0.0
    rss_mb: float = 0.0
    code: int | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def log(self) -> Path:
        """Where the command's stdout and stderr go."""
        return self.out.parent / f"{self.out.name}.{self.name}.log"

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def p90(values: list[float]) -> float | None:
    """The 90th percentile if at least 10 samples lie above it, else None."""
    ordered = sorted(values)
    k = int(np.ceil(0.9 * len(ordered))) - 1
    return ordered[k] if len(ordered) - 1 - k >= 10 else None


class Workload:
    name = ""
    min_ops = 1

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.inputs = root / "in"

    def setup(self, acre) -> dict:
        """Generate inputs (in a forked child); returns a JSON-able plan."""
        raise NotImplementedError

    def op(self, k: int, plan: dict) -> list[Command]:
        raise NotImplementedError

    def check(self, ops: list[list[Command]], plan: dict, acre) -> None:
        """Record in each command's problems where its outputs are wrong; ops[k] is operation k."""
        raise NotImplementedError

    def figures(self, ops: list[list[Command]]) -> tuple[dict, dict]:
        """(generic end-to-end values, the workload's own named figures)."""
        raise NotImplementedError

    def _cmd(self, name: str, out: Path, *args: str) -> Command:
        return Command(name, [name, *args, "--seed", str(self.seed)], out)


class EmbedWav(Workload):
    name = "embed-wav"
    min_ops = 2  # the second embed is the byte-identical repeat

    def setup(self, acre):
        corpus = gen.embed_corpus(self.seed, self.inputs)
        return {k: str(v) if isinstance(v, Path) else v for k, v in corpus.items()}

    def op(self, k, plan):
        out = self.root / f"op{k}"
        return [self._cmd("embed", out, "--manifest", plan["manifest"], "--audio-dir", plan["audio"],
                          "--augmented-captions", plan["variants"], "--out", str(out))]

    def expected_ids(self, plan):
        clips = plan["ids"]
        caps = [f"{c}#{k}" for c in clips for k in range(gen.CAPTIONS)]
        variants = [f"{c}#{k}@{j}" for c in clips for k in range(gen.CAPTIONS) for j in range(gen.VARIANTS)]
        return {"audio.embd": clips, "captions.embd": caps, "variants.embd": variants}

    def check(self, ops, plan, acre):
        expected = self.expected_ids(plan)
        first = None
        for (cmd,) in ops:
            if cmd.code != 0:
                continue
            blobs = {}
            for fname, ids in expected.items():
                path = cmd.out / fname
                if not path.exists():
                    cmd.problems.append(f"{path}: missing")
                    continue
                blobs[fname] = path.read_bytes()
                dump = acre.ingest.read_embedding_dump(path)
                cmd.problems += oracles.check_dump(dump, ids, TOY_WIDTH, str(path))
            if first is None:
                first = blobs
            elif blobs != first:
                cmd.problems.append(f"{cmd.out}: dumps differ from the first repeat")
        # the embedding values, whatever the workload seed; the first command carries a mismatch
        ok = [cmd for (cmd,) in ops if cmd.code == 0]
        if ok:
            ok[0].problems += check_reference(self.root / "reference", acre)

    def figures(self, ops):
        walls = [cmd.wall_s for (cmd,) in ops]
        clips = len(gen.EMBED_DURATIONS)
        rate = clips * len(walls) / sum(walls)
        return ({"throughput_per_s": rate, "latency_p50_ms": statistics.median(walls) * 1e3},
                {"embed_clips_per_s": (rate, "1/s")})


def embed_reference(root: Path, acre) -> dict[str, np.ndarray] | None:
    """Embed the reference corpus in this process: the vectors of each dump, or None if embed failed."""
    corpus = gen.embed_corpus(REFERENCE_SEED, root / "in", REFERENCE_SLOTS)
    out = root / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = acre.cli.main(["embed", "--manifest", str(corpus["manifest"]), "--audio-dir", str(corpus["audio"]),
                              "--augmented-captions", str(corpus["variants"]), "--out", str(out),
                              "--seed", str(REFERENCE_SEED)])
    if code != 0:
        return None
    return {
        name: np.stack([v for _, v in acre.ingest.read_embedding_dump(out / f"{name}.embd").entries])
        for name in ("audio", "captions", "variants")
    }


def check_reference(root: Path, acre) -> list[str]:
    if not REFERENCE.exists():
        return [f"{REFERENCE}: missing"]
    ref = np.load(REFERENCE)
    got = embed_reference(root, acre)
    if got is None:
        return ["reference corpus: acre embed failed"]
    problems = []
    for name, vecs in got.items():
        if vecs.shape != ref[name].shape:
            problems.append(f"reference {name}: shape {vecs.shape} != {ref[name].shape}")
        elif not np.allclose(vecs, ref[name], rtol=0.0, atol=REFERENCE_ATOL):
            err = float(np.max(np.abs(vecs - ref[name])))
            problems.append(f"reference {name}: max abs error {err:.3g} > {REFERENCE_ATOL}")
    return problems


class TrainEval(Workload):
    name = "train-eval"
    epochs = 2
    # The default learning rates barely move the heads in 2 epochs; these give
    # mid-range mAP@10 at gen.LATENT_NOISE.
    lr = ("--lr-max", "1e-3", "--finetune-lr-max", "5e-4")

    def setup(self, acre):
        corpus = gen.train_eval_corpus(self.seed, self.inputs, acre.ingest.write_embedding_dump)
        return {
            "train_manifest": str(corpus["train"]["manifest"]),
            "train_dumps": str(corpus["train"]["dumps"]),
            "eval_manifest": str(corpus["eval"]["manifest"]),
            "eval_dumps": str(corpus["eval"]["dumps"]),
            "variants": str(corpus["variants"]),
        }

    def op(self, k, plan):
        base = self.root / f"op{k}"
        pre, ft, ev = base / "pretrain", base / "finetune", base / "evaluate"
        epochs = str(self.epochs)
        return [
            self._cmd("train", pre, "--manifest", plan["train_manifest"], "--encoder",
                      f"dump:{plan['train_dumps']}", "--epochs", epochs, *self.lr, "--out", str(pre)),
            self._cmd("finetune", ft, "--manifest", plan["train_manifest"], "--encoder",
                      f"dump:{plan['train_dumps']}", "--augmented-captions", plan["variants"], "--strict",
                      "--checkpoint", str(pre / "checkpoint.ackp"), "--epochs", epochs, *self.lr,
                      "--out", str(ft)),
            self._cmd("evaluate", ev, "--manifest", plan["eval_manifest"], "--encoder",
                      f"dump:{plan['eval_dumps']}", "--checkpoint", str(ft / "checkpoint.ackp"), "--out", str(ev)),
        ]

    def check(self, ops, plan, acre):
        dumps = Path(plan["eval_dumps"])
        audio = acre.ingest.read_embedding_dump(dumps / "audio.embd").as_dict()
        captions = acre.ingest.read_embedding_dump(dumps / "captions.embd").as_dict()
        for train, finetune, evaluate in ops:
            for cmd in (train, finetune):
                if cmd.code == 0:
                    cmd.problems += oracles.check_loss_csv(cmd.out / "loss.csv")
            if evaluate.code == 0:
                ckpt = acre.space.load_checkpoint(finetune.out / "checkpoint.ackp")
                expected = oracles.expected_eval(audio, captions, ckpt.audio_head, ckpt.text_head)
                evaluate.problems += oracles.check_metrics(evaluate.out / "metrics.csv", expected)

    def steps(self, cmd: Command) -> int:
        path = cmd.out / "loss.csv"
        return len(path.read_text().splitlines()) - 1 if path.exists() else 0

    def figures(self, ops):
        train_walls = sum(t.wall_s + f.wall_s for t, f, _ in ops)
        steps = sum(self.steps(t) + self.steps(f) for t, f, _ in ops)
        eval_walls = [e.wall_s for _, _, e in ops]
        rate = steps / train_walls
        p50 = statistics.median(eval_walls) * 1e3
        map10 = oracles.read_metrics_csv(ops[0][2].out / "metrics.csv")["map_at_10"]
        n_queries = gen.EVAL_CLIPS * gen.CAPTIONS
        return ({"throughput_per_s": rate, "latency_p50_ms": p50},
                {"train_steps_per_s": (rate, "1/s"),
                 "eval_queries_per_s": (n_queries * len(eval_walls) / sum(eval_walls), "1/s"),
                 "eval_map_at_10": (map10, "ratio")})


class RankServe(Workload):
    name = "rank-serve"
    min_ops = 100  # p90 with at least ten samples beyond it
    top = 10

    def setup(self, acre):
        corpus = gen.rank_corpus(self.seed, self.inputs, acre.ingest.write_embedding_dump)
        ckpt_dir = self.inputs / "checkpoint"
        code = acre.cli.main(["train", "--manifest", str(corpus["manifest"]), "--encoder",
                              f"dump:{corpus['dumps']}", "--epochs", "1", "--seed", str(self.seed),
                              "--out", str(ckpt_dir)])
        if code != 0:
            raise RuntimeError(f"training the rank-serve checkpoint failed with exit code {code}")
        return {"manifest": str(corpus["manifest"]), "dumps": str(corpus["dumps"]),
                "checkpoint": str(ckpt_dir / "checkpoint.ackp"), "queries": corpus["queries"]}

    def op(self, k, plan):
        query = plan["queries"][k % len(plan["queries"])]
        return [self._cmd("rank", self.root / f"op{k}", "--manifest", plan["manifest"], "--encoder",
                          f"dump:{plan['dumps']}", "--checkpoint", plan["checkpoint"],
                          "--query", query, "--top", str(self.top))]

    def check(self, ops, plan, acre):
        audio = acre.ingest.read_embedding_dump(Path(plan["dumps"]) / "audio.embd").as_dict()
        ids = [rec.clip_id for rec in acre.ingest.load_manifest(plan["manifest"]) if rec.clip_id in audio]
        ckpt = acre.space.load_checkpoint(plan["checkpoint"])
        index = oracles.l2n(np.stack([audio[c] for c in ids]).astype(np.float64) @ ckpt.audio_head.weight.T
                            + ckpt.audio_head.bias)
        vocab = acre.encoder.Vocabulary.default()
        params = acre.encoder.EncoderParams(seed=acre.derive_seed(self.seed, "text-encoder"))
        expected = {}
        for k, (cmd,) in enumerate(ops):
            if cmd.code != 0:
                continue
            query = plan["queries"][k % len(plan["queries"])]
            if query not in expected:
                tokens = acre.encoder.tokenize(acre.encoder.normalize_text(query), vocab)
                raw = acre.encoder.text_encode(tokens, params, len(vocab))
                qvec = oracles.l2n(raw @ ckpt.text_head.weight.T + ckpt.text_head.bias)
                expected[query] = oracles.top_ids(index @ qvec, ids, self.top)
            got = oracles.parse_rank_output(cmd.log.read_text(encoding="utf-8"))
            if got != expected[query]:
                cmd.problems.append(f"query {k}: top-{self.top} {got} != oracle {expected[query]}")

    def figures(self, ops):
        walls = [cmd.wall_s * 1e3 for (cmd,) in ops]
        p50 = statistics.median(walls)
        rate = len(walls) / (sum(walls) / 1e3)
        # rank_queries is the sample count behind rank_p90_ms
        named = {"rank_p50_ms": (p50, "ms"), "rank_queries": (len(walls), "count")}
        tail = p90(walls)
        if tail is not None:
            named["rank_p90_ms"] = (tail, "ms")
        return {"throughput_per_s": rate, "latency_p50_ms": p50}, named


WORKLOADS = {w.name: w for w in (EmbedWav, TrainEval, RankServe)}
