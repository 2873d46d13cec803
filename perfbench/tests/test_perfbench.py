"""Tests of the benchmark itself: oracles, generator, tracer and metric names.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import acre  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from acre import retrieval, space  # noqa: E402


def _index(vectors: np.ndarray, rng: np.random.Generator) -> retrieval.RetrievalIndex:
    ids = [f"c{i:03d}" for i in rng.permutation(len(vectors))]
    return retrieval.RetrievalIndex.build(ids, vectors)


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_rank_oracle_agrees_with_acre_rank(tie_heavy):
    rng = np.random.default_rng(3)
    if tie_heavy:
        # few distinct vectors, so many clips tie exactly and ids break the ties
        vectors = rng.integers(-1, 2, size=(4, 3))[rng.integers(0, 4, size=40)].astype(float)
        vectors[np.all(vectors == 0, axis=1)] = 1.0
        queries = rng.integers(-1, 2, size=(25, 3)).astype(float)
        queries[np.all(queries == 0, axis=1)] = 1.0
    else:
        vectors = rng.normal(size=(40, 8))
        queries = rng.normal(size=(25, 8))
    index = _index(vectors, rng)
    ids = list(index.ids)
    for q in queries:
        sims = index.vectors @ space.l2_normalize(q)
        expected = retrieval.rank(q, index)
        assert oracles.top_ids(sims, ids, 10) == list(expected.ranked_ids[:10])
        targets = np.arange(len(ids))
        ranks = oracles.target_ranks(np.tile(sims, (len(ids), 1)), ids, targets)
        for t in targets:
            assert ranks[t] == retrieval.rank(q, index, target_id=ids[t]).rank_of_target


def test_eval_oracle_equals_acre_evaluate():
    rng = np.random.default_rng(5)
    audio = {f"a{i:03d}": rng.normal(size=12) for i in range(30)}
    captions = {f"{c}#{k}": v + rng.normal(scale=2.0, size=12) for c, v in audio.items() for k in range(5)}
    a_head = space.ProjectionHead.initialize(12, 16, np.random.default_rng(1))
    t_head = space.ProjectionHead.initialize(12, 16, np.random.default_rng(2))
    pairs = [space.TrainPair(c, v, tuple(captions[f"{c}#{k}"] for k in range(5))) for c, v in audio.items()]
    report = retrieval.evaluate(*retrieval.build_eval(pairs, a_head, t_head))
    expected = oracles.expected_eval(audio, captions, a_head, t_head)
    assert expected == {key: getattr(report, key) for key in oracles.METRIC_KEYS}


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "TRAIN_CLIPS", 16)
    monkeypatch.setattr(gen, "EVAL_CLIPS", 8)
    monkeypatch.setattr(gen, "RANK_CLIPS", 12)
    write = acre.ingest.write_embedding_dump
    trees = {}
    for label, seed in (("a", 11), ("b", 11), ("c", 12)):
        root = tmp_path / label
        embed = gen.embed_corpus(seed, root / "embed")
        gen.train_eval_corpus(seed, root / "train-eval", write)
        rank = gen.rank_corpus(seed, root / "rank", write)
        (root / "queries.json").write_text(json.dumps(rank["queries"]))
        trees[label] = _tree(root)
        assert len(embed["ids"]) == len(gen.EMBED_DURATIONS)
    assert trees["a"] == trees["b"]
    assert trees["a"].keys() == trees["c"].keys()
    assert all(trees["a"][name] != trees["c"][name] for name in trees["a"])


def test_generated_captions_cover_unknown_words_and_the_token_cap(tmp_path):
    vocab = acre.encoder.Vocabulary.default()
    queries = gen.rank_corpus(0, tmp_path, acre.ingest.write_embedding_dump)["queries"]
    tokens = [acre.encoder.tokenize(acre.encoder.normalize_text(q), vocab) for q in queries]
    assert any(acre.encoder.UNK_TOKEN in t.pieces for t in tokens)
    assert any(t.content_length == acre.encoder.MAX_CONTENT_TOKENS for t in tokens)
    assert min(len(q.split()) for q in queries) == 3 and max(len(q.split()) for q in queries) == 40


def test_tracer_wraps_every_binding_and_nests_spans(tmp_path):
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    rng = np.random.default_rng(0)
    ids = [f"c{i}" for i in range(8)]
    acre.ingest.write_embedding_dump([(c, rng.normal(size=6)) for c in ids], dumps / "audio.embd")
    acre.ingest.write_embedding_dump(
        [(f"{c}#{k}", rng.normal(size=5)) for c in ids for k in range(5)], dumps / "captions.embd")
    gen.write_manifest(tmp_path / "m.csv", [(c, [f"word {k}" for k in range(5)]) for c in ids])
    argv = ["train", "--manifest", str(tmp_path / "m.csv"), "--encoder", f"dump:{dumps}", "--epochs", "1",
            "--batch-size", "4", "--out-dim", "8", "--out", str(tmp_path / "out")]
    spans_path = tmp_path / "spans.json"

    def child():
        tracer = tracing.Tracer("r1")
        tracer.install(acre)
        assert acre.retrieval.project is acre.space.project
        assert acre.retrieval.project.__wrapped__ is not None
        try:
            return tracer.call("cli.train", acre.cli.main, argv)
        finally:
            tracer.dump(spans_path)

    code, _, _ = run.fork_call(child, tmp_path / "child.log")
    assert code == 0, (tmp_path / "child.log").read_text()
    spans = tracing.load_spans(spans_path)
    names = [s[0] for s in spans]
    assert names[0] == "cli.train" and spans[0][3] == -1
    assert {s[4] for s in spans} == {"r1"}
    train = names.index("space.train")
    grads = [s for s in spans if s[0] == "space.loss_gradients"]
    assert len(grads) == 2 and all(s[3] == train for s in grads)
    assert sum(s[0] == "space.adam_step" for s in spans) == 2
    own = tracing.self_times(spans)
    assert all(v >= -1e-9 for v in own)
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1])
    profile = tracing.Profile()
    profile.add(spans)
    layer = tracing.per_layer_metrics(profile, 1, 0.0)
    assert layer["space.loss_gradients.calls"][0] == 2
    assert layer["ingest.read_embedding_dump.entries"][0] == 48
    assert sum(layer[f"{name}.self_share"][0] for name in tracing.LAYERS) == pytest.approx(1.0)


def test_printed_metric_names_are_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end_metrics({name: 1.0 for name in run.END_TO_END_UNITS})
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {k: v["unit"] for k, v in end_to_end.items()}
    per_layer = tracing.per_layer_metrics(tracing.Profile(), 1, 0.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_p90_needs_ten_samples_beyond_it():
    assert workloads.p90(list(range(100))) == 89
    assert workloads.p90(list(range(99))) is None


def test_a_lost_count_is_reported_not_read_as_zero():
    tracer = tracing.Tracer("r1")
    tracer.call("cli.rank", tracer.call, "encoder.text_encode", lambda tokens: np.zeros(4), object())
    profile = tracing.Profile()
    profile.add(tracer.spans)
    assert profile.counter_errors == {"encoder.text_encode": 1}
    assert tracing.per_layer_metrics(profile, 1, 0.0)["trace.counter_errors"][0] == 1


def test_reference_corpus_embeds_to_the_recorded_vectors(tmp_path):
    assert workloads.check_reference(tmp_path, acre) == []
