import tracemalloc

import numpy as np
import pytest

from acre import dsp, encoder, ingest, retrieval, space
from conftest import make_latent_pairs, query_set, run_at_blas_threads


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- rank

def test_rank_exact_match_first():
    index = retrieval.RetrievalIndex.build(["a", "b", "c"], np.eye(3))
    result = retrieval.rank(np.array([0.0, 1.0, 0.0]), index, target_id="b")
    assert result.ranked_ids[0] == "b"
    assert result.rank_of_target == 1


def test_rank_tie_breaks_by_ascending_id():
    vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    index = retrieval.RetrievalIndex.build(["zz", "aa", "mm"], vecs)
    result = retrieval.rank(np.array([1.0, 0.0]), index)
    assert result.ranked_ids == ("aa", "zz", "mm")


def test_rank_returns_full_permutation():
    rng = np.random.default_rng(0)
    ids = [f"c{i:02d}" for i in range(17)]
    index = retrieval.RetrievalIndex.build(ids, rng.normal(size=(17, 6)))
    result = retrieval.rank(rng.normal(size=6), index)
    assert sorted(result.ranked_ids) == sorted(ids)


def test_rank_matches_sort_by_scalar_loop_oracle():
    rng = np.random.default_rng(4)
    ids = [f"c{i:02d}" for i in range(20)]
    vecs = rng.normal(size=(20, 8))
    q = rng.normal(size=8)
    index = retrieval.RetrievalIndex.build(ids, vecs)
    got = retrieval.rank(q, index).ranked_ids
    sims = {}
    for cid, v in zip(ids, vecs):
        sims[cid] = float(np.dot(unit(v), unit(q)))
    expected = tuple(sorted(ids, key=lambda c: (-sims[c], c)))
    assert got == expected


def test_rank_errors():
    index = retrieval.RetrievalIndex.build(["a"], np.ones((1, 3)))
    with pytest.raises(retrieval.DimMismatch):
        retrieval.rank(np.ones(4), index)
    with pytest.raises(retrieval.UnknownTargetId):
        retrieval.rank(np.ones(3), index, target_id="nope")
    with pytest.raises(retrieval.EmptyIndex):
        retrieval.RetrievalIndex.build([], np.zeros((0, 3)))
    with pytest.raises(retrieval.EmptyIndex):
        retrieval.RetrievalIndex(ids=(), vectors=np.zeros((0, 3)))


def rank_oracle(query, ids, raw, head, k):
    """top_k's pairs as rank gives them on the whole projected corpus."""
    result = retrieval.rank(query, retrieval.RetrievalIndex.build(ids, space.project(raw, head)))
    return list(zip(result.ranked_ids, result.scores.tolist()))[:k]


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["checkpoint-heads", "trained-heads"])
@pytest.mark.parametrize("k", [1, 10, 10_000], ids=["top-1", "top-10", "top-past-the-corpus"])
def test_top_k_is_the_head_of_the_rank_oracle_bitwise(monkeypatch, blas_core, dtype, k):
    rng = np.random.default_rng(34)
    n = 3 * retrieval.RANK_BLOCK + 45
    ids = [f"c{i:04d}" for i in rng.permutation(n)]  # row order is not id order
    raw = rng.normal(size=(n, 48)).astype(np.float32)
    raw[[5, retrieval.RANK_BLOCK + 7, n - 1]] = raw[2 * retrieval.RANK_BLOCK]  # one tie across every block
    init = space.ProjectionHead.initialize(48, 96, rng)
    head = space.ProjectionHead(init.weight.astype(dtype), init.bias.astype(dtype))
    query = rng.normal(size=96).astype(dtype)
    blocks = []
    exact = retrieval.project
    monkeypatch.setattr(retrieval, "project", lambda e, h: blocks.append(len(e)) or exact(e, h))
    got = retrieval.top_k(query, ids, raw, head, k)
    assert blocks == [retrieval.RANK_BLOCK, retrieval.RANK_BLOCK, retrieval.RANK_BLOCK + 45]
    assert got == rank_oracle(query, ids, raw, head, k), f"OpenBLAS core {blas_core}"
    assert len(got) == min(k, n) and all(type(score) is float for _, score in got)


def test_top_k_keeps_every_tie_at_the_cut_and_orders_it_by_id():
    head = space.ProjectionHead(np.eye(2), np.zeros(2))
    raw = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
    ids = ["e", "d", "c", "b", "a"]
    assert retrieval.top_k(np.array([1.0, 0.0]), ids, raw, head, 2) == [("a", 1.0), ("c", 1.0)]
    assert [clip_id for clip_id, _ in retrieval.top_k(np.array([1.0, 0.0]), ids, raw, head, 5)] == list("acdbe")


def test_top_k_errors():
    head = space.ProjectionHead(np.eye(3), np.zeros(3))
    with pytest.raises(retrieval.EmptyIndex):
        retrieval.top_k(np.ones(3), [], np.zeros((0, 3)), head, 1)
    with pytest.raises(space.DimMismatch):
        retrieval.top_k(np.ones(3), ["a", "b"], np.ones((1, 3)), head, 1)
    with pytest.raises(space.DimMismatch):
        retrieval.top_k(np.ones(4), ["a"], np.ones((1, 3)), head, 1)
    with pytest.raises(ValueError):
        retrieval.top_k(np.ones(3), ["a"], np.ones((1, 3)), head, 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["checkpoint-heads", "trained-heads"])
def test_index_builds_leave_their_input_alone_and_build_eval_index_is_bitwise(dtype):
    rng = np.random.default_rng(29)
    n = 2 * space._NORM_BLOCK + 45  # two blocks of squares and a short one
    ids = [f"c{i:03d}" for i in range(n)]
    raw = rng.normal(size=(n, 24)).astype(np.float32)
    raw.flags.writeable = False  # as a dump's matrix is: writing to it would raise
    kept = raw.tobytes()
    init = space.ProjectionHead.initialize(24, 40, rng)
    head = space.ProjectionHead(init.weight.astype(dtype), init.bias.astype(dtype))
    P = space.project(raw, head).astype(np.float64)
    P.flags.writeable = False
    retrieval.RetrievalIndex.build(ids, P)
    space.l2_normalize(P)
    space.similarity_matrix(P, P[:5])
    retrieval.top_k(rng.normal(size=40), ids, raw, head, 10)
    pairs = [space.TrainPair(clip_id, row, (np.ones(3),)) for clip_id, row in zip(ids, raw)]
    _, index = retrieval.build_eval(pairs, head, space.ProjectionHead.initialize(3, 40, rng))
    assert raw.tobytes() == kept
    assert index.ids == tuple(ids)
    assert index.vectors.tobytes() == (P / np.linalg.norm(P, axis=-1, keepdims=True)).tobytes()
    assert index.vectors.tobytes() == retrieval.RetrievalIndex.build(ids, P).vectors.tobytes()


def test_index_rows_are_unit_norm():
    rng = np.random.default_rng(1)
    index = retrieval.RetrievalIndex.build(["a", "b"], rng.normal(size=(2, 5)) * 100)
    assert np.allclose(np.linalg.norm(index.vectors, axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------- metrics

@pytest.mark.parametrize("r,expected", [(1, 1.0), (2, 0.5), (10, 0.1), (11, 0.0), (500, 0.0)])
def test_average_precision_truncation(r, expected):
    assert retrieval.average_precision_at_10(r) == expected


def orthogonal_queries_with_ranks(ranks):
    """Build an index and queries whose target lands at the requested rank."""
    m = max(ranks) + 1
    ids = [f"c{i:03d}" for i in range(m)]
    index = retrieval.RetrievalIndex.build(ids, np.eye(m))
    queries = []
    for qi, r in enumerate(ranks):
        # query aligned with r-1 decoys more than with the target
        v = np.zeros(m)
        target = ids[-1 - qi]
        t_idx = ids.index(target)
        v[t_idx] = 0.5
        decoys = [i for i in range(m) if i != t_idx][: r - 1]
        for d in decoys:
            v[d] = 1.0
        queries.append((f"q{qi}", v, target))
    return query_set(queries), index


def test_evaluate_hand_case():
    queries, index = orthogonal_queries_with_ranks([1, 2, 11, 20])
    report = retrieval.evaluate(queries, index)
    assert report.map_at_10 == pytest.approx(0.375)
    assert report.r_at_1 == 0.25
    assert report.r_at_5 == 0.5
    assert report.r_at_10 == 0.5
    assert report.n_queries == 4


def test_evaluate_all_rank_one():
    ids = ["a", "b", "c"]
    index = retrieval.RetrievalIndex.build(ids, np.eye(3))
    queries = ([f"q{i}" for i in range(3)], np.eye(3), ids)
    report = retrieval.evaluate(queries, index)
    assert (report.map_at_10, report.r_at_1, report.r_at_5, report.r_at_10) == (1.0, 1.0, 1.0, 1.0)


def brute_force_report(queries, index):
    """Independent recomputation of every metric from raw similarities."""
    per_query = {}
    for query_id, vector, target_id in zip(*queries):
        sims = [(float(np.dot(unit(v), unit(vector))), cid) for cid, v in zip(index.ids, index.vectors)]
        ordered = sorted(sims, key=lambda t: (-t[0], t[1]))
        per_query[query_id] = [cid for _, cid in ordered].index(target_id) + 1
    ap = 0.0
    h1 = h5 = h10 = 0
    for qid in sorted(per_query):
        r = per_query[qid]
        ap += (1.0 / r) if r <= 10 else 0.0
        h1 += r <= 1
        h5 += r <= 5
        h10 += r <= 10
    n = len(per_query)
    return (ap / n, h1 / n, h5 / n, h10 / n)


def test_evaluate_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(99)
    ids = [f"c{i:03d}" for i in range(30)]
    index = retrieval.RetrievalIndex.build(ids, rng.normal(size=(30, 12)))
    queries = query_set((f"q{k:03d}", rng.normal(size=12), ids[int(rng.integers(30))]) for k in range(50))
    report = retrieval.evaluate(queries, index)
    expected = brute_force_report(queries, index)
    assert (report.map_at_10, report.r_at_1, report.r_at_5, report.r_at_10) == expected


def test_evaluate_invariant_to_query_and_index_order():
    rng = np.random.default_rng(5)
    ids = [f"c{i:02d}" for i in range(12)]
    vecs = rng.normal(size=(12, 7))
    queries = [(f"q{k}", rng.normal(size=7), ids[k]) for k in range(12)]
    a = retrieval.evaluate(query_set(queries), retrieval.RetrievalIndex.build(ids, vecs))
    perm = rng.permutation(12)
    shuffled_index = retrieval.RetrievalIndex.build([ids[i] for i in perm], vecs[perm])
    b = retrieval.evaluate(query_set(reversed(queries)), shuffled_index)
    assert a == b


def assert_evaluate_agrees_with_rank(queries, index):
    # with at most ten clips every rank is inside the AP@10 cut, so a
    # one-query mAP@10 of 1/r recovers the rank r exactly
    assert len(index) <= 10
    for query_id, vector, target_id in zip(*queries):
        r = retrieval.rank(vector, index, target_id=target_id).rank_of_target
        assert retrieval.evaluate(([query_id], vector[None], [target_id]), index).map_at_10 == 1.0 / r


def test_evaluate_agrees_with_rank_on_duplicated_clips():
    rng = np.random.default_rng(21)
    base = rng.normal(size=(5, 6))
    ids = [f"c{i}" for i in range(10)]
    index = retrieval.RetrievalIndex.build(ids, np.vstack([base, base]))
    queries = [(f"q{i}", base[i % 5] + 0.3 * rng.normal(size=6), ids[i]) for i in range(10)]
    queries += [(f"x{i}", base[i % 5], ids[i]) for i in range(10)]
    assert_evaluate_agrees_with_rank(query_set(queries), index)


def test_evaluate_agrees_with_rank_on_orthonormal_ties():
    m = 8
    ids = [f"c{i:03d}" for i in range(m)]
    index = retrieval.RetrievalIndex.build(ids, np.eye(m))
    queries = []
    for target in range(m):
        for weight in (0.5, 1.0, 2.0):
            v = np.ones(m)
            v[target] = weight
            queries.append((f"q{target}w{weight}", v, ids[target]))
    assert_evaluate_agrees_with_rank(query_set(queries), index)


def test_evaluate_agrees_with_rank_on_shuffled_storage_order():
    rng = np.random.default_rng(22)
    ids = [f"c{i}" for i in range(9)]
    vecs = np.vstack([np.repeat(rng.normal(size=(3, 4)), 2, axis=0), rng.normal(size=(3, 4))])
    perm = rng.permutation(9)
    index = retrieval.RetrievalIndex.build([ids[i] for i in perm], vecs[perm])
    assert list(index.ids) != sorted(index.ids)
    queries = [(f"q{i}", vecs[i] + 0.2 * rng.normal(size=4), ids[i]) for i in range(9)]
    queries += [(f"x{i}", vecs[i], ids[i]) for i in range(9)]
    assert_evaluate_agrees_with_rank(query_set(queries), index)


def test_evaluate_agrees_with_rank_with_several_captions_per_clip():
    rng = np.random.default_rng(23)
    pairs = [
        space.TrainPair(f"c{i}", rng.normal(size=7), tuple(rng.normal(size=5) for _ in range(4))) for i in range(10)
    ]
    audio_head = space.ProjectionHead.initialize(7, 6, rng)
    text_head = space.ProjectionHead.initialize(5, 6, rng)
    queries, index = retrieval.build_eval(pairs, audio_head, text_head)
    assert len(queries[0]) == len(queries[2]) == 40 and queries[1].shape == (40, 6)
    assert_evaluate_agrees_with_rank(queries, index)


def tied_queries(n, rng):
    """n queries against 30 clips, a third of them duplicates of others, and
    every seventh query exactly a clip vector: ties at the target and around it."""
    base = rng.normal(size=(20, 6))
    vecs = np.vstack([base, base[:10]])
    ids = [f"c{i:02d}" for i in range(30)]
    queries = []
    for k in range(n):
        target = int(rng.integers(30))
        v = vecs[target] if k % 7 == 0 else vecs[target] + 0.8 * rng.normal(size=6)
        queries.append((f"q{k:05d}", v, ids[target]))
    return query_set(queries), retrieval.RetrievalIndex.build(ids, vecs)


@pytest.mark.parametrize("extra", [-1, 0, 1, retrieval.EVAL_BLOCK + 3], ids=["block-1", "block", "block+1", "2block+3"])
def test_blocked_evaluate_ranks_agree_with_rank_exactly(monkeypatch, extra):
    n = retrieval.EVAL_BLOCK + extra
    queries, index = tied_queries(n, np.random.default_rng(n))
    expected = [retrieval.rank(v, index, target_id=t).rank_of_target for _, v, t in zip(*queries)]
    ranks, blocks = [], []
    exact_ap, exact_normalize = retrieval.average_precision_at_10, retrieval.l2_normalize_in_place
    monkeypatch.setattr(retrieval, "average_precision_at_10", lambda r: ranks.append(r) or exact_ap(r))
    monkeypatch.setattr(retrieval, "l2_normalize_in_place", lambda x: blocks.append(len(x)) or exact_normalize(x))
    report = retrieval.evaluate(queries, index)
    assert ranks == expected  # evaluate sums AP@10 over the ranks in query-id order
    # no block is smaller than EVAL_BLOCK unless the whole input is
    assert blocks == ([n] if n < 2 * retrieval.EVAL_BLOCK else [retrieval.EVAL_BLOCK, n - retrieval.EVAL_BLOCK])
    monkeypatch.setattr(retrieval, "EVAL_BLOCK", 10 * n)
    assert retrieval.evaluate(queries, index) == report


def test_build_eval_projects_in_blocks_bitwise(monkeypatch, blas_core):
    rng = np.random.default_rng(26)
    n = 2 * retrieval.EVAL_BLOCK + 3
    pairs = [
        space.TrainPair(f"c{i:04d}", rng.normal(size=64), (rng.normal(size=64).astype(np.float32),)) for i in range(n)
    ]
    audio_head = space.ProjectionHead.initialize(64, 128, rng)
    text_head = space.ProjectionHead.initialize(64, 128, rng)
    blocks = []
    exact = retrieval.project
    monkeypatch.setattr(retrieval, "project", lambda e, h: blocks.append(len(e)) or exact(e, h))
    queries, _ = retrieval.build_eval(pairs, audio_head, text_head)
    assert blocks == [n, retrieval.EVAL_BLOCK, retrieval.EVAL_BLOCK + 3]  # the index, then the captions
    whole = exact(np.stack([p.captions[0] for p in pairs]), text_head)
    assert queries[1].tobytes() == whole.tobytes(), f"OpenBLAS core {blas_core}"


def test_evaluate_holds_less_than_the_score_matrix():
    rng = np.random.default_rng(27)
    n_queries, n_clips = 4 * retrieval.EVAL_BLOCK, 1000
    ids = [f"c{i:04d}" for i in range(n_clips)]
    index = retrieval.RetrievalIndex.build(ids, rng.normal(size=(n_clips, 32)))
    vectors = rng.normal(size=(n_queries, 32))
    queries = ([f"q{k:05d}" for k in range(n_queries)], vectors, [ids[k % n_clips] for k in range(n_queries)])
    tracemalloc.start()
    try:
        retrieval.evaluate(queries, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_queries * n_clips * 8, peak


def test_evaluate_metrics_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    rng = np.random.default_rng(28)
    n_clips = 2 * retrieval.EVAL_BLOCK // 5 + 7  # five captions each: more than two blocks of queries
    ids = [f"c{i:04d}.wav" for i in range(n_clips)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n" + "".join(f"{c},a,b,c,d,e\n" for c in ids)
    )
    dumps = tmp_path / "dumps"
    latent = rng.normal(size=(n_clips, 256))
    ingest.write_embedding_dump(zip(ids, latent), dumps / "audio.embd")
    captions = [(f"{c}#{k}", latent[i] + rng.normal(size=256)) for i, c in enumerate(ids) for k in range(5)]
    ingest.write_embedding_dump(captions, dumps / "captions.embd")
    heads = [space.ProjectionHead.initialize(256, 1024, np.random.default_rng(seed)) for seed in (1, 2)]
    space.save_checkpoint(tmp_path / "ckpt.ackp", *heads)
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for threads, out in zip(("1", "2"), outs):
        args = ["evaluate", "--manifest", str(manifest), "--encoder", f"dump:{dumps}"]
        args += ["--checkpoint", str(tmp_path / "ckpt.ackp"), "--out", str(out)]
        _, core = run_at_blas_threads(threads, "-m", "acre.cli", *args)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes(), f"OpenBLAS core {core}"


@pytest.mark.parametrize(
    "case, error",
    [
        ("no queries", ValueError),
        ("empty index", retrieval.EmptyIndex),
        ("unknown target", retrieval.UnknownTargetId),
        ("wrong dim", space.DimMismatch),
        ("zero norm", space.ZeroNormVector),
        ("fewer rows than ids", space.DimMismatch),
        ("more rows than ids", space.DimMismatch),
        ("fewer targets than ids", space.DimMismatch),
        ("more targets than ids", space.DimMismatch),
    ],
)
def test_evaluate_errors(case, error):
    index = retrieval.RetrievalIndex.build(["a", "b"], np.eye(3)[:2])
    queries = {
        "no queries": ([], np.zeros((0, 3)), []),
        "empty index": (["q0"], np.ones((1, 3)), ["a"]),
        "unknown target": (["q0", "q1"], np.ones((2, 3)), ["a", "nope"]),
        "wrong dim": (["q0", "q1"], np.ones((2, 4)), ["a", "a"]),
        "zero norm": (["q0", "q1"], np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]), ["a", "a"]),
        "fewer rows than ids": (["q0", "q1"], np.ones((1, 3)), ["a", "a"]),
        "more rows than ids": (["q0", "q1"], np.ones((3, 3)), ["a", "a"]),
        "fewer targets than ids": (["q0", "q1"], np.ones((2, 3)), ["a"]),
        "more targets than ids": (["q0", "q1"], np.ones((2, 3)), ["a", "a", "b"]),
    }[case]
    with pytest.raises(error):
        if case == "empty index":  # refused when built, so evaluate never sees one
            index = retrieval.RetrievalIndex(ids=(), vectors=np.zeros((0, 3)))
        retrieval.evaluate(queries, index)


def test_build_eval_batched_queries_match_per_caption_projection():
    rng = np.random.default_rng(24)
    pairs = [
        space.TrainPair(f"c{i}", rng.normal(size=6), tuple(rng.normal(size=5) for _ in range(1 + i % 3)))
        for i in range(7)
    ]
    audio_head = space.ProjectionHead.initialize(6, 8, rng)
    text_head = space.ProjectionHead.initialize(5, 8, rng)
    queries, _ = retrieval.build_eval(pairs, audio_head, text_head)
    expected = [
        (f"{pair.clip_id}#{k}", pair.clip_id, space.project(cap, text_head))
        for pair in pairs
        for k, cap in enumerate(pair.captions)
    ]
    query_ids, vectors, target_ids = queries
    assert list(zip(query_ids, target_ids)) == [(qid, target) for qid, target, _ in expected]
    assert len(vectors) == len(expected)
    for got, (_, _, vec) in zip(vectors, expected):
        assert np.linalg.norm(got - vec) <= 1e-12 * np.linalg.norm(vec)


def test_build_eval_rejects_caption_of_wrong_dim():
    rng = np.random.default_rng(25)
    pairs = [
        space.TrainPair("a", rng.normal(size=6), (rng.normal(size=5),)),
        space.TrainPair("b", rng.normal(size=6), (rng.normal(size=5), rng.normal(size=4))),
    ]
    head_a = space.ProjectionHead.initialize(6, 8, rng)
    head_t = space.ProjectionHead.initialize(5, 8, rng)
    with pytest.raises(space.DimMismatch, match="'b#1'"):
        retrieval.build_eval(pairs, head_a, head_t)


def test_untrained_heads_score_at_chance_level():
    # 100 clips of pure noise through random heads: expected mAP@10 is the
    # mean truncated reciprocal rank of a uniform permutation,
    # sum(1/r for r <= 10) / 100 ~= 0.029; the band allows seed noise
    rng = np.random.default_rng(17)
    pairs = [
        space.TrainPair(f"c{i:03d}", rng.normal(size=24), (rng.normal(size=20),)) for i in range(100)
    ]
    audio_head = space.ProjectionHead.initialize(24, 48, rng)
    text_head = space.ProjectionHead.initialize(20, 48, rng)
    queries, index = retrieval.build_eval(pairs, audio_head, text_head)
    report = retrieval.evaluate(queries, index)
    assert 0.01 <= report.map_at_10 <= 0.12


def test_metrics_report_invariants():
    with pytest.raises(ValueError):
        retrieval.MetricsReport(map_at_10=0.5, r_at_1=0.9, r_at_5=0.5, r_at_10=0.9, n_queries=1)
    with pytest.raises(ValueError):
        retrieval.MetricsReport(map_at_10=0.95, r_at_1=0.1, r_at_5=0.5, r_at_10=0.9, n_queries=1)


def test_report_formats():
    report = retrieval.MetricsReport(0.375, 0.25, 0.5, 0.5, 4)
    table = retrieval.format_metrics_table(report)
    assert "mAP@10" in table and "0.3750" in table
    csv = retrieval.metrics_csv(report)
    assert csv.splitlines()[0] == "metric,value"
    assert "map_at_10,0.375" in csv


# ---------------------------------------------------------------- ablation

def fast_cfg(seed=0):
    return space.TrainConfig(
        batch_size=32, pretrain_epochs=30, warmup_epochs=1, lr_max=1e-2, lr_min=1e-5, out_dim=32, seed=seed
    )


def test_ablation_single_combo_row():
    train_pairs, eval_pairs = make_latent_pairs(0, n_train=64, n_eval=16)
    rows = retrieval.ablation_run({"A": train_pairs}, [("A",)], eval_pairs, fast_cfg())
    assert len(rows) == 1
    assert rows[0].datasets == ("A",)
    assert 0.0 <= rows[0].map_at_10 <= 1.0


def test_ablation_combined_data_helps():
    # A and B drawn from one latent model; the union cannot hurt a linear probe
    deltas = []
    for seed in (0, 1, 2):
        train_pairs, eval_pairs = make_latent_pairs(seed, n_train=128, n_eval=24)
        datasets = {"A": train_pairs[:64], "B": train_pairs[64:]}
        rows = retrieval.ablation_run(
            datasets, [("A",), ("B",), ("A", "B")], eval_pairs, fast_cfg(seed)
        )
        scores = {row.datasets: row.map_at_10 for row in rows}
        deltas.append(scores[("A", "B")] - max(scores[("A",)], scores[("B",)]))
    assert sorted(deltas)[1] >= -0.02


def test_ablation_table_footer_mentions_reference():
    rows = [retrieval.AblationRow(("A", "B"), 0.5)]
    table = retrieval.format_ablation_table(rows)
    assert "35.22" in table and "not reproducible" in table
    assert retrieval.ablation_csv(rows).splitlines()[1] == "A+B,0.5"


def test_ablation_unknown_dataset():
    with pytest.raises(KeyError):
        retrieval.ablation_run({"A": []}, [("B",)], [], fast_cfg())


# ---------------------------------------------------------------- sweep

def tone_clip(clip_id, seconds, freq, caption_dim=16, seed=0):
    t = np.arange(int(seconds * 32000)) / 32000
    w = dsp.Waveform(0.4 * np.sin(2 * np.pi * freq * t), 32000)
    rng = np.random.default_rng(seed)
    return retrieval.SweepClip(clip_id, w, (rng.normal(size=caption_dim),))


@pytest.fixture(scope="module")
def sweep_setup():
    clips = [tone_clip(f"c{i}", 30.0, 300 + 150 * i, seed=i) for i in range(4)]
    params = encoder.EncoderParams(seed=2)
    geometry = encoder.PRESETS["passt-n"]
    rng = np.random.default_rng(8)
    audio_head = space.ProjectionHead.initialize(64, 24, rng)
    text_head = space.ProjectionHead.initialize(16, 24, rng)
    stats = dsp.WhiteningStats(-10.0, 6.0)
    return clips, audio_head, text_head, params, geometry, stats


def test_sweep_segment_counts(sweep_setup):
    clips, audio_head, text_head, params, geometry, stats = sweep_setup
    rows = retrieval.segment_length_sweep([10.0], clips, audio_head, text_head, params, geometry, stats)
    # 30 s -> 2997 frames -> three 1000-frame segments per clip
    assert rows[0].segments_per_clip == (3, 3, 3, 3)


def test_sweep_multiple_lengths_shape(sweep_setup):
    clips, audio_head, text_head, params, geometry, stats = sweep_setup
    rows = retrieval.segment_length_sweep([2.0, 10.0], clips, audio_head, text_head, params, geometry, stats)
    assert [r.length_seconds for r in rows] == [2.0, 10.0]
    assert all(np.isfinite(r.map_at_10) for r in rows)
    assert rows[0].segments_per_clip == (15, 15, 15, 15)


def test_sweep_full_length_equals_unsegmented(sweep_setup):
    _, audio_head, text_head, params, geometry, stats = sweep_setup
    # duration chosen so the spectrogram length is an exact multiple of the hop rate
    samples = 1024 + (1500 - 1) * 320
    seconds = samples / 32000
    t = np.arange(samples) / 32000
    clips = [
        retrieval.SweepClip(
            f"c{i}",
            dsp.Waveform(0.3 * np.sin(2 * np.pi * (200 + 100 * i) * t), 32000),
            (np.random.default_rng(i).normal(size=16),),
        )
        for i in range(3)
    ]
    rows = retrieval.segment_length_sweep([15.0], clips, audio_head, text_head, params, geometry, stats)
    assert rows[0].segments_per_clip == (1, 1, 1)

    # no-segmentation baseline: encode the whole spectrogram in one grid
    vecs = []
    for clip in clips:
        spec = dsp.whiten(dsp.logmel(clip.waveform), stats)
        assert spec.frames == 1500 and dsp.seconds_to_frames(15.0) == 1500
        vecs.append(encoder.audio_encode(encoder.extract_patches(spec, geometry), params))
    index = retrieval.RetrievalIndex.build([c.clip_id for c in clips], space.project(np.stack(vecs), audio_head))
    queries = query_set((f"{c.clip_id}#0", space.project(c.caption_vecs[0], text_head), c.clip_id) for c in clips)
    baseline = retrieval.evaluate(queries, index)
    assert abs(rows[0].map_at_10 - baseline.map_at_10) < 1e-9
