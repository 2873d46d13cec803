"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here; nothing is deferred to later calibration. The
finite-difference and brute-force oracles are implemented inside this module
so they stay independent of the library code paths they check.
"""

import math
import time

import numpy as np
import pytest

from acre import cli, dsp, encoder, ingest, retrieval, space
from acre.seeding import derive_seed
from conftest import make_latent_pairs, query_set


def ok(name):
    print(f"[acceptance] {name}: PASS")


# -------------------------------------------------------------- criterion 1

GRAD_SHAPES = ((8, 16, 12), (4, 32, 8), (64, 24, 16))


def central_differences(A, T, audio_head, text_head, temperature, step):
    def forward():
        return space.nt_xent_from_raw(A, T, audio_head, text_head, temperature).value

    out = []
    for arr in (audio_head.weight, audio_head.bias, text_head.weight, text_head.bias):
        flat = arr.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = forward()
            flat[i] = keep - step
            down = forward()
            flat[i] = keep
            g[i] = (up - down) / (2.0 * step)
        out.append(g.reshape(arr.shape))
    return out


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    for seed in range(20):
        for n, d_in, d_out in GRAD_SHAPES:
            rng = np.random.default_rng(derive_seed(seed, f"acceptance-grad-{n}-{d_in}-{d_out}"))
            A = rng.normal(size=(n, d_in))
            T = rng.normal(size=(n, d_in))
            audio_head = space.ProjectionHead.initialize(d_in, d_out, rng)
            text_head = space.ProjectionHead.initialize(d_in, d_out, rng)
            _, grad = space.loss_gradients(A, T, audio_head, text_head)
            fd = central_differences(A, T, audio_head, text_head, 1.0, step=1e-4)
            numeric = np.concatenate([part.ravel() for part in fd])  # checkpoint order
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-6)
            worst = max(worst, float(np.max(np.abs(grad - numeric) / denom)))
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative error {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    ok(f"criterion 1 gradient-correctness (max rel err {worst:.2e}, {elapsed:.1f}s)")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_loss_identities():
    for n in (2, 8, 64):
        value = space.nt_xent_loss(np.full((n, n), 0.2025)).value
        assert abs(value - math.log(n)) < 1e-9
    assert space.nt_xent_loss(np.array([[0.31]])).value == 0.0
    assert space.nt_xent_loss(50.0 * np.eye(8)).value < 1e-3
    ok("criterion 2 loss-identities")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_synthetic_end_to_end_retrieval():
    # schedule mechanics per the training contract (one warmup epoch, cosine
    # decay, batch 64 with the incomplete batch dropped); the peak rate is a
    # config override because the full-scale default cannot move freshly
    # initialized linear heads far enough within the 500-step budget.
    started = time.monotonic()
    maps, recalls = [], []
    for seed in (0, 1, 2):
        train_pairs, eval_pairs = make_latent_pairs(seed, n_train=200, n_eval=50, noise=0.05)
        cfg = space.TrainConfig(
            batch_size=64,
            pretrain_epochs=166,  # 3 complete batches per epoch -> 498 Adam steps
            warmup_epochs=1,
            lr_max=1e-2,
            lr_min=1e-7,
            seed=seed,
        )
        result = space.train(train_pairs, cfg, phase="pretrain")
        assert len(result.curve) <= 500
        queries, index = retrieval.build_eval(eval_pairs, result.audio_head, result.text_head)
        report = retrieval.evaluate(queries, index)
        maps.append(report.map_at_10)
        recalls.append(report.r_at_10)
    elapsed = time.monotonic() - started
    median_map = sorted(maps)[1]
    median_r10 = sorted(recalls)[1]
    assert median_map >= 0.9, f"median mAP@10 {median_map}"
    assert median_r10 >= 0.95, f"median R@10 {median_r10}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(f"criterion 3 synthetic-retrieval (mAP@10 {median_map:.3f}, R@10 {median_r10:.3f}, {elapsed:.1f}s)")


# -------------------------------------------------------------- criterion 4

def queries_with_ranks(ranks, m):
    """Orthogonal index plus queries whose targets land at the given ranks."""
    ids = [f"c{i:03d}" for i in range(m)]
    index = retrieval.RetrievalIndex.build(ids, np.eye(m))
    queries = []
    for qi, r in enumerate(ranks):
        t_idx = m - 1 - qi
        v = np.zeros(m)
        v[t_idx] = 0.5
        decoys = [i for i in range(m) if i != t_idx][: r - 1]
        for d in decoys:
            v[d] = 1.0
        queries.append((f"q{qi:03d}", v, ids[t_idx]))
    return query_set(queries), index


def brute_force_metrics(queries, index):
    per_query = {}
    for query_id, vector, target_id in zip(*queries):
        qv = vector / np.linalg.norm(vector)
        sims = [(float(np.dot(vec, qv)), cid) for cid, vec in zip(index.ids, index.vectors)]
        ordered = [cid for _, cid in sorted(sims, key=lambda t: (-t[0], t[1]))]
        per_query[query_id] = ordered.index(target_id) + 1
    ap = 0.0
    h1 = h5 = h10 = 0
    for qid in sorted(per_query):
        r = per_query[qid]
        ap += (1.0 / r) if r <= 10 else 0.0
        h1 += r <= 1
        h5 += r <= 5
        h10 += r <= 10
    n = len(per_query)
    return (ap / n, h1 / n, h5 / n, h10 / n), per_query


def test_criterion_4_metric_oracle_equivalence():
    rng = np.random.default_rng(derive_seed(0, "acceptance-metrics"))
    m, q = 24, 6
    for _ in range(1000):
        ranks = [int(r) + 1 for r in rng.choice(m, size=q, replace=False)]
        queries, index = queries_with_ranks(ranks, m)
        report = retrieval.evaluate(queries, index)
        expected, per_query = brute_force_metrics(queries, index)
        assert (report.map_at_10, report.r_at_1, report.r_at_5, report.r_at_10) == expected
        assert sorted(per_query.values()) == sorted(ranks)  # construction realized the permutation

    queries, index = queries_with_ranks([1, 2, 11, 20], 24)
    report = retrieval.evaluate(queries, index)
    assert report.map_at_10 == pytest.approx(0.375)
    assert (report.r_at_1, report.r_at_5, report.r_at_10) == (0.25, 0.5, 0.5)
    ok("criterion 4 metric-oracle-equivalence (1000 permutations, hand case)")


# -------------------------------------------------------------- criterion 5

def patch_count_oracle(frames, g):
    rows = cols = 0
    f = 0
    while f + g.patch_f <= 128:
        rows += 1
        f += g.stride_f
    t = 0
    while t + g.patch_t <= frames:
        cols += 1
        t += g.stride_t
    return rows, cols


def test_criterion_5_patch_geometry():
    rng = np.random.default_rng(derive_seed(0, "acceptance-patches"))
    for _ in range(200):
        g = encoder.PatchGeometry(
            patch_f=int(rng.integers(1, 129)),
            patch_t=int(rng.integers(1, 96)),
            stride_f=int(rng.integers(1, 48)),
            stride_t=int(rng.integers(1, 48)),
        )
        frames = int(rng.integers(g.patch_t, 1200))
        assert encoder.patch_grid_shape(frames, g) == patch_count_oracle(frames, g)

    s = dsp.Spectrogram(rng.normal(size=(997, 128)))
    grid_n = encoder.extract_patches(s, encoder.PRESETS["passt-n"])
    assert (grid_n.rows, grid_n.cols) == (8, 62)
    out_n = encoder.structured_patchout(grid_n, 2, 15, rng)
    assert len(out_n) == 282
    grid_s = encoder.extract_patches(s, encoder.PRESETS["passt-s"])
    assert (grid_s.rows, grid_s.cols) == (12, 99)
    out_s = encoder.structured_patchout(grid_s, 4, 50, rng)
    assert len(out_s) == 392
    ok("criterion 5 patch-geometry (200 configs + fixed grids)")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_dsp_contract():
    t = np.arange(320000) / 32000
    ten_seconds = dsp.Waveform(0.5 * np.sin(2 * np.pi * 440 * t), 32000)
    assert dsp.logmel(ten_seconds).frames == 997

    zero = dsp.logmel(dsp.Waveform(np.zeros(32000), 32000))
    assert np.all(zero.values == math.log(1e-10))

    centers = dsp.mel_center_frequencies()
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    sine = dsp.Waveform(0.5 * np.sin(2 * np.pi * 1000 * np.arange(64000) / 32000), 32000)
    arg = np.argmax(dsp.logmel(sine).values, axis=1)
    assert np.all(np.abs(arg - expected_bin) <= 1)

    quiet = dsp.Waveform(0.05 * np.sin(2 * np.pi * 1000 * np.arange(32000) / 32000), 32000)
    base = dsp.logmel(quiet).values
    floor = math.log(1e-10)
    for alpha in (2.0, 10.0):
        scaled = dsp.logmel(dsp.Waveform(alpha * quiet.samples, 32000)).values
        mask = (base > floor + 1.0) & (scaled > floor + 1.0)
        assert np.abs((scaled - base)[mask] - 2.0 * math.log(alpha)).max() < 1e-4
    ok("criterion 6 dsp-contract (997 frames, log floor, argmax bin, scale covariance)")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_schedule_and_swap():
    lr_max, lr_min = 2e-5, 1e-7
    total, warmup = 4800, 300
    assert space.lr_at(warmup, total, warmup, lr_max, lr_min) == lr_max
    assert space.lr_at(total, total, warmup, lr_max, lr_min) == lr_min
    midpoint = warmup + (total - warmup) // 2
    assert abs(space.lr_at(midpoint, total, warmup, lr_max, lr_min) - (lr_max + lr_min) / 2) < 1e-12

    marker = np.full((1, 8), 5555.0)
    pair = space.TrainPair("clip", np.zeros(8), (np.zeros(8),), ((0,),))
    rng = np.random.default_rng(derive_seed(0, "acceptance-swap"))
    swapped = sum(space.sample_caption(pair, rng, 0.3, marker)[0] == 5555.0 for _ in range(10_000))
    assert 0.28 <= swapped / 10_000 <= 0.32, f"swap rate {swapped / 10_000}"
    ok(f"criterion 7 schedule-and-swap (swap rate {swapped / 10_000:.4f})")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_determinism(wav_dataset, tmp_path):
    def run_all(tag):
        base = tmp_path / tag
        common = [
            "--manifest", str(wav_dataset["manifest"]),
            "--audio-dir", str(wav_dataset["audio_dir"]),
            "--seed", "5",
        ]
        assert cli.main(["embed", *common, "--out", str(base / "emb")]) == 0
        dump = ["--encoder", f"dump:{base / 'emb'}"]
        assert cli.main(
            ["train", *common, *dump, "--out", str(base / "train"), "--epochs", "4", "--batch-size", "3"]
        ) == 0
        assert cli.main(
            [
                "evaluate", *common, *dump,
                "--out", str(base / "eval"),
                "--checkpoint", str(base / "train" / "checkpoint.ackp"),
            ]
        ) == 0
        return {
            name: (base / sub / name).read_bytes()
            for sub, name in (
                ("emb", "audio.embd"),
                ("emb", "captions.embd"),
                ("train", "checkpoint.ackp"),
                ("train", "loss.csv"),
                ("eval", "metrics.csv"),
                ("eval", "report.txt"),
            )
        }

    first = run_all("run1")
    second = run_all("run2")
    assert first == second
    ok("criterion 8 determinism (embed/train/evaluate byte-identical reruns)")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_segment_averaging():
    t = np.arange(960000) / 32000  # exactly 30 s
    clip = dsp.Waveform(0.4 * np.sin(2 * np.pi * 500 * t), 32000)
    spec = dsp.logmel(clip)
    seg_frames = dsp.seconds_to_frames(10.0)
    segments = dsp.segment(spec, seg_frames)
    assert len(segments) == 3

    params = encoder.EncoderParams(seed=3)
    geometry = encoder.PRESETS["passt-n"]
    grids = [encoder.extract_patches(s, geometry) for s in segments]
    averaged = encoder.embed_long_audio(spec, seg_frames, geometry, params)
    per_segment = [encoder.audio_encode(g, params) for g in grids]
    assert np.abs(averaged - np.mean(per_segment, axis=0)).max() < 1e-12

    thrice = dsp.Spectrogram(np.tile(segments[0].values, (3, 1)))
    same = encoder.embed_long_audio(thrice, 1000, geometry, params)
    single = encoder.audio_encode(grids[0], params)
    assert np.abs(same - single).max() < 1e-6
    ok("criterion 9 segment-averaging (3 segments, mean identity)")
