import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acre import space
from acre.seeding import derive_seed
from conftest import make_latent_pairs


# ---------------------------------------------------------------- projection

def test_project_identity_and_bias():
    h = space.ProjectionHead(np.eye(4), np.zeros(4))
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(space.project(x, h), x)
    h2 = space.ProjectionHead(np.zeros((4, 4)), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(space.project(x, h2), h2.bias)


def test_project_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    h = space.ProjectionHead(rng.normal(size=(5, 7)), rng.normal(size=5))
    batch = rng.normal(size=(3, 7))
    out = space.project(batch, h)
    for i in range(3):
        for o in range(5):
            acc = h.bias[o]
            for j in range(7):
                acc += h.weight[o, j] * batch[i, j]
            assert abs(out[i, o] - acc) < 1e-6


def test_project_dim_mismatch():
    h = space.ProjectionHead(np.eye(4), np.zeros(4))
    with pytest.raises(space.DimMismatch):
        space.project(np.ones(5), h)


def test_head_initialize_bounds():
    h = space.ProjectionHead.initialize(16, 32, np.random.default_rng(0))
    bound = 1 / math.sqrt(16)
    assert h.weight.shape == (32, 16)
    assert np.all(np.abs(h.weight) <= bound) and np.all(np.abs(h.bias) <= bound)


# ---------------------------------------------------------------- similarity

def test_similarity_orthonormal_identity():
    vecs = np.eye(4)
    C = space.similarity_matrix(vecs, vecs)
    assert np.allclose(C, np.eye(4))


def test_similarity_scale_invariance():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 8))
    T = rng.normal(size=(5, 8))
    base = space.similarity_matrix(A, T)
    A2 = A.copy()
    A2[2] *= 37.5
    T2 = T.copy()
    T2[4] *= 0.003
    assert np.abs(space.similarity_matrix(A2, T2) - base).max() < 1e-6


def test_similarity_matches_scalar_loop_oracle():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 6))
    T = rng.normal(size=(5, 6))
    C = space.similarity_matrix(A, T)
    for i in range(5):
        for j in range(5):
            dot = sum(A[i, k] * T[j, k] for k in range(6))
            na = math.sqrt(sum(A[i, k] ** 2 for k in range(6)))
            nt = math.sqrt(sum(T[j, k] ** 2 for k in range(6)))
            assert abs(C[i, j] - dot / (na * nt)) < 1e-6
    assert np.abs(C).max() <= 1.0 + 1e-6


def test_similarity_zero_norm_vector():
    with pytest.raises(space.ZeroNormVector):
        space.similarity_matrix(np.zeros((2, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------- loss

@pytest.mark.parametrize("n", [2, 8, 64])
def test_loss_constant_matrix_is_ln_n(n):
    lv = space.nt_xent_loss(np.full((n, n), -0.123))
    assert abs(lv.value - math.log(n)) < 1e-9
    assert lv.value == pytest.approx(0.5 * (lv.text_to_audio + lv.audio_to_text))


def test_loss_single_pair_is_zero():
    assert space.nt_xent_loss(np.array([[0.7]])).value == 0.0


def test_loss_saturated_diagonal():
    assert space.nt_xent_loss(50.0 * np.eye(6)).value < 1e-3


def test_loss_rejects_non_square():
    with pytest.raises(space.NonSquare):
        space.nt_xent_loss(np.zeros((3, 4)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_loss_nonnegative_and_permutation_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    C = rng.uniform(-1, 1, (n, n))
    lv = space.nt_xent_loss(C, temperature=0.5)
    assert lv.value >= 0.0
    perm = rng.permutation(n)
    relabeled = C[perm][:, perm]
    assert abs(space.nt_xent_loss(relabeled, temperature=0.5).value - lv.value) < 1e-9


def test_loss_temperature_sharpens():
    C = np.eye(4) * 0.9 + 0.1
    assert space.nt_xent_loss(C, temperature=0.05).value < space.nt_xent_loss(C, temperature=1.0).value


# ---------------------------------------------------------------- gradients

def finite_difference_grads(A, T, audio_head, text_head, temperature, step=1e-4):
    """Independent oracle: central differences of the forward pass."""

    def forward():
        return space.nt_xent_from_raw(A, T, audio_head, text_head, temperature).value

    grads = {}
    for name, arr in (
        ("aw", audio_head.weight),
        ("ab", audio_head.bias),
        ("tw", text_head.weight),
        ("tb", text_head.bias),
    ):
        flat = arr.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = forward()
            flat[i] = keep - step
            down = forward()
            flat[i] = keep
            g[i] = (up - down) / (2 * step)
        grads[name] = g.reshape(arr.shape)
    return grads


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    n, d_in, d_out = 8, 16, 12
    A = rng.normal(size=(n, d_in))
    T = rng.normal(size=(n, d_in))
    audio_head = space.ProjectionHead.initialize(d_in, d_out, rng)
    text_head = space.ProjectionHead.initialize(d_in, d_out, rng)
    _, ga, gt = space.loss_gradients(A, T, audio_head, text_head, temperature=0.7)
    fd = finite_difference_grads(A, T, audio_head, text_head, temperature=0.7)
    for analytic, numeric in ((ga.weight, fd["aw"]), (ga.bias, fd["ab"]), (gt.weight, fd["tw"]), (gt.bias, fd["tb"])):
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_gradient_check_over_seeds_and_shapes():
    for seed in range(5):
        for shape in ((8, 16, 12), (4, 32, 8)):
            assert space.gradient_check(seed, shape) < 1e-4


def test_gradients_vanish_at_saturated_optimum():
    n = 8
    eye = np.eye(n)
    head = space.ProjectionHead(np.eye(n), np.zeros(n))
    # C is exactly I; temperature 0.02 turns the logits into 50 * I
    _, ga, gt = space.loss_gradients(eye, eye, head, head.copy(), temperature=0.02)
    for g in (ga.weight, ga.bias, gt.weight, gt.bias):
        assert np.linalg.norm(g) < 1e-4


def test_gradients_duplicated_batch_equals_single():
    rng = np.random.default_rng(7)
    n, d_in, d_out = 6, 10, 8
    A = rng.normal(size=(n, d_in))
    T = rng.normal(size=(n, d_in))
    audio_head = space.ProjectionHead.initialize(d_in, d_out, rng)
    text_head = space.ProjectionHead.initialize(d_in, d_out, rng)
    _, ga1, gt1 = space.loss_gradients(A, T, audio_head, text_head)
    A2 = np.vstack([A, A])
    T2 = np.vstack([T, T])
    _, ga2, gt2 = space.loss_gradients(A2, T2, audio_head, text_head)
    assert np.abs(ga2.weight - ga1.weight).max() < 1e-6
    assert np.abs(gt2.weight - gt1.weight).max() < 1e-6
    assert np.abs(ga2.bias - ga1.bias).max() < 1e-6


def test_gradient_check_perturb_hook_fails(monkeypatch):
    exact = space.loss_gradients

    def perturbed(*args, **kwargs):
        loss, ga, gt = exact(*args, **kwargs)
        return (
            loss,
            space.HeadGrads(ga.weight + 1e-2, ga.bias + 1e-2),
            space.HeadGrads(gt.weight + 1e-2, gt.bias + 1e-2),
        )

    monkeypatch.setattr(space, "loss_gradients", perturbed)
    assert space.gradient_check(0, (4, 8, 6)) > 1e-4


def test_gradient_check_single_pair_near_zero():
    # N=1: loss is constant zero, so every gradient is zero
    assert space.gradient_check(0, (1, 8, 6)) < 1e-8


# ---------------------------------------------------------------- schedule

def test_lr_schedule_fixed_points():
    lr_max, lr_min = 2e-5, 1e-7
    total, warmup = 1000, 100
    assert space.lr_at(warmup, total, warmup, lr_max, lr_min) == lr_max
    assert space.lr_at(total, total, warmup, lr_max, lr_min) == lr_min
    mid = warmup + (total - warmup) // 2
    assert abs(space.lr_at(mid, total, warmup, lr_max, lr_min) - (lr_max + lr_min) / 2) < 1e-12
    assert space.lr_at(0, total, warmup, lr_max, lr_min) == 0.0
    assert space.lr_at(50, total, warmup, lr_max, lr_min) == pytest.approx(lr_max / 2)


def test_lr_schedule_monotone_decay():
    values = [space.lr_at(s, 500, 50, 1e-3, 1e-6) for s in range(50, 501)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_schedule_validates_range():
    with pytest.raises(ValueError):
        space.lr_at(11, 10, 0, 1e-3, 1e-6)


# ---------------------------------------------------------------- adam

def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    state = space.AdamState.zeros_like(params)
    space.adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_hand_computed():
    g = 0.37
    params = {"w": np.array([1.0])}
    state = space.AdamState.zeros_like(params)
    space.adam_step(params, {"w": np.array([g])}, state, lr=0.01)
    # m_hat = g, v_hat = g^2  ->  delta = -lr * g / (|g| + eps)
    expected = 1.0 - 0.01 * g / (abs(g) + 1e-8)
    assert abs(params["w"][0] - expected) < 1e-12


def scalar_adam_oracle(p, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
    return p


def test_adam_two_steps_match_scalar_oracle():
    g = -0.8
    params = {"w": np.array([2.0])}
    state = space.AdamState.zeros_like(params)
    space.adam_step(params, {"w": np.array([g])}, state, lr=0.05)
    space.adam_step(params, {"w": np.array([g])}, state, lr=0.05)
    assert abs(params["w"][0] - scalar_adam_oracle(2.0, [g, g], 0.05)) < 1e-10


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = space.AdamState.zeros_like(params)
    with pytest.raises(space.ShapeMismatch):
        space.adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)
    with pytest.raises(space.ShapeMismatch):
        space.adam_step(params, {"q": np.zeros(3)}, state, lr=0.1)


# ---------------------------------------------------------------- training

def small_cfg(**overrides):
    base = dict(
        batch_size=16,
        pretrain_epochs=4,
        warmup_epochs=1,
        lr_max=1e-2,
        lr_min=1e-5,
        finetune_epochs=4,
        finetune_lr_max=1e-2,
        swap_prob=0.3,
        out_dim=24,
        seed=0,
    )
    base.update(overrides)
    return space.TrainConfig(**base)


def tiny_pairs(seed=0, n=48):
    train_pairs, _ = make_latent_pairs(seed, n_train=n, n_eval=1, d_audio=12, d_text=10)
    return train_pairs


def test_train_loss_decreases_within_one_epoch():
    for seed in range(5):
        pairs = tiny_pairs(seed, n=64)
        cfg = small_cfg(seed=seed, pretrain_epochs=1, batch_size=16)
        init_audio = space.ProjectionHead.initialize(12, 24, np.random.default_rng(derive_seed(seed, "audio-head")))
        init_text = space.ProjectionHead.initialize(10, 24, np.random.default_rng(derive_seed(seed, "text-head")))
        A = np.stack([pair.audio for pair in pairs])
        T = np.stack([pair.captions[0] for pair in pairs])
        before = space.nt_xent_from_raw(A, T, init_audio, init_text).value
        result = space.train(pairs, cfg, phase="pretrain")
        after = space.nt_xent_from_raw(A, T, result.audio_head, result.text_head).value
        assert after < before


def test_train_deterministic_replay_bitwise():
    pairs = tiny_pairs(3)
    cfg = small_cfg(seed=11)
    a = space.train(pairs, cfg)
    b = space.train(pairs, cfg)
    assert [p.loss for p in a.curve] == [p.loss for p in b.curve]
    assert np.array_equal(a.audio_head.weight, b.audio_head.weight)
    assert np.array_equal(a.text_head.bias, b.text_head.bias)


def test_finetune_without_swaps_replays_pretrain_stream():
    pairs = tiny_pairs(5)
    cfg = small_cfg(seed=7, swap_prob=0.0, warmup_epochs=0)
    pre = space.train(pairs, cfg, phase="pretrain")
    fine = space.train(pairs, cfg, phase="finetune")
    assert [p.loss for p in pre.curve] == [p.loss for p in fine.curve]


def test_finetune_swaps_alter_stream():
    pairs = tiny_pairs(5)
    augmap = {
        (p.clip_id, i): tuple(c + 1.0 for c in p.captions) for p in pairs for i in range(len(p.captions))
    }
    cfg = small_cfg(seed=7, warmup_epochs=0)
    plain = space.train(pairs, cfg, phase="pretrain")
    swapped = space.train(pairs, cfg, phase="finetune", augmented=augmap)
    assert [p.loss for p in plain.curve] != [p.loss for p in swapped.curve]


def test_swap_always_uses_single_variant():
    pairs = tiny_pairs(2, n=16)
    marker = np.full(10, 123.0)
    augmap = {(p.clip_id, 0): (marker,) for p in pairs}
    rng = np.random.default_rng(0)
    for p in pairs:
        vec = space.sample_caption(p, rng, swap_prob=1.0, augmented=augmap)
        assert np.array_equal(vec, marker)


def test_swap_rate_concentrates_around_p():
    pairs = tiny_pairs(9, n=20)
    marker = np.full(10, 777.0)
    augmap = {(p.clip_id, 0): (marker,) for p in pairs}
    rng = np.random.default_rng(derive_seed(0, "swap-rate"))
    draws = 10_000
    swapped = 0
    for k in range(draws):
        pair = pairs[k % len(pairs)]
        vec = space.sample_caption(pair, rng, swap_prob=0.3, augmented=augmap)
        swapped += vec[0] == 777.0
    assert 0.28 <= swapped / draws <= 0.32


def test_train_errors():
    with pytest.raises(space.EmptyDataset):
        space.train([], small_cfg())
    pairs = tiny_pairs(0, n=4)
    with pytest.raises(space.EmptyDataset):
        space.train(pairs, small_cfg(batch_size=64))
    with pytest.raises(space.MissingAugmentation):
        space.train(pairs, small_cfg(batch_size=2), phase="finetune", strict=True, augmented=None)


def test_train_stops_on_first_non_finite_loss(monkeypatch):
    exact = space.loss_gradients
    calls = []

    def nan_at_step_3(*args, **kwargs):
        loss, ga, gt = exact(*args, **kwargs)
        calls.append(loss)
        if len(calls) == 4:
            loss = space.LossValue(float("nan"), loss.text_to_audio, loss.audio_to_text)
        return loss, ga, gt

    monkeypatch.setattr(space, "loss_gradients", nan_at_step_3)
    with pytest.raises(space.NonFiniteValue, match="step 3"):
        space.train(tiny_pairs(2, n=32), small_cfg(batch_size=8, pretrain_epochs=2))
    assert len(calls) == 4


def test_train_warns_without_augmentations():
    pairs = tiny_pairs(1, n=8)
    with pytest.warns(UserWarning, match="without augmented captions"):
        space.train(pairs, small_cfg(batch_size=4, finetune_epochs=1), phase="finetune")


def test_train_zero_epochs_returns_initialization():
    pairs = tiny_pairs(4, n=8)
    cfg = small_cfg(batch_size=4, pretrain_epochs=0, seed=21)
    result = space.train(pairs, cfg)
    expect_audio = space.ProjectionHead.initialize(12, 24, np.random.default_rng(derive_seed(21, "audio-head")))
    assert np.array_equal(result.audio_head.weight, expect_audio.weight)
    assert result.curve == ()


def test_train_resumes_from_init_heads():
    pairs = tiny_pairs(6, n=16)
    cfg = small_cfg(batch_size=8, pretrain_epochs=1)
    first = space.train(pairs, cfg)
    resumed = space.train(pairs, cfg, init=(first.audio_head, first.text_head))
    assert resumed.curve[0].loss < first.curve[0].loss
    assert not np.array_equal(resumed.audio_head.weight, first.audio_head.weight)


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bitwise(tmp_path):
    pairs = tiny_pairs(8, n=16)
    cfg = small_cfg(batch_size=8, pretrain_epochs=2)
    result = space.train(pairs, cfg)
    p1 = tmp_path / "a.ackp"
    p2 = tmp_path / "b.ackp"
    space.save_checkpoint(p1, result.audio_head, result.text_head, result.state, result.total_steps, cfg)
    ckpt = space.load_checkpoint(p1)
    space.save_checkpoint(p2, ckpt.audio_head, ckpt.text_head, ckpt.state, ckpt.step, cfg)
    assert p1.read_bytes() == p2.read_bytes()
    assert ckpt.step == result.total_steps
    assert ckpt.state.t == result.state.t
    assert np.array_equal(ckpt.audio_head.weight, result.audio_head.weight.astype(np.float32).astype(np.float64))
    assert ckpt.digest == space.config_digest(cfg)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "x.ackp"
    p.write_bytes(b"not a checkpoint at all")
    with pytest.raises(space.SpaceError):
        space.load_checkpoint(p)


@pytest.mark.parametrize("name", ["audio.weight", "text.bias", "adam.m.audio.bias", "adam.v.text.weight"])
def test_checkpoint_refuses_values_beyond_float32(tmp_path, name):
    cfg = small_cfg(batch_size=8, pretrain_epochs=1)
    result = space.train(tiny_pairs(9, n=16), cfg)
    arrays = {
        "audio.weight": result.audio_head.weight,
        "text.bias": result.text_head.bias,
        "adam.m.audio.bias": result.state.m["audio.bias"],
        "adam.v.text.weight": result.state.v["text.weight"],
    }
    arrays[name].flat[0] = 1e39  # finite in float64, inf in float32
    with pytest.raises(space.NonFiniteValue, match=name):
        space.save_checkpoint(
            tmp_path / "x.ackp", result.audio_head, result.text_head, result.state, result.total_steps, cfg
        )
    assert list(tmp_path.iterdir()) == []
