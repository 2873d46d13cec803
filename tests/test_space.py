import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acre import ingest, retrieval, space
from acre.seeding import derive_seed
from conftest import make_latent_pairs, run_at_blas_threads, write_v1_checkpoint, write_v2_checkpoint


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
    _, grad = space.loss_gradients(A, T, audio_head, text_head, temperature=0.7)
    fd = finite_difference_grads(A, T, audio_head, text_head, temperature=0.7)
    # the gradient is one vector in checkpoint order
    numeric = np.concatenate([fd[name].ravel() for name in ("aw", "ab", "tw", "tb")])
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-6)
    assert np.max(np.abs(grad - numeric) / denom) < 1e-4


def test_gradient_check_over_seeds_and_shapes():
    for seed in range(5):
        for shape in ((8, 16, 12), (4, 32, 8)):
            assert space.gradient_check(seed, shape) < 1e-4


def test_gradients_vanish_at_saturated_optimum():
    n = 8
    eye = np.eye(n)
    head = space.ProjectionHead(np.eye(n), np.zeros(n))
    # C is exactly I; temperature 0.02 turns the logits into 50 * I
    _, grad = space.loss_gradients(eye, eye, head, head, temperature=0.02)
    assert grad.shape == (2 * (n * n + n),)
    assert np.linalg.norm(grad) < 1e-4  # bounds every part's norm


def test_gradients_duplicated_batch_equals_single():
    rng = np.random.default_rng(7)
    n, d_in, d_out = 6, 10, 8
    A = rng.normal(size=(n, d_in))
    T = rng.normal(size=(n, d_in))
    audio_head = space.ProjectionHead.initialize(d_in, d_out, rng)
    text_head = space.ProjectionHead.initialize(d_in, d_out, rng)
    _, grad1 = space.loss_gradients(A, T, audio_head, text_head)
    A2 = np.vstack([A, A])
    T2 = np.vstack([T, T])
    _, grad2 = space.loss_gradients(A2, T2, audio_head, text_head)
    assert np.abs(grad2 - grad1).max() < 1e-6


def test_gradient_check_perturb_hook_fails(monkeypatch):
    exact = space.loss_gradients

    def perturbed(*args, **kwargs):
        loss, grad = exact(*args, **kwargs)
        return loss, grad + 1e-2

    monkeypatch.setattr(space, "loss_gradients", perturbed)
    assert space.gradient_check(0, (4, 8, 6)) > 1e-4


def test_gradient_check_single_pair_near_zero():
    # N=1: loss is constant zero, so every gradient is zero
    assert space.gradient_check(0, (1, 8, 6)) < 1e-8


@pytest.mark.parametrize("shape", [(64, 768, 1024), (6, 12, 16)], ids=["train-step", "small"])
def test_float32_gradients_stay_within_1e4_of_float64(shape):
    # the same float32 inputs and head values, once through float32 heads and once through float64 copies
    n, d_in, d_out = shape
    rng = np.random.default_rng(derive_seed(2, "float32-gate"))
    A, T = (rng.normal(size=(n, d_in)).astype(np.float32) for _ in range(2))
    heads64 = [space.ProjectionHead.initialize(d_in, d_out, rng) for _ in range(2)]
    heads32 = [space.ProjectionHead(h.weight.astype(np.float32), h.bias.astype(np.float32)) for h in heads64]
    heads64 = [space.ProjectionHead(h.weight.astype(np.float64), h.bias.astype(np.float64)) for h in heads32]
    _, grad32 = space.loss_gradients(A, T, *heads32)
    _, grad64 = space.loss_gradients(A.astype(np.float64), T.astype(np.float64), *heads64)
    assert grad32.dtype == np.float32 and grad64.dtype == np.float64
    parts32, parts64 = (space._split(g, d_out, d_in, d_in) for g in (grad32, grad64))
    for pair32, pair64 in zip(parts32, parts64):
        for g32, g64 in zip(pair32, pair64):
            assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) < 1e-4
    params = space._flatten(*heads32, np.float32)
    state = space.AdamState.zeros_like(params)
    space.adam_step(params, grad32, state, lr=1e-3)
    assert params.dtype == state.m.dtype == state.v.dtype == np.float32


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
    params = np.array([1.0, -2.0])
    state = space.AdamState.zeros_like(params)
    space.adam_step(params, np.zeros(2), state, lr=0.1)
    assert np.array_equal(params, [1.0, -2.0])


def test_adam_first_step_hand_computed():
    g = 0.37
    params = np.array([1.0])
    state = space.AdamState.zeros_like(params)
    space.adam_step(params, np.array([g]), state, lr=0.01)
    # m_hat = g, v_hat = g^2  ->  delta = -lr * g / (|g| + eps)
    expected = 1.0 - 0.01 * g / (abs(g) + 1e-8)
    assert abs(params[0] - expected) < 1e-12


def scalar_adam_oracle(p, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
    return p


def test_adam_two_steps_match_scalar_oracle():
    g = -0.8
    params = np.array([2.0])
    state = space.AdamState.zeros_like(params)
    space.adam_step(params, np.array([g]), state, lr=0.05)
    space.adam_step(params, np.array([g]), state, lr=0.05)
    assert abs(params[0] - scalar_adam_oracle(2.0, [g, g], 0.05)) < 1e-10


def test_adam_shape_mismatch():
    params = np.zeros(3)
    state = space.AdamState.zeros_like(params)
    with pytest.raises(space.ShapeMismatch):
        space.adam_step(params, np.zeros(4), state, lr=0.1)


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The unblocked update in Kingma & Ba's efficient form, one full-size
    temporary per operation: m is stored as m/(1-beta1), and both bias
    corrections fold into the step size and epsilon."""
    state.t += 1
    root = math.sqrt(1.0 - beta2**state.t)
    step = lr * (1.0 - beta1) / (1.0 - beta1**state.t) * root
    g, m, v = grads, state.m, state.v
    m *= beta1
    m += g
    v *= beta2
    v += (1.0 - beta2) * g * g
    params -= m / (np.sqrt(v) + eps * root) * step


def textbook_adam(params, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba's Algorithm 1 over (grads, lr) pairs, on a copy of params:
    the parameters and the second moment."""
    p, m, v = params.copy(), np.zeros_like(params), np.zeros_like(params)
    for t, (g, lr) in enumerate(steps, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return p, v


def test_adam_follows_textbook_adam_over_many_steps():
    # lr and each element's gradient scale spread over decades; the folded
    # step size may differ from the textbook's divisions only in the last bits,
    # and v is the textbook's bit for bit
    rng = np.random.default_rng(13)
    n = 64
    params = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0, 1, n)
    scales = 10.0 ** rng.uniform(-6, 3, n)
    steps = [(rng.normal(size=n) * scales * 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-6, -3)) for _ in range(2500)]
    expected, expected_v = textbook_adam(params, steps)
    start, state = params.copy(), space.AdamState.zeros_like(params)
    for g, lr in steps:
        space.adam_step(params, g, state, lr)
    # the distance moved, not the parameters: an error in a step is then not
    # hidden by the rounding of a parameter much larger than the step
    np.testing.assert_allclose(params - start, expected - start, rtol=1e-9, atol=0)
    assert np.array_equal(state.v, expected_v)
    assert state.t == 2500


def test_adam_takes_a_numpy_float64_lr_as_its_python_float():
    # a float64 scalar would run the float32 passes in float64 and round
    # twice, which changes a few elements' last bits at each of these rates
    rng = np.random.default_rng(14)
    params = rng.normal(size=4096).astype(np.float32)
    grads = [rng.normal(size=4096).astype(np.float32) for _ in range(3)]
    for rate in (1e-1, 3e-3, 1e-3):
        results = []
        for lr in (rate, np.float64(rate)):
            p, state = params.copy(), space.AdamState.zeros_like(params)
            for g in grads:
                space.adam_step(p, g, state, lr)
            results.append((p.tobytes(), state.m.tobytes(), state.v.tobytes()))
        assert results[0] == results[1], f"lr {rate}"


def test_adam_blocked_update_is_bitwise_the_reference():
    # the four old parts' shapes in one vector: many blocks, a size that is no
    # multiple of the block, block edges inside parts and across part edges
    sizes = (1024 * 768, 1, 37 * 1001, 3)
    rng = np.random.default_rng(11)
    params = rng.normal(size=sum(sizes))
    expected = params.copy()
    state, expected_state = space.AdamState.zeros_like(params), space.AdamState.zeros_like(expected)
    for _ in range(40):
        grads = np.concatenate([rng.normal(scale=10.0 ** rng.uniform(-4, 1), size=n) for n in sizes])
        lr = 10.0 ** rng.uniform(-5, -1)
        space.adam_step(params, grads, state, lr)
        reference_adam_step(expected, grads, expected_state, lr)
    assert np.array_equal(params, expected)
    assert np.array_equal(state.m, expected_state.m)
    assert np.array_equal(state.v, expected_state.v)
    assert state.t == expected_state.t == 40


def test_adam_refuses_a_2d_param():
    params = np.ones((3, 4))
    state = space.AdamState.zeros_like(params)
    with pytest.raises(space.ShapeMismatch, match="1-D vectors"):
        space.adam_step(params, np.ones((3, 4)), state, lr=0.1)
    assert np.array_equal(params, np.ones((3, 4)))
    assert state.t == 0 and not state.m.any() and not state.v.any()


def test_adam_updates_a_strided_vector_in_place():
    # a 1-D slice of a vector is a view, so the update lands in the vector it slices
    rng = np.random.default_rng(12)
    x = rng.normal(size=2 * space._ADAM_BLOCK + 7)
    params, expected = x[::2], x[::2].copy()
    grads = rng.normal(size=params.size)
    state, expected_state = space.AdamState.zeros_like(params), space.AdamState.zeros_like(expected)
    space.adam_step(params, grads, state, lr=1e-2)
    reference_adam_step(expected, grads, expected_state, lr=1e-2)
    assert np.shares_memory(params, x)
    assert np.array_equal(x[::2], expected)


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


# one short train on 128 pairs of 768-d vectors; prints a digest of the heads and of the (lr, loss) curve
_TRAIN_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from acre import space
rng = np.random.default_rng(5)
pairs = [
    space.TrainPair(f"c{i}", rng.normal(size=768).astype(np.float32), (rng.normal(size=768).astype(np.float32),))
    for i in range(128)
]
cfg = space.TrainConfig(batch_size=64, pretrain_epochs=1, warmup_epochs=0, lr_max=1e-3, lr_min=1e-5)
result = space.train(pairs, cfg)
heads = b"".join(a.tobytes() for h in (result.audio_head, result.text_head) for a in (h.weight, h.bias))
curve = np.array([(p.lr, p.loss) for p in result.curve]).tobytes()
print(hashlib.sha256(heads).hexdigest(), hashlib.sha256(curve).hexdigest(), len(result.curve))
"""


def test_train_is_bitwise_the_same_at_one_and_two_blas_threads():
    digests = []
    for threads in ("1", "2"):
        stdout, core = run_at_blas_threads(threads, "-c", _TRAIN_DIGEST_SCRIPT)
        digests.append(stdout.split())
    assert digests[0][2] == "2"
    assert digests[0] == digests[1], f"OpenBLAS core {core}"


def test_finetune_without_swaps_replays_pretrain_stream():
    pairs = tiny_pairs(5)
    cfg = small_cfg(seed=7, swap_prob=0.0, warmup_epochs=0)
    pre = space.train(pairs, cfg, phase="pretrain")
    fine = space.train(pairs, cfg, phase="finetune")
    assert [p.loss for p in pre.curve] == [p.loss for p in fine.curve]


def test_finetune_refuses_lr_min_at_or_above_finetune_lr_max():
    pairs = tiny_pairs(5)
    cfg = small_cfg(lr_min=1e-5, finetune_lr_max=1e-5)
    space.train(pairs, cfg, phase="pretrain")  # pretrain never reads finetune_lr_max
    with pytest.raises(ValueError, match=r"^lr_min \(1e-05\) must be below finetune_lr_max \(1e-05\)$"):
        space.train(pairs, cfg, phase="finetune")


def test_train_config_rejects_negative_lr_min():
    with pytest.raises(ValueError, match=r"^lr_min must be >= 0, got -1e-07$"):
        small_cfg(lr_min=-1e-7)


@pytest.mark.parametrize("name", ["lr_max", "lr_min", "finetune_lr_max", "temperature"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
        small_cfg(**{name: value})


def test_train_checks_each_phase_before_any_pair():
    pairs = tiny_pairs(5)
    with pytest.raises(ValueError, match=r"^unknown phase 'warmup'$"):
        space.train([], small_cfg(), phase="warmup")
    cfg = small_cfg(pretrain_epochs=2, warmup_epochs=3, swap_prob=0.0)
    with pytest.raises(ValueError, match=r"^warmup_epochs \(3\) must not exceed pretrain_epochs \(2\)$"):
        space.train([], cfg, phase="pretrain")
    space.train(pairs, cfg, phase="finetune")  # finetune has no warmup
    space.train(pairs, small_cfg(pretrain_epochs=0, warmup_epochs=3))  # no epochs, no warmup to overrun


def test_train_pair_keeps_the_vectors_it_is_given():
    row, cap = np.ones(4, dtype=np.float32), np.zeros(3, dtype=np.float32)
    pair = space.TrainPair("clip", row, (cap,))
    assert pair.audio is row and pair.captions[0] is cap


def test_float32_vectors_train_and_evaluate_bitwise_as_their_float64_copies():
    # float32 -> float64 is exact, and so is the way back, so the dtype rows are held in changes no bit
    def as_dtype(pairs, dtype):
        return [
            space.TrainPair(
                p.clip_id,
                p.audio.astype(dtype),
                tuple(c.astype(dtype) for c in p.captions),
                p.variants,
            )
            for p in pairs
        ]

    sources = make_latent_pairs(13, n_train=48, n_eval=20, d_audio=12, d_text=10)
    train32, eval32 = (as_dtype(pairs, np.float32) for pairs in sources)
    variants32 = np.stack([v for p in train32 for v in (p.captions[0] + np.float32(1.0), -p.captions[0])])
    train32 = [space.TrainPair(p.clip_id, p.audio, p.captions, ((2 * i, 2 * i + 1),)) for i, p in enumerate(train32)]
    cfg = small_cfg(seed=3, swap_prob=0.5)
    outcomes = []
    for dtype in (np.float32, np.float64):
        pairs = as_dtype(train32, dtype)
        variants = variants32.astype(dtype)
        pre = space.train(pairs, cfg, phase="pretrain", variants=variants)
        fine = space.train(pairs, cfg, phase="finetune", init=(pre.audio_head, pre.text_head), variants=variants)
        queries, index = retrieval.build_eval(as_dtype(eval32, dtype), fine.audio_head, fine.text_head)
        arrays = [a for r in (pre, fine) for h in (r.audio_head, r.text_head) for a in (h.weight, h.bias)]
        arrays += [index.vectors, queries[1]]
        outcomes.append(([a.tobytes() for a in arrays], pre.curve, fine.curve, retrieval.evaluate(queries, index)))
    assert pairs[0].audio.dtype == np.float64 and train32[0].audio.dtype == np.float32
    assert outcomes[0] == outcomes[1]


def test_finetune_swaps_alter_stream():
    pairs = tiny_pairs(5)
    with_variants = [space.TrainPair(p.clip_id, p.audio, p.captions, ((i,),)) for i, p in enumerate(pairs)]
    variants = np.stack([p.captions[0] + 1.0 for p in pairs])
    cfg = small_cfg(seed=7, warmup_epochs=0)
    plain = space.train(pairs, cfg, phase="pretrain")
    swapped = space.train(with_variants, cfg, phase="finetune", variants=variants)
    assert [p.loss for p in plain.curve] != [p.loss for p in swapped.curve]


def test_swap_always_uses_single_variant():
    marker = np.full((1, 10), 123.0)
    pairs = [space.TrainPair(p.clip_id, p.audio, p.captions, ((0,),)) for p in tiny_pairs(2, n=16)]
    rng = np.random.default_rng(0)
    for p in pairs:
        vec = space.sample_caption(p, rng, swap_prob=1.0, variants=marker)
        assert np.array_equal(vec, marker[0])


def test_swap_rate_concentrates_around_p():
    marker = np.full((1, 10), 777.0)
    pairs = [space.TrainPair(p.clip_id, p.audio, p.captions, ((0,),)) for p in tiny_pairs(9, n=20)]
    rng = np.random.default_rng(derive_seed(0, "swap-rate"))
    draws = 10_000
    swapped = 0
    for k in range(draws):
        pair = pairs[k % len(pairs)]
        vec = space.sample_caption(pair, rng, swap_prob=0.3, variants=marker)
        swapped += vec[0] == 777.0
    assert 0.28 <= swapped / draws <= 0.32


def swap_stream_pairs(partial: bool) -> tuple[list[space.TrainPair], np.ndarray]:
    """Twelve clips of three captions, and the float64 matrix their variant
    rows index. Caption k of clip i has 1 + (i + k) % 3 variants, and with
    partial a quarter of the captions have none (their rows stay unused)."""
    rng = np.random.default_rng(derive_seed(17, "swap-stream"))
    pairs, rows = [], []
    for i in range(12):
        audio = rng.normal(size=12)
        captions = tuple(rng.normal(size=10) for _ in range(3))
        groups = []
        for k in range(3):
            groups.append(tuple(range(len(rows), len(rows) + 1 + (i + k) % 3)))
            rows += [rng.normal(size=10) for _ in groups[-1]]
        if partial:
            groups = [() if (i + 2 * k) % 4 == 0 else g for k, g in enumerate(groups)]
        pairs.append(space.TrainPair(f"clip{i:02d}", audio, captions, tuple(groups)))
    return pairs, np.stack(rows)


SWAP_STREAM_CFG = small_cfg(batch_size=4, finetune_epochs=3, swap_prob=0.5, seed=4)


def finetune_over_a_counted_dump(tmp_path, partial: bool) -> tuple[space.TrainResult, list[int]]:
    """Finetune the swap stream's pairs over its variant matrix written as a
    dump: the result, and the variant rows read, in the order drawn."""
    pairs, matrix = swap_stream_pairs(partial)
    ingest.write_embedding_dump(((f"v{i}", v) for i, v in enumerate(matrix)), tmp_path / "variants.embd")
    read = []

    class CountingReader(ingest.DumpReader):
        def __getitem__(self, i):
            read.append(i)
            return super().__getitem__(i)

    with CountingReader(tmp_path / "variants.embd") as reader:
        result = space.train(pairs, SWAP_STREAM_CFG, phase="finetune", strict=not partial, variants=reader)
    return result, read


@pytest.mark.parametrize(
    "partial, rows",
    [
        (False, [18, 47, 1, 52, 13, 54, 69, 33, 38, 26, 24, 54, 11, 67, 19, 45, 15, 41, 63, 18, 24, 55]),
        (True, [18, 47, 1, 12, 54, 69, 31, 55, 11, 60, 19, 45, 41, 19, 54]),
    ],
    ids=["every-caption", "three-quarters"],
)
def test_finetune_swap_stream_draws_are_pinned(tmp_path, blas_core, partial, rows):
    # the variant rows drawn and the step-0 loss come before any Adam step, so
    # they pin the draw order apart from the optimizer
    result, read = finetune_over_a_counted_dump(tmp_path, partial)
    assert read == rows
    assert result.curve[0].loss.hex() == "0x1.85ae1ea5af3cep+0", f"OpenBLAS core {blas_core}"


@pytest.mark.parametrize(
    "partial, heads_sha, curve_sha",
    [(False, "cc2a7547e480533f", "2927c5284eb805c4"), (True, "260372c746e79261", "ca53b7afe9c54d3f")],
    ids=["every-caption", "three-quarters"],
)
def test_finetune_swap_stream_is_pinned(blas_core, partial, heads_sha, curve_sha):
    # the caption index, the swap coin (only when swap_prob > 0) and the variant
    # index (only when that caption has variants) are drawn in this order; the
    # digests fix the float32 heads and the (lr, loss) curve that order and
    # Adam yield
    pairs, variants = swap_stream_pairs(partial)
    result = space.train(pairs, SWAP_STREAM_CFG, phase="finetune", strict=not partial, variants=variants)
    heads = b"".join(
        np.asarray(a, dtype="<f4").tobytes() for h in (result.audio_head, result.text_head) for a in (h.weight, h.bias)
    )
    curve = np.array([(p.lr, p.loss) for p in result.curve]).tobytes()
    assert len(result.curve) == 9
    assert hashlib.sha256(heads).hexdigest()[:16] == heads_sha, f"OpenBLAS core {blas_core}"
    assert hashlib.sha256(curve).hexdigest()[:16] == curve_sha, f"OpenBLAS core {blas_core}"


@pytest.mark.parametrize("partial", [False, True], ids=["every-caption", "three-quarters"])
def test_finetune_over_dump_rows_draws_the_same_stream(tmp_path, partial):
    # the swap stream's variant matrix as a dump: the same heads and curve,
    # and only the rows drawn are read
    pairs, matrix = swap_stream_pairs(partial)
    expected = space.train(pairs, SWAP_STREAM_CFG, phase="finetune", strict=not partial, variants=matrix)
    result, read = finetune_over_a_counted_dump(tmp_path, partial)
    assert 0 < len(read) < len(matrix)
    for a, b in zip((expected.audio_head, expected.text_head), (result.audio_head, result.text_head)):
        assert a.weight.tobytes() == b.weight.tobytes() and a.bias.tobytes() == b.bias.tobytes()
    assert expected.curve == result.curve


def test_train_pair_needs_one_variant_set_per_caption():
    vec = np.zeros(3)
    space.TrainPair("clip", vec, (vec, vec), ((0,), ()))
    with pytest.raises(ValueError, match=r"^clip 'clip': 1 variant sets for 2 captions$"):
        space.TrainPair("clip", vec, (vec, vec), ((0,),))


def test_train_errors():
    with pytest.raises(space.EmptyDataset):
        space.train([], small_cfg())
    pairs = tiny_pairs(0, n=4)
    with pytest.raises(space.EmptyDataset):
        space.train(pairs, small_cfg(batch_size=64))
    with pytest.raises(space.MissingAugmentation):
        space.train(pairs, small_cfg(batch_size=2), phase="finetune", strict=True)


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_train_refuses_variants_of_another_width(monkeypatch, phase):
    pairs = tiny_pairs(0, n=4)
    pairs[2] = space.TrainPair(pairs[2].clip_id, pairs[2].audio, pairs[2].captions, ((0, 1),))
    monkeypatch.setattr(space, "loss_gradients", None)  # refused before step 0
    with pytest.raises(space.DimMismatch, match=r"^variant dim 11 != caption dim 10$"):
        space.train(pairs, small_cfg(batch_size=2), phase=phase, variants=np.zeros((2, 11)))


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
@pytest.mark.parametrize(
    "rows, source, n_rows",
    [((0, 2), np.ones((2, 10)), 2), ((-1,), np.ones((2, 10)), 2), ((0,), None, 0)],
    ids=["past-the-end", "negative", "no-source"],
)
def test_train_refuses_variant_rows_outside_the_source(monkeypatch, phase, rows, source, n_rows):
    pairs = tiny_pairs(0, n=4)
    pairs[2] = space.TrainPair(pairs[2].clip_id, pairs[2].audio, pairs[2].captions, (rows,))
    monkeypatch.setattr(space, "loss_gradients", None)  # refused before step 0
    message = rf"^clip 'train0002': variant rows outside the {n_rows} rows of the variant source$"
    with pytest.raises(ValueError, match=message):
        space.train(pairs, small_cfg(batch_size=2), phase=phase, variants=source)


def test_train_stops_on_first_non_finite_loss(monkeypatch):
    exact = space.loss_gradients
    calls = []

    def nan_at_step_3(*args, **kwargs):
        loss, grad = exact(*args, **kwargs)
        calls.append(loss)
        if len(calls) == 4:
            loss = space.LossValue(float("nan"), loss.text_to_audio, loss.audio_to_text)
        return loss, grad

    monkeypatch.setattr(space, "loss_gradients", nan_at_step_3)
    with pytest.raises(space.NonFiniteValue, match="step 3"):
        space.train(tiny_pairs(2, n=32), small_cfg(batch_size=8, pretrain_epochs=2))
    assert len(calls) == 4


def test_train_fails_closed_one_step_after_a_non_finite_gradient(monkeypatch):
    # Adam turns an inf gradient into NaN parameters (inf / inf), so the next
    # step's loss check refuses the run; no gradient check is needed
    exact = space.loss_gradients
    calls = []

    def inf_gradient_at_step_2(*args, **kwargs):
        loss, grad = exact(*args, **kwargs)
        calls.append(loss)
        if len(calls) == 3:
            grad[0] = np.inf  # audio weight [0, 0]
        return loss, grad

    monkeypatch.setattr(space, "loss_gradients", inf_gradient_at_step_2)
    with pytest.raises(space.NonFiniteValue, match=r"^pretrain step 3: loss is nan$"):
        space.train(tiny_pairs(2, n=32), small_cfg(batch_size=8, pretrain_epochs=2))
    assert [math.isfinite(loss.value) for loss in calls] == [True, True, True, False]


def test_train_warns_without_augmentations():
    pairs = tiny_pairs(1, n=8)
    cfg = small_cfg(batch_size=4, finetune_epochs=1)
    with pytest.warns(UserWarning, match="without augmented captions"):
        space.train(pairs, cfg, phase="finetune")
    # variant sets that are all empty never swap either
    uncovered = [space.TrainPair(p.clip_id, p.audio, p.captions, ((),)) for p in pairs]
    with pytest.warns(UserWarning, match="without augmented captions"):
        space.train(uncovered, cfg, phase="finetune")


def test_train_zero_epochs_returns_initialization():
    pairs = tiny_pairs(4, n=8)
    cfg = small_cfg(batch_size=4, pretrain_epochs=0, seed=21)
    result = space.train(pairs, cfg)
    expect_audio = space.ProjectionHead.initialize(12, 24, np.random.default_rng(derive_seed(21, "audio-head")))
    # train holds its heads in float32: with no step they are the float32 rounding of the initialization
    assert result.audio_head.weight.dtype == np.float32
    assert np.array_equal(result.audio_head.weight, expect_audio.weight.astype(np.float32))
    assert result.curve == ()


def test_train_heads_are_views_of_one_float32_vector():
    result = space.train(tiny_pairs(6, n=16), small_cfg(batch_size=8, pretrain_epochs=1))
    arrays = (result.audio_head.weight, result.audio_head.bias, result.text_head.weight, result.text_head.bias)
    assert all(a.dtype == np.float32 for a in arrays)
    base = arrays[0].base
    assert base is not None and base.shape == (sum(a.size for a in arrays),)
    assert all(np.shares_memory(a, base) for a in arrays)


def test_train_refuses_init_heads_of_another_out_dim():
    pairs = tiny_pairs(6, n=16)
    cfg = small_cfg(batch_size=8, pretrain_epochs=1, out_dim=8)
    rng = np.random.default_rng(0)
    heads = (space.ProjectionHead.initialize(12, 8, rng), space.ProjectionHead.initialize(10, 16, rng))
    with pytest.raises(space.DimMismatch, match=r"^init heads project to dims \(8, 16\), out_dim is 8$"):
        space.train(pairs, cfg, init=heads)


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
    space.save_checkpoint(p1, result.audio_head, result.text_head)
    ckpt = space.load_checkpoint(p1)
    space.save_checkpoint(p2, ckpt.audio_head, ckpt.text_head)
    assert p1.read_bytes() == p2.read_bytes()
    # header (magic, version, three dims) then the two heads, nothing else
    head_params = sum(h.weight.size + h.bias.size for h in (result.audio_head, result.text_head))
    assert p1.stat().st_size == struct.calcsize("<4sIIII") + 4 * head_params
    assert np.array_equal(ckpt.audio_head.weight, result.audio_head.weight.astype(np.float32).astype(np.float64))


def test_checkpoint_body_is_the_parameter_vector_in_readme_order(tmp_path):
    # distinct values in every part, so a swap of any two parts shows
    d_out, d_a, d_t = 3, 4, 2
    values = np.arange(1.0, 1.0 + d_out * (d_a + d_t + 2))
    aw, ab, tw, tb = np.split(values, np.cumsum([d_out * d_a, d_out, d_out * d_t]))
    audio = space.ProjectionHead(aw.reshape(d_out, d_a), ab)
    text = space.ProjectionHead(tw.reshape(d_out, d_t), tb)
    path = tmp_path / "x.ackp"
    space.save_checkpoint(path, audio, text)
    raw = path.read_bytes()
    header = struct.pack("<4sIIII", b"ACKP", 3, d_out, d_a, d_t)
    body = np.concatenate([audio.weight.ravel(), audio.bias, text.weight.ravel(), text.bias]).astype("<f4")
    assert raw == header + body.tobytes()
    # and a hand-built body loads into those parts
    built = tmp_path / "built.ackp"
    built.write_bytes(header + values.astype("<f4").tobytes())
    ckpt = space.load_checkpoint(built)
    for got, want in zip((ckpt.audio_head, ckpt.text_head), (audio, text)):
        assert got.weight.dtype == got.bias.dtype == np.float64
        assert np.array_equal(got.weight, want.weight) and np.array_equal(got.bias, want.bias)


@pytest.mark.parametrize("bits", [0x7F800001, 0x7FC00000, 0xFF800000], ids=["signalling-nan", "quiet-nan", "-inf"])
@pytest.mark.parametrize(
    "part, at", [("audio.weight", 11), ("audio.bias", 12), ("text.weight", 15), ("text.bias", 21)]
)
def test_checkpoint_load_names_the_file_and_the_part_that_is_not_finite(tmp_path, part, at, bits):
    # d_out 3, d_in 4 and 2: the parts are body values 0-11, 12-14, 15-20 and 21-23;
    # a signalling NaN would warn in a cast to float64, and pytest makes a RuntimeWarning an error
    d_out, d_a, d_t = 3, 4, 2
    body = np.ones(d_out * (d_a + d_t + 2), dtype="<f4")
    body.view("<u4")[at] = bits
    path = tmp_path / "x.ackp"
    path.write_bytes(struct.pack("<4sIIII", b"ACKP", 3, d_out, d_a, d_t) + body.tobytes())
    with pytest.raises(ingest.NonFiniteValue) as refused:
        space.load_checkpoint(path)
    assert str(refused.value) == f"{path}: {part} is not finite"


@pytest.mark.parametrize("dims", [(0, 4, 2), (3, 0, 2), (3, 4, 0)], ids=["d_out", "audio-d_in", "text-d_in"])
def test_checkpoint_refuses_a_zero_dimension(tmp_path, dims):
    d_out, d_a, d_t = dims
    path = tmp_path / "zero.ackp"
    header = struct.pack("<4sIIII", b"ACKP", 3, d_out, d_a, d_t)
    path.write_bytes(header + bytes(4 * d_out * (d_a + d_t + 2)))
    with pytest.raises(space.SpaceError) as refused:
        space.load_checkpoint(path)
    assert str(refused.value) == f"{path}: zero dimension: d_out {d_out}, audio d_in {d_a}, text d_in {d_t}"


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "x.ackp"
    p.write_bytes(b"not a checkpoint at all")
    with pytest.raises(space.SpaceError):
        space.load_checkpoint(p)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"JUNK" + bytes(16), "bad checkpoint magic b'JUNK'"),
        (struct.pack("<4sIIII", b"ACKP", 3, 4, 3, 2), f"size {64 << 20} != expected {20 + 4 * 4 * (3 + 2 + 2)}"),
    ],
    ids=["bad-magic", "wrong-size"],
)
def test_checkpoint_refuses_a_large_file_without_reading_it(tmp_path, header, message):
    # a wrong --checkpoint, a 158-MB variants.embd say, is refused from its
    # header and its size; a sparse file holds 64 MB without using the disk
    path = tmp_path / "big.ackp"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(space.SpaceError) as refused:
            space.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"{path}: {message}"
    assert peak < 1 << 20


@pytest.mark.parametrize("version, write", [(1, write_v1_checkpoint), (2, write_v2_checkpoint)], ids=["v1", "v2"])
def test_checkpoint_rejects_older_versions(tmp_path, version, write):
    p = tmp_path / "old.ackp"
    write(p)
    with pytest.raises(space.SpaceError, match=f"unsupported checkpoint version {version}, expected 3$"):
        space.load_checkpoint(p)


def test_checkpoint_refuses_heads_of_two_output_dims(tmp_path):
    rng = np.random.default_rng(0)
    audio, text = space.ProjectionHead.initialize(3, 8, rng), space.ProjectionHead.initialize(2, 16, rng)
    with pytest.raises(space.DimMismatch, match=r"^heads project to dims \(8, 16\); a checkpoint holds one$"):
        space.save_checkpoint(tmp_path / "x.ackp", audio, text)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["audio.weight", "text.bias"])
def test_checkpoint_refuses_values_beyond_float32(tmp_path, name):
    cfg = small_cfg(batch_size=8, pretrain_epochs=1)
    result = space.train(tiny_pairs(9, n=16), cfg)
    # float64 heads, as load_checkpoint and gradient_check build them
    audio, text = (space.ProjectionHead(h.weight.astype(np.float64), h.bias) for h in (result.audio_head, result.text_head))
    arrays = {"audio.weight": audio.weight, "text.bias": text.bias}
    arrays[name].flat[0] = 1e39  # finite in float64, inf in float32
    with pytest.raises(space.NonFiniteValue, match=name):
        space.save_checkpoint(tmp_path / "x.ackp", audio, text)
    assert list(tmp_path.iterdir()) == []
