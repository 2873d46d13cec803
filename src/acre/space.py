"""The trainable core: linear projections into the shared space, the symmetric
contrastive loss with closed-form gradients, Adam, the warmup+cosine schedule,
and the two-phase training loop over frozen encoder outputs.

Only the two projection heads learn. Given raw batches A, T the forward pass is

    P_a = A W_a^T + b_a,  P_t = T W_t^T + b_t
    C_ij = <P_a_i, P_t_j> / (|P_a_i| |P_t_j|)
    loss = mean over both softmax directions of cross-entropy against the
           diagonal target, with logits C / temperature.

loss_gradients backpropagates this chain analytically; cmd-level and test
oracles check it against central finite differences.

The trainable state is one flat vector in checkpoint order: audio weight,
audio bias, text weight, text bias (_split). train's heads are views into it,
and the gradient and Adam's two moments are vectors of the same layout; a
checkpoint's body is the vector as little-endian float32.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ingest import DimMismatch, NonFiniteValue, atomic_write
from .seeding import derive_seed

SHARED_DIM = 1024

# 65536 float32 elements = 256 KiB per array: one block of a parameter, its two
# moments, its gradient and both scratch buffers (1.5 MiB) stay in L2 through
# all 11 passes. On the float32 768->1024 heads (2 vCPUs, 2 MiB L2 each) a lone
# step took 3.56 ms, against 3.64 ms at 32768 and 4.09 ms at 16384 (medians of
# 30 interleaved rounds of 20 steps); inside train, 65536 and 32768 tied.
_ADAM_BLOCK = 65536
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# l2_normalize_in_place squares this many rows at a time: 128 rows of 1024
# float64 are 1 MiB, and the scratch is reused instead of faulted in afresh.
# evaluate normalizes 512-row query blocks: in a fresh process, its 5000 x 1024
# queries took about 21 ms this way and 41-48 ms squared whole (2 vCPUs)
_NORM_BLOCK = 128

# step of gradient_check's central finite differences
FD_STEP = 1e-4

CHECKPOINT_MAGIC = b"ACKP"
_CHECKPOINT_VERSION = 3
# magic, version, d_out, audio d_in, text d_in
_CHECKPOINT_HEADER = struct.Struct("<4sIIII")


class SpaceError(Exception):
    pass


class ShapeMismatch(SpaceError):
    pass


class NonSquare(SpaceError):
    pass


class ZeroNormVector(SpaceError):
    """A zero-norm vector; ``row`` is the first zero row of a matrix, if known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptyDataset(SpaceError):
    pass


class MissingAugmentation(SpaceError):
    pass


@dataclass
class ProjectionHead:
    """Trainable linear map into the shared space: x -> weight @ x + bias."""

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)

    def __post_init__(self):
        weight, bias = np.asarray(self.weight), np.asarray(self.bias)
        # float32 heads train; any other dtype becomes the float64 that evaluation runs in
        dtype = np.float32 if weight.dtype == bias.dtype == np.float32 else np.float64
        self.weight, self.bias = weight.astype(dtype, copy=False), bias.astype(dtype, copy=False)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be 2-D and bias 1-D")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError("weight rows and bias length disagree")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("head parameters must be finite")

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def initialize(cls, d_in: int, d_out: int, rng: np.random.Generator) -> "ProjectionHead":
        """Uniform init in +-1/sqrt(d_in), zero-mean; bias included."""
        bound = 1.0 / math.sqrt(d_in)
        return cls(
            weight=rng.uniform(-bound, bound, (d_out, d_in)),
            bias=rng.uniform(-bound, bound, d_out),
        )


def project(e: np.ndarray, h: ProjectionHead) -> np.ndarray:
    """Apply the head to one vector or to a batch of row vectors, in the head's dtype."""
    e = np.asarray(e, dtype=h.weight.dtype)
    if e.shape[-1] != h.d_in:
        raise DimMismatch(f"input dim {e.shape[-1]} != head d_in {h.d_in}")
    out = e @ h.weight.T
    out += h.bias  # in place: one full-size result, not two
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, kept as a length-1 axis: the sum
    np.linalg.norm computes, so the same bits, without its conj() copy."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))


def l2_normalize_in_place(x: np.ndarray) -> np.ndarray:
    """Scale the rows (or the single vector) of a float64 array the caller
    owns to unit length, in place, and return it. A zero norm is a
    ZeroNormVector whose ``row`` is the first zero row.

    The norms are taken _NORM_BLOCK rows at a time, so the squares are one
    block's scratch rather than a full-size temporary; each row's sum is the
    same whatever rows share its block.
    """
    if x.dtype != np.float64:
        raise TypeError(f"normalizes float64 in place, got {x.dtype}")
    rows = x[None] if x.ndim == 1 else x  # a view: dividing it divides x
    norms = np.empty((*rows.shape[:-1], 1))
    for start in range(0, len(rows), _NORM_BLOCK):
        norms[start : start + _NORM_BLOCK] = _row_norms(rows[start : start + _NORM_BLOCK])
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroNormVector("cannot normalize a zero vector", row=int(zero[0]))
    rows /= norms
    return x


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """A unit-length float64 copy of x's rows (or of the single vector x)."""
    return l2_normalize_in_place(np.array(x, dtype=np.float64))


def similarity_matrix(audio: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities: C[i, j] compares audio i with caption j."""
    if np.shape(audio)[1] != np.shape(text)[1]:
        raise DimMismatch(f"audio dim {np.shape(audio)[1]} != text dim {np.shape(text)[1]}")
    return l2_normalize(audio) @ l2_normalize(text).T


@dataclass(frozen=True)
class LossValue:
    """Symmetric contrastive loss and its two directional terms."""

    value: float
    text_to_audio: float
    audio_to_text: float


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _nt_xent(C: np.ndarray, temperature: float) -> tuple[LossValue, np.ndarray, np.ndarray]:
    """The loss plus the row and column log-softmax of C / temperature it came from."""
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise NonSquare(f"similarity matrix must be square, got {C.shape}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    logits = C / temperature
    log_rows = _log_softmax(logits, axis=1)
    log_cols = _log_softmax(logits, axis=0)
    diag = np.arange(C.shape[0])
    # + 0.0 folds a saturated -0.0 into plain 0.0
    audio_to_text = float(-log_rows[diag, diag].mean()) + 0.0
    text_to_audio = float(-log_cols[diag, diag].mean()) + 0.0
    loss = LossValue(
        value=0.5 * (audio_to_text + text_to_audio),
        text_to_audio=text_to_audio,
        audio_to_text=audio_to_text,
    )
    return loss, log_rows, log_cols


def nt_xent_loss(C: np.ndarray, temperature: float = 1.0) -> LossValue:
    """Cross-entropy against the diagonal, averaged over rows and columns.

    Rows score one audio against every caption (audio-to-text); columns score
    one caption against every audio (text-to-audio). Logits are C/temperature.
    """
    return _nt_xent(C, temperature)[0]


def _split(flat: np.ndarray, d_out: int, d_a: int, d_t: int):
    """Views of a vector in checkpoint order, as ((audio weight, audio bias),
    (text weight, text bias)); the heads' parameters, their gradient and
    Adam's moments all have this layout."""
    aw, ab, tw, tb = np.split(flat, np.cumsum([d_out * d_a, d_out, d_out * d_t]))
    return (aw.reshape(d_out, d_a), ab), (tw.reshape(d_out, d_t), tb)


def _flatten(audio_head: ProjectionHead, text_head: ProjectionHead, dtype) -> np.ndarray:
    """Both heads' parameters copied into one new vector of dtype, in checkpoint order."""
    d_out, d_a, d_t = audio_head.d_out, audio_head.d_in, text_head.d_in
    flat = np.empty(d_out * (d_a + d_t + 2), dtype)
    for (weight, bias), head in zip(_split(flat, d_out, d_a, d_t), (audio_head, text_head)):
        weight[...], bias[...] = head.weight, head.bias
    return flat


def _heads(flat: np.ndarray, d_out: int, d_a: int, d_t: int) -> tuple[ProjectionHead, ProjectionHead]:
    """The (audio, text) heads whose parameters are views into flat."""
    return tuple(ProjectionHead(weight, bias) for weight, bias in _split(flat, d_out, d_a, d_t))


def nt_xent_from_raw(
    audio_raw: np.ndarray,
    text_raw: np.ndarray,
    audio_head: ProjectionHead,
    text_head: ProjectionHead,
    temperature: float = 1.0,
) -> LossValue:
    """Forward pass from raw encoder outputs through both heads to the loss."""
    C = similarity_matrix(project(audio_raw, audio_head), project(text_raw, text_head))
    return nt_xent_loss(C, temperature)


def loss_gradients(
    audio_raw: np.ndarray,
    text_raw: np.ndarray,
    audio_head: ProjectionHead,
    text_head: ProjectionHead,
    temperature: float = 1.0,
) -> tuple[LossValue, np.ndarray]:
    """Loss plus the exact analytic gradient of both heads, as one vector in
    checkpoint order and the heads' dtype.

    Backpropagates the cross-entropy through the two softmax directions, the
    row normalizations and the linear projections:

        dL/dlogits = ((rowsoftmax - I) + (colsoftmax - I)) / (2N)
        dL/dA_hat  = (dL/dC) T_hat           (and transposed for T_hat)
        through x_hat = p/|p|:  g_p = (g - (g . x_hat) x_hat) / |p|
        dL/dW = g_P^T X,  dL/db = sum_i g_P_i
    """
    A = np.asarray(audio_raw, dtype=audio_head.weight.dtype)
    T = np.asarray(text_raw, dtype=text_head.weight.dtype)
    if A.ndim != 2 or T.ndim != 2 or A.shape[0] != T.shape[0]:
        raise ShapeMismatch(f"batch shapes disagree: {A.shape} vs {T.shape}")
    n = A.shape[0]

    Pa = project(A, audio_head)
    Pt = project(T, text_head)
    na = _row_norms(Pa)
    nt = _row_norms(Pt)
    if np.any(na == 0.0) or np.any(nt == 0.0):
        raise ZeroNormVector("projected vector has zero norm")
    Ah = Pa / na
    Th = Pt / nt
    C = Ah @ Th.T

    loss, log_rows, log_cols = _nt_xent(C, temperature)
    eye = np.eye(n)
    g_logits = ((np.exp(log_rows) - eye) + (np.exp(log_cols) - eye)) / (2.0 * n)
    g_C = (g_logits / temperature).astype(C.dtype)  # the N x N logits are float64; the rest is the heads' dtype

    g_Ah = g_C @ Th
    g_Th = g_C.T @ Ah
    g_Pa = (g_Ah - (g_Ah * Ah).sum(axis=1, keepdims=True) * Ah) / na
    g_Pt = (g_Th - (g_Th * Th).sum(axis=1, keepdims=True) * Th) / nt

    d_out, d_a, d_t = audio_head.d_out, A.shape[1], T.shape[1]
    grad = np.empty(d_out * (d_a + d_t + 2), C.dtype)
    for (g_W, g_b), g_P, X in zip(_split(grad, d_out, d_a, d_t), (g_Pa, g_Pt), (A, T)):
        np.matmul(g_P.T, X, out=g_W)
        g_P.sum(axis=0, out=g_b)
    return loss, grad


def gradient_check(seed: int, shape: tuple[int, int, int]) -> float:
    """Max relative error between analytic gradients and central finite
    differences of step FD_STEP, at temperature 1.

    shape is (batch, d_in, d_out), applied to both modalities.
    """
    n, d_in, d_out = shape
    rng = np.random.default_rng(derive_seed(seed, "gradient-check"))
    A = rng.normal(0.0, 1.0, (n, d_in))
    T = rng.normal(0.0, 1.0, (n, d_in))
    init = ProjectionHead.initialize(d_in, d_out, rng), ProjectionHead.initialize(d_in, d_out, rng)
    params = _flatten(*init, np.float64)
    audio_head, text_head = _heads(params, d_out, d_in, d_in)
    _, analytic = loss_gradients(A, T, audio_head, text_head)

    fd = np.empty_like(params)
    for i in range(params.size):
        original = params[i]
        params[i] = original + FD_STEP
        up = nt_xent_from_raw(A, T, audio_head, text_head).value
        params[i] = original - FD_STEP
        down = nt_xent_from_raw(A, T, audio_head, text_head).value
        params[i] = original
        fd[i] = (up - down) / (2.0 * FD_STEP)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


def lr_at(step: int, total_steps: int, warmup_steps: int, lr_max: float, lr_min: float) -> float:
    """Learning rate at a step: linear 0 -> lr_max over warmup, then cosine to lr_min."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if not 0 <= warmup_steps <= total_steps:
        raise ValueError(f"warmup_steps {warmup_steps} outside [0, {total_steps}]")
    if step < warmup_steps:
        return lr_max * step / warmup_steps
    span = total_steps - warmup_steps
    t = 0.0 if span == 0 else (step - warmup_steps) / span
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t))


@dataclass
class AdamState:
    """Adam's two moment vectors and the step counter t.

    v is the second moment as Kingma & Ba define it. m is stored scaled, as
    m/(1-ADAM_BETA1): the update then adds the gradient unscaled, and the
    factor 1-ADAM_BETA1 moves into adam_step's scalar step size."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update with ADAM_BETA1, ADAM_BETA2 and ADAM_EPS, in place.

    This is Kingma & Ba's efficient form (arXiv 1412.6980, section 2). Both bias
    corrections fold into two Python floats per step, root = sqrt(1-b2^t),
    step = lr*(1-b1)/(1-b1^t)*root and eps_hat = eps*root; with m stored as
    m/(1-b1) (AdamState) the update is m = b1*m + g, v = b2*v + ((1-b2)*g)*g,
    p -= (m / (sqrt(v) + eps_hat)) * step. In exact arithmetic that is the
    textbook p -= lr*(m/bc1) / (sqrt(v/bc2) + eps) with m unscaled; in floating
    point v keeps its bits and p may differ in the last ones. lr is read as a
    Python float, so a numpy float64 lr gives the same bits.

    params, grads and both moments are 1-D vectors of one length; anything
    else is a ShapeMismatch and updates nothing. The vector is walked in blocks
    of _ADAM_BLOCK elements through two block-sized scratch buffers, so every
    pass over a block stays in cache; the floating-point operations and their
    order are fixed, and equal the unblocked form elementwise.
    """
    g = np.asarray(grads, dtype=params.dtype)
    if params.ndim != 1 or not params.shape == g.shape == state.m.shape == state.v.shape:
        raise ShapeMismatch(
            f"Adam takes 1-D vectors of one shape: params {params.shape}, grads {g.shape}, "
            f"moments {state.m.shape} and {state.v.shape}"
        )
    state.t += 1
    # Python floats: under NEP 50 a numpy float64 scalar would run every float32 pass in float64
    root = math.sqrt(1.0 - ADAM_BETA2**state.t)
    step = float(lr) * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1**state.t) * root
    eps_hat = ADAM_EPS * root
    scratch1, scratch2 = np.empty(_ADAM_BLOCK, params.dtype), np.empty(_ADAM_BLOCK, params.dtype)
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        pb, mb, vb, gb = params[block], state.m[block], state.v[block], g[block]
        s1, s2 = scratch1[: pb.size], scratch2[: pb.size]
        mb *= ADAM_BETA1
        mb += gb
        vb *= ADAM_BETA2
        np.multiply(gb, 1.0 - ADAM_BETA2, out=s1)
        s1 *= gb
        vb += s1
        np.sqrt(vb, out=s2)
        s2 += eps_hat
        np.divide(mb, s2, out=s1)
        s1 *= step
        pb -= s1


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    pretrain_epochs: int = 16
    warmup_epochs: int = 1
    lr_max: float = 2e-5
    lr_min: float = 1e-7
    finetune_epochs: int = 5
    finetune_lr_max: float = 8e-6
    swap_prob: float = 0.3
    temperature: float = 1.0
    seed: int = 0
    out_dim: int = SHARED_DIM

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("pretrain_epochs", "finetune_epochs", "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.swap_prob <= 1.0:
            raise ValueError(f"swap_prob must lie in [0, 1], got {self.swap_prob}")
        for name in ("lr_max", "lr_min", "finetune_lr_max", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr_min < 0:
            raise ValueError(f"lr_min must be >= 0, got {self.lr_min}")
        if self.lr_min >= self.lr_max:
            raise ValueError(f"lr_min ({self.lr_min}) must be below lr_max ({self.lr_max})")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.out_dim < 1:
            raise ValueError(f"out_dim must be >= 1, got {self.out_dim}")


def check_phase(cfg: TrainConfig, phase: str, init: tuple[ProjectionHead, ProjectionHead] | None = None) -> None:
    """Refuse a phase this config cannot train, or init heads it cannot start
    from, before any data is read. Each config check holds for one phase only,
    so none is in TrainConfig: a pretrain-only config may set lr_min above
    finetune_lr_max, and finetune has no warmup."""
    if phase not in ("pretrain", "finetune"):
        raise ValueError(f"unknown phase {phase!r}")
    if phase == "finetune" and cfg.lr_min >= cfg.finetune_lr_max:
        raise ValueError(f"lr_min ({cfg.lr_min}) must be below finetune_lr_max ({cfg.finetune_lr_max})")
    if phase == "pretrain" and 0 < cfg.pretrain_epochs < cfg.warmup_epochs:
        raise ValueError(f"warmup_epochs ({cfg.warmup_epochs}) must not exceed pretrain_epochs ({cfg.pretrain_epochs})")
    if init is not None and (init[0].d_out, init[1].d_out) != (cfg.out_dim, cfg.out_dim):
        raise DimMismatch(f"init heads project to dims ({init[0].d_out}, {init[1].d_out}), out_dim is {cfg.out_dim}")


@dataclass(frozen=True)
class TrainPair:
    """One clip's frozen encoder outputs: an audio vector, its caption vectors
    and, for finetuning, variants[k], the row numbers of captions[k]'s
    augmented variants in the variant source given to train (empty when it
    has none). Vectors are kept as given; a batch of them takes the head's
    dtype in project and loss_gradients: float32 in train."""

    clip_id: str
    audio: np.ndarray
    captions: tuple[np.ndarray, ...]
    variants: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not self.captions:
            raise ValueError(f"clip {self.clip_id!r}: needs at least one caption vector")
        if self.variants and len(self.variants) != len(self.captions):
            raise ValueError(
                f"clip {self.clip_id!r}: {len(self.variants)} variant sets for {len(self.captions)} captions"
            )


def sample_caption(pair: TrainPair, rng: np.random.Generator, swap_prob: float = 0.0, variants=None) -> np.ndarray:
    """Draw one caption vector for a batch appearance of this clip.

    A caption index is drawn uniformly; with probability swap_prob the caption
    is replaced by one of its variants (uniform among them), read as a row of
    variants: a 2-D array, or an open ingest.DumpReader, which reads the row
    from its file now. Captions without variants are used as-is.
    """
    idx = int(rng.integers(len(pair.captions)))
    if swap_prob > 0.0 and rng.random() < swap_prob and pair.variants and pair.variants[idx]:
        return variants[pair.variants[idx][int(rng.integers(len(pair.variants[idx])))]]
    return pair.captions[idx]


@dataclass(frozen=True)
class LossPoint:
    step: int
    lr: float
    loss: float
    text_to_audio: float
    audio_to_text: float


@dataclass
class TrainResult:
    audio_head: ProjectionHead
    text_head: ProjectionHead
    curve: tuple[LossPoint, ...]
    total_steps: int


def train(
    pairs: Sequence[TrainPair],
    cfg: TrainConfig,
    phase: str = "pretrain",
    strict: bool = False,
    init: tuple[ProjectionHead, ProjectionHead] | None = None,
    variants=None,
) -> TrainResult:
    """Run one training phase over frozen encoder outputs.

    Each epoch shuffles the clips and walks complete batches (the final
    incomplete batch is dropped); each clip appearance samples one of its
    captions uniformly. The finetune phase additionally swaps captions for
    their variants with probability cfg.swap_prob and uses the finetune
    learning rate with no warmup; strict requires a variant for every caption.
    variants, a 2-D array or an open ingest.DumpReader, holds the rows the
    pairs' variant row numbers index; a row outside it, or a width other than
    the captions', is refused before step 0.
    """
    check_phase(cfg, phase, init)
    pairs = list(pairs)
    if not pairs:
        raise EmptyDataset("no training pairs")

    d_a = pairs[0].audio.size
    d_t = pairs[0].captions[0].size
    n_rows, width = (0, d_t) if variants is None else variants.shape
    if width != d_t:
        raise DimMismatch(f"variant dim {width} != caption dim {d_t}")
    for pair in pairs:
        if pair.audio.size != d_a or {t.size for t in pair.captions} != {d_t}:
            raise DimMismatch(f"clip {pair.clip_id!r}: inconsistent embedding dims")
        rows = [row for group in pair.variants for row in group]
        if rows and not 0 <= min(rows) <= max(rows) < n_rows:
            raise ValueError(f"clip {pair.clip_id!r}: variant rows outside the {n_rows} rows of the variant source")

    finetune = phase == "finetune"
    swap_prob = cfg.swap_prob if finetune else 0.0
    if finetune:
        missing = [
            (p.clip_id, k) for p in pairs for k in range(len(p.captions)) if not (p.variants and p.variants[k])
        ]
        if strict and missing:
            raise MissingAugmentation(f"{len(missing)} caption(s) lack augmented variants, first: {missing[0]!r}")
        if cfg.swap_prob > 0.0 and not any(any(p.variants) for p in pairs):
            warnings.warn("finetune without augmented captions: swaps will never fire", stacklevel=2)

    epochs = cfg.finetune_epochs if finetune else cfg.pretrain_epochs
    lr_max = cfg.finetune_lr_max if finetune else cfg.lr_max
    steps_per_epoch = len(pairs) // cfg.batch_size
    if epochs > 0 and steps_per_epoch == 0:
        raise EmptyDataset(
            f"batch size {cfg.batch_size} exceeds dataset size {len(pairs)}; no complete batch"
        )
    total_steps = steps_per_epoch * epochs
    warmup_steps = 0 if finetune else steps_per_epoch * cfg.warmup_epochs

    if init is None:
        init = tuple(
            ProjectionHead.initialize(d, cfg.out_dim, np.random.default_rng(derive_seed(cfg.seed, role)))
            for d, role in ((d_a, "audio-head"), (d_t, "text-head"))
        )
    elif (init[0].d_in, init[1].d_in) != (d_a, d_t):
        raise DimMismatch(f"init heads expect dims ({init[0].d_in}, {init[1].d_in}), dataset has ({d_a}, {d_t})")
    # training runs in float32 on one vector; the heads are views into it, and Adam's moments follow it
    params = _flatten(*init, np.float32)
    audio_head, text_head = _heads(params, cfg.out_dim, d_a, d_t)
    state = AdamState.zeros_like(params)

    # one role for both phases: finetune with swap_prob 0 replays the pretrain stream
    rng = np.random.default_rng(derive_seed(cfg.seed, "train"))
    curve: list[LossPoint] = []
    step = 0
    # a value that overflows float32 is reported once, by the loss check or by save_checkpoint
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(len(pairs))
            for b in range(steps_per_epoch):
                batch = [pairs[i] for i in order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
                A = np.stack([pair.audio for pair in batch])
                T = np.stack([sample_caption(pair, rng, swap_prob, variants) for pair in batch])
                lr = lr_at(step, total_steps, warmup_steps, lr_max, cfg.lr_min)
                loss, grad = loss_gradients(A, T, audio_head, text_head, cfg.temperature)
                if not math.isfinite(loss.value):
                    raise NonFiniteValue(f"{phase} step {step}: loss is {loss.value}")
                adam_step(params, grad, state, lr)
                curve.append(LossPoint(step, lr, loss.value, loss.text_to_audio, loss.audio_to_text))
                step += 1
    return TrainResult(audio_head, text_head, tuple(curve), total_steps)


class Checkpoint(NamedTuple):
    """The two heads a checkpoint holds, in the (audio, text) order of train's init."""

    audio_head: ProjectionHead
    text_head: ProjectionHead


def _require_finite(body: np.ndarray, d_out: int, d_a: int, d_t: int, message: Callable[[str], str]) -> None:
    """Raise NonFiniteValue(message(part)) for the first part, as 'audio.weight', not all finite."""
    for head, (weight, bias) in zip(("audio", "text"), _split(np.isfinite(body), d_out, d_a, d_t)):
        for part, finite in (("weight", weight), ("bias", bias)):
            if not finite.all():
                raise NonFiniteValue(message(f"{head}.{part}"))


def save_checkpoint(path, audio_head: ProjectionHead, text_head: ProjectionHead) -> None:
    """Serialize both heads as little-endian float32, atomically.

    The file is the trainable state and nothing else: a header, then the
    parameter vector in checkpoint order (_split). Values are quantized to
    float32 on save; save -> load -> save is byte-identical. A part that is not
    finite in float32 (NaN, or beyond float32 range) raises NonFiniteValue,
    and heads of two output dims raise DimMismatch; either way nothing is
    written.
    """
    d_out, d_a, d_t = audio_head.d_out, audio_head.d_in, text_head.d_in
    if d_out != text_head.d_out:
        raise DimMismatch(f"heads project to dims ({d_out}, {text_head.d_out}); a checkpoint holds one")
    with np.errstate(over="ignore"):
        body = _flatten(audio_head, text_head, "<f4")
    _require_finite(body, d_out, d_a, d_t, lambda part: f"{part} is not finite as float32; checkpoint not written")
    buf = bytearray(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, d_out, d_a, d_t))
    buf += memoryview(body)
    atomic_write(path, buf)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint; any other version is refused.

    The header and size are checked first, so a file that is not a checkpoint
    is refused unread. The body is one readinto into one float32 vector; a
    part of it that is not finite raises NonFiniteValue naming file and part.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _CHECKPOINT_HEADER.size:
            raise SpaceError(f"{path}: truncated checkpoint header")
        magic, version, d_out, d_in_a, d_in_t = _CHECKPOINT_HEADER.unpack(fh.read(_CHECKPOINT_HEADER.size))
        if magic != CHECKPOINT_MAGIC:
            raise SpaceError(f"{path}: bad checkpoint magic {magic!r}")
        if version != _CHECKPOINT_VERSION:
            raise SpaceError(f"{path}: unsupported checkpoint version {version}, expected {_CHECKPOINT_VERSION}")
        if 0 in (d_out, d_in_a, d_in_t):
            raise SpaceError(f"{path}: zero dimension: d_out {d_out}, audio d_in {d_in_a}, text d_in {d_in_t}")
        # size check before any allocation, so corrupt dims cannot ask for huge arrays
        body_size = d_out * (d_in_a + d_in_t + 2)
        expected = _CHECKPOINT_HEADER.size + 4 * body_size
        if size != expected:
            raise SpaceError(f"{path}: size {size} != expected {expected}")
        body = np.empty(body_size, dtype="<f4")
        got = fh.readinto(body)
    if got != body.nbytes:  # the file shrank after its size was taken
        raise SpaceError(f"{path}: size {_CHECKPOINT_HEADER.size + got} != expected {expected}")
    # checked in float32: casting a signalling NaN to float64 warns, isfinite does not
    _require_finite(body, d_out, d_in_a, d_in_t, lambda part: f"{path}: {part} is not finite")
    return Checkpoint(*_heads(body.astype(np.float64), d_out, d_in_a, d_in_t))
