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
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .ingest import atomic_write
from .seeding import derive_seed

SHARED_DIM = 1024

CHECKPOINT_MAGIC = b"ACKP"
_CHECKPOINT_VERSION = 1


class SpaceError(Exception):
    pass


class DimMismatch(SpaceError):
    pass


class ShapeMismatch(SpaceError):
    pass


class NonSquare(SpaceError):
    pass


class ZeroNormVector(SpaceError):
    pass


class EmptyDataset(SpaceError):
    pass


class MissingAugmentation(SpaceError):
    pass


class NonFiniteValue(SpaceError):
    pass


@dataclass
class ProjectionHead:
    """Trainable linear map into the shared space: x -> weight @ x + bias."""

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
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
    def initialize(cls, d_in: int, d_out: int = SHARED_DIM, rng: np.random.Generator | None = None) -> "ProjectionHead":
        """Uniform init in +-1/sqrt(d_in), zero-mean; bias included."""
        rng = rng or np.random.default_rng(0)
        bound = 1.0 / math.sqrt(d_in)
        return cls(
            weight=rng.uniform(-bound, bound, (d_out, d_in)),
            bias=rng.uniform(-bound, bound, d_out),
        )

    def copy(self) -> "ProjectionHead":
        return ProjectionHead(self.weight.copy(), self.bias.copy())


def project(e: np.ndarray, h: ProjectionHead) -> np.ndarray:
    """Apply the head to one vector or to a batch of row vectors."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape[-1] != h.d_in:
        raise DimMismatch(f"input dim {e.shape[-1]} != head d_in {h.d_in}")
    return e @ h.weight.T + h.bias


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Normalize rows (or a single vector) to unit length; zero norm is an error."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroNormVector("cannot normalize a zero vector")
    return x / norms


def similarity_matrix(audio: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities: C[i, j] compares audio i with caption j."""
    audio = np.asarray(audio, dtype=np.float64)
    text = np.asarray(text, dtype=np.float64)
    if audio.shape[1] != text.shape[1]:
        raise DimMismatch(f"audio dim {audio.shape[1]} != text dim {text.shape[1]}")
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


@dataclass(frozen=True)
class HeadGrads:
    weight: np.ndarray
    bias: np.ndarray


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
) -> tuple[LossValue, HeadGrads, HeadGrads]:
    """Loss plus exact analytic gradients for both heads.

    Backpropagates the cross-entropy through the two softmax directions, the
    row normalizations and the linear projections:

        dL/dlogits = ((rowsoftmax - I) + (colsoftmax - I)) / (2N)
        dL/dA_hat  = (dL/dC) T_hat           (and transposed for T_hat)
        through x_hat = p/|p|:  g_p = (g - (g . x_hat) x_hat) / |p|
        dL/dW = g_P^T X,  dL/db = sum_i g_P_i
    """
    A = np.asarray(audio_raw, dtype=np.float64)
    T = np.asarray(text_raw, dtype=np.float64)
    if A.ndim != 2 or T.ndim != 2 or A.shape[0] != T.shape[0]:
        raise ShapeMismatch(f"batch shapes disagree: {A.shape} vs {T.shape}")
    n = A.shape[0]

    Pa = project(A, audio_head)
    Pt = project(T, text_head)
    na = np.linalg.norm(Pa, axis=1, keepdims=True)
    nt = np.linalg.norm(Pt, axis=1, keepdims=True)
    if np.any(na == 0.0) or np.any(nt == 0.0):
        raise ZeroNormVector("projected vector has zero norm")
    Ah = Pa / na
    Th = Pt / nt
    C = Ah @ Th.T

    loss, log_rows, log_cols = _nt_xent(C, temperature)
    eye = np.eye(n)
    g_logits = ((np.exp(log_rows) - eye) + (np.exp(log_cols) - eye)) / (2.0 * n)
    g_C = g_logits / temperature

    g_Ah = g_C @ Th
    g_Th = g_C.T @ Ah
    g_Pa = (g_Ah - (g_Ah * Ah).sum(axis=1, keepdims=True) * Ah) / na
    g_Pt = (g_Th - (g_Th * Th).sum(axis=1, keepdims=True) * Th) / nt

    audio_grads = HeadGrads(weight=g_Pa.T @ A, bias=g_Pa.sum(axis=0))
    text_grads = HeadGrads(weight=g_Pt.T @ T, bias=g_Pt.sum(axis=0))
    return loss, audio_grads, text_grads


def gradient_check(
    seed: int,
    shape: tuple[int, int, int],
    temperature: float = 1.0,
    fd_step: float = 1e-4,
) -> float:
    """Max relative error between analytic gradients and central finite differences.

    shape is (batch, d_in, d_out), applied to both modalities.
    """
    n, d_in, d_out = shape
    rng = np.random.default_rng(derive_seed(seed, "gradient-check"))
    A = rng.normal(0.0, 1.0, (n, d_in))
    T = rng.normal(0.0, 1.0, (n, d_in))
    audio_head = ProjectionHead.initialize(d_in, d_out, rng)
    text_head = ProjectionHead.initialize(d_in, d_out, rng)

    _, ga, gt = loss_gradients(A, T, audio_head, text_head, temperature)
    analytic = {
        "audio.weight": ga.weight,
        "audio.bias": ga.bias,
        "text.weight": gt.weight,
        "text.bias": gt.bias,
    }
    arrays = {
        "audio.weight": audio_head.weight,
        "audio.bias": audio_head.bias,
        "text.weight": text_head.weight,
        "text.bias": text_head.bias,
    }

    def forward() -> float:
        return nt_xent_from_raw(A, T, audio_head, text_head, temperature).value

    worst = 0.0
    for key, arr in arrays.items():
        flat = arr.reshape(-1)
        fd = np.empty_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + fd_step
            up = forward()
            flat[i] = original - fd_step
            down = forward()
            flat[i] = original
            fd[i] = (up - down) / (2.0 * fd_step)
        a = analytic[key].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - fd) / denom)))
    return worst


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
    """First/second moment accumulators plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: Mapping[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place."""
    if set(params) != set(grads):
        raise ShapeMismatch(f"param/grad keys disagree: {sorted(params)} vs {sorted(grads)}")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(f"{key}: grad shape {g.shape} != param shape {p.shape}")
        m = state.m[key]
        v = state.v[key]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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
            raise ValueError("batch_size must be >= 1")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if not 0.0 <= self.swap_prob <= 1.0:
            raise ValueError(f"swap_prob must lie in [0, 1], got {self.swap_prob}")
        if self.lr_min >= self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.out_dim < 1:
            raise ValueError("out_dim must be >= 1")


@dataclass(frozen=True)
class TrainPair:
    """One clip's frozen encoder outputs: an audio vector and its caption vectors."""

    clip_id: str
    audio: np.ndarray
    captions: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "audio", np.asarray(self.audio, dtype=np.float64))
        object.__setattr__(self, "captions", tuple(np.asarray(c, dtype=np.float64) for c in self.captions))
        if not self.captions:
            raise ValueError(f"clip {self.clip_id!r}: needs at least one caption vector")


AugMap = Mapping[tuple[str, int], Sequence[np.ndarray]]


def sample_caption(
    pair: TrainPair,
    rng: np.random.Generator,
    swap_prob: float = 0.0,
    augmented: AugMap | None = None,
) -> np.ndarray:
    """Draw one caption vector for a batch appearance of this clip.

    A caption index is drawn uniformly; with probability swap_prob the caption
    is replaced by one of its augmented variants (uniform among them). Captions
    without variants are used as-is.
    """
    idx = int(rng.integers(len(pair.captions)))
    vec = pair.captions[idx]
    if swap_prob > 0.0 and rng.random() < swap_prob:
        variants = augmented.get((pair.clip_id, idx)) if augmented else None
        if variants:
            vec = np.asarray(variants[int(rng.integers(len(variants)))], dtype=np.float64)
    return vec


@dataclass(frozen=True)
class LossPoint:
    step: int
    lr: float
    loss: float


@dataclass
class TrainResult:
    audio_head: ProjectionHead
    text_head: ProjectionHead
    curve: tuple[LossPoint, ...]
    state: AdamState
    total_steps: int


def _check_augmentation_coverage(pairs: Sequence[TrainPair], augmented: AugMap | None) -> None:
    missing = []
    for pair in pairs:
        for idx in range(len(pair.captions)):
            if augmented is None or (pair.clip_id, idx) not in augmented:
                missing.append((pair.clip_id, idx))
    if missing:
        raise MissingAugmentation(
            f"{len(missing)} caption(s) lack augmented variants, first: {missing[0]!r}"
        )


def train(
    pairs: Sequence[TrainPair],
    cfg: TrainConfig,
    phase: str = "pretrain",
    augmented: AugMap | None = None,
    strict: bool = False,
    init: tuple[ProjectionHead, ProjectionHead] | None = None,
) -> TrainResult:
    """Run one training phase over frozen encoder outputs.

    Each epoch shuffles the clips and walks complete batches (the final
    incomplete batch is dropped); each clip appearance samples one of its
    captions uniformly. The finetune phase additionally swaps captions for
    augmented variants with probability cfg.swap_prob and uses the finetune
    learning rate with no warmup.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyDataset("no training pairs")
    if phase not in ("pretrain", "finetune"):
        raise ValueError(f"unknown phase {phase!r}")

    d_a = pairs[0].audio.size
    d_t = pairs[0].captions[0].size
    for pair in pairs:
        if pair.audio.size != d_a or any(c.size != d_t for c in pair.captions):
            raise DimMismatch(f"clip {pair.clip_id!r}: inconsistent embedding dims")

    finetune = phase == "finetune"
    swap_prob = cfg.swap_prob if finetune else 0.0
    if finetune:
        if strict:
            _check_augmentation_coverage(pairs, augmented)
        elif augmented is None and cfg.swap_prob > 0.0:
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

    if init is not None:
        audio_head, text_head = init[0].copy(), init[1].copy()
        if audio_head.d_in != d_a or text_head.d_in != d_t:
            raise DimMismatch(
                f"init heads expect dims ({audio_head.d_in}, {text_head.d_in}), "
                f"dataset has ({d_a}, {d_t})"
            )
    else:
        audio_head = ProjectionHead.initialize(
            d_a, cfg.out_dim, np.random.default_rng(derive_seed(cfg.seed, "audio-head"))
        )
        text_head = ProjectionHead.initialize(
            d_t, cfg.out_dim, np.random.default_rng(derive_seed(cfg.seed, "text-head"))
        )
    params = {
        "audio.weight": audio_head.weight,
        "audio.bias": audio_head.bias,
        "text.weight": text_head.weight,
        "text.bias": text_head.bias,
    }
    state = AdamState.zeros_like(params)

    # one role for both phases: finetune with swap_prob 0 replays the pretrain stream
    rng = np.random.default_rng(derive_seed(cfg.seed, "train"))
    curve: list[LossPoint] = []
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        for b in range(steps_per_epoch):
            batch = [pairs[i] for i in order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
            A = np.stack([pair.audio for pair in batch])
            T = np.stack([sample_caption(pair, rng, swap_prob, augmented) for pair in batch])
            lr = lr_at(step, total_steps, warmup_steps, lr_max, cfg.lr_min)
            loss, ga, gt = loss_gradients(A, T, audio_head, text_head, cfg.temperature)
            if not math.isfinite(loss.value):
                raise NonFiniteValue(f"{phase} step {step}: loss is {loss.value}")
            grads = {
                "audio.weight": ga.weight,
                "audio.bias": ga.bias,
                "text.weight": gt.weight,
                "text.bias": gt.bias,
            }
            adam_step(params, grads, state, lr)
            curve.append(LossPoint(step=step, lr=lr, loss=loss.value))
            step += 1
    return TrainResult(audio_head, text_head, tuple(curve), state, total_steps)


def config_digest(cfg: TrainConfig) -> bytes:
    """Stable 8-byte digest of a config, stored in checkpoints."""
    return hashlib.sha256(repr(cfg).encode("utf-8")).digest()[:8]


@dataclass
class Checkpoint:
    audio_head: ProjectionHead
    text_head: ProjectionHead
    state: AdamState
    step: int
    digest: bytes


_PARAM_ORDER = ("audio.weight", "audio.bias", "text.weight", "text.bias")


def save_checkpoint(
    path,
    audio_head: ProjectionHead,
    text_head: ProjectionHead,
    state: AdamState,
    step: int,
    cfg: TrainConfig,
) -> None:
    """Serialize heads and optimizer state as little-endian float32, atomically.

    Values are quantized to float32 on save; save -> load -> save is
    byte-identical. An array that is not finite in float32 (NaN, or beyond
    float32 range) raises NonFiniteValue and nothing is written.
    """
    arrays = {
        "audio.weight": audio_head.weight,
        "audio.bias": audio_head.bias,
        "text.weight": text_head.weight,
        "text.bias": text_head.bias,
    }
    header = struct.pack(
        "<4sIIIIQQ8s",
        CHECKPOINT_MAGIC,
        _CHECKPOINT_VERSION,
        audio_head.d_out,
        audio_head.d_in,
        text_head.d_in,
        step,
        state.t,
        config_digest(cfg),
    )
    buf = bytearray(header)
    for prefix, group in (("", arrays), ("adam.m.", state.m), ("adam.v.", state.v)):
        for key in _PARAM_ORDER:
            with np.errstate(over="ignore"):
                values = np.asarray(group[key], dtype="<f4")
            if not np.all(np.isfinite(values)):
                raise NonFiniteValue(f"{prefix}{key} is not finite as float32; checkpoint not written")
            buf += values.tobytes()
    atomic_write(path, bytes(buf))


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    head_fmt = "<4sIIIIQQ8s"
    head_size = struct.calcsize(head_fmt)
    if len(raw) < head_size:
        raise SpaceError(f"{path}: truncated checkpoint header")
    magic, version, d_out, d_in_a, d_in_t, step, adam_t, digest = struct.unpack_from(head_fmt, raw)
    if magic != CHECKPOINT_MAGIC:
        raise SpaceError(f"{path}: bad checkpoint magic {magic!r}")
    if version != _CHECKPOINT_VERSION:
        raise SpaceError(f"{path}: unsupported checkpoint version {version}")

    shapes = {
        "audio.weight": (d_out, d_in_a),
        "audio.bias": (d_out,),
        "text.weight": (d_out, d_in_t),
        "text.bias": (d_out,),
    }
    expected = head_size + 3 * sum(int(np.prod(s)) for s in shapes.values()) * 4
    if len(raw) != expected:
        raise SpaceError(f"{path}: size {len(raw)} != expected {expected}")

    pos = head_size

    def take(shape) -> np.ndarray:
        nonlocal pos
        count = int(np.prod(shape))
        out = np.frombuffer(raw, dtype="<f4", count=count, offset=pos).astype(np.float64)
        pos += count * 4
        return out.reshape(shape)

    params = {key: take(shapes[key]) for key in _PARAM_ORDER}
    m = {key: take(shapes[key]) for key in _PARAM_ORDER}
    v = {key: take(shapes[key]) for key in _PARAM_ORDER}
    return Checkpoint(
        audio_head=ProjectionHead(params["audio.weight"], params["audio.bias"]),
        text_head=ProjectionHead(params["text.weight"], params["text.bias"]),
        state=AdamState(m=m, v=v, t=adam_t),
        step=step,
        digest=digest,
    )
