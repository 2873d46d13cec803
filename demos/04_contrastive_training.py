#!/usr/bin/env python3
# Training the projection heads: the contrastive loss aligns two modalities
# that are secretly linear views of the same latent variables.

import numpy as np

from acre import retrieval, space

# Synthetic stand-in for frozen encoder outputs: audio and caption vectors are
# different random linear views of shared 32-dim latents plus a little noise.
rng = np.random.default_rng(0)
latent, d_audio, d_text = 32, 48, 40
view_a = rng.normal(size=(d_audio, latent)) / np.sqrt(latent)
view_t = rng.normal(size=(d_text, latent)) / np.sqrt(latent)


def draw_pairs(n, tag):
    out = []
    for i in range(n):
        z = rng.normal(size=latent)
        out.append(
            space.TrainPair(
                f"{tag}{i:03d}",
                view_a @ z + rng.normal(0, 0.05, d_audio),
                (view_t @ z + rng.normal(0, 0.05, d_text),),
            )
        )
    return out


train_pairs = draw_pairs(200, "train")
eval_pairs = draw_pairs(50, "eval")

# Batch 64 with the incomplete batch dropped -> 3 steps per epoch. One warmup
# epoch ramps the rate linearly, then a cosine takes it down to lr_min.
cfg = space.TrainConfig(
    batch_size=64, pretrain_epochs=100, warmup_epochs=1, lr_max=1e-2, lr_min=1e-6, seed=0
)
result = space.train(train_pairs, cfg, phase="pretrain")

print("steps:", len(result.curve))
for p in result.curve[:: len(result.curve) // 8]:
    print(f"  step {p.step:>3}  lr {p.lr:.2e}  loss {p.loss:.4f}")
print(f"  step {result.curve[-1].step:>3}  lr {result.curve[-1].lr:.2e}  loss {result.curve[-1].loss:.4f}")

# Held-out retrieval: project, index the audio side, query with each caption.
queries, index = retrieval.build_eval(eval_pairs, result.audio_head, result.text_head)
report = retrieval.evaluate(queries, index)
print()
print(retrieval.format_metrics_table(report))

# The same gradients that drove training match finite differences; this is
# also exposed as `acre gradcheck`.
worst = max(space.gradient_check(seed, (8, 16, 12)) for seed in range(3))
print(f"\ngradient check, 3 seeds: max relative error {worst:.2e}")
