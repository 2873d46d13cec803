#!/usr/bin/env python3
# Patch extraction, structured patchout, and the frozen toy audio encoder.

import math

import numpy as np

from acre import dsp, encoder

rng = np.random.default_rng(0)
spec = dsp.Spectrogram(rng.normal(size=(997, 128)))  # a 10-second spectrogram

# The named presets mirror the audio front ends this engine models: 16x16
# patches, non-overlapping or overlapping strides, and patchout counts tuned
# to the stride. max_input_seconds bounds one encoder pass.
print(f"{'preset':<10} {'stride':<8} {'patchout':<10} {'grid':<10} {'tokens kept'}")
for name, g in encoder.PRESETS.items():
    grid = encoder.extract_patches(spec, g)
    kept = encoder.structured_patchout(grid, g.drop_f, g.drop_t, np.random.default_rng(1))
    print(
        f"{name:<10} {g.stride_f}x{g.stride_t:<6} {g.drop_f}; {g.drop_t:<7} "
        f"{grid.rows}x{grid.cols:<8} {len(grid)} -> {len(kept)}"
    )

# Patchout drops whole frequency rows and time columns; surviving patches keep
# their original (row, col) tags, so position information stays intact.
g = encoder.PRESETS["passt-n"]
grid = encoder.extract_patches(spec, g)
kept = encoder.structured_patchout(grid, 2, 15, np.random.default_rng(2))
rows_kept = len({int(r) for r, _ in kept.tags})
cols_kept = len({int(c) for _, c in kept.tags})
print(f"\npatchout (2; 15): rows {grid.rows}->{rows_kept}, cols {grid.cols}->{cols_kept}")

# The toy encoder is frozen: weights come from a seed and never train. It is
# deterministic, and because position lives in the tags, the order of the
# patch list is irrelevant.
params = encoder.EncoderParams(seed=11)
vec = encoder.audio_encode(grid, params)
print(f"\naudio embedding: {vec.shape[0]} dims, first three {np.round(vec[:3], 4)}")

perm = np.random.default_rng(3).permutation(len(grid))
shuffled = encoder.PatchGrid(grid.rows, grid.cols, grid.patches[perm], grid.tags[perm])
print("shuffled-patch difference:", float(np.abs(encoder.audio_encode(shuffled, params) - vec).max()))

# Long audio: encode each 500-frame segment separately, then average the
# embeddings. This is the path acre embed runs on every clip.
pooled = encoder.embed_long_audio(spec, 500, g, params)
print(f"{math.ceil(spec.frames / 500)} segments averaged -> same width: {pooled.shape}")
