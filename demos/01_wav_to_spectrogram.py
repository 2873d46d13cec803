#!/usr/bin/env python3
# From a WAV file on disk to a whitened log-mel spectrogram, step by step.

import struct
import tempfile
from pathlib import Path

import numpy as np

from acre import dsp, ingest

# Synthesize a 45-second two-tone recording and write it as 16-bit PCM.
# (Normally the WAV comes from a dataset; the parser accepts PCM16 and
# float32, mono or multichannel.)
rate = 32000
t = np.arange(45 * rate) / rate
signal = 0.35 * np.sin(2 * np.pi * 440 * t) + 0.15 * np.sin(2 * np.pi * 2500 * t)
pcm = np.round(signal * 32767).astype("<i2")

payload = pcm.tobytes()
header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
header += b"data" + struct.pack("<I", len(payload))
with tempfile.TemporaryDirectory(prefix="acre-demo-") as workdir:
    wav_path = Path(workdir) / "two_tones.wav"
    wav_path.write_bytes(header + payload)
    w = ingest.read_wav(wav_path)
    print(f"decoded {wav_path.name}: {len(w)} samples at {w.sample_rate} Hz ({w.duration:.1f} s)")

    # Long recordings are cut to a random 30-second snippet before analysis.
    # snippet_or_pad cuts one from a waveform in memory; read_wav cuts the same
    # one from the file, decoding only those 30 s, as acre embed does.
    snippet = dsp.snippet_or_pad(w, 30.0, np.random.default_rng(7))
    windowed = ingest.read_wav(wav_path, 30.0, np.random.default_rng(7))
assert windowed.samples.tobytes() == snippet.samples.tobytes()
print(f"snippet: {snippet.duration:.1f} s (contiguous cut, offset drawn from the generator;")
print("         read_wav(path, 30.0, rng) decodes the same samples and nothing else)")

# 128-bin log-mel analysis: 1024-point FFT, hop 320 -> 100 frames per second.
spec = dsp.logmel(snippet)
print(f"log-mel spectrogram: {spec.frames} frames x {spec.bins} mel bins")

# Whitening uses a global mean/std; on a real corpus compute it once over the
# training split and reuse it everywhere.
stats = dsp.compute_whitening_stats([spec])
white = dsp.whiten(spec, stats)
print(f"whitening stats: mean={stats.mean:.3f} std={stats.std:.3f}")
print(f"whitened cell range: [{white.values.min():.2f}, {white.values.max():.2f}]")

# The two tones should dominate two distinct mel bins.
centers = dsp.mel_center_frequencies()
energy = spec.values.mean(axis=0)
top = np.argsort(energy)[-2:]
print("strongest mel bins:", sorted(int(b) for b in top), "->", [f"{centers[b]:.0f} Hz" for b in sorted(top)])

# Ten-second segments (1000 frames at the hop rate); the last one is zero-padded.
segments = dsp.segment(white, dsp.seconds_to_frames(10.0))
print(f"segments: {len(segments)} x {segments[0].frames} frames")
