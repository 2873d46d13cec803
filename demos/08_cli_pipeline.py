#!/usr/bin/env python3
# The whole engine through the command line: build a tiny dataset on disk,
# then embed -> train -> finetune -> evaluate -> rank, all seeded.

import csv
import json
import struct
import tempfile
from pathlib import Path

import numpy as np

from acre import cli

with tempfile.TemporaryDirectory(prefix="acre-cli-demo-") as tmp:
    base = Path(tmp)
    audio_dir = base / "audio"
    audio_dir.mkdir()
    rate = 32000
    rng = np.random.default_rng(3)

    # Six one-second tones with five captions each, plus augmented caption
    # variants in the JSONL sidecar format.
    names = []
    for i in range(6):
        t = np.arange(rate) / rate
        x = 0.4 * np.sin(2 * np.pi * 200 * (i + 1) * t) + 0.05 * rng.normal(size=rate)
        pcm = np.round(np.clip(x, -0.99, 0.99) * 32767).astype("<i2")
        payload = pcm.tobytes()
        blob = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        blob += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
        blob += b"data" + struct.pack("<I", len(payload)) + payload
        names.append(f"clip{i}.wav")
        (audio_dir / names[-1]).write_bytes(blob)

    manifest = base / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name"] + [f"caption_{k}" for k in range(1, 6)] + ["keywords"])
        for i, name in enumerate(names):
            caps = [f"a tone of kind {i} sounds {adj}" for adj in ("loud", "soft", "distant", "near", "steady")]
            writer.writerow([name] + caps + ["tone;synthetic"])

    augmented = base / "augmented.jsonl"
    with open(augmented, "w") as fh:
        for name in names:
            for ci in range(5):
                rec = {
                    "clip_id": name,
                    "caption_index": ci,
                    "variants": [f"a steady tone plays variant {v} of caption {ci}" for v in range(5)],
                }
                fh.write(json.dumps(rec) + "\n")

    common = ["--manifest", str(manifest), "--seed", "5"]

    # embed is the one command that runs the frozen encoders; the others read its dumps
    print("== embed ==")
    cli.main(
        [
            "embed", *common,
            "--audio-dir", str(audio_dir),
            "--augmented-captions", str(augmented),
            "--out", str(base / "emb"),
        ]
    )
    common += ["--encoder", f"dump:{base / 'emb'}"]

    print("\n== train (from the embedding dumps) ==")
    cli.main(
        [
            "train", *common,
            "--out", str(base / "pretrained"),
            "--epochs", "8", "--batch-size", "3", "--lr-max", "1e-2",
        ]
    )

    print("\n== finetune (caption swaps against the variants embed wrote) ==")
    cli.main(
        [
            "finetune", *common,
            "--checkpoint", str(base / "pretrained" / "checkpoint.ackp"),
            "--out", str(base / "finetuned"),
            "--epochs", "4", "--batch-size", "3", "--strict",
        ]
    )

    print("\n== evaluate ==")
    cli.main(
        [
            "evaluate", *common,
            "--checkpoint", str(base / "finetuned" / "checkpoint.ackp"),
            "--out", str(base / "eval"),
        ]
    )

    print("\n== rank ==")
    cli.main(
        [
            "rank", *common,
            "--checkpoint", str(base / "finetuned" / "checkpoint.ackp"),
            "--query", "a tone of kind 2 sounds loud",
            "--top", "3",
        ]
    )
