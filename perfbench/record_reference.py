"""Record the embed-wav reference vectors.

    python3 perfbench/record_reference.py

Embeds the reference corpus (workloads.REFERENCE_SEED, workloads.REFERENCE_SLOTS)
in-process and writes perfbench/reference_embed.npz. Run it only at a commit
whose toy encoders are the accepted reference: every embed-wav run embeds the
same corpus and holds its vectors to workloads.REFERENCE_ATOL of these.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import acre  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        vectors = workloads.embed_reference(work, acre)
        if vectors is None:
            print("acre embed failed on the reference corpus", file=sys.stderr)
            return 1
        np.savez_compressed(workloads.REFERENCE, **vectors)
        print(f"wrote {workloads.REFERENCE}: " + ", ".join(f"{k} {v.shape}" for k, v in vectors.items()))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
