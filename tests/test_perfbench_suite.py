"""The benchmark's own tests run in tier-1: they pin the names of acre that
perfbench reads (TrainPair, build_eval, the traced functions, and the names
below), so a change to those names fails here and not only in the bench.

These have no caller in src/acre, but perfbench reads them, so they stay:
EmbeddingDump's dim, entries and as_dict(), RetrievalIndex.build,
retrieval.rank and encoder.text_encode.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-2000:]
