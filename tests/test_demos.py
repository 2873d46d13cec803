"""Each narrative demo runs to completion in a fresh interpreter.

Demo 07 (the segment-length sweep) is the slowest, about 8 s on 2 vCPUs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
# demo 07 runs the segment-length sweep through encoder.embed_long_audio, the
# path acre embed runs; its table is pinned as printed
PINNED_LINES = {
    "07_segment_length_sweep.py": [
        "length (s)  segments/clip     mAP@10",
        "2.0         15                 0.452",
        "5.0         6                  0.397",
        "10.0        3                  0.452",
        "15.0        2                  0.461",
    ],
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    # TMPDIR keeps the demos' scratch directories inside the test's own tmp_path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    pinned = PINNED_LINES.get(demo, [])
    assert result.stdout.splitlines()[: len(pinned)] == pinned
    assert sorted(p.name for p in tmp_path.glob("acre-*")) == []  # scratch directories are removed
