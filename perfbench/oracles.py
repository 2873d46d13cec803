"""Output oracles. Each returns a list of problems; an empty list means correct.

The ranking oracle is vectorized and independent of acre's per-query `rank()`:
the rank of a target among all clips is

    1 + #(sim > s_target) + #(sim == s_target and id < target id),

which is the order acre defines (descending cosine, ties by ascending id).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

METRIC_KEYS = ("map_at_10", "r_at_1", "r_at_5", "r_at_10", "n_queries")


def l2n(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def target_ranks(sims: np.ndarray, ids: list[str], targets: np.ndarray) -> np.ndarray:
    """1-based rank of column targets[q] in row q of sims (queries x clips)."""
    id_order = np.empty(len(ids), dtype=np.int64)
    id_order[np.argsort(np.asarray(ids))] = np.arange(len(ids))
    rows = np.arange(sims.shape[0])
    s_t = sims[rows, targets][:, None]
    before = (sims > s_t) | ((sims == s_t) & (id_order[None, :] < id_order[targets][:, None]))
    return 1 + before.sum(axis=1)


def top_ids(sims: np.ndarray, ids: list[str], k: int) -> list[str]:
    """The k best ids for one query: descending similarity, ties by ascending id."""
    k = min(k, len(ids))
    cut = np.partition(sims, len(sims) - k)[len(sims) - k]
    cand = np.flatnonzero(sims >= cut)
    ranked = sorted(cand, key=lambda i: (-sims[i], ids[i]))
    return [ids[i] for i in ranked[:k]]


def eval_metrics(ranks_in_query_order: np.ndarray) -> dict[str, float]:
    """mAP@10 and R@{1,5,10}; AP sums run in the given (query-id) order."""
    ap_sum = 0.0
    for r in ranks_in_query_order.tolist():
        ap_sum += 1.0 / r if r <= 10 else 0.0
    n = len(ranks_in_query_order)
    return {
        "map_at_10": ap_sum / n,
        "r_at_1": int((ranks_in_query_order <= 1).sum()) / n,
        "r_at_5": int((ranks_in_query_order <= 5).sum()) / n,
        "r_at_10": int((ranks_in_query_order <= 10).sum()) / n,
        "n_queries": n,
    }


def expected_eval(audio: dict, captions: dict, audio_head, text_head) -> dict[str, float]:
    """Metrics that `acre evaluate` must report for these raw vectors and heads."""
    clip_ids = list(audio)
    index = l2n(np.stack([audio[c] for c in clip_ids]).astype(np.float64) @ audio_head.weight.T + audio_head.bias)
    query_ids = sorted(captions)
    col = {c: i for i, c in enumerate(clip_ids)}
    targets = np.array([col[q.split("#", 1)[0]] for q in query_ids])
    queries = l2n(np.stack([captions[q] for q in query_ids]).astype(np.float64) @ text_head.weight.T + text_head.bias)
    return eval_metrics(target_ranks(queries @ index.T, clip_ids, targets))


def read_metrics_csv(path: Path) -> dict[str, float]:
    """The numeric rows of a `metric,value` file."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        key, _, value = line.partition(",")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def check_metrics(path: Path, expected: dict[str, float]) -> list[str]:
    if not Path(path).exists():
        return [f"{path}: missing"]
    got = read_metrics_csv(path)
    return [
        f"{path}: {key} = {got.get(key)!r}, oracle {expected[key]!r}"
        for key in METRIC_KEYS
        if got.get(key) != expected[key]
    ]


def check_loss_csv(path: Path) -> list[str]:
    if not Path(path).exists():
        return [f"{path}: missing"]
    header, *rows = Path(path).read_text(encoding="utf-8").splitlines()
    if "loss" not in header.split(","):
        return [f"{path}: no loss column"]
    col = header.split(",").index("loss")
    losses = [float(row.split(",")[col]) for row in rows]
    if not losses or not all(math.isfinite(v) for v in losses):
        return [f"{path}: empty or non-finite loss"]
    if not losses[-1] < losses[0]:
        return [f"{path}: last loss {losses[-1]!r} not below first {losses[0]!r}"]
    return []


def check_dump(dump, expected_ids: list[str], dim: int, label: str) -> list[str]:
    ids = [entry_id for entry_id, _ in dump.entries]
    problems = []
    if ids != expected_ids:
        problems.append(f"{label}: ids differ from the expected {len(expected_ids)} ids")
    if dump.dim != dim:
        problems.append(f"{label}: dim {dump.dim}, expected {dim}")
    if not all(np.all(np.isfinite(v)) and v.shape == (dim,) for _, v in dump.entries):
        problems.append(f"{label}: non-finite or mis-shaped vectors")
    return problems


_RANK_LINE = re.compile(r"^\s*\d+\s+[+-]?\d+\.\d+\s+(\S+)\s*$")


def parse_rank_output(text: str) -> list[str]:
    """Clip ids from `acre rank` lines '<position>  <score>  <clip id>'; other lines are skipped."""
    return [m.group(1) for m in map(_RANK_LINE.match, text.splitlines()) if m]
