"""Text-to-audio ranking and its evaluation metrics, plus the two study
harnesses: dataset-combination ablations and the segment-length sweep.

Each caption is one query with exactly one relevant clip, so truncated average
precision reduces to a truncated reciprocal rank: AP@10 = 1/rank if the paired
clip lands in the top ten, else 0. With multiple relevant items per query this
simplification would no longer hold. Metric sums always run in ascending
query-id order so independent recomputations can match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from . import dsp, encoder
from .space import (
    DimMismatch, ProjectionHead, TrainConfig, TrainPair, ZeroNormVector, l2_normalize, l2_normalize_in_place, project,
    train,
)

REFERENCE_FULL_DATA_MAP10 = 35.22  # percent scale; full-size pre-trained system, kept as context only


class RetrievalError(Exception):
    pass


class EmptyIndex(RetrievalError):
    pass


class UnknownTargetId(RetrievalError):
    pass


# evaluate scores, and build_eval projects, EVAL_BLOCK query rows at a time
# (dsp.row_blocks), so neither holds a full-size temporary beside the queries
EVAL_BLOCK = 512
# top_k projects and scores RANK_BLOCK corpus rows at a time (dsp.row_blocks),
# so it holds one block of the projected corpus, never the whole of it. On
# rank-serve's corpus (2000 x 768 -> 1024, 2 vCPUs) a forked rank peaked at
# 48.9 / 51.5 / 57.1 / 69.4 / 80.0 MB with blocks of 64 / 128 / 256 / 512 /
# 2000 rows; its p50 was the same from 128 up, and about 5 ms slower at 64.
RANK_BLOCK = 128


@dataclass(frozen=True)
class RetrievalIndex:
    """Unit-normalized audio embeddings keyed by clip id."""

    ids: tuple[str, ...]
    vectors: np.ndarray  # (n, d), rows unit-norm

    def __post_init__(self):
        if len(self.ids) == 0:
            raise EmptyIndex("cannot build an empty index")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("index ids must be unique")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.ids):
            raise ValueError("vectors must be (len(ids), d)")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, ids: Sequence[str], vectors: np.ndarray) -> "RetrievalIndex":
        """The index of normalized copies of vectors' rows; vectors is left as it is."""
        return cls(ids=tuple(ids), vectors=l2_normalize(vectors))


@dataclass(frozen=True)
class QueryResult:
    ranked_ids: tuple[str, ...]
    scores: np.ndarray  # cosine similarity of each ranked clip, in ranked order
    rank_of_target: int | None


def rank(query_vec: np.ndarray, index: RetrievalIndex, target_id: str | None = None) -> QueryResult:
    """Order all indexed clips by descending cosine similarity to the query.

    Ties break on ascending clip id so results are reproducible. The result
    carries each clip's similarity alongside its id.
    """
    if np.shape(query_vec) != (index.vectors.shape[1],):
        raise DimMismatch(f"query dim {np.shape(query_vec)} != index dim {index.vectors.shape[1]}")
    sims = index.vectors @ l2_normalize(query_vec)
    order = np.lexsort((np.asarray(index.ids), -sims))
    ranked = tuple(index.ids[i] for i in order)
    rank_of_target = None
    if target_id is not None:
        if target_id not in index.ids:
            raise UnknownTargetId(f"target {target_id!r} not in index")
        rank_of_target = ranked.index(target_id) + 1
    return QueryResult(ranked_ids=ranked, scores=sims[order], rank_of_target=rank_of_target)


def top_k(
    query_vec: np.ndarray, ids: Sequence[str], raw: np.ndarray, audio_head: ProjectionHead, k: int
) -> list[tuple[str, float]]:
    """The min(k, len(ids)) clips most similar to the query, as (clip id,
    cosine) pairs in the order `rank` gives: descending cosine, ties on
    ascending clip id. Row i of raw is clip ids[i]'s unprojected audio vector.

    The corpus is projected and normalized RANK_BLOCK rows at a time, and only
    each block's cosines are kept, so the float64 scratch is one block plus
    one score per clip; each score has the bits `rank` gives on the whole
    projected corpus. np.partition finds the k-th score, and every clip that
    scores at least that much, every tie at the cut included, is then sorted.
    """
    n = len(ids)
    if n == 0:
        raise EmptyIndex("cannot rank an empty corpus")
    if np.shape(raw)[0] != n:
        raise DimMismatch(f"{np.shape(raw)[0]} audio rows for {n} clip ids")
    if np.shape(query_vec) != (audio_head.d_out,):
        raise DimMismatch(f"query dim {np.shape(query_vec)} != audio head d_out {audio_head.d_out}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:
        query = l2_normalize(query_vec)
    except ZeroNormVector:
        raise ZeroNormVector("the query projects to a zero vector under the text head") from None
    sims = np.empty(n)
    for rows in dsp.row_blocks(n, RANK_BLOCK):
        try:
            # a new array, so it is normalized in place
            block = l2_normalize_in_place(np.asarray(project(raw[rows], audio_head), np.float64))
        except ZeroNormVector as exc:
            clip_id = ids[rows.start + exc.row]
            raise ZeroNormVector(f"clip {clip_id!r} projects to a zero vector under the audio head") from None
        sims[rows] = block @ query
    k = min(k, n)
    negated = -sims
    cut = np.partition(negated, k - 1)[k - 1]
    kept = np.flatnonzero(~(negated > cut))  # not <=: a NaN cut keeps every clip
    order = kept[np.lexsort((np.asarray([ids[i] for i in kept]), negated[kept]))][:k]
    return [(ids[i], float(sims[i])) for i in order]


def average_precision_at_10(rank_of_target: int) -> float:
    """AP@10 with a single relevant item: 1/rank inside the top ten, else 0."""
    if rank_of_target < 1:
        raise ValueError(f"rank must be >= 1, got {rank_of_target}")
    return 1.0 / rank_of_target if rank_of_target <= 10 else 0.0


@dataclass(frozen=True)
class MetricsReport:
    map_at_10: float
    r_at_1: float
    r_at_5: float
    r_at_10: float
    n_queries: int

    def __post_init__(self):
        if not self.r_at_1 <= self.r_at_5 <= self.r_at_10:
            raise ValueError("recall must be monotone in k")
        if self.map_at_10 > self.r_at_10:
            raise ValueError("mAP@10 cannot exceed R@10")


def evaluate(queries: tuple[Sequence[str], np.ndarray, Sequence[str]], index: RetrievalIndex) -> MetricsReport:
    """Mean AP@10 and R@{1,5,10} over the queries, summed in query-id order.

    ``queries`` is ``(query_ids, vectors, target_ids)``, as build_eval returns
    it: row i of the 2-D ``vectors`` is query i, whose relevant clip is
    ``target_ids[i]``. The similarity matrix is scored EVAL_BLOCK query rows
    at a time, in query-id order. A target's rank is 1 + #(sim > s_target) +
    #(sim == s_target and id < target id), which is the order `rank` defines:
    descending cosine, ties on ascending clip id.
    """
    query_ids, vectors, target_ids = queries
    n = len(query_ids)
    if n == 0:
        raise ValueError("no queries")
    dim = index.vectors.shape[1]
    if np.shape(vectors) != (n, dim) or len(target_ids) != n:
        raise DimMismatch(f"queries: {n} ids, {len(target_ids)} targets, vectors {np.shape(vectors)}; index dim {dim}")
    column = {clip_id: j for j, clip_id in enumerate(index.ids)}
    unknown = set(target_ids).difference(column)
    if unknown:
        raise UnknownTargetId(f"target {min(unknown)!r} not in index")
    order = np.array(sorted(range(n), key=query_ids.__getitem__))
    targets = np.array([column[target] for target in target_ids])[order]
    id_order = np.empty(len(index), dtype=np.int64)
    id_order[np.argsort(np.asarray(index.ids))] = np.arange(len(index))

    ranks = np.empty(n, dtype=np.int64)
    for rows in dsp.row_blocks(n, EVAL_BLOCK):
        # a fancy-indexed block is a new array, so it is normalized in place
        sims = l2_normalize_in_place(np.asarray(vectors[order[rows]], np.float64)) @ index.vectors.T
        block_targets = targets[rows]
        s_target = sims[np.arange(len(block_targets)), block_targets][:, None]
        ahead = (sims > s_target) | ((sims == s_target) & (id_order < id_order[block_targets][:, None]))
        ranks[rows] = 1 + np.count_nonzero(ahead, axis=1)

    # a sequential sum, not np.sum: pairwise summation would move the last bits
    ap_sum = 0.0
    for r in ranks.tolist():
        ap_sum += average_precision_at_10(r)
    return MetricsReport(
        map_at_10=ap_sum / n,
        r_at_1=int(np.count_nonzero(ranks <= 1)) / n,
        r_at_5=int(np.count_nonzero(ranks <= 5)) / n,
        r_at_10=int(np.count_nonzero(ranks <= 10)) / n,
        n_queries=n,
    )


def format_metrics_table(report: MetricsReport) -> str:
    """The four metrics, labelled in MetricsReport field order, then the query count."""
    lines = [f"{'metric':<8}{'value':>8}"]
    lines += [f"{name:<8}{value:>8.4f}" for name, value in zip(("mAP@10", "R@1", "R@5", "R@10"), astuple(report))]
    lines.append(f"queries: {report.n_queries}")
    return "\n".join(lines)


def metrics_csv(report: MetricsReport) -> str:
    """One `<field>,<repr of its value>` line per MetricsReport field, in field order."""
    return "\n".join(["metric,value"] + [f"{f.name},{v!r}" for f, v in zip(fields(report), astuple(report))])


def build_eval(
    pairs: Sequence[TrainPair],
    audio_head: ProjectionHead,
    text_head: ProjectionHead,
) -> tuple[tuple[list[str], np.ndarray, list[str]], RetrievalIndex]:
    """Project held-out pairs into the shared space: one index entry per clip,
    and the queries as evaluate takes them, one per caption: ids
    ``<clip>#<k>``, a (captions, d_out) matrix of projected captions in the
    same order, and each caption's clip id as its target."""
    # the projection is a new array, so it is normalized in place: the rows
    # RetrievalIndex.build would give, without a second full-size copy
    audio = l2_normalize_in_place(np.asarray(project(np.stack([pair.audio for pair in pairs]), audio_head), np.float64))
    index = RetrievalIndex(tuple(pair.clip_id for pair in pairs), audio)
    captions = [(f"{pair.clip_id}#{k}", pair.clip_id, cap) for pair in pairs for k, cap in enumerate(pair.captions)]
    for query_id, _, cap in captions:
        if cap.shape != (text_head.d_in,):
            raise DimMismatch(f"caption {query_id!r}: dim {cap.shape} != head d_in {text_head.d_in}")
    vectors = np.empty((len(captions), text_head.d_out), dtype=text_head.weight.dtype)
    for rows in dsp.row_blocks(len(captions), EVAL_BLOCK):
        vectors[rows] = project(np.stack([cap for _, _, cap in captions[rows]]), text_head)
    return ([query_id for query_id, _, _ in captions], vectors, [target for _, target, _ in captions]), index


@dataclass(frozen=True)
class AblationRow:
    datasets: tuple[str, ...]
    map_at_10: float


def ablation_run(
    datasets: Mapping[str, Sequence[TrainPair]],
    combos: Sequence[Sequence[str]],
    eval_pairs: Sequence[TrainPair],
    cfg: TrainConfig,
) -> list[AblationRow]:
    """Train one model per dataset combination and evaluate all on one held-out
    set. A name that is not a key of datasets raises the mapping's KeyError."""
    rows = []
    for combo in combos:
        names = tuple(combo)
        if not names:
            raise ValueError("each combination needs at least one dataset")
        result = train([pair for name in names for pair in datasets[name]], cfg, phase="pretrain")
        queries, index = build_eval(eval_pairs, result.audio_head, result.text_head)
        rows.append(AblationRow(datasets=names, map_at_10=evaluate(queries, index).map_at_10))
    return rows


def format_ablation_table(rows: Sequence[AblationRow]) -> str:
    lines = [f"{'datasets':<16}{'mAP@10':>8}"]
    lines += [f"{'+'.join(row.datasets):<16}{row.map_at_10:>8.4f}" for row in rows]
    lines.append(
        f"# reference: a full-size system with pre-trained encoders and the complete "
        f"datasets reports {REFERENCE_FULL_DATA_MAP10} mAP@10 (percent scale); "
        f"that figure is not reproducible with the toy encoders here"
    )
    return "\n".join(lines)


def ablation_csv(rows: Sequence[AblationRow]) -> str:
    out = ["datasets,map_at_10"]
    out += [f"{'+'.join(row.datasets)},{row.map_at_10!r}" for row in rows]
    return "\n".join(out)


@dataclass(frozen=True)
class SweepClip:
    """A full-pipeline evaluation clip: the waveform plus raw caption vectors."""

    clip_id: str
    waveform: dsp.Waveform
    caption_vecs: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SweepRow:
    length_seconds: float
    map_at_10: float
    segments_per_clip: tuple[int, ...]


def segment_length_sweep(
    lengths_seconds: Sequence[float],
    clips: Sequence[SweepClip],
    audio_head: ProjectionHead,
    text_head: ProjectionHead,
    enc_params: encoder.EncoderParams,
    geometry: encoder.PatchGeometry,
    whitening: dsp.WhiteningStats,
) -> list[SweepRow]:
    """Evaluate retrieval when audio is chopped into fixed-length segments.

    For each length, every clip's whitened spectrogram goes through the path
    embed runs, encoder.embed_long_audio, before projection. The per-clip
    segment counts are recorded alongside the score.
    """
    if not lengths_seconds:
        raise ValueError("no segment lengths supplied")
    specs = [dsp.whiten(dsp.logmel(clip.waveform), whitening) for clip in clips]
    rows = []
    for length in lengths_seconds:
        seg_frames = dsp.seconds_to_frames(length)
        pairs = [
            TrainPair(clip.clip_id, encoder.embed_long_audio(spec, seg_frames, geometry, enc_params), clip.caption_vecs)
            for clip, spec in zip(clips, specs)
        ]
        report = evaluate(*build_eval(pairs, audio_head, text_head))
        counts = tuple(math.ceil(spec.frames / seg_frames) for spec in specs)
        rows.append(SweepRow(length_seconds=float(length), map_at_10=report.map_at_10, segments_per_clip=counts))
    return rows
