"""Text-to-audio ranking and its evaluation metrics, plus the two study
harnesses: dataset-combination ablations and the segment-length sweep.

Each caption is one query with exactly one relevant clip, so truncated average
precision reduces to a truncated reciprocal rank: AP@10 = 1/rank if the paired
clip lands in the top ten, else 0. With multiple relevant items per query this
simplification would no longer hold. Metric sums always run in ascending
query-id order so independent recomputations can match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import dsp, encoder
from .space import DimMismatch, ProjectionHead, TrainConfig, TrainPair, l2_normalize, project, train

REFERENCE_FULL_DATA_MAP10 = 35.22  # percent scale; full-size pre-trained system, kept as context only


class RetrievalError(Exception):
    pass


class EmptyIndex(RetrievalError):
    pass


class UnknownTargetId(RetrievalError):
    pass


@dataclass(frozen=True)
class RetrievalIndex:
    """Unit-normalized audio embeddings keyed by clip id."""

    ids: tuple[str, ...]
    vectors: np.ndarray  # (n, d), rows unit-norm

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("index ids must be unique")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.ids):
            raise ValueError("vectors must be (len(ids), d)")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, ids: Sequence[str], vectors: np.ndarray) -> "RetrievalIndex":
        if len(ids) == 0:
            raise EmptyIndex("cannot build an empty index")
        return cls(ids=tuple(ids), vectors=l2_normalize(np.asarray(vectors, dtype=np.float64)))


@dataclass(frozen=True)
class QueryResult:
    query_id: str
    ranked_ids: tuple[str, ...]
    scores: np.ndarray  # cosine similarity of each ranked clip, in ranked order
    rank_of_target: int | None


def rank(
    query_vec: np.ndarray,
    index: RetrievalIndex,
    query_id: str = "",
    target_id: str | None = None,
) -> QueryResult:
    """Order all indexed clips by descending cosine similarity to the query.

    Ties break on ascending clip id so results are reproducible. The result
    carries each clip's similarity alongside its id.
    """
    if len(index) == 0:
        raise EmptyIndex("cannot rank against an empty index")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.shape != (index.vectors.shape[1],):
        raise DimMismatch(f"query dim {q.shape} != index dim {index.vectors.shape[1]}")
    sims = index.vectors @ l2_normalize(q)
    order = np.lexsort((np.asarray(index.ids), -sims))
    ranked = tuple(index.ids[i] for i in order)
    rank_of_target = None
    if target_id is not None:
        if target_id not in index.ids:
            raise UnknownTargetId(f"target {target_id!r} not in index")
        rank_of_target = ranked.index(target_id) + 1
    return QueryResult(query_id=query_id, ranked_ids=ranked, scores=sims[order], rank_of_target=rank_of_target)


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


@dataclass(frozen=True)
class Query:
    query_id: str
    vector: np.ndarray
    target_id: str


def evaluate(queries: Sequence[Query], index: RetrievalIndex) -> MetricsReport:
    """Mean AP@10 and R@{1,5,10} over the queries, summed in query-id order.

    All queries are scored in one similarity matrix. A target's rank is
    1 + #(sim > s_target) + #(sim == s_target and id < target id), which is
    the order `rank` defines: descending cosine, ties on ascending clip id.
    """
    ordered = sorted(queries, key=lambda q: q.query_id)
    if not ordered:
        raise ValueError("no queries")
    if len(index) == 0:
        raise EmptyIndex("cannot rank against an empty index")
    dim = index.vectors.shape[1]
    column = {clip_id: j for j, clip_id in enumerate(index.ids)}
    for q in ordered:
        if np.shape(q.vector) != (dim,):
            raise DimMismatch(f"query dim {np.shape(q.vector)} != index dim {dim}")
    unit_queries = l2_normalize(np.stack([q.vector for q in ordered]))
    for q in ordered:
        if q.target_id not in column:
            raise UnknownTargetId(f"target {q.target_id!r} not in index")
    targets = np.array([column[q.target_id] for q in ordered])
    id_order = np.empty(len(index), dtype=np.int64)
    id_order[np.argsort(np.asarray(index.ids))] = np.arange(len(index))

    sims = unit_queries @ index.vectors.T
    s_target = sims[np.arange(len(ordered)), targets][:, None]
    ahead = (sims > s_target) | ((sims == s_target) & (id_order < id_order[targets][:, None]))
    ranks = 1 + np.count_nonzero(ahead, axis=1)

    # a sequential sum, not np.sum: pairwise summation would move the last bits
    ap_sum = 0.0
    for r in ranks.tolist():
        ap_sum += average_precision_at_10(r)
    n = len(ordered)
    return MetricsReport(
        map_at_10=ap_sum / n,
        r_at_1=int(np.count_nonzero(ranks <= 1)) / n,
        r_at_5=int(np.count_nonzero(ranks <= 5)) / n,
        r_at_10=int(np.count_nonzero(ranks <= 10)) / n,
        n_queries=n,
    )


def format_metrics_table(report: MetricsReport) -> str:
    rows = [
        ("mAP@10", report.map_at_10),
        ("R@1", report.r_at_1),
        ("R@5", report.r_at_5),
        ("R@10", report.r_at_10),
    ]
    lines = [f"{'metric':<8}{'value':>8}"]
    lines += [f"{name:<8}{value:>8.4f}" for name, value in rows]
    lines.append(f"queries: {report.n_queries}")
    return "\n".join(lines)


def metrics_csv(report: MetricsReport) -> str:
    return "\n".join(
        [
            "metric,value",
            f"map_at_10,{report.map_at_10!r}",
            f"r_at_1,{report.r_at_1!r}",
            f"r_at_5,{report.r_at_5!r}",
            f"r_at_10,{report.r_at_10!r}",
            f"n_queries,{report.n_queries}",
        ]
    )


def build_eval(
    pairs: Sequence[TrainPair],
    audio_head: ProjectionHead,
    text_head: ProjectionHead,
) -> tuple[list[Query], RetrievalIndex]:
    """Project held-out pairs into the shared space: one index entry per clip,
    one query per caption."""
    index = RetrievalIndex.build(
        [pair.clip_id for pair in pairs],
        project(np.stack([pair.audio for pair in pairs]), audio_head),
    )
    captions = [(f"{pair.clip_id}#{k}", pair.clip_id, cap) for pair in pairs for k, cap in enumerate(pair.captions)]
    for query_id, _, cap in captions:
        if cap.shape != (text_head.d_in,):
            raise DimMismatch(f"caption {query_id!r}: dim {cap.shape} != head d_in {text_head.d_in}")
    vectors = project(np.stack([cap for _, _, cap in captions]), text_head)
    queries = [Query(query_id, vec, target) for (query_id, target, _), vec in zip(captions, vectors)]
    return queries, index


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
    """Train one model per dataset combination and evaluate all on one held-out set."""
    rows = []
    for combo in combos:
        names = tuple(combo)
        if not names:
            raise ValueError("each combination needs at least one dataset")
        merged: list[TrainPair] = []
        for name in names:
            if name not in datasets:
                raise KeyError(f"unknown dataset {name!r}")
            merged.extend(datasets[name])
        result = train(merged, cfg, phase="pretrain")
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
    logmel_cfg: dsp.LogmelConfig = dsp.DEFAULT_LOGMEL,
) -> list[SweepRow]:
    """Evaluate retrieval when audio is chopped into fixed-length segments.

    For each length, every clip's spectrogram is segmented, each segment is
    encoded separately, and the per-segment embeddings are averaged before
    projection. The per-clip segment counts are recorded alongside the score.
    """
    if not lengths_seconds:
        raise ValueError("no segment lengths supplied")
    specs = [dsp.whiten(dsp.logmel(clip.waveform, logmel_cfg), whitening) for clip in clips]
    rows = []
    for length in lengths_seconds:
        seg_frames = dsp.seconds_to_frames(length, logmel_cfg)
        counts = []
        audio_vecs = []
        for spec in specs:
            segments = dsp.segment(spec, seg_frames)
            counts.append(len(segments))
            grids = [encoder.extract_patches(s, geometry) for s in segments]
            audio_vecs.append(encoder.embed_long_audio(grids, enc_params))
        pairs = [TrainPair(clip.clip_id, vec, clip.caption_vecs) for clip, vec in zip(clips, audio_vecs)]
        report = evaluate(*build_eval(pairs, audio_head, text_head))
        rows.append(
            SweepRow(length_seconds=float(length), map_at_10=report.map_at_10, segments_per_clip=tuple(counts))
        )
    return rows
