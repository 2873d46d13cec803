#!/usr/bin/env python3
# Ranking audio for text queries and scoring a retrieval run.

import numpy as np

from acre import retrieval

# A small index of unit vectors; ids double as the relevance ground truth.
rng = np.random.default_rng(5)
ids = [f"clip{i:02d}" for i in range(20)]
index = retrieval.RetrievalIndex.build(ids, rng.normal(size=(20, 16)))

# rank() orders all clips by cosine similarity; ties break on the clip id so
# results never depend on storage order.
query = index.vectors[7] + 0.05 * rng.normal(size=16)
result = retrieval.rank(query, index, target_id="clip07")
print("top five:", result.ranked_ids[:5])
print("target rank:", result.rank_of_target)

# With one relevant clip per query, AP@10 is the truncated reciprocal rank.
for r in (1, 2, 3, 10, 11):
    print(f"  rank {r:>2} -> AP@10 {retrieval.average_precision_at_10(r):.3f}")

# evaluate() aggregates mAP@10 and R@k over many queries, given as three
# parallel parts: the query ids, one matrix with query i in row i, and each
# query's relevant clip id. Feed it queries whose target ranks are known and
# the numbers are easy to verify by hand:
# ranks {1, 2, 11, 20} -> mAP@10 = (1 + 1/2 + 0 + 0) / 4 = 0.375.
m = 24
ortho = retrieval.RetrievalIndex.build([f"c{i:03d}" for i in range(m)], np.eye(m))
ranks = (1, 2, 11, 20)
vectors = np.zeros((len(ranks), m))
targets = []
for qi, r in enumerate(ranks):
    target = m - 1 - qi
    vectors[qi, target] = 0.5
    vectors[qi, [i for i in range(m) if i != target][: r - 1]] = 1.0
    targets.append(f"c{target:03d}")
report = retrieval.evaluate(([f"q{qi}" for qi in range(len(ranks))], vectors, targets), ortho)
print()
print(retrieval.format_metrics_table(report))
print()
print(retrieval.metrics_csv(report))
