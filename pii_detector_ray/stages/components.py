"""Connected components over near-dup pairs → canonical-doc dedup decisions.

LSH buckets give candidate PAIRS; turning pairs into drop decisions needs the
transitive closure (A~B, B~C ⇒ {A,B,C} is one duplicate cluster).  Per the
scale guidance (ray_guide.md 'Aggregation at scale'): iterative min-label
propagation with groupby rounds — fully distributed, no driver-side
union-find unless the edge set is provably small.

Each round: every node broadcasts its current label along its edges; a node
adopts the min label seen.  Converges in O(diameter) rounds; duplicate
clusters are short chains, so ``max_rounds=6`` covers real corpora (the loop
stops early when a round changes nothing).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Min


def connected_components(pairs: ray.data.Dataset, *, col_a: str = 'doc_a',
                         col_b: str = 'doc_b', max_rounds: int = 6) -> ray.data.Dataset:
    """(doc_a, doc_b) edge list → (doc_id, component) labels.

    Labels are the min doc id reachable within ``max_rounds`` hops (= the
    component min for clusters of diameter ≤ max_rounds).
    """
    edges = pairs.map_batches(
        lambda t: pa.table({'a': pa.concat_arrays([
                                t.column(col_a).combine_chunks().cast(pa.int64()),
                                t.column(col_b).combine_chunks().cast(pa.int64())]),
                            'b': pa.concat_arrays([
                                t.column(col_b).combine_chunks().cast(pa.int64()),
                                t.column(col_a).combine_chunks().cast(pa.int64())])}),
        batch_format='pyarrow')           # symmetric edge list
    edges = edges.materialize()           # reused every round; small (edges only)
    if edges.count() == 0:                # empty pair set → no components
        return ray.data.from_arrow(pa.table({
            'doc_id': pa.array([], pa.int64()),
            'component': pa.array([], pa.int64())}))

    # label(x) = min(x, min over neighbors of label(n)) — iterate
    labels = edges.groupby('a').aggregate(Min('b', alias_name='lbl'))
    labels = labels.map_batches(
        lambda t: pa.table({'a': t.column('a'),
                            'lbl': pa.compute.min_element_wise(t.column('a'),
                                                               t.column('lbl'))}),
        batch_format='pyarrow').materialize()

    # Distributed rounds (round-2 rewrite; round 1 pulled the full label set
    # to the driver twice per round): proposals come from a hash-partitioned
    # edges⋈labels join, and convergence is detected from the scalar
    # sum(lbl) — min-label propagation is MONOTONE (a node's label only ever
    # decreases), so the sum strictly decreases iff any label changed.  The
    # only driver traffic per round is that one aggregate scalar.
    from pii_detector_ray.stages.dedup import drop_empty_blocks, hash_join
    labels = drop_empty_blocks(labels)     # aggregate output, summed + unioned
    prev_sum = labels.sum('lbl') or 0
    for _ in range(max_rounds - 1):
        # edge (a,b) proposes label(a) to b; every node appears on the 'a'
        # side of the symmetric edge list, so the inner join covers all edges
        joined = hash_join(edges, labels, 'a')
        proposals = joined.map_batches(
            lambda t: pa.table({'a': t.column('b'), 'lbl': t.column('lbl')}),
            batch_format='pyarrow')
        labels = drop_empty_blocks(
            proposals.union(labels)
            .groupby('a').aggregate(Min('lbl', alias_name='lbl')))
        new_sum = labels.sum('lbl') or 0
        if new_sum == prev_sum:
            break
        prev_sum = new_sum

    return labels.map_batches(
        lambda t: pa.table({'doc_id': t.column('a'), 'component': t.column('lbl')}),
        batch_format='pyarrow')


def dedup_decisions(pairs: ray.data.Dataset, **kwargs) -> ray.data.Dataset:
    """Edge list → (doc_id, component, keep) where keep=True only for the
    component's min doc id (the canonical copy)."""
    labels = connected_components(pairs, **kwargs)

    def decide(df: pd.DataFrame) -> pd.DataFrame:
        df['keep'] = df['doc_id'] == df['component']
        return df

    return labels.map_batches(decide, batch_format='pandas')
