"""Distributed PageRank (fixed iteration count) over an edge table.

The web-graph centrality primitive: rank = (1-d)/N + d·Σ rank(in)/deg(in),
iterated K times from the uniform vector.  Here the graph is derived from
the event stream — the bipartite distinct (user, event_type) incidence,
doubled into both directions so every node has in-edges — but the operator
takes any (src, dst) string edge Dataset.

Scale plan: edges and degrees are built with the standard narrow two-phase
dedup/count (shuffle rows are two short strings / one string + int64).  Each
iteration needs every edge to read its source's current (rank/degree); that
per-node vector is SIZE-GUARDED like every small side in this repo:

- **broadcast** (≤ ``broadcast_node_limit`` nodes): the (rank/deg)
  contribution dict is ``ray.put`` once per iteration; one shuffle-free
  map_batches computes per-batch partial sums per dst and one narrow
  groupby finishes — K iterations, K narrow shuffles total.
- **join** (bigger graphs): the rank table stays a Dataset; edges
  co-partition-join it on src, partials pre-aggregate per batch, one
  groupby per iteration re-keys by dst.  Nothing node- or
  edge-proportional ever lands on the driver.

Float contract with the DuckDB oracle (queries._PAGERANK_SQL): identical
expression structure ``(1.0 - d)/N + d * Σ(r/deg)`` (no libm calls at all —
only +,*,/), summation-order jitter absorbed by round(8) on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Sum

from pii_detector_ray.functions.rounding import sql_round_np
from pii_detector_ray.stages.dedup import drop_empty_blocks, hash_join

DAMPING = 0.85
BROADCAST_NODE_LIMIT = 5_000_000


def bipartite_edges(events: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct (user, event_type) incidence as a doubled string edge list
    ('u<id>' ↔ 't<type>'); two-phase dedup so the shuffle carries one row
    per distinct pair per batch."""
    def dd(t: pa.Table) -> pa.Table:
        return pa.table({'user_id': t.column('user_id'),
                         'event_type': t.column('event_type')}) \
            .group_by(['user_id', 'event_type']).aggregate([])

    pairs = (events.map_batches(dd, batch_format='pyarrow')
             .groupby(['user_id', 'event_type']).aggregate(Count(alias_name='_c')))

    def both(t: pa.Table) -> pa.Table:
        u = pc.binary_join_element_wise(
            pa.array(['u'] * len(t)), pc.cast(t.column('user_id'), pa.string()), '')
        ty = pc.binary_join_element_wise(
            pa.array(['t'] * len(t)), t.column('event_type'), '')
        return pa.table({'src': pa.concat_arrays([u.combine_chunks(),
                                                  ty.combine_chunks()]),
                         'dst': pa.concat_arrays([ty.combine_chunks(),
                                                  u.combine_chunks()])})

    return pairs.map_batches(both, batch_format='pyarrow')


def pagerank(edges: ray.data.Dataset, *, iterations: int = 3,
             damping: float = DAMPING,
             broadcast_node_limit: int = BROADCAST_NODE_LIMIT,
             validate: bool = True) -> ray.data.Dataset:
    """K-iteration PageRank over a (src, dst) edge Dataset.

    CONTRACT: every node must appear as a source (no dangling nodes) —
    guaranteed by doubled/undirected edge lists like ``bipartite_edges``.
    ``validate=True`` (default) checks it with one extra narrow
    distinct-count pass and raises instead of crashing mid-iteration or
    silently dropping dst-only nodes.  Sources with no in-edges are fine:
    they settle at the (1-d)/N floor.

    Returns (node, pr) with pr rounded half-away to 8 decimals.
    """
    edges = drop_empty_blocks(edges)

    def predeg(t: pa.Table) -> pa.Table:
        return pa.table({'src': t.column('src')}).group_by('src') \
            .aggregate([([], 'count_all')]) \
            .rename_columns(['src', '_d'])

    deg = drop_empty_blocks(
        edges.map_batches(predeg, batch_format='pyarrow')
        .map_batches(lambda t: pa.table({'node': t.column('src'),
                                         '_d': pc.cast(t.column('_d'), pa.int64())}),
                     batch_format='pyarrow')
        .groupby('node').aggregate(Sum('_d', alias_name='deg')))
    n_nodes = deg.count()
    if n_nodes == 0:
        return ray.data.from_arrow(pa.schema(
            [('node', pa.string()), ('pr', pa.float64())]).empty_table())
    if validate:
        def all_nodes(t: pa.Table) -> pa.Table:
            return pa.table({'node': pa.concat_arrays(
                [t.column('src').combine_chunks(),
                 t.column('dst').combine_chunks()])}) \
                .group_by('node').aggregate([])

        n_all = (edges.map_batches(all_nodes, batch_format='pyarrow')
                 .groupby('node').aggregate(Count(alias_name='_c')).count())
        if n_all != n_nodes:
            raise ValueError(
                f'pagerank: {n_all - n_nodes} node(s) appear only as dst '
                '(dangling); double the edges (undirected) or drop them')
    base = (1.0 - damping) / n_nodes

    if n_nodes <= broadcast_node_limit:
        # contribution dict (node → r/deg) broadcast once per iteration
        dmap = {r['node']: r['deg']
                for b in deg.iter_batches(batch_size=None, batch_format='pyarrow')
                for r in b.to_pylist()}
        rank = {node: 1.0 / n_nodes for node in dmap}
        for _ in range(iterations):
            cref = ray.put({k: rank[k] / dmap[k] for k in rank})

            def contrib(t: pa.Table) -> pa.Table:
                c = ray.get(cref)
                src = t.column('src').to_pylist()
                vals = np.fromiter((c[s] for s in src), dtype=np.float64,
                                   count=len(src))
                return pa.table({'node': t.column('dst'),
                                 '_s': pa.array(vals)}) \
                    .group_by('node').aggregate([('_s', 'sum')]) \
                    .rename_columns(['node', '_s'])

            sums = (edges.map_batches(contrib, batch_format='pyarrow')
                    .groupby('node').aggregate(Sum('_s', alias_name='s')))
            # sources with no in-edges receive no row → (1-d)/N floor
            rank = {node: base for node in dmap}
            rank.update({r['node']: base + damping * r['s']
                         for b in sums.iter_batches(batch_size=None,
                                                    batch_format='pyarrow')
                         for r in b.to_pylist()})
        out = pa.table({
            'node': pa.array(sorted(rank), pa.string()),
            'pr': pa.array(sql_round_np(
                np.array([rank[k] for k in sorted(rank)], dtype=np.float64), 8))})
        return ray.data.from_arrow(out)

    # join path: rank table (node, r, deg) stays a Dataset throughout
    def init_rank(t: pa.Table) -> pa.Table:
        return pa.table({'node': t.column('node'),
                         '_r': pa.array(np.full(len(t), 1.0 / n_nodes)),
                         '_deg': t.column('deg')})

    rank_ds = drop_empty_blocks(deg.map_batches(init_rank, batch_format='pyarrow'))
    for _ in range(iterations):
        keyed = rank_ds.map_batches(
            lambda t: pa.table({
                'src': t.column('node'),
                '_c': pc.divide(t.column('_r'),
                                pc.cast(t.column('_deg'), pa.float64()))}),
            batch_format='pyarrow')
        joined = hash_join(edges, keyed, 'src')

        def partial(t: pa.Table) -> pa.Table:
            return pa.table({'node': t.column('dst'), '_s': t.column('_c')}) \
                .group_by('node').aggregate([('_s', 'sum')]) \
                .rename_columns(['node', '_s'])

        sums = joined.map_batches(partial, batch_format='pyarrow') \
            .groupby('node').aggregate(Sum('_s', alias_name='s'))
        # deg LEFT join sums: a source with no in-edges keeps its row and
        # settles at the (1-d)/N floor instead of silently vanishing
        merged = hash_join(deg, sums, 'node', 'left_outer')
        rank_ds = drop_empty_blocks(merged.map_batches(
            lambda t: pa.table({
                'node': t.column('node'),
                '_r': pc.add(pa.scalar(base), pc.multiply(
                    pa.scalar(damping),
                    pc.coalesce(t.column('s'), pa.scalar(0.0)))),
                '_deg': t.column('deg')}),
            batch_format='pyarrow'))

    return rank_ds.map_batches(
        lambda t: pa.table({
            'node': t.column('node'),
            'pr': pa.array(sql_round_np(
                t.column('_r').to_numpy(zero_copy_only=False), 8))}),
        batch_format='pyarrow')
