"""Event sessionization: gap-based session windows per user.

Streaming-shaped operator (SURVEY.md §2.10 — the reference has none; this is
the standard events-table capability): partition by ``user_id``, sort by
``ts`` within the group, cut a new session when the gap to the previous event
exceeds ``gap``.  Ray-native: ``groupby(user_id).map_groups`` — each group is
one user's events, sorted locally.  Mega-keys (users whose row count reaches
``hot_key_threshold``, found by a narrow two-phase count) route through
``stages/skew.sessionize_salted`` — per-(user, day-bucket) local sessions
plus a bounded boundary merge — so one pathological user never lands in one
task (VERDICT r2 #4; same salting pattern as ``stages/hostagg.py``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def sessionize(ds: ray.data.Dataset, *, gap_minutes: int = 30,
               hot_key_threshold: int | None = 1_000_000,
               bucket_us: int | None = None) -> ray.data.Dataset:
    """Returns one row per (user_id, session): session_start (us), n_events,
    sum_value (rounded 2dp).  ``hot_key_threshold=None`` disables the
    mega-key guard."""
    gap_us = gap_minutes * 60_000_000

    from pii_detector_ray.stages import skew
    hot_parts, (ds,) = skew.split_hot([ds], 'user_id', hot_key_threshold)
    salted = None
    if hot_parts is not None:
        salted = skew.sessionize_salted(
            hot_parts[0], gap_us=gap_us,
            bucket_us=bucket_us or skew.DEFAULT_BUCKET_US)

    def prep(t: pa.Table) -> pa.Table:
        # cast ts->int64 MICROSECONDS on the arrow side, like every other
        # per-key operator (skew.sessionize_salted, ranks.event_deltas): a
        # pandas astype('int64') inside map_groups would silently yield
        # NANOseconds on any stack where to_pandas coerces the us unit,
        # making the gap cut 1000x too aggressive and the plain/salted
        # units diverge (review r5)
        return pa.table({'user_id': t.column('user_id'),
                         'ts': pc.cast(t.column('ts'), pa.int64()),
                         'value': t.column('value')})

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values('ts', kind='mergesort')
        ts = g['ts'].to_numpy()
        new_session = np.ones(len(ts), dtype=bool)
        new_session[1:] = (ts[1:] - ts[:-1]) > gap_us
        sid = np.cumsum(new_session) - 1
        out = pd.DataFrame({'sid': sid, 'ts': ts, 'value': g['value'].to_numpy()})
        agg = out.groupby('sid').agg(
            session_start=('ts', 'min'),
            n_events=('ts', 'size'),
            sum_value=('value', 'sum'),
        ).reset_index(drop=True)
        agg.insert(0, 'user_id', g['user_id'].iloc[0])
        from pii_detector_ray.functions.rounding import sql_round_np
        agg['sum_value'] = sql_round_np(agg['sum_value'].to_numpy(), 2)
        return agg

    plain = ds.map_batches(prep, batch_format='pyarrow') \
        .groupby('user_id').map_groups(per_user, batch_format='pandas')
    return plain.union(salted) if salted is not None else plain
