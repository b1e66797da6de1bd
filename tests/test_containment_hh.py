"""Containment-join and heavy-hitter tests: brute-force parity for the
directed containment semantics, candidate-pruning losslessness for the
two-pass heavy hitters, and block-split invariance for both."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pii_detector_ray.functions.re2compat import RE2_WORD
from pii_detector_ray.stages.dedup import containment_join, word_shingles

_TOK = re.compile(RE2_WORD)


def _corpus():
    base = ('alpha beta gamma delta epsilon zeta eta theta iota kappa '
            'lambda mu nu xi omicron pi rho sigma tau upsilon')
    toks = base.split()
    docs = {
        0: base,                                   # container
        1: ' '.join(toks[:8]),                     # fragment of 0 (C=1.0)
        2: ' '.join(toks[5:15]),                   # mid-slice of 0 (C=1.0)
        3: ' '.join(toks[:6]) + ' zulu yankee xray whiskey victor uniform',
        4: base,                                   # exact dup of 0 (both dirs)
        5: 'unrelated words entirely disjoint from the rest of them all',
        6: 'two words',                            # <3 tokens: no shingles
        7: '',                                     # empty
    }
    return docs


def _brute(docs: dict, tn: int, td: int, n: int = 3) -> set:
    out = set()
    sh = {k: word_shingles(v, n) for k, v in docs.items()}
    for a in docs:
        for b in docs:
            if a == b or not sh[a]:
                continue
            i = len(sh[a] & sh[b])
            if td * i >= tn * len(sh[a]):
                out.add((a, b, round(i / len(sh[a]), 4)))
    return out


@pytest.mark.parametrize('blocks', [1, 3])
def test_containment_matches_bruteforce(blocks):
    docs = _corpus()
    ds = ray.data.from_arrow(pa.table({
        'doc_id': pa.array(list(docs), pa.int64()),
        'text': pa.array(list(docs.values()), pa.string()),
    })).repartition(blocks)
    got = containment_join(ds, threshold=(8, 10)).to_pandas()
    got_set = set(zip(got['doc_a'].astype(int), got['doc_b'].astype(int),
                      got['containment'].astype(float)))
    assert got_set == _brute(docs, 8, 10)
    # the planted fragments and the exact-dup pair must all surface
    assert (1, 0, 1.0) in got_set
    assert (2, 0, 1.0) in got_set
    assert (0, 4, 1.0) in got_set and (4, 0, 1.0) in got_set
    # containment is DIRECTED: the container does not point at its fragment
    assert not any(a == 0 and b == 1 for a, b, _ in got_set)


def test_containment_threshold_is_exact_rational():
    # doc a: 10 shingles, 8 shared with b -> containment exactly 0.8,
    # which must PASS at threshold (8, 10) (>=, integer predicate)
    toks = [f'w{i}' for i in range(12)]            # 10 shingles
    a = ' '.join(toks)
    b = ' '.join(toks[:10]) + ' qq rr ss tt uu vv'  # shares 3-grams w0..w7*
    sa, sb = word_shingles(a), word_shingles(b)
    i = len(sa & sb)
    assert (len(sa), i) == (10, 8)
    ds = ray.data.from_arrow(pa.table({
        'doc_id': pa.array([1, 2], pa.int64()),
        'text': pa.array([a, b], pa.string())}))
    got = containment_join(ds, threshold=(8, 10)).to_pandas()
    pairs = set(zip(got['doc_a'].astype(int), got['doc_b'].astype(int)))
    assert (1, 2) in pairs


def test_containment_empty_input():
    ds = ray.data.from_arrow(pa.table({
        'doc_id': pa.array([], pa.int64()),
        'text': pa.array([], pa.string())}))
    out = containment_join(ds)
    # Dataset.to_pandas() drops columns at 0 rows (Ray quirk) — assert on
    # the Dataset schema, which is what downstream unions/joins consume
    assert out.schema().names == ['doc_a', 'doc_b', 'containment']
    assert out.count() == 0


def _hh_brute(texts: list, m: int) -> dict:
    from collections import Counter
    c = Counter()
    for t in texts:
        c.update(_TOK.findall(t or ''))
    n = sum(c.values())
    return {tk: v for tk, v in c.items() if v * m > n}


@pytest.mark.parametrize('blocks', [1, 4, 16])
def test_heavy_hitters_block_split_invariant(tmp_path, blocks, monkeypatch):
    # skewed corpus: 'hot' is ~30% of tokens, long tail of singletons
    rng = np.random.default_rng(5)
    texts = []
    for i in range(60):
        words = (['hot'] * int(rng.integers(2, 8))
                 + ['warm'] * int(rng.integers(0, 3))
                 + [f'tail{i}_{j}' for j in range(int(rng.integers(3, 9)))])
        rng.shuffle(words)
        texts.append(' '.join(words))
    tbl = pa.table({'doc_id': pa.array(range(60), pa.int64()),
                    'text': pa.array(texts, pa.string()),
                    'lang': pa.array(['en'] * 60, pa.string()),
                    'source': pa.array(['t'] * 60, pa.string()),
                    'n_chars': pa.array([len(t) for t in texts], pa.int64())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'documents.parquet',
                   row_group_size=max(1, 60 // blocks))
    from pii_detector_ray import queries as q
    got = q.q_heavy_hitter_tokens(str(tmp_path))
    exp = _hh_brute(texts, 200)
    assert dict(zip(got['token'], got['n_occurrences'].astype(int))) == exp
    assert 'hot' in exp          # the test corpus really has a heavy hitter


def test_heavy_hitters_local_rule_is_lossless():
    # the average argument behind pass 1: any token with global freq
    # > N/m must be a LOCAL heavy hitter in at least one block, for every
    # way of splitting the corpus into blocks
    rng = np.random.default_rng(11)
    toks = ['h'] * 40 + [f't{i}' for i in range(160)]   # h: 40/200 > 1/200
    rng.shuffle(toks)
    m = 200
    for n_blocks in (1, 2, 5, 10):
        cuts = np.array_split(np.asarray(toks, object), n_blocks)
        local = set()
        for blk in cuts:
            vals, cnt = np.unique(blk, return_counts=True)
            local |= set(vals[cnt * m > len(blk)])
        assert 'h' in local


# ---------------------------------------------------------------------------
# Winnowing-fingerprint pairs (MOSS-style)
# ---------------------------------------------------------------------------

def _fp_brute(docs: dict, min_shared: int) -> set:
    from pii_detector_ray.stages.textstats import winnow_fingerprint
    fps = {k: set(winnow_fingerprint(v or '')) for k, v in docs.items()}
    out = set()
    ks = sorted(docs)
    for x in range(len(ks)):
        for y in range(x + 1, len(ks)):
            a, b = ks[x], ks[y]
            n = len(fps[a] & fps[b])
            if n >= min_shared:
                out.add((a, b, n))
    return out


@pytest.mark.parametrize('blocks', [1, 3])
def test_fingerprint_pairs_match_bruteforce(blocks):
    from pii_detector_ray.stages.dedup import fingerprint_dup_pairs
    base = ('the quick brown fox jumps over the lazy dog while the morning '
            'sun rises over the quiet hills and people walk to the market '
            'to buy fresh bread and fruit for the day ahead of them')
    docs = {
        0: base,
        1: base + ' with a small suffix appended',       # near-copy
        2: base.replace('morning', 'evening'),           # one-word edit
        3: 'totally different text about railway stations and platform '
           'announcements echoing in the cold night air of the terminal',
        4: base,                                         # exact dup
        5: 'tiny',                                       # 1..4-char regime
        6: 'middle-size',                                # 5..12-char regime
        7: '',                                           # empty
    }
    ds = ray.data.from_arrow(pa.table({
        'doc_id': pa.array(list(docs), pa.int64()),
        'text': pa.array(list(docs.values()), pa.string()),
    })).repartition(blocks)
    got = fingerprint_dup_pairs(ds, min_shared=5).to_pandas()
    got_set = set(zip(got['doc_a'].astype(int), got['doc_b'].astype(int),
                      got['n_shared'].astype(int)))
    exp = _fp_brute(docs, 5)
    assert got_set == exp
    assert any(a == 0 and b == 4 for a, b, _ in exp)    # exact dup surfaces
    assert any(a == 0 and b == 1 for a, b, _ in exp)    # near-copy surfaces


def test_fingerprint_pairs_threshold_and_empty():
    from pii_detector_ray.stages.dedup import fingerprint_dup_pairs
    ds = ray.data.from_arrow(pa.table({
        'doc_id': pa.array([1, 2], pa.int64()),
        'text': pa.array(['abcdefghij klmnop qrstu vwxyz',
                          'entirely different words here'], pa.string())}))
    out = fingerprint_dup_pairs(ds, min_shared=1000)
    # all pairs fall below the threshold -> 0 rows (schema() can be None
    # on an all-filtered dataset, so only the row count is contractual)
    assert out.count() == 0


# ---------------------------------------------------------------------------
# Exact Spearman (value vs time, per event type)
# ---------------------------------------------------------------------------

def _spearman_brute(x, y):
    # tie-corrected Spearman = Pearson on average ranks
    def midranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind='mergesort')
        r = np.empty(len(v))
        i = 0
        while i < len(v):
            j = i
            while j < len(v) and v[order[j]] == v[order[i]]:
                j += 1
            r[order[i:j]] = (i + j + 1) / 2
            i = j
        return r
    rx, ry = midranks(x), midranks(y)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


@pytest.mark.parametrize('blocks', [1, 4])
def test_value_time_spearman_matches_bruteforce(tmp_path, blocks):
    rng = np.random.default_rng(7)
    n = 400
    ts = np.sort(rng.integers(1_600_000_000_000_000, 1_700_000_000_000_000,
                              n)).astype('datetime64[us]')
    et = rng.choice(['up', 'down', 'noisy', 'tied'], n)
    val = np.where(et == 'up', np.arange(n, dtype=float),
                   np.where(et == 'down', -np.arange(n, dtype=float),
                            np.where(et == 'tied',
                                     (np.arange(n) % 3).astype(float),
                                     rng.standard_normal(n))))
    tbl = pa.table({'event_id': pa.array(range(n), pa.int64()),
                    'ts': pa.array(ts),
                    'user_id': pa.array([1] * n, pa.int64()),
                    'event_type': pa.array(et.tolist(), pa.string()),
                    'value': pa.array(val, pa.float64()),
                    'props': pa.array(['{}'] * n, pa.string())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'events.parquet',
                   row_group_size=max(1, n // blocks))
    from pii_detector_ray import queries as q
    got = q.q_value_time_spearman(str(tmp_path))
    got_map = dict(zip(got['event_type'], got['spearman']))
    xs = tbl.column('ts').cast(pa.int64()).to_numpy()
    for t in ['up', 'down', 'noisy', 'tied']:
        mask = et == t
        exp = round(_spearman_brute(xs[mask], val[mask]), 4)
        assert got_map[t] == pytest.approx(exp, abs=1e-9), t
    assert got_map['up'] > 0.99 and got_map['down'] < -0.99


def test_revenue_theilsen_bruteforce(tmp_path):
    # tiny orders table with a known trend and an outlier day
    days = np.array(['2024-01-01', '2024-01-02', '2024-01-03',
                     '2024-01-05', '2024-01-09'], dtype='datetime64[us]')
    price = [10.0, 12.0, 14.0, 500.0, 18.0]       # day 4 is an outlier
    tbl = pa.table({'o_orderkey': pa.array(range(5), pa.int64()),
                    'o_custkey': pa.array([1] * 5, pa.int64()),
                    'o_orderdate': pa.array(days),
                    'o_totalprice': pa.array(price, pa.float64())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'orders.parquet')
    from pii_detector_ray import queries as q
    got = q.q_revenue_theilsen(str(tmp_path))
    x = days.astype('datetime64[D]').astype(np.int64)
    c = np.rint(np.asarray(price) * 100).astype(np.int64)
    ii, jj = np.triu_indices(5, k=1)
    exp = float(np.median((c[jj] - c[ii]) / 100.0 / (x[jj] - x[ii])))
    assert got['n_days'].iloc[0] == 5 and got['n_pairs'].iloc[0] == 10
    assert got['slope'].iloc[0] == pytest.approx(round(exp, 6), abs=1e-12)
    # robustness: the outlier day does not drag the slope to its OLS value
    assert abs(got['slope'].iloc[0]) < 50


@pytest.mark.parametrize('blocks', [1, 5])
def test_compression_ratio_block_invariant(tmp_path, blocks):
    import zlib
    rng = np.random.default_rng(3)
    texts = ['lorem ipsum ' * int(rng.integers(1, 30)) for _ in range(40)]
    srcs = [f's{i % 4}' for i in range(40)]
    tbl = pa.table({'doc_id': pa.array(range(40), pa.int64()),
                    'text': pa.array(texts, pa.string()),
                    'lang': pa.array(['en'] * 40, pa.string()),
                    'source': pa.array(srcs, pa.string()),
                    'n_chars': pa.array([len(t) for t in texts], pa.int64())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'documents.parquet',
                   row_group_size=max(1, 40 // blocks))
    from pii_detector_ray import queries as q
    got = q.q_compression_ratio(str(tmp_path)).sort_values('source') \
        .reset_index(drop=True)
    for i, s in enumerate(sorted(set(srcs))):
        raw = sum(len(t.encode()) for t, ss in zip(texts, srcs) if ss == s)
        z = sum(len(zlib.compress(t.encode(), 6))
                for t, ss in zip(texts, srcs) if ss == s)
        assert got['raw_bytes'].iloc[i] == raw
        assert got['zlib_bytes'].iloc[i] == z
        assert got['ratio'].iloc[i] == round(z / raw, 6)


@pytest.mark.parametrize('blocks,frac', [
    pytest.param(1, 0.0, id='1'),
    pytest.param(6, 0.0, id='6'),
    # *.5 quantities: SQL round() goes half away from zero, not to even
    pytest.param(6, 0.5, id='half_qty'),
])
def test_weighted_median_price_bruteforce(tmp_path, blocks, frac):
    rng = np.random.default_rng(9)
    n = 120
    flags = rng.choice(['A', 'N', 'R'], n)
    price = np.round(rng.uniform(10, 1000, n), 2)
    qty = rng.integers(1, 50, n).astype(float) + frac
    tbl = pa.table({'l_returnflag': pa.array(flags.tolist(), pa.string()),
                    'l_extendedprice': pa.array(price, pa.float64()),
                    'l_quantity': pa.array(qty, pa.float64())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'lineitem.parquet',
                   row_group_size=max(1, n // blocks))
    from pii_detector_ray import queries as q
    got = q.q_weighted_median_price(str(tmp_path))
    for f in ['A', 'N', 'R']:
        m = flags == f
        # lower weighted median: first x (ascending) with 2*cumw >= total
        order = np.argsort(price[m], kind='mergesort')
        xs, ws = price[m][order], np.floor(qty[m][order] + 0.5).astype(int)
        # collapse duplicate prices like the distributed fold does
        ux, inv = np.unique(xs, return_inverse=True)
        uw = np.bincount(inv, weights=ws).astype(int)
        cum = np.cumsum(uw)
        exp = float(ux[np.searchsorted(2 * cum, cum[-1])])
        got_x = float(got.loc[got['l_returnflag'] == f,
                              'weighted_median_price'].iloc[0])
        assert got_x == exp, (f, got_x, exp)


@pytest.mark.parametrize('blocks', [1, 4])
def test_event_lateness_bruteforce(tmp_path, blocks):
    # arrival order = event_id; plant out-of-order events per user
    rows = [
        # user 1: 3rd arrival is 50us older than running max -> late 50
        (0, 1, 1000, 'a'), (1, 1, 2000, 'a'), (2, 1, 1950, 'b'),
        # user 2: strictly increasing -> never late
        (3, 2, 100, 'a'), (4, 2, 200, 'b'),
        # user 3: two late events, one by 10, one by 300
        (5, 3, 5000, 'b'), (6, 3, 4990, 'b'), (7, 3, 6000, 'a'),
        (8, 3, 5700, 'a'),
    ]
    tbl = pa.table({
        'event_id': pa.array([r[0] for r in rows], pa.int64()),
        'ts': pa.array(np.array([r[2] for r in rows], 'datetime64[us]')),
        'user_id': pa.array([r[1] for r in rows], pa.int64()),
        'event_type': pa.array([r[3] for r in rows], pa.string()),
        'value': pa.array([1.0] * len(rows), pa.float64()),
        'props': pa.array(['{}'] * len(rows), pa.string())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'events.parquet',
                   row_group_size=max(1, len(rows) // blocks))
    from pii_detector_ray import queries as q
    got = q.q_event_lateness(str(tmp_path)).to_pandas() \
        .set_index('event_type')
    # type a: events 0,1,3,7,8 -> late only #8 (6000-5700=300)
    assert got.loc['a', 'n_events'] == 5
    assert got.loc['a', 'n_late'] == 1
    assert got.loc['a', 'sum_late_us'] == 300
    assert got.loc['a', 'max_late_us'] == 300
    # type b: events 2,4,5,6 -> late #2 (50) and #6 (10)
    assert got.loc['b', 'n_events'] == 4
    assert got.loc['b', 'n_late'] == 2
    assert got.loc['b', 'sum_late_us'] == 60
    assert got.loc['b', 'max_late_us'] == 50


def test_event_markov2_composition(tmp_path):
    # chain a->b->c for one user: P(a->b)=1, P(b->c)=1 => P2(a->c)=1
    ts = np.array([1000, 2000, 3000], dtype='datetime64[us]')
    tbl = pa.table({'event_id': pa.array([0, 1, 2], pa.int64()),
                    'ts': pa.array(ts),
                    'user_id': pa.array([1, 1, 1], pa.int64()),
                    'event_type': pa.array(['a', 'b', 'c'], pa.string()),
                    'value': pa.array([1.0] * 3, pa.float64()),
                    'props': pa.array(['{}'] * 3, pa.string())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'events.parquet')
    from pii_detector_ray import queries as q
    got = q.q_event_markov2(str(tmp_path))
    row = got[(got['prev_type'] == 'a') & (got['next2_type'] == 'c')]
    assert len(row) == 1
    assert row['w2'].iloc[0] == 10 ** 12 and row['prob2'].iloc[0] == 1.0


def test_event_lateness_null_ts_and_null_type(tmp_path):
    # review r5-final: NULL first-arrival ts must not overflow to ~9.2e18
    # lateness, and NULL event_type rows must form their own group (the
    # SQL oracle's GROUP BY contract), not vanish
    ts = np.array(['NaT', '2024-01-01T00:00:01', '2024-01-01T00:00:00',
                   '2024-01-02'], dtype='datetime64[us]')
    tbl = pa.table({'event_id': pa.array([0, 1, 2, 3], pa.int64()),
                    'ts': pa.array(ts),
                    'user_id': pa.array([1, 1, 1, 2], pa.int64()),
                    'event_type': pa.array(['a', None, 'a', None],
                                           pa.string()),
                    'value': pa.array([1.0] * 4, pa.float64()),
                    'props': pa.array(['{}'] * 4, pa.string())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'events.parquet')
    from pii_detector_ray import queries as q
    got = q.q_event_lateness(str(tmp_path)).to_pandas()
    byt = {r['event_type']: r for _, r in got.iterrows()}
    # user 1: NULL-ts arrival 0 (late 0), then ts 00:00:01 (first valid:
    # late 0), then ts 00:00:00 arriving after -> late 1s
    assert byt['a']['n_events'] == 2 and byt['a']['n_late'] == 1
    assert byt['a']['sum_late_us'] == 1_000_000
    null_row = got[got['event_type'].isna()]
    assert len(null_row) == 1
    assert null_row['n_events'].iloc[0] == 2
    assert null_row['n_late'].iloc[0] == 0          # no 9.2e18 overflow


def test_value_time_spearman_null_type(tmp_path):
    ts = np.arange(10, dtype=np.int64).astype('datetime64[us]')
    tbl = pa.table({'event_id': pa.array(range(10), pa.int64()),
                    'ts': pa.array(ts),
                    'user_id': pa.array([1] * 10, pa.int64()),
                    'event_type': pa.array([None] * 5 + ['a'] * 5,
                                           pa.string()),
                    'value': pa.array(np.arange(10, dtype=float),
                                      pa.float64()),
                    'props': pa.array(['{}'] * 10, pa.string())})
    import pyarrow.parquet as pq
    pq.write_table(tbl, tmp_path / 'events.parquet')
    from pii_detector_ray import queries as q
    got = q.q_value_time_spearman(str(tmp_path))
    assert len(got) == 2                  # NULL group ranks, not crashes
    assert (got['spearman'] == 1.0).all()
    assert got['event_type'].isna().sum() == 1


def test_value_time_spearman_skips_nan_values(tmp_path):
    """NaN values drop on both sides, like NULLs: the engine and the DuckDB
    oracle both equal the brute-force Spearman of the non-NaN rows."""
    import duckdb
    import pyarrow.parquet as pq

    from pii_detector_ray import queries as q
    rng = np.random.default_rng(3)
    n = 300
    ts = np.sort(rng.integers(0, 10**12, n)).astype('datetime64[us]')
    et = rng.choice(['a', 'b'], n)
    val = rng.standard_normal(n)
    val[rng.random(n) < 0.2] = np.nan
    tbl = pa.table({'event_id': pa.array(range(n), pa.int64()),
                    'ts': pa.array(ts),
                    'user_id': pa.array([1] * n, pa.int64()),
                    'event_type': pa.array(et.tolist(), pa.string()),
                    'value': pa.array(val, pa.float64()),
                    'props': pa.array(['{}'] * n, pa.string())})
    pq.write_table(tbl, tmp_path / 'events.parquet', row_group_size=n // 4)
    got = q.q_value_time_spearman(str(tmp_path))
    con = duckdb.connect()
    con.register('events', tbl)
    want = con.execute(q.oracle_sql()['value_time_spearman']).df()
    xs = tbl.column('ts').cast(pa.int64()).to_numpy()
    assert got['event_type'].tolist() == want['event_type'].tolist() == ['a', 'b']
    for t, g, w in zip(got['event_type'], got['spearman'], want['spearman']):
        mask = (et == t) & ~np.isnan(val)
        exp = round(_spearman_brute(xs[mask], val[mask]), 4)
        assert g == pytest.approx(exp, abs=1e-9), t
        assert w == pytest.approx(exp, abs=1e-9), t


def test_score_auc_and_ks_rank_nan_as_one_final_value(tmp_path):
    """NaN values stay in ``score_auc`` and ``value_ks_test``, as one value
    ranked above every number (DuckDB's order); NULLs drop."""
    import duckdb
    import pyarrow.parquet as pq

    from pii_detector_ray import queries as q
    rng = np.random.default_rng(3)
    n = 300
    ts = np.sort(rng.integers(0, 10**12, n)).astype('datetime64[us]')
    et = rng.choice(['click', 'purchase', 'view'], n)
    val = rng.standard_normal(n)
    val[rng.random(n) < 0.2] = np.nan
    null = np.zeros(n, bool)
    null[::37] = True
    tbl = pa.table({'event_id': pa.array(range(n), pa.int64()),
                    'ts': pa.array(ts),
                    'user_id': pa.array([1] * n, pa.int64()),
                    'event_type': pa.array(et.tolist(), pa.string()),
                    'value': pa.array(val, pa.float64(), mask=null),
                    'props': pa.array(['{}'] * n, pa.string())})
    pq.write_table(tbl, tmp_path / 'events.parquet', row_group_size=n // 4)
    con = duckdb.connect()
    con.register('events', tbl)
    score = np.where(np.isnan(val), np.inf, val)[~null]   # no inf in val
    kind = et[~null]

    got = q.q_score_auc(str(tmp_path))
    want = con.execute(q.oracle_sql()['score_auc']).df()
    p, m = score[kind == 'purchase'], score[kind != 'purchase']
    auc = ((p[:, None] > m).sum() + 0.5 * (p[:, None] == m).sum()) \
        / (len(p) * len(m))
    assert got['n_pos'].tolist() == want['n_pos'].tolist() == [len(p)]
    assert got['n_neg'].tolist() == want['n_neg'].tolist() == [len(m)]
    assert got['auc'].iloc[0] == want['auc'].iloc[0] == \
        pytest.approx(round(auc, 6), abs=1e-9)

    got = q.q_value_ks_test(str(tmp_path))
    want = con.execute(q.oracle_sql()['value_ks_test']).df()
    a = np.sort(score[kind == 'click'])
    b = np.sort(score[kind == 'purchase'])
    u = np.unique(np.concatenate([a, b]))
    ks = np.abs(np.searchsorted(a, u, 'right') / len(a)
                - np.searchsorted(b, u, 'right') / len(b)).max()
    assert got['n_a'].tolist() == want['n_a'].tolist() == [len(a)]
    assert got['n_b'].tolist() == want['n_b'].tolist() == [len(b)]
    assert got['ks_stat'].iloc[0] == want['ks_stat'].iloc[0] == \
        pytest.approx(round(ks, 6), abs=1e-9)
