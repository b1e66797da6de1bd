"""ExactSubstr duplicated-span operator: handcrafted span semantics, both
census paths (broadcast / join fallback) frame-equal, collision exactness
via the verify pass."""

import pandas as pd
import pyarrow as pa

import ray.data

from pii_detector_ray.stages.exactsubstr import duplicated_spans


def _docs(rows):
    return ray.data.from_arrow(pa.table({
        'doc_id': pa.array([r[0] for r in rows], pa.int64()),
        'text': pa.array([r[1] for r in rows], pa.string())}))


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    k = ['doc_id', 'span_start', 'span_end']
    return df[k].sort_values(k).reset_index(drop=True)


def test_handcrafted_spans(ray_session):
    shared = 'X' * 30                      # 30 chars: every 24-gram dup'd
    # boundary chars DIFFER between docs so the duplicated region is
    # exactly the shared block (a shared adjacent space would widen it)
    rows = [(1, 'aaaa-' + shared + '-bbbb'),
            (2, 'cccc~' + shared + '~dddd'),
            (3, 'no duplication here at all, unique text ####')]
    out = _norm(duplicated_spans(_docs(rows), L=24).to_pandas())
    # docs 1 and 2: exactly the shared region [5, 35); doc 3: nothing
    assert out.values.tolist() == [[1, 5, 35], [2, 5, 35]]


def test_within_doc_duplication_counts(ray_session):
    s = 'abcdefghijklmnopqrstuvwxyz'     # 26 chars, appears twice in ONE doc
    rows = [(7, s + ' --- ' + s)]
    out = _norm(duplicated_spans(_docs(rows), L=24).to_pandas())
    assert len(out) == 2
    assert out['span_start'].tolist() == [0, 31]


def test_touching_windows_merge(ray_session):
    # two dup'd 24-grams at distance exactly L merge into one span
    a, b = 'A' * 24, 'B' * 24
    rows = [(1, a + b), (2, a + 'x' + b)]
    out = _norm(duplicated_spans(_docs(rows), L=24).to_pandas())
    assert out.loc[out.doc_id == 1].values.tolist() == [[1, 0, 48]]
    assert out.loc[out.doc_id == 2, 'span_start'].tolist() == [0, 25]


def test_paths_frame_equal(ray_session, max_block_size):
    rows = [(i, f'common prefix phrase here #{i % 3} and tail {i}')
            for i in range(40)]
    a = _norm(duplicated_spans(_docs(rows), L=24).to_pandas())
    with max_block_size(1):          # the join path's join is Ray's Join
        b = _norm(duplicated_spans(_docs(rows), L=24,
                                   broadcast_limit=0).to_pandas())
    assert a.equals(b) and len(a) > 0


def test_empty_and_short_docs(ray_session):
    rows = [(1, ''), (2, 'short'), (3, None)]
    out = duplicated_spans(_docs(rows), L=24).to_pandas()
    assert len(out) == 0
