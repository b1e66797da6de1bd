"""F7 row-level changed-chunk diff (reference base_scan_service.py:643-731).

The reference keys every scanned chunk by ``(full_path, offset, md5)`` and on
rescan re-queues ONLY chunks whose key is not in the catalog: a changed hash
at an existing offset counts as *updated*, a new offset as *created*, and
both go back to WAIT_FOR_SCAN; catalog rows whose key vanished from the
source are reset as stale.  Round 1 fingerprinted whole input files
(state/manifest.py), so a one-row change re-ran the partition — this module
closes that to chunk granularity.

Ray-Data-first shape: both sides are narrow (path, offset, md5) datasets; the
diff is a hash-partitioned LEFT OUTER join on the triple key with a presence
marker, filtered to misses — only 3-column rows shuffle, never chunk
payloads.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

DEFAULT_CHUNK_CHARS = 4096
# reference config.py:129 OVERLAP_BYTES = 255, applied s3_service.py:232-233:
# every chunk after the first starts 255 units early so a match spanning a
# chunk boundary is still inside one scan window
DEFAULT_OVERLAP_CHARS = 255


def make_chunker(chunk_chars: int = DEFAULT_CHUNK_CHARS,
                 path_col: str = 'path', text_col: str = 'text',
                 overlap_chars: int = DEFAULT_OVERLAP_CHARS):
    """map_batches stage: (path, text) rows → (path, chunk_offset, md5) chunk
    catalog rows.  Offsets are character offsets (the reference chunks the
    *prepared* text, base_scan_service.py ``get_data_chunks``); empty/null
    text yields one empty chunk so the object itself stays cataloged.

    Each chunk's content (and hence its md5) covers
    ``text[max(0, off - overlap_chars):off + chunk_chars]`` — the
    reference's 255-char boundary overlap, so a boundary-spanning match on a
    giant document is never lost, and an edit in the overlap region
    correctly invalidates the following chunk too."""
    def chunk(batch: pa.Table) -> pa.Table:
        paths, offsets, hashes = [], [], []
        for p, t in zip(batch.column(path_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            t = t or ''
            for off in range(0, max(len(t), 1), chunk_chars):
                paths.append(p)
                offsets.append(off)
                hashes.append(hashlib.md5(
                    t[max(0, off - overlap_chars):off + chunk_chars]
                    .encode('utf-8')).hexdigest())
        return pa.table({path_col: pa.array(paths),
                         'chunk_offset': pa.array(offsets, pa.int64()),
                         'md5': pa.array(hashes, pa.string())})

    return chunk


def _anti_join(left: ray.data.Dataset, right: ray.data.Dataset,
               keys: tuple[str, ...],
               num_partitions: int | None = None) -> ray.data.Dataset:
    """Rows of ``left`` whose key tuple does not appear in ``right``."""
    from pii_detector_ray.stages.dedup import drop_empty_blocks, hash_join
    marker = drop_empty_blocks(right.map_batches(
        lambda t: t.select(list(keys)).append_column(
            '_present', pa.array([1] * len(t), pa.int8())),
        batch_format='pyarrow'))
    if marker.count() == 0:       # nothing on the right → everything is a miss
        return left
    joined = hash_join(left, marker, keys, 'left_outer',
                       num_partitions=num_partitions)
    return joined.map_batches(
        lambda t: t.filter(pc.is_null(t.column('_present')))
                   .drop_columns(['_present']),
        batch_format='pyarrow')


def changed_chunks(current: ray.data.Dataset, catalog: ray.data.Dataset,
                   *, keys: tuple[str, ...] = ('path', 'chunk_offset', 'md5'),
                   num_partitions: int | None = None) -> ray.data.Dataset:
    """Chunks to (re)scan: current-source chunks whose (path, offset, md5)
    is not in the catalog — the union of the reference's *updated* (changed
    hash) and *created* (new offset) sets, both of which it marks
    WAIT_FOR_SCAN."""
    return _anti_join(current, catalog, keys, num_partitions)


def stale_chunks(current: ray.data.Dataset, catalog: ray.data.Dataset,
                 *, keys: tuple[str, ...] = ('path', 'chunk_offset', 'md5'),
                 num_partitions: int | None = None) -> ray.data.Dataset:
    """Catalog rows whose key vanished from the source (the reference resets
    these via its batch PATCH, base_scan_service.py:692-731)."""
    return _anti_join(catalog, current, keys, num_partitions)
