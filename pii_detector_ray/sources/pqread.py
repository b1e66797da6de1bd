"""Metadata-stripped parquet reads.

Pandas-written parquet files carry a ``b'pandas'`` schema-metadata blob
(a JSON dict).  Ray 2.49's block concatenation tries ``set(schemas)`` for
dedup and the unhashable metadata makes every read log
``Failed to hash the schemas (for deduplication): unhashable type: 'dict'``
(ray/data/_internal/arrow_ops/transform_pyarrow.py).  Passing an explicit
metadata-free schema to ``read_parquet`` removes the noise at the source and
lets the executor's schema dedup work.  Column pruning is preserved — the
schema is built from the footer restricted to ``columns``.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data


# above this many files the driver-side footer sweep isn't worth it; fall
# back to the plain read (schema-unification behavior, noisier logs)
_MAX_FOOTER_CHECKS = 512


def _all_files(paths) -> list[str]:
    if isinstance(paths, (list, tuple)):
        out: list[str] = []
        for p in paths:
            out.extend(_all_files(p))
        return out
    if os.path.isdir(paths):
        return sorted(glob.glob(os.path.join(paths, '**', '*.parquet'),
                                recursive=True))
    return [paths]


def footers(paths) -> list[pq.FileMetaData] | None:
    """The Parquet footer of every file under ``paths`` (in read order), or
    None when there is no file, more than ``_MAX_FOOTER_CHECKS`` files, or an
    unreadable footer."""
    try:
        files = _all_files(paths)
        if not files or len(files) > _MAX_FOOTER_CHECKS:
            return None
        return [pq.read_metadata(f) for f in files]
    except (OSError, pa.ArrowException):
        return None


def clean_schema(paths, columns: list[str] | None = None,
                 metas: list[pq.FileMetaData] | None = None) -> pa.Schema | None:
    """Metadata-stripped footer schema, restricted to ``columns`` (in the
    given order) — but ONLY when every file's footer agrees.  Imposing one
    file's schema on a heterogeneous set would silently null-fill or drop
    columns that Ray's default schema unification used to carry, so a
    mismatch (or an unreadable footer, or too many files to check) returns
    None and the caller does a plain read.  ``metas``: the footers, when the
    caller has already read them (``footers(paths)``)."""
    metas = footers(paths) if metas is None else metas
    if not metas:
        return None
    try:
        def stripped(md: pq.FileMetaData) -> pa.Schema:
            full = md.schema.to_arrow_schema()
            names = columns if columns is not None else full.names
            return pa.schema([full.field(n).remove_metadata() for n in names])

        schema = stripped(metas[0])
        for md in metas[1:]:
            if not stripped(md).equals(schema):
                return None
        return schema
    except Exception:
        return None


def read_parquet_clean(paths, *, columns: list[str] | None = None,
                       metas: list[pq.FileMetaData] | None = None,
                       **kwargs) -> ray.data.Dataset:
    """``ray.data.read_parquet`` with a metadata-free explicit schema (falls
    back to the plain read when the footer is unreadable)."""
    schema = clean_schema(paths, columns, metas)
    if schema is not None:
        kwargs['schema'] = schema
    return ray.data.read_parquet(paths, columns=columns, **kwargs)
