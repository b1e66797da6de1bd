"""Text extraction + object-selection filters.

Extraction (P1): the reference's fallback text path for unknown binary is
``object_data.decode(errors='replace')[offset:offset+limit]``
(``app/services/file_service.py:415``) — that ``errors='replace'`` decode is
the semantics anchor for the **byte-identical extracted text per url**
contract (BASELINE.md).  For HTML pages we define extraction as: UTF-8 decode
with ``errors='replace'`` → drop ``<script>``/``<style>`` blocks → strip tags
→ unescape entities.  One deterministic function, shared by the Ray stage and
the serial oracle.

Object-selection filters (F1-F4, SURVEY.md §2.2): the reference's extension
blocklist (``app/core/config.py:98-110`` via ``file_service.py:94``), the
log-name filter (``s3_service.py:114,251-261``), and the filename
include/exclude classifiers (``base_scan_service.py:590-619``) become one
vectorized Arrow predicate over ``url``.
"""

from __future__ import annotations

import html as _html
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pii_detector_ray.config import PipelineConfig

_SCRIPT_STYLE = re.compile(r'(?is)<(script|style)\b.*?</\1\s*>')
_TAG = re.compile(r'<[^>]*>')


def extract_html(raw: bytes | None) -> str:
    """bytes -> text, deterministically. Decode semantics from
    file_service.py:415 (``decode(errors='replace')``)."""
    if raw is None:
        return ''
    decoded = raw.decode('utf-8', errors='replace')
    no_blocks = _SCRIPT_STYLE.sub('', decoded)
    no_tags = _TAG.sub('', no_blocks)
    return _html.unescape(no_tags)


def extract_row(text: str | None, html_bytes: bytes | None) -> str:
    """Per-row extraction rule: prefer the crawler-provided ``text``; fall
    back to extracting from ``html``; both null -> ''."""
    if text is not None:
        return text
    return extract_html(html_bytes)


def extract_batch(batch: pa.Table) -> pa.Table:
    """Adds ``extracted_text`` (non-null string).  Zero-copy for the common
    case (``text`` already present): reuses the Arrow column and only runs
    Python extraction on the null-text rows."""
    text = batch.column('text')
    if text.null_count == 0:
        extracted = pc.cast(text, pa.string())
    else:
        mask = pc.is_null(text).to_numpy(zero_copy_only=False)
        texts = text.to_pylist()
        htmls = batch.column('html').to_pylist() if 'html' in batch.column_names else [None] * len(texts)
        out = [t if not m else extract_html(h)
               for t, h, m in zip(texts, htmls, mask)]
        extracted = pa.array(out, type=pa.string())
    return batch.append_column('extracted_text', extracted)


def make_url_filter(cfg: PipelineConfig):
    """Build the fused F1-F4 url predicate as a vectorized pyarrow batch fn."""
    blocklist = tuple(cfg.url_extension_blocklist)
    include_re = re.compile(cfg.url_include_regex) if cfg.url_include_regex else None
    exclude_re = re.compile(cfg.url_exclude_regex) if cfg.url_exclude_regex else None

    def hits(matched) -> np.ndarray:
        # a NULL url matches no pattern: no exclusion drops it, no
        # inclusion keeps it
        if matched.null_count:
            matched = pc.fill_null(matched, False)
        return matched.to_numpy(zero_copy_only=False)

    def url_filter(batch: pa.Table) -> pa.Table:
        urls = batch.column('url')
        keep = np.ones(len(batch), dtype=bool)
        if blocklist:
            blocked = np.zeros(len(batch), dtype=bool)
            for ext in blocklist:
                blocked |= hits(pc.ends_with(urls, pattern=ext))
            keep &= ~blocked
        if cfg.url_log_filter:
            # F2: reference drops names containing 'log' (case-insensitive,
            # s3_service.py:251-261) and S3 keys matching vpcflowlogs|CloudTrail|-log
            lowered = pc.utf8_lower(urls)
            keep &= ~hits(pc.match_substring(lowered, 'log'))
            keep &= ~hits(pc.match_substring(urls, 'CloudTrail'))
        if exclude_re is not None:
            keep &= ~hits(pc.match_substring_regex(urls, exclude_re.pattern))
        if include_re is not None:
            keep &= hits(pc.match_substring_regex(urls, include_re.pattern))
        if cfg.url_include_set is not None:
            # F4 classification include-set (base_scan_service.py:621-641):
            # small set broadcast by closure capture
            keep &= hits(pc.is_in(urls, value_set=pa.array(cfg.url_include_set)))
        if cfg.max_doc_bytes is not None and 'html' in batch.column_names:
            # F8 size guard (file_service.py:137-139 / base_scan_service.py:49)
            sizes = pc.binary_length(batch.column('html'))
            ok = pc.fill_null(pc.less_equal(sizes, cfg.max_doc_bytes), True)
            keep &= ok.to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keep))

    return url_filter
