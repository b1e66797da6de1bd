"""PII scrub stage: spans + masked values + scrubbed text, Arrow in / Arrow out.

Ray-native re-expression of the reference's scan loop
(``analyze_content_data`` → ``scan_file_object`` → engine cascade →
per-finding POST; ``app/services/base_scan_service.py:902-943``,
``data_analysis_service.py:173-226``): instead of per-chunk HTTP round-trips,
each batch emits a ``pii_spans`` list<struct> column (finding fields per
``data_analysis_service.py:208-217``, content-keyed instead of uuid4-stamped)
plus the scrubbed text (mask semantics ``data_analysis_service.py:115-153``)
and the PHI flag (``:38-41,86-100``).

The batch's text column stays one Arrow array: vectorized RE2 gate and
prefilter passes, each over the sub-array of rows its gate left, pick the
candidate rows, and stdlib ``re`` runs only on those
(``pii_detector_ray/scan.py``); the PHI gate reads the same array.  Only
rows with a span come back to Python to be spliced.  The stage is a
stateless task — patterns compile once per worker process via an
``lru_cache`` (the reference compiles its hyperscan DB once per spawned
process, ``multiprocessing_tasks.py:34``; lacking hyperscan, shrinking the
rows each pass reads stands in for its single multi-pattern pass).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pii_detector_ray.config import PipelineConfig
from pii_detector_ray.detectors import Detector, build_registry
from pii_detector_ray.functions.masking import is_phi_batch
from pii_detector_ray.scan import scan_texts, span_record, text_array

SPAN_STRUCT = pa.struct([
    ('type', pa.string()),
    ('start', pa.int32()),
    ('end', pa.int32()),
    ('hash', pa.string()),
    ('masked', pa.string()),
    ('region', pa.string()),       # T4 region map (data_analysis_service.py:68-84,212)
    ('score', pa.float32()),
    ('is_custom_regex', pa.bool_()),
])
SPAN_LIST = pa.list_(SPAN_STRUCT)


def detectors_from_config(cfg: PipelineConfig) -> list[Detector]:
    dets = build_registry(
        include_pii=cfg.include_pii,
        include_credentials=cfg.include_credentials,
        include_extensions=cfg.include_extensions,
        extra=cfg.custom_patterns or None,
        only=cfg.rescan_only,
    )
    if cfg.scrub_entities is not None:
        wanted = set(cfg.scrub_entities)
        dets = [d for d in dets if d.name in wanted]
    return dets


def make_scrub_stage(cfg: PipelineConfig, text_col: str = 'extracted_text',
                     name_col: str = 'url'):
    """Build the scrub `map_batches` callable (pyarrow batch format)."""
    detectors = detectors_from_config(cfg)

    def scrub_batch(batch: pa.Table) -> pa.Table:
        texts = text_array(batch.column(text_col))
        names = text_array(batch.column(name_col) if name_col in batch.column_names
                           else [''] * len(texts))
        all_spans = scan_texts(texts, detectors, ner=cfg.include_ner,
                               credential_keep_longest=cfg.credential_keep_longest)
        span_lists = [[span_record(sp) for sp in spans] for spans in all_spans]
        n_pii = np.fromiter(map(len, all_spans), np.int32, len(all_spans))
        hit = np.flatnonzero(n_pii)
        # splice with the already-computed masked values (avoids re-masking);
        # equals scrub_text() because mask_data is deterministic
        spliced = []
        for i, t in zip(hit.tolist(), texts.take(hit).to_pylist()):
            for sp, rec in sorted(zip(all_spans[i], span_lists[i]),
                                  key=lambda p: p[0].sort_key(), reverse=True):
                t = t[:sp.start] + rec['masked'] + t[sp.end:]
            spliced.append(t)
        scrubbed = pc.replace_with_mask(texts, pa.array(n_pii > 0),
                                        pa.array(spliced, texts.type))
        phi = is_phi_batch(names, texts)
        batch = batch.append_column('pii_spans', pa.array(span_lists, type=SPAN_LIST))
        batch = batch.append_column('scrubbed_text', scrubbed.cast(pa.string()))
        batch = batch.append_column('is_phi', pa.array(phi, type=pa.bool_()))
        batch = batch.append_column('n_pii', pa.array(n_pii, type=pa.int32()))
        return batch

    return scrub_batch
