"""Composable Ray Data stages (each a `map_batches` callable).

Stage inventory mapped from SURVEY.md §2 — stages are plain functions over
Arrow batches (cheap elastic tasks); the quality stage's scorer models are
built once per worker process and cached there
(``scorers.QualityScorers.process_cached``).
"""
