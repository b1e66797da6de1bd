"""Driver-contract smoke: entry()/queries()/oracle_sql() shapes."""

import __ray_entry__ as entrymod


def test_entry_runs_and_has_stable_schema():
    ds = entrymod.entry()
    schema = ds.schema()
    for col in ('url', 'keep', 'drop_reason', 'scrubbed_text', 'pii_spans',
                'n_pii', 'is_phi'):
        assert col in schema.names, col
    assert ds.count() > 0


def test_every_query_has_callable_and_sql_keys_subset():
    qs = entrymod.queries()
    sql = entrymod.oracle_sql()
    assert set(sql) <= set(qs)               # every oracle pairs a query
    assert len(qs) == 246 and len(sql) == 245
    assert all(callable(f) for f in qs.values())
    assert all(isinstance(s, str) and s.strip().upper().startswith(('SELECT', 'WITH'))
               for s in sql.values())
