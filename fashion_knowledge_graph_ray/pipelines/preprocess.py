"""The reference's catalog-preprocessing entry point, composed (§3.4).

`/root/reference/src/engine/data_preprocessing.py:106-128` chains the only
classic relational pipeline in the reference: read metadata (S2) ->
category filter (M1) -> anti-join against the existing combined catalog
(M2) -> seeded per-category sample (G6, ``random_state=42``) -> path map +
projection/rename (M3/M5) -> write + union-dedup upsert into the combined
catalog (K1+G7). Every operator exists individually in stages/relational;
this module is the composed entry point a reference user would reach for.

Scale shape: one broadcast (or routed-shuffle) anti-join + one bucketed
grouped sample + one bucketed upsert — no driver materialization of either
catalog side.
"""

from __future__ import annotations

import pyarrow as pa

from ..stages.relational import (
    anti_join_auto,
    filter_in,
    grouped_sample,
    union_upsert,
)


def preprocess_catalog(new_ds, base_ds, *, key_col: str, category_col: str,
                       include_categories, sample_n: int,
                       rename: dict[str, str] | None = None,
                       max_broadcast_keys: int = 5_000_000):
    """new metadata + existing combined catalog -> upserted combined catalog.

    - ``new_ds``: incoming metadata rows (S2 output);
    - ``base_ds``: the existing combined catalog, ALREADY in the output
      schema (its rows win on key conflict — ``drop_duplicates`` keeps the
      first occurrence, data_preprocessing.py:75-79);
    - ``rename``: projection + rename applied to the sampled new rows
      (M5); the renamed key column must match ``base_ds``'s key column.

    Returns the upserted catalog with the ``src`` column ('base'/'new')
    recording which side survived per key.
    """
    rename = rename or {}
    out_key = rename.get(key_col, key_col)

    filtered = filter_in(new_ds, category_col, include_categories)       # M1
    fresh = anti_join_auto(filtered, key_col,                            # M2
                           base_ds.map_batches(
                               lambda t, c=out_key: t.select([c]),
                               batch_format="pyarrow",
                               zero_copy_batch=True),
                           out_key,
                           max_broadcast_keys=max_broadcast_keys)
    sampled = grouped_sample(fresh, category_col, sample_n, key_col)     # G6

    def project(t: pa.Table) -> pa.Table:                                # M5
        cols = {rename.get(n, n): t[n]
                for n in (rename.keys() if rename else t.schema.names)}
        return pa.table(cols)

    renamed = sampled.map_batches(project, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return union_upsert(base_ds, renamed, out_key)                       # K1+G7
