"""Stage 7: triple emission — the north-rule currency (subj, pred, obj).

Attribute triples come from linked mentions: ``(entity_id, has_<field>,
value, url, warc_ts)`` for every non-unknown scalar and every list element
(closed vocabulary -> bounded predicate set). Relation triples mirror the
pair observations: ``(src, rel, dst, url, warc_ts)``.

Triples are deduplicated on all five columns (the same entity mentioned
twice on a page — e.g. via alias + primary surface — must not double-emit)
with the same partial-combine-then-groupby shape as the edge aggregation.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import TRIPLES_SCHEMA
from ..vocab import LIST_FIELDS, SCALAR_FIELDS, UNKNOWN

TRIPLE_KEYS = ["subj", "pred", "obj", "url"]


def _cc(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def attr_triples_batch(batch: pa.Table) -> pa.Table:
    """flat linked mentions -> attribute triple rows.

    Fully vectorized: one Arrow mask+filter per scalar field and one
    list-flatten per list field (the per-row Python loop over ~6 attrs x
    every mention was a measured hotspot of the triples branch at bench
    scale). Emission rules unchanged: linked mentions only, scalar values
    that are neither null/empty nor "unknown", every element of every
    list field."""
    eid = _cc(batch["entity_id"])
    url = _cc(batch["url"])
    ts = _cc(batch["warc_ts"])
    attrs = _cc(batch["attrs"])
    linked = pc.and_kleene(eid.is_valid(),
                           pc.not_equal(eid, pa.scalar("")))
    linked = pc.fill_null(linked, False)
    parts = []

    def emit(pred: str, subj_a, obj_a, url_a, ts_a):
        parts.append(pa.table(
            {
                "subj": subj_a,
                "pred": pa.array([pred] * len(subj_a), type=pa.string()),
                "obj": obj_a,
                "url": url_a,
                "warc_ts": ts_a,
            },
            schema=TRIPLES_SCHEMA,
        ))

    for f in SCALAR_FIELDS:
        v = attrs.field(f)
        m = pc.and_(linked, pc.fill_null(pc.and_kleene(
            pc.not_equal(v, pa.scalar(UNKNOWN)),
            pc.not_equal(v, pa.scalar(""))), False))
        if pc.any(m).as_py():
            emit(f"has_{f}", eid.filter(m), v.filter(m), url.filter(m),
                 ts.filter(m))
    for f in LIST_FIELDS:
        lv = attrs.field(f)
        flat = pc.list_flatten(lv)
        if len(flat) == 0:
            continue
        parent = pc.list_parent_indices(lv)
        m = linked.take(parent)
        if pc.any(m).as_py():
            emit(f"has_{f}", eid.take(parent).filter(m), flat.filter(m),
                 url.take(parent).filter(m), ts.take(parent).filter(m))
    if not parts:
        return TRIPLES_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def rel_triples_batch(pairs_batch: pa.Table) -> pa.Table:
    """pair observations -> relation triple rows (rename src/rel/dst)."""
    return pa.table(
        {
            "subj": pairs_batch["src"],
            "pred": pairs_batch["rel"],
            "obj": pairs_batch["dst"],
            "url": pairs_batch["url"],
            "warc_ts": pairs_batch["warc_ts"],
        },
        schema=TRIPLES_SCHEMA,
    )


def _dedup_vectorized(batch: pa.Table) -> pa.Table:
    g = batch.group_by(TRIPLE_KEYS).aggregate([("warc_ts", "min")])
    cols = {k: g[k] for k in TRIPLE_KEYS}
    cols["warc_ts"] = g["warc_ts_min"]
    return pa.table(cols).cast(TRIPLES_SCHEMA)


def dedup_triples(triples_ds):
    """Distinct (subj,pred,obj,url), keeping min warc_ts. In-batch partial
    dedup first, then one bucketed shuffle with one vectorized dedup per
    shuffled block (see stages/bucketed.py for why not one call per
    group or per bucket)."""
    from .bucketed import bucketed_group_apply

    partials = triples_ds.map_batches(
        _dedup_vectorized, batch_format="pyarrow", batch_size=16384,
        zero_copy_batch=True,
    )
    return bucketed_group_apply(partials, TRIPLE_KEYS, _dedup_vectorized)


def page_local_triples(linked_ds, pairs_ds):
    """ZERO-SHUFFLE triple emission + dedup for URL-UNIQUE linked rows.

    Precondition (the ``dedup_pages`` guarantee): every url appears in
    exactly one row of ``linked_ds``, and ``pairs_ds`` derives from those
    same rows. Then global distinctness of (subj, pred, obj, url) needs no
    all-to-all exchange, because every duplicate group is page-local:

    - batches here slice PAGE rows (one linked row per page), never a
      page's mentions, so all attr triples of a url are emitted within one
      kernel call and deduped in-kernel;
    - relation triples are distinct by construction (distinct-id ``i<j``
      pairing, two directions) — no dedup needed at all;
    - attr preds (``has_*``) and rel preds (worn_with/complemented_by)
      are disjoint vocabularies, so the union cannot collide.

    min-warc_ts semantics are preserved trivially (one url = one ts).
    This replaces the heaviest shuffle of the KG build (measured 13.3 s of
    a 44 s 16-CPU wall for the bucketed variant at 800k pages) with pure
    streaming map_batches — the 100-TB shape for url-partitioned corpora.
    Callers WITHOUT the url-unique guarantee must use ``dedup_triples``."""
    from .pairs import explode_mentions_batch

    def attr_local(t: pa.Table) -> pa.Table:
        return _dedup_vectorized(
            attr_triples_batch(explode_mentions_batch(t)))

    attr = linked_ds.map_batches(attr_local, batch_format="pyarrow",
                                 batch_size=1024, zero_copy_batch=True)
    return attr.union(emit_rel_triples(pairs_ds))


def emit_attr_triples(linked_flat_ds):
    return linked_flat_ds.map_batches(
        attr_triples_batch, batch_format="pyarrow", batch_size=4096,
        zero_copy_batch=True,
    )


def emit_rel_triples(pairs_ds):
    return pairs_ds.map_batches(
        rel_triples_batch, batch_format="pyarrow", batch_size=16384,
        zero_copy_batch=True,
    )
