"""Stage 6: wide aggregations — edge weights, evidence lists, node merge.

The engine's only all-to-all shuffles live here (SURVEY.md §7.3):

- **edges** keyed ``(src, dst, rel)`` — the counting-upsert analog of Neo4j
  ``MERGE ... ON CREATE r.weight=1 ON MATCH r.weight+=1`` + image-append
  (`/root/reference/src/database/graph_database.py:164-198`), re-expressed
  as a deterministic groupby so re-runs can never double-count (the
  reference inflates weights on re-run; SURVEY.md §4.4);
- **nodes** keyed ``entity_id`` — the ``MERGE (p) SET p += $attrs``
  last-writer-wins upsert (graph_database.py:89-96), ordered by
  ``(warc_ts, url, mention_id)`` for determinism.

Scale shape: (1) every batch is pre-aggregated in ``map_batches`` before
the shuffle (partial count + partial evidence list per key), so a hot key
ships at most ONE row per input batch; (2) the final reduction is a
bucketed shuffle (see stages/bucketed.py) with one VECTORIZED merge per
shuffled block — no per-group Python dispatch. Evidence lists are capped at
``EVIDENCE_CAP`` with an explicit ``evidence_truncated`` flag (never a
silent cap).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import ATTRS_STRUCT
from ..vocab import EVIDENCE_CAP
from .bucketed import bucketed_group_apply

EDGE_KEYS = ["src", "dst", "rel"]


def _fold_evidence(head: pa.Table, ev: pa.Table) -> pa.Table:
    """One row per edge key (in no particular order): summed ``weight``,
    any ``ptrunc``, the sorted distinct non-null evidence urls capped at
    ``EVIDENCE_CAP`` (``pages``) and their uncapped count (``n_pages``).

    ``head`` holds (src, dst, rel, weight, ptrunc) rows, at least one per
    key; ``ev`` holds (src, dst, rel, url) evidence rows, duplicates and
    nulls allowed. The head rows ride as url-null rows, so one hash
    group_by on (key, url) both dedups the urls and folds every key's
    weight into exactly one null-url row. Sorting with nulls first then
    puts that row at the head of each key's run, and an ordered
    (single-threaded) ``hash_list`` collects the run; slicing from 1 drops
    the null. No join: pyarrow cannot carry a list column through one."""
    n, m = head.num_rows, ev.num_rows
    rows = pa.concat_tables([
        pa.table({**{k: head[k] for k in EDGE_KEYS},
                  "url": pa.nulls(n, type=pa.string()),
                  "weight": head["weight"], "ptrunc": head["ptrunc"]}),
        # zeros, not nulls: pyarrow 16's hash_any miscounts groups that
        # hold nulls (checked against a Python fold)
        pa.table({**{k: ev[k] for k in EDGE_KEYS}, "url": ev["url"],
                  "weight": pa.repeat(pa.scalar(0, pa.int64()), m),
                  "ptrunc": pa.repeat(False, m)}),
    ])
    keys_url = EDGE_KEYS + ["url"]
    d = (rows.group_by(keys_url)
         .aggregate([("weight", "sum"), ("ptrunc", "any")])
         .sort_by([(k, "ascending") for k in keys_url],
                  null_placement="at_start"))
    g = d.group_by(EDGE_KEYS, use_threads=False).aggregate(
        [("weight_sum", "sum"), ("ptrunc_any", "any"), ("url", "list"),
         ("url", "count")])
    return pa.table({
        **{k: g[k].cast(pa.string()) for k in EDGE_KEYS},
        "weight": g["weight_sum_sum"],
        "ptrunc": g["ptrunc_any_any"],
        "pages": pc.list_slice(g["url_list"], 1, 1 + EVIDENCE_CAP),
        "n_pages": g["url_count"],
    })


def partial_edge_agg(batch: pa.Table) -> pa.Table:
    """In-batch combiner: pair observations -> one row per (src,dst,rel)
    with partial weight + partial (sorted DISTINCT, capped) evidence list.

    ``ptrunc`` records whether THIS batch's distinct-url list was cut at
    the cap: the merge needs it to flag truncation exactly — a capped
    partial means the true distinct count exceeds the cap even when the
    merged union happens to land at exactly ``EVIDENCE_CAP`` entries.
    Deduping before the cap keeps the final pages list independent of how
    duplicate observations are batched (duplicates possible when
    ``dedup_pages`` is disabled). The weight counts non-null urls; a null
    url adds no evidence."""
    head = batch.select(EDGE_KEYS).append_column(
        "weight", pc.is_valid(batch["url"]).cast(pa.int64())).append_column(
        "ptrunc", pa.repeat(False, batch.num_rows))
    f = _fold_evidence(head, batch.select(EDGE_KEYS + ["url"]))
    return f.select(EDGE_KEYS + ["weight", "pages"]).append_column(
        "ptrunc", pc.greater(f["n_pages"], EVIDENCE_CAP))


def _merge_edges_bucket(t: pa.Table) -> pa.Table:
    """Vectorized merge of the edge partials of one or more buckets.

    Truncation flag is exact: union-of-partials exceeding the cap, OR any
    partial having been capped (in which case the true distinct count is
    above the cap regardless of the union size) — never inferred from
    weight, which over-counts when duplicate url observations exist."""
    pages = t["pages"].combine_chunks()
    ev = t.select(EDGE_KEYS).take(pc.list_parent_indices(pages)) \
        .append_column("url", pc.list_flatten(pages))
    f = _fold_evidence(t.select(EDGE_KEYS + ["weight", "ptrunc"]), ev)
    return f.select(EDGE_KEYS + ["weight", "pages"]).append_column(
        "evidence_truncated",
        pc.or_(pc.greater(f["n_pages"], EVIDENCE_CAP), f["ptrunc"]))


def partial_edge_count(batch: pa.Table) -> pa.Table:
    """Count-only combiner (no evidence lists): one int row per key per
    batch — the minimal shuffle payload when the consumer drops ``pages``."""
    g = batch.group_by(EDGE_KEYS).aggregate([("url", "count")])
    return pa.table({"src": g["src"], "dst": g["dst"], "rel": g["rel"],
                     "weight": g["url_count"].cast(pa.int64())})


def merge_edge_counts(t: pa.Table) -> pa.Table:
    """Arrow-kernel merge of count partials (one or more buckets)."""
    g = t.group_by(EDGE_KEYS).aggregate([("weight", "sum")])
    return pa.table({"src": g["src"], "dst": g["dst"], "rel": g["rel"],
                     "weight": g["weight_sum"]})


def aggregate_edges(pairs_ds, *, batch_size: int = 8192, num_buckets: int = 64,
                    collect_evidence: bool = True,
                    bucket_keys: list[str] | None = None,
                    properties: dict | None = None,
                    source: str | None = None,
                    pre_filter=None):
    """pairs -> edges: partial combine per batch, then ONE bucketed shuffle
    over the (much smaller) partials with a vectorized per-block merge.

    ``collect_evidence=False`` skips the ``pages`` evidence lists entirely —
    the shuffle then moves only (key, int) partials, a large win when the
    consumer only needs weights (measured ~2x on the sf0.1 co-occurrence
    query). ``bucket_keys`` may widen co-location (e.g. ``["src"]`` so a
    downstream per-src top-k can run in the SAME bucket task without a
    second shuffle — any prefix of (src,dst,rel) preserves key grouping).

    ``properties`` / ``source``: caller-supplied edge properties merged
    into every edge row as constant columns — the reference merges a
    free-form ``metadata`` dict plus a ``source`` tag into edge properties
    (`/root/reference/src/engine/process_social_media_images.py:133-134,
    179`). Keys colliding with computed columns are rejected.

    ``pre_filter`` (Table -> Table) is a key-level predicate pushed BELOW
    the shuffle: because edge weight for a key depends only on that key's
    own pair rows, any filter on (src, dst, rel) commutes with the
    aggregation. A single-node 1-hop query over fresh pairs then ships
    only the node's own partials through the exchange instead of the
    whole edge table (the classic predicate-pushdown plan)."""
    keys = bucket_keys or EDGE_KEYS
    if collect_evidence:
        partial_fn, merge_fn = partial_edge_agg, _merge_edges_bucket
    else:
        partial_fn, merge_fn = partial_edge_count, merge_edge_counts
    if pre_filter is not None:
        inner_partial = partial_fn

        def partial_fn(batch: pa.Table) -> pa.Table:  # noqa: F811
            return inner_partial(pre_filter(batch))
    extra = dict(properties or {})
    if source is not None:
        extra["source"] = source
    reserved = set(EDGE_KEYS) | {"weight", "pages", "evidence_truncated"}
    bad = reserved & set(extra)
    if bad:
        raise ValueError(f"edge property names collide with computed "
                         f"columns: {sorted(bad)}")
    if extra:
        inner = merge_fn

        def merge_fn(t: pa.Table) -> pa.Table:
            out = inner(t)
            for k in sorted(extra):
                out = out.append_column(
                    k, pa.array([extra[k]] * out.num_rows))
            return out

    partials = pairs_ds.map_batches(
        partial_fn, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )
    return bucketed_group_apply(partials, keys, merge_fn,
                                num_buckets=num_buckets)


def _attrs_canonical(arr: pa.Array) -> pa.Array:
    """attrs struct -> ATTRS_STRUCT, tolerating a different field ORDER
    (struct cast cannot reorder; callers like tests build attrs from
    Python dicts whose field order is arbitrary). The production arrays
    already match and pass through the cheap cast."""
    if arr.type == ATTRS_STRUCT:
        return arr
    try:
        return arr.cast(ATTRS_STRUCT)
    except pa.ArrowInvalid:
        pass
    except pa.ArrowTypeError:
        pass
    fields = [arr.field(f.name).cast(f.type) for f in ATTRS_STRUCT]
    mask = pc.is_null(arr)
    return pa.StructArray.from_arrays(fields, fields=list(ATTRS_STRUCT),
                                      mask=mask if pc.any(mask).as_py()
                                      else None)


def _partial_nodes(t: pa.Table) -> pa.Table:
    """Per-batch LWW partial for the node merge: one row per entity seen
    in the batch, carrying the ordering key (warc_ts, url, mention_id) of
    its LAST mention, that mention's attrs, and the batch's distinct
    surface forms. Associative: the global last mention is the last of
    the per-batch lasts, and the distinct-forms union is a union of
    unions — so the shuffle moves |entities| x |blocks| narrow partials
    instead of every flat mention row (measured: the nodes branch was the
    critical wave path at 800k pages before this combine)."""
    df = pd.DataFrame(
        {
            "entity_id": t["entity_id"].to_pandas(),
            "warc_ts": t["warc_ts"].to_pandas(),
            "url": t["url"].to_pandas(),
            "mention_id": t["mention_id"].to_pandas(),
            "form": t["form"].to_pandas(),
            "_i": range(t.num_rows),
        }
    )
    ordered = df.sort_values(["entity_id", "warc_ts", "url", "mention_id"])
    last = ordered.groupby("entity_id", sort=True).tail(1)
    # Arrow take, NOT to_pylist: converting every mention's attrs struct
    # to a Python dict to keep ~|entities| of them was the measured
    # hotspot of the whole nodes branch (9 s of a 28 s 16-CPU build)
    attrs = t["attrs"]
    if isinstance(attrs, pa.ChunkedArray):
        attrs = attrs.combine_chunks()
    sel = pa.array(last["_i"].to_numpy())
    forms = (df.groupby("entity_id", sort=True)["form"]
             .agg(lambda s: sorted(set(s))))
    eids = last["entity_id"].tolist()
    return pa.table(
        {
            "entity_id": pa.array(eids, type=pa.string()),
            "warc_ts": pa.array(last["warc_ts"].tolist(),
                                type=t.schema.field("warc_ts").type),
            "url": pa.array(last["url"].tolist(), type=pa.string()),
            "mention_id": pa.array(last["mention_id"].tolist(),
                                   type=pa.string()),
            "attrs": _attrs_canonical(attrs.take(sel)),
            "surface_forms": pa.array([forms[e] for e in eids],
                                      type=pa.list_(pa.string())),
        }
    )


def _merge_nodes_bucket(t: pa.Table) -> pa.Table:
    """Vectorized LWW merge of the entity PARTIALS of one or more buckets.

    The reference's node upsert overwrites ALL provided keys per record
    (SET p += full attrs dict), so the merged attrs record is the attrs of
    the LAST mention in (warc_ts, url, mention_id) order; surface forms
    collect sorted distinct across partials."""
    df = pd.DataFrame(
        {
            "entity_id": t["entity_id"].to_pandas(),
            "warc_ts": t["warc_ts"].to_pandas(),
            "url": t["url"].to_pandas(),
            "mention_id": t["mention_id"].to_pandas(),
            "_i": range(t.num_rows),
        }
    )
    ordered = df.sort_values(["entity_id", "warc_ts", "url", "mention_id"])
    last = ordered.groupby("entity_id", sort=True).tail(1)
    attrs = t["attrs"]
    if isinstance(attrs, pa.ChunkedArray):
        attrs = attrs.combine_chunks()
    sel = pa.array(last["_i"].to_numpy())
    forms_col = t["surface_forms"].to_pylist()
    forms: dict[str, set] = {}
    for e, fl in zip(df["entity_id"], forms_col):
        forms.setdefault(e, set()).update(fl)
    eids = last["entity_id"].tolist()
    return pa.table(
        {
            "entity_id": pa.array(eids, type=pa.string()),
            "attrs": _attrs_canonical(attrs.take(sel)),
            "surface_forms": pa.array([sorted(forms[e]) for e in eids],
                                      type=pa.list_(pa.string())),
        }
    )


def merge_nodes(linked_flat_ds, *, num_buckets: int = 64,
                batch_size: int = 16384):
    """flat linked mentions -> nodes table (one row per entity).

    Partial-combine-then-bucketed-merge (G4): the exchange carries only
    per-batch entity partials, never the flat mention rows."""
    partials = linked_flat_ds.map_batches(
        lambda t: _partial_nodes(
            t.filter(t["entity_id"].combine_chunks().is_valid())),
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True,
    )
    return bucketed_group_apply(partials, ["entity_id"], _merge_nodes_bucket,
                                num_buckets=num_buckets)
