"""Stage 5: per-page co-occurrence pair generation (G1) + mention explode.

Reference semantics being re-expressed
(`/root/reference/src/engine/process_social_media_images.py:113-146`):

- only pages with >= 2 linked entities produce pairs (line 113);
- all unordered pairs i<j of the page's DISTINCT linked entity ids
  (entity set deduped, deterministic ascending order before pairing);
- relation type (lines 121-131, via the id->category lookup J3): both
  categories known and equal -> ``complemented_by``; different or either
  missing -> ``worn_with``;
- BOTH directions are written with identical properties (lines 135-146).

Pair generation is a flat-map over the page-mentions list column — all
mentions of a page live in one row, so no shuffle and no cross-block
hazard. The category lookup is a broadcast small-side join (taxonomy
<< pages).

``group_pairs`` and ``pair_relations`` are the package's one G1 kernel
and one relation rule: every co-group pair fan-out in the engine (LSH
and SimHash buckets, prefix-gram blocks, the TPC-H order analog)
composes them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..vocab import REL_COMPLEMENTED_BY, REL_WORN_WITH

PAIRS_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("dst", pa.string()),
        ("rel", pa.string()),
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
    ]
)


def rel_type(cat_a: str | None, cat_b: str | None) -> str:
    if cat_a and cat_b and cat_a == cat_b:
        return REL_COMPLEMENTED_BY
    return REL_WORN_WITH


def pair_relations(a, b, category) -> np.ndarray:
    """``rel_type`` over arrays: one relation per pair ``(a[i], b[i])``.
    ``category`` is a ``pd.Series`` id -> category; an id missing from
    it, or a null or empty category, never counts as equal."""
    import pandas as pd

    ca = pd.Series(a).map(category)
    cb = pd.Series(b).map(category).to_numpy()
    same = (ca.notna().to_numpy() & (ca.to_numpy() != "")
            & (ca.to_numpy() == cb))
    return np.where(same, REL_COMPLEMENTED_BY, REL_WORN_WITH)


def group_pairs(groups, ids, *, cap: int | None = None):
    """G1, the co-group pair kernel: every unordered pair ``a < b`` of
    the distinct ids that share a group -> ``(group, a, b)`` numpy arrays.

    ``groups``/``ids`` are parallel numpy arrays or pandas Series (a
    page's entities, an LSH bucket's docs, an order's parts). Repeated
    ``(group, id)`` rows count once. ``cap`` keeps only the ``cap``
    smallest distinct ids of each group, so one huge bucket cannot fan
    out O(n^2). A pandas self-merge on the group with an ``a < b`` mask,
    all in C kernels: a per-page Python double loop measured 8.8 s of the
    800k-page bench build. A pair shared by several groups comes out
    once per group."""
    import pandas as pd

    df = pd.DataFrame({"g": np.asarray(groups),
                       "id": np.asarray(ids)}).drop_duplicates()
    if cap is not None:
        df = df.sort_values(["g", "id"], kind="mergesort")
        df = df[df.groupby("g").cumcount() < cap]
    m = df.merge(df, on="g")
    m = m[m["id_x"] < m["id_y"]]
    return m["g"].to_numpy(), m["id_x"].to_numpy(), m["id_y"].to_numpy()


_CAT_CACHE: dict = {}


def _category_series(taxonomy_ref):
    """id -> category ``pd.Series``, memoized per worker process (``ray.get``
    of a broadcast ref is plasma-cached, but the Series build from a
    |taxonomy|-entry dict is also skipped)."""
    import pandas as pd

    key = (taxonomy_ref.hex() if hasattr(taxonomy_ref, "hex")
           else id(taxonomy_ref))
    hit = _CAT_CACHE.get(key)
    if hit is not None:
        return hit
    tax = taxonomy_ref
    if not isinstance(tax, pa.Table):
        import ray

        tax = ray.get(taxonomy_ref)
    cat = pd.Series(dict(zip(tax["entity_id"].to_pylist(),
                             tax["category"].to_pylist())))
    _CAT_CACHE.clear()
    _CAT_CACHE[key] = cat
    return cat


class PairGenerator:
    """Callable stage: linked page_mentions -> pair rows (both directions).

    Deliberately run as a TASK stage, not an actor pool (see
    ``generate_pairs``): its only state is the id->category Series, which
    is memoized per worker process — a third actor pool here starved small
    clusters of task CPUs (observed deadlock at num_cpus=4 with fixed-size
    detector+linker pools)."""

    def __init__(self, taxonomy_ref):
        self._cat_series = _category_series(taxonomy_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Flatten the mentions column, keep linked entities, then
        # ``group_pairs`` on the page index.
        col = batch["mentions"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values if len(col) else None
        if flat is None or len(flat) == 0:
            return PAIRS_SCHEMA.empty_table()
        parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
        ents = flat.field("entity_id").to_pandas()
        # reference drops unlinked mentions; '' never occurs but the old
        # truthiness check excluded it too
        keep = (ents.notna() & (ents != "")).to_numpy()
        pi, a, b = group_pairs(parent[keep], ents.to_numpy()[keep])
        if len(pi) == 0:
            return PAIRS_SCHEMA.empty_table()
        rel = pair_relations(a, b, self._cat_series)
        urls = batch["url"]
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        tss = batch["warc_ts"]
        if isinstance(tss, pa.ChunkedArray):
            tss = tss.combine_chunks()
        pi = pa.array(np.concatenate([pi, pi]))
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.string()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.string()),
                "rel": pa.array(np.concatenate([rel, rel]),
                                type=pa.string()),
                "url": pc.take(urls, pi),
                "warc_ts": pc.take(tss, pi),
            },
            schema=PAIRS_SCHEMA,
        )


def generate_pairs(linked_ds, taxonomy_ref):
    def pairs_fn(batch: pa.Table) -> pa.Table:
        return PairGenerator(taxonomy_ref)(batch)

    return linked_ds.map_batches(
        pairs_fn,
        batch_format="pyarrow",
        batch_size=1024,
        zero_copy_batch=True,
    )


def explode_mentions_batch(batch: pa.Table) -> pa.Table:
    """Vectorized unnest of the mentions list column: one output row per
    mention, page columns repeated via take on list_parent_indices."""
    arr = batch["mentions"]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    parent = pc.list_parent_indices(arr)
    flat = pc.list_flatten(arr)
    cols: dict[str, pa.Array] = {}
    for name in batch.schema.names:
        if name == "mentions":
            continue
        col = batch[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cols[name] = pc.take(col, parent)
    st = flat
    for field in st.type:
        cols[field.name] = st.field(field.name)
    return pa.table(cols)


def explode_mentions(linked_ds):
    """linked page_mentions -> flat mentions table (url, warc_ts, lang,
    mention fields..., attrs, entity_id, link_score)."""
    return linked_ds.map_batches(
        explode_mentions_batch, batch_format="pyarrow",
        batch_size=1024, zero_copy_batch=True,
    )
