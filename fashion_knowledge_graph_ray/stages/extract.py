"""Stage 1: HTML -> text extraction + page dedup.

Reference analog: document load + normalization
(`/root/reference/src/engine/image_processor.py:63-87`). Stateless
``map_batches`` over zero-copy Arrow batches; the wide ``html`` column is
dropped in the same stage so every downstream block is narrow (SURVEY.md
§7.4 "Wide records").
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.html import extract_text


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """Arrow-in/Arrow-out kernel: fill ``text`` from ``html`` where the
    ``text`` column is null, then drop ``html``.

    The input contract (BASELINE.json input_hint) says ``text`` may be
    pre-extracted; rows where it is null are extracted here. When both are
    present we *recompute* only if ``text`` is null — the per-url
    byte-identity invariant is enforced by tests comparing recomputation
    against the golden column.
    """
    html_col = batch.column("html")
    text_col = batch.column("text")
    nulls = pc.is_null(text_col)
    if pc.any(nulls).as_py():
        texts = text_col.to_pylist()
        htmls = html_col.to_pylist()
        out = [
            extract_text(h) if t is None else t
            for t, h in zip(texts, htmls)
        ]
        text_col = pa.array(out, type=pa.string())
        batch = batch.set_column(batch.schema.get_field_index("text"),
                                 "text", text_col)
    return batch.drop_columns(["html"])


def _dedup_urls_bucket(t: pa.Table) -> pa.Table:
    # keep-first by (warc_ts, url): reference G7 `drop_duplicates` keeps the
    # first occurrence (`/root/reference/src/engine/data_preprocessing.py:75-79`);
    # our deterministic order is earliest capture wins. Vectorized within
    # the bucket: sort + first-of-run.
    import numpy as np

    idx = pc.sort_indices(t, sort_keys=[("url", "ascending"),
                                        ("warc_ts", "ascending")])
    t = t.take(idx)
    if t.num_rows <= 1:
        return t
    urls = np.asarray(t["url"].to_pandas())
    mask = np.concatenate(([True], urls[1:] != urls[:-1]))
    return t.filter(pa.array(mask))


def dedup_pages(ds):
    """Exact dedup by ``url``, keep earliest ``warc_ts`` (G7 analog).

    Hash-bucket shuffle on the key + vectorized first-of-run per block —
    the exact-dedup shape at scale (see stages/bucketed.py)."""
    from .bucketed import bucketed_group_apply

    return bucketed_group_apply(ds, ["url"], _dedup_urls_bucket)
