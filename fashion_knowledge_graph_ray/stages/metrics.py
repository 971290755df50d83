"""G9: value-counts metrics stage.

The reference computes per-class mask statistics (pixel counts / label
histograms) as build-side metrics
(`/root/reference/src/models/segmentation_model.py:173-206`). The engine
analog counts mention labels (and any other categorical column) with the
standard partial-combine + bucketed-merge shape, and feeds the per-partition
label histogram into the lineage manifests / metrics.json
(pipelines/resumable.py)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .bucketed import bucketed_aggregate, bucketed_group_apply


def value_counts(ds, col: str):
    """Dataset -> (value, n) counts of ``col``: one keyed ``count_all``
    aggregate (a hot value ships one int row per block). Nulls are counted
    under the value NULL, matching ``pc.value_counts``."""
    return bucketed_aggregate(
        ds.select_columns([col]).rename_columns({col: "value"}),
        ["value"], {"n": ("value", "count_all")})


def source_stats(docs_ds, *, source_col: str = "source",
                 text_col: str = "text", chars_col: str = "n_chars",
                 lang_col: str = "lang"):
    """Per-source (per-domain analog) corpus health report — the
    aggregate a web-curation pipeline runs before deciding what to keep
    per provenance bucket.

    Output per source: ``(source, n_docs, sum_tokens, avg_chars_milli,
    n_langs)`` with ``avg_chars_milli = (1000 * Σ n_chars) // n_docs``
    (integer per-mille so the value hash-compares across engines —
    the tf-idf/BM25 quantization rule) and ``n_langs`` the exact
    distinct language count.

    Scale shape: per-batch partials reduce each source to one row
    carrying (count, token sum, char sum, distinct-lang set as a
    sorted separator-joined string — web corpora have ≤ tens of langs
    per source, so the set rides small); one bucketed merge sums and
    unions. Sources are the classic Zipf key (a handful of giant
    domains) but the partial-combine bounds any source to one row per
    block — the standard hot-key posture of this engine."""
    from ..functions.textstats import tokens

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({
            "source": t[source_col].to_pandas(),
            "tok": [len(tokens(x)) for x in t[text_col].to_pylist()],
            "chars": t[chars_col].to_pandas(),
            "lang": t[lang_col].to_pandas(),
        })
        g = df.groupby("source", sort=True).agg(
            n_docs=("tok", "size"), sum_tokens=("tok", "sum"),
            sum_chars=("chars", "sum"),
            langs=("lang", lambda s: "\x1f".join(
                sorted(set(x for x in s if x is not None)))),
        ).reset_index()
        return pa.table({
            "source": pa.array(g["source"], type=pa.string()),
            "n_docs": pa.array(g["n_docs"], type=pa.int64()),
            "sum_tokens": pa.array(g["sum_tokens"], type=pa.int64()),
            "sum_chars": pa.array(g["sum_chars"], type=pa.int64()),
            "langs": pa.array(g["langs"], type=pa.string()),
        })

    def merge(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({c: t[c].to_pandas() for c in t.column_names})
        g = df.groupby("source", sort=True).agg(
            n_docs=("n_docs", "sum"), sum_tokens=("sum_tokens", "sum"),
            sum_chars=("sum_chars", "sum"),
            langs=("langs", lambda s: set().union(
                *[set(x.split("\x1f")) - {""} for x in s])),
        ).reset_index()
        return pa.table({
            "source": pa.array(g["source"], type=pa.string()),
            "n_docs": pa.array(g["n_docs"], type=pa.int64()),
            "sum_tokens": pa.array(g["sum_tokens"], type=pa.int64()),
            "avg_chars_milli": pa.array(
                (1000 * g["sum_chars"]) // g["n_docs"], type=pa.int64()),
            "n_langs": pa.array([len(x) for x in g["langs"]],
                                type=pa.int64()),
        })

    partials = docs_ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True)
    return bucketed_group_apply(partials, ["source"], merge)


def mention_label_counts(linked_dir: str) -> dict[str, int]:
    """Per-partition label histogram of a written ``linked/part=i`` dir —
    the manifest-side G9 metric. Vectorized: flatten the mentions list
    column, value-count the label subfield. Cost is bounded by one
    partition's output (the same unit the resume model already re-reads
    for fingerprints)."""
    import os

    import pyarrow.parquet as pq

    counts: dict[str, int] = {}
    for f in sorted(os.listdir(linked_dir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(linked_dir, f), columns=["mentions"])
        col = t["mentions"].combine_chunks()
        if len(col) == 0:
            continue
        labels = pc.list_flatten(col).field("label")
        vc = pc.value_counts(labels)
        for v, n in zip(vc.field("values").to_pylist(),
                        vc.field("counts").to_pylist()):
            key = v if v is not None else "<null>"
            counts[key] = counts.get(key, 0) + n
    return dict(sorted(counts.items()))
