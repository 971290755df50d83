"""Composed web-corpus curation pipeline (C4/Gopher/FineWeb shape).

The reference has no corpus-curation stage — its only text hygiene is an
exact ``drop_duplicates``
(`/root/reference/src/engine/data_preprocessing.py:75-79`). This is the
task-brief training-data addition: the standard pre-training filter chain
a web crawl goes through before export, composed from the engine's
text-analysis and dedup stages:

    language gate (n-gram marker langid)
    -> quality gates (token count, stopword ratio, mean token length)
    -> repetition gates (duplicate-line fraction, top-bigram fraction)
    -> exact dedup (content md5, keep min id)
    -> optional MinHash-LSH near-dedup (keep cluster representative)

Scale shape (100 TB):
- ONE text scan computes every per-document signal (tokens are extracted
  once and reused for count/stopwords/langid/bigrams) and the gates apply
  in the same batch — unkept rows never leave the scan task;
- the only exchange is the exact-dedup min-id reduction, and it carries
  survivor STAT rows only (the text column is dropped before the shuffle
  unless the near-dedup stage still needs it);
- the optional near-dedup stage reuses ``stages.dedup.minhash_dedup``
  (banded LSH, verified pairs, distributed connected components) over the
  already-reduced survivor set.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa

from ..functions.textstats import (
    LANG_MARKERS,
    STOPWORDS,
    fingerprint_md5,
    line_dup_stats,
    tokens,
    ws_free_len,
)
from ..stages.bucketed import bucketed_group_apply

_STAT_FIELDS = [
    ("n_tokens", pa.int64()),
    ("stop_ratio", pa.float64()),
    ("mean_token_len", pa.float64()),
    ("dup_line_frac", pa.float64()),
    ("top_bigram_frac", pa.float64()),
]


def _doc_signals(text: str) -> dict:
    """Every curation signal from ONE tokenization pass. Each expression
    matches its standalone kernel in functions/textstats.py (and therefore
    the oracle SQL) bit-for-bit."""
    toks = tokens(text)
    low = [t.lower() for t in toks]
    nt = len(toks)
    n_stop = sum(1 for t in low if t in _SW)
    lang_hits = {lg: sum(1 for t in low if t in mk)
                 for lg, mk in _MARKER_SETS.items()}
    best = max(sorted(lang_hits), key=lambda k: lang_hits[k])
    if nt < 2:
        top_bg = 0.0
    else:
        top_bg = max(Counter(zip(toks, toks[1:])).values()) / (nt - 1)
    n_lines, dup_frac = line_dup_stats(text)
    return {
        "n_tokens": nt,
        "stop_ratio": (n_stop / nt) if nt else 0.0,
        "mean_token_len": (ws_free_len(text) / nt) if nt else 0.0,
        "dup_line_frac": dup_frac,
        "top_bigram_frac": top_bg,
        "pred_lang": best if lang_hits[best] > 0 else "und",
        "md5": fingerprint_md5(text),
    }


_SW = set(STOPWORDS)
_MARKER_SETS = {lg: set(mk) for lg, mk in LANG_MARKERS.items()}


def curate_corpus(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  lang: str = "en",
                  min_tokens: int = 25, max_tokens: int = 90,
                  min_stop_ratio: float = 0.01,
                  max_mean_token_len: float = 10.0,
                  max_dup_line_frac: float = 0.4,
                  max_top_bigram_frac: float = 0.08,
                  near_dedup: bool = False, minhash_threshold: float = 0.7):
    """Documents -> curated survivors with their signal columns.

    Returns (id, md5, n_tokens, stop_ratio, mean_token_len,
    dup_line_frac, top_bigram_frac); exactly one row per distinct
    surviving text (the minimum id wins, deterministic under any
    partitioning). With ``near_dedup=True`` a MinHash-LSH pass then keeps
    only each near-dup cluster's representative (min member id)."""

    def stats_gate(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        sigs = [_doc_signals(x) for x in texts]
        keep = [
            i for i, s in enumerate(sigs)
            if s["pred_lang"] == lang
            and min_tokens <= s["n_tokens"] <= max_tokens
            and s["stop_ratio"] >= min_stop_ratio
            and s["mean_token_len"] <= max_mean_token_len
            and s["dup_line_frac"] <= max_dup_line_frac
            and s["top_bigram_frac"] <= max_top_bigram_frac
        ]
        cols = {
            id_col: t[id_col].take(pa.array(keep, type=pa.int64())),
            "md5": pa.array([sigs[i]["md5"] for i in keep],
                            type=pa.string()),
        }
        for name, typ in _STAT_FIELDS:
            cols[name] = pa.array([sigs[i][name] for i in keep], type=typ)
        if near_dedup:  # text must survive to feed the minhash stage
            cols[text_col] = t[text_col].take(
                pa.array(keep, type=pa.int64()))
        return pa.table(cols)

    def pick_min(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values([id_col], kind="mergesort")
        return pa.Table.from_pandas(df.drop_duplicates("md5"),
                                    preserve_index=False).cast(t.schema)

    gated = ds.map_batches(stats_gate, batch_format="pyarrow",
                           batch_size=4096, zero_copy_batch=True)
    # partial per batch, min-id merge per md5 bucket — one exchange
    partial = gated.map_batches(pick_min, batch_format="pyarrow",
                                zero_copy_batch=True)
    deduped = bucketed_group_apply(partial, ["md5"], pick_min)
    if not near_dedup:
        return deduped

    from ..stages.dedup import minhash_dedup

    deduped = deduped.materialize()  # feeds both minhash passes below
    comp = minhash_dedup(deduped, text_col=text_col, id_col=id_col,
                         threshold=minhash_threshold)

    # Drop NON-representatives (id != component, the cluster label being
    # the min member id). The driver-collected set is the near-dup
    # MEMBERS only — candidate-sized, a sliver of the corpus by the same
    # documented assumption as candidate_pairs' sparse regime — never the
    # full survivor id list.
    def nonreps(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"__drop": t.filter(
            pc.invert(pc.equal(t["id"], t["component"])))["id"]})

    drop_ids = set(
        r["__drop"]
        for r in comp.map_batches(nonreps, batch_format="pyarrow",
                                  zero_copy_batch=True).take_all())

    import ray

    ref = ray.put(drop_ids) if ray.is_initialized() else drop_ids

    def keep_reps(t: pa.Table) -> pa.Table:
        ids = ray.get(ref) if not isinstance(ref, set) else ref
        mask = pa.array([str(v) not in ids for v in t[id_col].to_pylist()])
        return t.filter(mask).drop_columns([text_col])

    return deduped.map_batches(keep_reps, batch_format="pyarrow",
                               zero_copy_batch=True)
