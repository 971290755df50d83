"""The end-to-end training-set materialization pipeline — the
composition the whole corpus-hygiene suite exists for:

    documents
      → language + length gate            (stages/textstats langid)
      → exact dedup (first doc per text)  (stages/dedup exact_dedup)
      → benchmark decontamination         (stages/decontam)
      → stratified source mixing          (stages/decontam rate_sample)
      → GPT-style sequence packing        (stages/corpus pack_bins)

Output: one row per surviving document — ``(doc_id, n_tokens,
start_offset, bin_id)`` — the shard assignment a trainer consumes.

Every stage is deterministic and SQL-mirrorable, so the WHOLE
composition is hash-checked against a single DuckDB query
(``training_set_docs``). No stage materializes the corpus on the
driver: the gates are stateless batch filters, the dedup winner set
joins back via a hash-shuffle (both sides large), the benchmark gram
set and strata cuts broadcast, and packing is the three-step
distributed prefix sum documented in stages/corpus.py.

Reference analog: none — the reference has no corpus-preparation path;
this is the task-brief training-data pipeline expressed as ONE Dataset
program (the analog of its catalog-ETL composition,
`/root/reference/src/engine/data_preprocessing.py:106-128`, at corpus
scale).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.textstats import predict_lang, tokens
from ..stages.corpus import pack_bins
from ..stages.decontam import decontaminate, rate_sample
from ..stages.dedup import exact_dedup
from ..stages.relational import shuffle_join


def prepare_training_set(docs_ds, benchmark_grams: frozenset,
                         rates: dict, *, text_col: str = "text",
                         id_col: str = "doc_id",
                         source_col: str = "source",
                         lang: str = "en", min_tokens: int = 25,
                         max_tokens: int = 90, budget: int = 512,
                         default_rate: float = 0.1,
                         ngram_n: int = 5, threshold_pct: int = 10):
    """Materialize the training-set shard map (see module docstring)."""

    def gate(t: pa.Table) -> pa.Table:
        mask = []
        for txt in t[text_col].to_pylist():
            n = len(tokens(txt))
            mask.append(min_tokens <= n <= max_tokens
                        and predict_lang(txt) == lang)
        return t.filter(pa.array(mask, type=pa.bool_()))

    # materialized: both the dedup winner pass and the join's left side
    # consume gated, and un-materialized lineage re-executes per consumer
    # (the per-row langid/token gate is the hot loop — run it once)
    gated = docs_ds.map_batches(gate, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()

    # exact dedup: winners = min id per distinct text; join back on id
    # (shuffle join — both sides are corpus-sized)
    winners = exact_dedup(gated, text_col=text_col, id_col=id_col).map_batches(
        lambda t: t.select([id_col]), batch_format="pyarrow",
        zero_copy_batch=True)
    deduped = shuffle_join(gated, winners, id_col, id_col)

    scored = decontaminate(deduped, benchmark_grams, text_col=text_col,
                           id_col=id_col, n=ngram_n,
                           threshold_pct=threshold_pct, passthrough=True)
    clean = scored.map_batches(
        lambda t: t.filter(pa.compute.invert(t["contaminated"]))
        .drop_columns(["ngrams_total", "ngrams_hit", "contaminated"]),
        batch_format="pyarrow", zero_copy_batch=True)

    mixed = rate_sample(clean, rates, key_col=source_col, id_col=id_col,
                        default_rate=default_rate)

    return pack_bins(mixed, budget, text_col=text_col, id_col=id_col)
