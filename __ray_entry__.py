"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the library) calls ``ray.init``/``ray.shutdown``.

- ``entry()`` — flagship KG-build pipeline on /root/testdata/sf0.001.
- ``queries()`` — one callable per implemented operator/pipeline
  (SURVEY.md §2 inventory + training-data additions).
- ``oracle_sql()`` — DuckDB-runnable ANSI SQL equivalents over the
  pre-registered views (region nation customer supplier part orders
  lineitem events documents embeddings). Queries whose semantics are not
  SQL-expressible (embedding-mode linking, MinHash/SimHash clustering,
  LSH-approximate ANN) are intentionally absent -> rows-only check.

Column names match between each Ray result and its SQL 1:1 (the driver's
compare sorts columns by name and hashes values). Floating-point columns
appear only where both engines compute the identical IEEE expression
per row (no order-dependent float accumulation is ever compared).
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

from fashion_knowledge_graph_ray.functions.vectors import list_to_matrix

EPOCH_2025 = 1_735_689_600_000_000


# ── helpers ──────────────────────────────────────────────────────────────

def _read(sf_dir: str, table: str, columns=None, blocks: int | None = None):
    """Column-pruned parquet read. ``blocks`` forces the single-file
    testdata tables to split into that many read blocks — REQUIRED before
    CPU-heavy per-doc stages (minhash, simhash, textstats): with the
    default 128 MiB target block size a ~50 MB file is ONE block and the
    whole stage would run as one task (observed in ds.stats())."""
    import ray.data as rd

    kw = {"columns": list(columns)} if columns else {}
    if blocks:
        kw["override_num_blocks"] = blocks
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), **kw)


def _pad6(n: int) -> str:
    return f"p{n:06d}"


def _as_table(ds, schema: pa.Schema) -> pa.Table:
    """Materialize a small/possibly-empty result with an explicit schema —
    an empty Dataset's to_pandas() loses column names, which would fail the
    driver's schema compare."""
    rows = ds.take_all()
    if not rows:
        return schema.empty_table()
    return pa.Table.from_pylist(rows, schema=schema)


def _kg_outdir(sf_dir: str, tag: str) -> str:
    sf = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    return f"/tmp/fkgr_entry/{sf}_{tag}"


_KG_CACHE: dict[tuple[str, str], Any] = {}


def _build_kg(sf_dir: str, link_mode: str, *, canonicalize: bool = False):
    """Full KG pipeline over pages derived from the documents table.

    Memoized per (sf_dir, variant) within the process: six query
    callables consume the same build's tables, and the driver invokes them
    all in one session — rebuilding identical outputs per call would just
    re-measure the build six times."""
    import ray

    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.pipelines.build_graph import build_graph
    from fashion_knowledge_graph_ray.sources.pages import pages_from_documents

    tag = link_mode + ("_canon" if canonicalize else "")
    key = (os.path.normpath(sf_dir), tag)
    hit = _KG_CACHE.get(key)
    if hit is not None:
        return hit
    tax = gen_taxonomy(42)
    pages = pages_from_documents(sf_dir)  # text=None -> extract from html
    res = build_graph(pages, tax, _kg_outdir(sf_dir, tag),
                      link_mode=link_mode, canonicalize=canonicalize)
    _KG_CACHE[key] = res
    return res


# ── entry ────────────────────────────────────────────────────────────────

def entry() -> Any:
    """Flagship pipeline on sf0.001; returns the triples Dataset."""
    res = _build_kg("/root/testdata/sf0.001", "embedding")
    return res.dataset("triples")


# ── queries ──────────────────────────────────────────────────────────────

def _q_groupby_count(sf_dir: str):
    # G2-shape grouped aggregate with in-batch partial combine (no float
    # accumulation in the compared output: integral qty + count only).
    from fashion_knowledge_graph_ray.stages.bucketed import bucketed_aggregate

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])
    return bucketed_aggregate(li, ["l_returnflag", "l_linestatus"],
                              {"sum_qty": ("l_quantity", "sum"),
                               "n": ("l_quantity", "count")})


def _part_cat_map(sf_dir: str) -> dict[int, str]:
    import pyarrow.parquet as pq

    p = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                      columns=["p_partkey", "p_type"])
    return dict(zip(p["p_partkey"].to_pylist(), p["p_type"].to_pylist()))


def _order_pairs(sf_dir: str, only_partkey: int | None = None):
    """Per-order co-occurring part pairs (G1 on the TPC-H analog): the
    exact pair-generation + rel-rule operator over (order=page,
    part=entity, p_type=category).

    ``only_partkey`` is a SEMI-JOIN pushdown for single-node 1-hop
    queries: only orders containing the part can produce its edges, so
    one pruned scan collects those orderkeys (bounded by the part's
    popularity — ~|lineitem|/|part| rows), broadcasts the set, and the
    pair self-merge runs over that sliver instead of every order."""
    import pandas as pd
    import ray

    from fashion_knowledge_graph_ray.stages.bucketed import bucketed_group_apply
    from fashion_knowledge_graph_ray.stages.pairs import (
        group_pairs,
        pair_relations,
    )

    cat = pd.Series(_part_cat_map(sf_dir))
    ref = ray.put(cat) if ray.is_initialized() else cat

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    if only_partkey is not None:
        import pyarrow.compute as pc

        sel = li.map_batches(
            lambda t: t.filter(pc.equal(t["l_partkey"], only_partkey))
                       .select(["l_orderkey"]),
            batch_format="pyarrow", zero_copy_batch=True)
        oks = np.unique(np.array(
            [r["l_orderkey"] for r in sel.take_all()], dtype=np.int64))
        okref = ray.put(oks) if ray.is_initialized() else oks

        def keep(t: pa.Table) -> pa.Table:
            o = okref if isinstance(okref, np.ndarray) else ray.get(okref)
            return t.filter(pc.is_in(t["l_orderkey"], value_set=pa.array(o)))

        li = li.map_batches(keep, batch_format="pyarrow",
                            zero_copy_batch=True)

    def distinct(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_orderkey", "l_partkey"]).aggregate([])
        return g

    partials = li.map_batches(distinct, batch_format="pyarrow",
                              zero_copy_batch=True)

    def pairs_bucket(t: pa.Table) -> pa.Table:
        # the package's G1 kernel and relation rule per order bucket
        m = ray.get(ref) if not isinstance(ref, pd.Series) else ref
        ok, pk_a, pk_b = group_pairs(
            t["l_orderkey"].to_numpy(zero_copy_only=False),
            t["l_partkey"].to_numpy(zero_copy_only=False))
        if len(ok) == 0:
            # a bucket of single-part orders: _pad6 over an empty int64
            # array keeps int64, so the typed string arrays below would
            # raise — emit the empty table with the declared schema
            return pa.table({
                "src": pa.array([], type=pa.string()),
                "dst": pa.array([], type=pa.string()),
                "rel": pa.array([], type=pa.string()),
                "url": pa.array([], type=pa.string()),
                "warc_ts": pa.array([], type=pa.timestamp("us", tz="UTC")),
            })
        rel = pair_relations(pk_a, pk_b, m)
        sa = pd.Series(pk_a).map(_pad6).values
        sb = pd.Series(pk_b).map(_pad6).values
        ok = ok.astype(str)
        n = 2 * len(ok)
        return pa.table({
            "src": pa.array(np.concatenate([sa, sb]), type=pa.string()),
            "dst": pa.array(np.concatenate([sb, sa]), type=pa.string()),
            "rel": pa.array(np.concatenate([rel, rel]), type=pa.string()),
            "url": pa.array(np.concatenate([ok, ok]), type=pa.string()),
            "warc_ts": pa.array([EPOCH_2025] * n,
                                type=pa.timestamp("us", tz="UTC")),
        })

    return bucketed_group_apply(partials, ["l_orderkey"], pairs_bucket)


def _q_cooccur_edges(sf_dir: str):
    # count-only partials: the shuffle ships (key, int) rows, no evidence
    from fashion_knowledge_graph_ray.stages.aggregate import aggregate_edges

    return aggregate_edges(_order_pairs(sf_dir), collect_evidence=False)


def _q_edge_topk_per_node(sf_dir: str):
    # O1/J4: per-source top-3 neighbors by (weight DESC, dst ASC).
    # Bucketing the edge aggregation by src lets the top-k run inside the
    # SAME bucket task — one shuffle instead of two.
    from fashion_knowledge_graph_ray.stages.aggregate import (
        merge_edge_counts,
        partial_edge_count,
    )
    from fashion_knowledge_graph_ray.stages.bucketed import bucketed_group_apply

    partials = _order_pairs(sf_dir).map_batches(
        partial_edge_count, batch_format="pyarrow", zero_copy_batch=True)

    def merge_then_topk(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = merge_edge_counts(t).to_pandas()
        df = df.sort_values(["src", "weight", "dst"],
                            ascending=[True, False, True])
        df = df.groupby("src", sort=True).head(3)
        df["rank"] = df.groupby("src", sort=True).cumcount() + 1
        return pa.Table.from_pandas(df, preserve_index=False)

    return bucketed_group_apply(partials, ["src"], merge_then_topk)


def _q_attr_triples_part(sf_dir: str):
    # unpivot part attributes into (subj, pred, obj) triples
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"])

    def unpivot(t: pa.Table) -> pa.Table:
        subs, preds, objs = [], [], []
        for pk, br, ty, sz in zip(t["p_partkey"].to_pylist(),
                                  t["p_brand"].to_pylist(),
                                  t["p_type"].to_pylist(),
                                  t["p_size"].to_pylist()):
            s = _pad6(pk)
            subs += [s, s, s]
            preds += ["has_brand", "has_type", "has_size"]
            objs += [br, ty, str(sz)]
        return pa.table({"subj": pa.array(subs, type=pa.string()),
                         "pred": pa.array(preds, type=pa.string()),
                         "obj": pa.array(objs, type=pa.string())})

    return part.map_batches(unpivot, batch_format="pyarrow",
                            zero_copy_batch=True)


def _q_node_merge_lww(sf_dir: str):
    # G4 LWW merge: per customer, the status/price of the LAST order
    from fashion_knowledge_graph_ray.stages.relational import dedup_keep_first

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate",
                    "o_orderstatus", "o_totalprice"])
    last = dedup_keep_first(orders, "o_custkey",
                            ["o_orderdate", "o_orderkey"],
                            ascending=[False, False])
    return last.map_batches(
        lambda t: pa.table({
            "o_custkey": t["o_custkey"],
            "last_orderkey": t["o_orderkey"],
            "last_status": t["o_orderstatus"],
            "last_price": t["o_totalprice"],
        }),
        batch_format="pyarrow", zero_copy_batch=True)


def _q_anti_join_customers(sf_dir: str):
    # M2: customers with no HIGH-VALUE order (>350k — non-empty at every
    # sf, unlike the plain no-orders variant whose 0=0 match exercised
    # nothing). Routed by key-side size: at sf0.01+ the filtered orders
    # side exceeds max_broadcast_keys and takes the SHUFFLE anti-join
    # (groupby-anti, SURVEY.md §2.3 M2 large-side rule); tiny inputs
    # broadcast.
    import pyarrow.compute as pc

    from fashion_knowledge_graph_ray.stages.relational import anti_join_auto

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    hi = orders.map_batches(
        lambda t: pa.table({"o_custkey": t.filter(
            pc.greater(t["o_totalprice"], 350000.0))["o_custkey"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    out = anti_join_auto(cust, "c_custkey", hi, "o_custkey",
                         max_broadcast_keys=2000)
    return _as_table(out.map_batches(
        lambda t: t.select(["c_custkey", "c_name"]),
        batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())]))


def _q_filter_project_events(sf_dir: str):
    # M1 + M5: predicate filter + projection
    from fashion_knowledge_graph_ray.stages.relational import filter_in

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "value"])
    out = filter_in(ev, "event_type", ["click", "purchase"])
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "event_type", "value"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _q_valid_docs(sf_dir: str):
    # M4 existence/validity filter: non-null text of at least 200 chars
    import pyarrow.compute as pc

    from fashion_knowledge_graph_ray.stages.relational import filter_valid

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = filter_valid(docs, "text", min_len=200)
    return out.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "n_chars": pc.utf8_length(t["text"])
                            .cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)


def _q_grouped_sample_docs(sf_dir: str):
    # G6: deterministic per-group sample (md5 order = the seed)
    from fashion_knowledge_graph_ray.stages.relational import grouped_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"], blocks=64)
    out = grouped_sample(docs, "lang", 5, "doc_id")
    return out.map_batches(lambda t: t.select(["doc_id", "lang"]),
                           batch_format="pyarrow", zero_copy_batch=True)


def _q_exact_dedup_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.dedup import exact_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return exact_dedup(docs, text_col="text", id_col="doc_id")


def _q_inverted_index_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.corpus import inverted_index

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return inverted_index(docs)


def _clones(docs, upto: int, offset: int = 10_000):
    """Copies of the rows ``doc_id < upto`` re-keyed to ``doc_id + offset``
    — the planted-duplicate fixture augmentation (same device as
    ``_aug_embeddings``) so dedup queries exercise non-empty removal
    paths."""
    import pyarrow.compute as pc

    def clone(t: pa.Table) -> pa.Table:
        s = t.filter(pc.less(t["doc_id"], pa.scalar(upto)))
        return s.set_column(s.schema.get_field_index("doc_id"), "doc_id",
                            pc.add(s["doc_id"], pa.scalar(offset)))

    return docs.map_batches(clone, batch_format="pyarrow",
                            zero_copy_batch=True)


def _clone_docs(docs, upto: int, offset: int = 10_000):
    """``docs`` plus ``_clones(docs, upto, offset)``."""
    return docs.union(_clones(docs, upto, offset))


def _double_fifth(docs):
    """``docs`` with a second copy of its own text, on a new line, for
    every ``doc_id % 5 == 0`` (mirrored in the oracle SQL): the fixture
    corpus has no duplicate lines, so repetition signals would be
    0-variance."""
    import pyarrow.compute as pc

    def aug(t: pa.Table) -> pa.Table:
        # numpy modulo: pyarrow.compute has no mod kernel in this version
        dup = pa.array(t["doc_id"].to_numpy(zero_copy_only=False) % 5 == 0)
        doubled = pc.binary_join_element_wise(t["text"], t["text"], "\n")
        return pa.table({"doc_id": t["doc_id"],
                         "text": pc.if_else(dup, doubled, t["text"])})

    return docs.map_batches(aug, batch_format="pyarrow",
                            zero_copy_batch=True)


def _q_chunk_dedup_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.dedup import chunk_dedup

    docs = _clone_docs(
        _read(sf_dir, "documents", ["doc_id", "text"], blocks=64), 50)
    return chunk_dedup(docs, chunk_tokens=20)


def _q_incremental_dedup_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.dedup import incremental_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    old = docs.filter(expr="doc_id < 250")
    # new shard = genuinely-new rows + planted exact copies of 100 old ones
    new = docs.filter(expr="doc_id >= 250").union(_clones(docs, 100))
    out = incremental_dedup(new, old)
    return out.map_batches(lambda t: t.select(["doc_id"]),
                           batch_format="pyarrow", zero_copy_batch=True)


def _q_token_count_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    q = quality_scores(docs)
    return q.map_batches(lambda t: t.select(["doc_id", "n_tokens"]),
                         batch_format="pyarrow", zero_copy_batch=True)


def _q_repetition_docs(sf_dir: str):
    # Gopher repetition signals over the ``_double_fifth`` corpus —
    # otherwise dup_line_frac would be a 0-variance column and the hash
    # match would prove nothing, the same weakness as a 0-row query.
    from fashion_knowledge_graph_ray.stages.textstats import repetition_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return repetition_stats(_double_fifth(docs))


def _q_pii_scrub_docs(sf_dir: str):
    # PII scrubbing (emails -> IPv4 -> phones, RE2 on BOTH sides: pyarrow
    # kernels here, DuckDB regexp_* in the oracle). The fixture corpus
    # contains no PII, so every 7th doc gets a deterministic PII suffix
    # (mirrored in the oracle SQL) — otherwise all three count columns
    # would be 0-variance and the hash match would prove nothing.
    from fashion_knowledge_graph_ray.stages.scrub import scrub_pii

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)

    def aug(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        out = [
            ((x or "") + f" Contact a{d}@mail.example or 10.0.{d % 256}.7 "
             f"now +1 (555) 010-{d % 10000:04d}.") if d % 7 == 0 else x
            for d, x in zip(ids, texts)
        ]
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(out, type=pa.string())})

    return scrub_pii(docs.map_batches(aug, batch_format="pyarrow",
                                      zero_copy_batch=True))


def _q_curate_docs(sf_dir: str):
    # Composed corpus-curation pipeline (C4/Gopher shape): langid gate ->
    # quality gates -> repetition gates -> exact dedup keep-min-id. The
    # fixture is augmented so EVERY stage does real work: doubled text
    # for doc_id%5==0 (tripped by the dup-line gate) and a shifted-id
    # copy of doc_id<25 (tripped by the dedup keep-min rule) — both
    # mirrored in the oracle SQL.
    from fashion_knowledge_graph_ray.pipelines.curate import curate_corpus

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return curate_corpus(_clone_docs(_double_fifth(docs), 25, 100_000))


def _q_quality_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return quality_scores(docs)


def _q_quality_filter_docs(sf_dir: str):
    # C4-style quality gate composed from the stats stage: keep documents
    # with a sane token count, a non-degenerate stopword ratio and
    # plausible mean token length (the classic web-corpus pre-training
    # filter shape). Predicates run vectorized on the stats columns.
    import pyarrow.compute as pc

    from fashion_knowledge_graph_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    q = quality_scores(docs)

    def keep(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.greater_equal(t["n_tokens"], 40),
                    pc.less_equal(t["n_tokens"], 90)),
            pc.and_(pc.greater_equal(t["stop_ratio"], 0.01),
                    pc.less_equal(t["mean_token_len"], 10.0)))
        return t.filter(m).select(["doc_id", "n_tokens", "stop_ratio"])

    return q.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def _q_lang_id_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.textstats import lang_id

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return lang_id(docs)


def _q_top_tokens_docs(sf_dir: str):
    # the classic distributed word count, then the global top-50 by
    # (count DESC, token ASC)
    from fashion_knowledge_graph_ray.stages.corpus import corpus_token_counts
    from fashion_knowledge_graph_ray.stages.relational import topk

    docs = _read(sf_dir, "documents", ["text"], blocks=64)
    return topk(corpus_token_counts(docs), "n", 50, tie_col="token")


def _q_fingerprint_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.textstats import fingerprints

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    f = fingerprints(docs)
    return f.map_batches(lambda t: t.select(["doc_id", "md5"]),
                         batch_format="pyarrow", zero_copy_batch=True)


# stratified-sample rates shared by the Ray query and the generated SQL
# oracle (the dict IS the semantics; the CASE expression is built from it)
_STRATA_RATES = {"src0": 0.8, "src1": 0.5, "src2": 0.25}
_STRATA_DEFAULT = 0.1


def _q_decontam_docs(sf_dir: str):
    # benchmark decontamination: docs with doc_id % 20 == 0 play the eval
    # set; distinct-5-gram overlap >= 10% flags contamination. The
    # benchmark gram set is driver-built + broadcast (eval sets are tiny
    # vs the corpus); the corpus side is one stateless map_batches pass.
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.stages.decontam import (
        benchmark_gram_set,
        decontaminate,
    )

    bench_tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"])
    ids = bench_tbl["doc_id"].to_numpy()
    bench_tbl = bench_tbl.filter(pa.array(ids % 20 == 0))
    bench = benchmark_gram_set(bench_tbl["text"].to_pylist(), 5)
    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return decontaminate(docs, bench, n=5, threshold_pct=10)


def _q_stratified_sample_docs(sf_dir: str):
    # stratified deterministic Bernoulli downsampling by source (corpus
    # mixing): md5-threshold filter, stateless, no shuffle
    from fashion_knowledge_graph_ray.stages.decontam import rate_sample

    docs = _read(sf_dir, "documents", ["doc_id", "source"], blocks=64)
    return rate_sample(docs, _STRATA_RATES, key_col="source",
                       id_col="doc_id", default_rate=_STRATA_DEFAULT)


def _q_pack_bins_docs(sf_dir: str):
    # GPT-style sequence packing: concatenate docs in doc_id order, cut
    # every 512 tokens; bin = the cut containing the doc's first token.
    # Distributed prefix sum: one sort, per-block token totals to the
    # driver, offsets added per block (bucketed.prefix_scan)
    from fashion_knowledge_graph_ray.stages.corpus import pack_bins

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return pack_bins(docs, 512)


def _q_token_freq_docs(sf_dir: str):
    # CCNet-style corpus-statistics scoring: distributed word count ->
    # broadcast vocabulary -> batch-local integer-exact doc scores
    from fashion_knowledge_graph_ray.stages.corpus import token_freq_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return token_freq_scores(docs, rare_threshold=2)


# per-mille quantile targets shared by the Ray query and the generated
# SQL oracle (integer per-mille => pure integer rank arithmetic on both)
_QUANTILES_PERMILLE = [10, 250, 500, 900, 990]


def _q_asof_join_events(sf_dir: str):
    # as-of (backward) join: each event matched to the user's latest
    # order at or before the event time; one bucketed shuffle + per-
    # bucket merge_asof (DuckDB mirror: native ASOF JOIN)
    from fashion_knowledge_graph_ray.stages.relational import asof_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"], blocks=64)
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"], blocks=16)
    return asof_join(ev, orders, key="user_id", right_key="o_custkey",
                     left_time="ts", right_time="o_orderdate",
                     tie_col="o_orderkey")


def _q_kmeans_clusters_emb(sf_dir: str):
    # corpus clustering: seeded spherical k-means centroids (driver
    # sample, broadcast) + stateless batch-local assignment scan;
    # oracle = sequential-reference VALUES (_kmeans_expected_values)
    from fashion_knowledge_graph_ray.stages.ann import kmeans_assign

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=32)
    return kmeans_assign(emb, 8)


def _q_knn_graph_emb(sf_dir: str):
    # exact self-kNN regime (corpus under the broadcast gate); the IVF
    # regime is covered by the pytest full-probe == exact invariance test
    from fashion_knowledge_graph_ray.stages.ann import knn_graph

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=32)
    return knn_graph(emb, 5)


def _q_semantic_dedup_emb(sf_dir: str):
    # SemDeDup over embeddings + planted exact duplicates; oracle =
    # sequential-reference VALUES (_semantic_dedup_expected_values)
    from fashion_knowledge_graph_ray.stages.ann import semantic_dedup

    return semantic_dedup(_aug_embeddings(sf_dir), 0.95, 8)


def _q_hll_distinct_events(sf_dir: str):
    # approximate distinct users per event type (HyperLogLog, p=12);
    # oracle = sequential-reference VALUES — deterministic sketch, exact
    # register-for-register agreement, NOT a tolerance compare
    from fashion_knowledge_graph_ray.stages.sketches import hll_distinct

    ev = _read(sf_dir, "events", ["event_type", "user_id"], blocks=16)
    return hll_distinct(ev, ["event_type"], "user_id")


def _q_cms_counts_events(sf_dir: str):
    # count-min frequency estimates for the tracked event types; same
    # deterministic-sketch oracle story as hll_distinct_events
    from fashion_knowledge_graph_ray.stages.sketches import cms_counts

    ev = _read(sf_dir, "events", ["event_type"], blocks=16)
    return cms_counts(ev, "event_type",
                      ["click", "view", "purchase", "signup", "error"])


def _q_training_set_docs(sf_dir: str):
    # THE composition: lang/length gate -> exact dedup -> benchmark
    # decontamination -> stratified source mixing -> sequence packing,
    # hash-checked end-to-end against one DuckDB query
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.pipelines.prepare_training import (
        prepare_training_set,
    )
    from fashion_knowledge_graph_ray.stages.decontam import (
        benchmark_gram_set,
    )

    bench_tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"])
    bench_texts = [t for i, t in zip(bench_tbl["doc_id"].to_pylist(),
                                     bench_tbl["text"].to_pylist())
                   if i % 20 == 0]
    grams = benchmark_gram_set(bench_texts, 5)
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"],
                 blocks=64)
    return prepare_training_set(docs, grams, _STRATA_RATES,
                                default_rate=_STRATA_DEFAULT)


def _training_set_sql() -> str:
    """One composed DuckDB mirror of ``prepare_training_set`` — each CTE
    is the already-hash-verified expression of its stage's standalone
    oracle (langid, exact dedup, decontam, stratified sample, pack)."""
    strata_whens = " ".join(
        f"WHEN '{k}' THEN "
        f"'{format(min(int(r * (1 << 32)), (1 << 32) - 1), '08x')}'"
        for k, r in _STRATA_RATES.items())
    strata_default = format(
        min(int(_STRATA_DEFAULT * (1 << 32)), (1 << 32) - 1), "08x")
    markers = {
        "de": "['der', 'die', 'und', 'das', 'ein', 'nicht']",
        "en": "['the', 'and', 'of', 'is', 'to', 'a']",
        "es": "['el', 'la', 'los', 'que', 'y', 'de']",
        "fr": "['le', 'les', 'des', 'et', 'une', 'est']",
    }
    marker_cols = ", ".join(
        f"len(list_filter(ltoks, x -> list_contains({lst}, x))) AS {lg}"
        for lg, lst in markers.items())
    return rf"""
WITH lt AS (
  SELECT doc_id, text, source,
         CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(trim(text), '\s+') END
           AS rawtoks,
         list_transform(CASE WHEN trim(text) = '' THEN []
                        ELSE regexp_split_to_array(trim(text), '\s+')
                        END, x -> lower(x)) AS ltoks
  FROM documents
),
lgc AS (SELECT *, {marker_cols} FROM lt),
gated AS (
  SELECT doc_id, text, source, len(rawtoks) AS n_tokens, ltoks
  FROM lgc
  WHERE len(rawtoks) BETWEEN 25 AND 90
    AND greatest(de, en, es, fr) > 0
    AND NOT (de >= en AND de >= es AND de >= fr)
    AND en >= es AND en >= fr
),
win AS (SELECT min(doc_id) AS doc_id FROM gated GROUP BY md5(text)),
ded AS (SELECT g.* FROM gated g
        WHERE g.doc_id IN (SELECT doc_id FROM win)),
g5 AS (
  SELECT doc_id, unnest(list_distinct(list_transform(
           generate_series(1, len(ltoks) - 4),
           i -> array_to_string(ltoks[i:i+4], ' ')))) AS gram
  FROM ded WHERE len(ltoks) >= 5
),
bgr AS (
  SELECT DISTINCT unnest(list_distinct(list_transform(
           generate_series(1, len(w) - 4),
           i -> array_to_string(w[i:i+4], ' ')))) AS gram
  FROM (SELECT list_filter(string_split_regex(lower(text), '\s+'),
                           x -> x <> '') AS w
        FROM documents WHERE doc_id % 20 = 0)
  WHERE len(w) >= 5
),
tot AS (SELECT doc_id, count(*) AS ngrams_total FROM g5 GROUP BY 1),
hit AS (SELECT g5.doc_id, count(*) AS ngrams_hit
        FROM g5 JOIN bgr USING (gram) GROUP BY 1),
clean AS (
  SELECT d.doc_id, d.source, d.n_tokens
  FROM ded d
  LEFT JOIN tot ON d.doc_id = tot.doc_id
  LEFT JOIN hit ON d.doc_id = hit.doc_id
  WHERE NOT (coalesce(tot.ngrams_total, 0) > 0 AND
             coalesce(hit.ngrams_hit, 0) * 100 >=
             coalesce(tot.ngrams_total, 0) * 10)
),
mixed AS (
  SELECT doc_id, n_tokens FROM clean
  WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) <
        (CASE source {strata_whens} ELSE '{strata_default}' END)
),
packed AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS start_offset
  FROM mixed
)
SELECT doc_id, n_tokens, CAST(start_offset AS BIGINT) AS start_offset,
       CAST(start_offset // 512 AS BIGINT) AS bin_id
FROM packed"""


_BM25_TERMS = ["spark", "vector", "window"]


def _q_bm25_topk_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.corpus import bm25_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return bm25_topk(docs, _BM25_TERMS, 20)


def _bm25_sql() -> str:
    """SQL mirror of the integer BM25 (k1=1200, b=750 per-mille) — every
    subexpression is the identical BIGINT floor arithmetic, so the
    ranking hash-matches bit-for-bit."""
    w_expr = (r"CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[]) "
              r"ELSE regexp_split_to_array(trim(text), '\s+') END")
    dfs = ", ".join(
        f"(SELECT count(*) FROM st WHERE list_contains(w, '{w}')) AS df_{i}"
        for i, w in enumerate(_BM25_TERMS))
    score_terms = " + ".join(
        f"(CASE WHEN len(list_filter(w, x -> x = '{w}')) > 0 "
        f"AND df_{i} > 0 THEN "
        f"((1000 * n) // df_{i}) * "
        f"(len(list_filter(w, x -> x = '{w}')) * 2200) // "
        f"(len(list_filter(w, x -> x = '{w}')) * 1000 + "
        f"(1200 * (250 + (750 * dl) // avgdl)) // 1000) ELSE 0 END)"
        for i, w in enumerate(_BM25_TERMS))
    return f"""
WITH t AS (SELECT doc_id, {w_expr} AS w FROM documents),
st AS (SELECT doc_id, w, len(w) AS dl FROM t),
tot AS (SELECT count(*) AS n,
               greatest(1, sum(len(w)) // count(*)) AS avgdl FROM t),
prm AS (SELECT n, avgdl, {dfs} FROM tot),
s AS (SELECT doc_id, CAST({score_terms} AS BIGINT) AS score FROM st, prm)
SELECT doc_id, score FROM s WHERE score > 0
ORDER BY score DESC, doc_id LIMIT 20"""


def _q_bigram_counts_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.corpus import ngram_counts

    docs = _read(sf_dir, "documents", ["text"], blocks=64)
    return ngram_counts(docs, 2)


def _q_json_flatten_events(sf_dir: str):
    # schema-on-read extraction from the JSON props column
    from fashion_knowledge_graph_ray.stages.semistructured import (
        json_flatten,
    )

    ev = _read(sf_dir, "events", ["event_id", "props"], blocks=16)
    return json_flatten(ev, "props", {"k": ("k", pa.int64())})


def _q_pagerank_lineitem(sf_dir: str):
    # integer-quantized PageRank over the bipartite order->part graph
    # (multigraph: duplicate (order, part) pairs each contribute); top-100
    # nodes by (rank DESC, id ASC). oracle = sequential-reference VALUES
    # (_pagerank_expected_values) — bit-identical by integer arithmetic.
    import pyarrow.compute as pc

    from fashion_knowledge_graph_ray.stages.graph import pagerank

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"], blocks=16)
    edges = li.map_batches(
        lambda t: pa.table({
            "src": t["l_orderkey"].cast(pa.int64()),
            "dst": pc.add(t["l_partkey"].cast(pa.int64()),
                          pa.scalar(10_000_000)),
        }), batch_format="pyarrow", zero_copy_batch=True)
    pr = pagerank(edges, iters=5)
    return pr.sort(["rank", "id"], descending=[True, False]).limit(100)


def _q_tfidf_topk_docs(sf_dir: str):
    # top-3 keywords per doc by quantized tf-idf (integer score so both
    # engines rank bit-identically); df table broadcast, scoring local
    from fashion_knowledge_graph_ray.stages.corpus import tfidf_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return tfidf_topk(docs, 3)


def _q_shuffle_rank_docs(sf_dir: str):
    # deterministic global training shuffle: rank every doc by md5(id)
    # via the global-index primitive (zipWithIndex) over one sort;
    # seed-free, partitioning-independent
    from fashion_knowledge_graph_ray.stages.corpus import with_global_index
    from fashion_knowledge_graph_ray.stages.relational import md5_of_id

    docs = _read(sf_dir, "documents", ["doc_id"], blocks=64)

    def add_key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "md5k", pa.array(md5_of_id(t["doc_id"].to_pylist()),
                             type=pa.string()))

    keyed = docs.map_batches(add_key, batch_format="pyarrow",
                             zero_copy_batch=True)
    out = with_global_index(keyed, "md5k", index_col="shuffle_pos")
    return out.map_batches(lambda t: t.select(["doc_id", "shuffle_pos"]),
                           batch_format="pyarrow", zero_copy_batch=True)


def _q_band_join_events(sf_dir: str):
    # range (band) join: same-type event pairs with values within 0.01 —
    # value-grid shuffle (cells of width 2*eps, left side replicated to
    # <=2 cells) + per-cell vectorized merge; no inequality-join support
    # needed from the engine. Post-filter keeps one direction (a < b).
    from fashion_knowledge_graph_ray.stages.relational import band_join

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"],
               blocks=32)
    out = band_join(ev, ev, left_val="value", right_val="value",
                    eps=0.01, key=["event_type"])

    def one_direction(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.less(t["event_id"], t["event_id_r"]))
        # event_type_r == event_type by the equi key: drop the duplicate
        return t.select(["event_id", "event_type", "value",
                         "event_id_r", "value_r"])

    return out.map_batches(one_direction, batch_format="pyarrow",
                           zero_copy_batch=True)


def _q_quantiles_events(sf_dir: str):
    # exact distributed quantiles by rank selection over one sort of the
    # value column — the driver sees only per-block counts
    from fashion_knowledge_graph_ray.stages.corpus import exact_quantiles

    ev = _read(sf_dir, "events", ["value"], blocks=64)
    return exact_quantiles(ev, "value", _QUANTILES_PERMILLE)


def _quantiles_events_sql() -> str:
    """Rank-selection mirror generated from the SAME per-mille list the
    Ray query uses; rank = max(1, ceil(p*n/1000)) in integer arithmetic
    on both engines."""
    legs = " UNION ALL ".join(
        f"SELECT CAST({p} AS BIGINT) AS q_permille, "
        f"CAST(greatest(1, ({p} * n + 999) // 1000) AS BIGINT) AS rank, "
        f"value FROM s WHERE rn = greatest(1, ({p} * n + 999) // 1000)"
        for p in _QUANTILES_PERMILLE)
    return ("WITH s AS (SELECT value, "
            "row_number() OVER (ORDER BY value) AS rn, "
            "count(*) OVER () AS n FROM events) " + legs)


def _q_rrf_orders(sf_dir: str):
    # G5: RRF fusion of two top-20 rankings of orders
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.query import rrf_fusion_ds
    from fashion_knowledge_graph_ray.stages.relational import topk

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_totalprice", "o_orderdate"])
    by_price = topk(orders, "o_totalprice", 20, tie_col="o_orderkey").take_all()
    by_date = topk(orders, "o_orderdate", 20, tie_col="o_orderkey").take_all()

    def ranked(rows):
        return pa.table({
            "id": pa.array([str(r["o_orderkey"]) for r in rows],
                           type=pa.string()),
            "rank": pa.array(list(range(1, len(rows) + 1)), type=pa.int64()),
        })

    both = rd.from_arrow(ranked(by_price)).union(rd.from_arrow(ranked(by_date)))
    return rrf_fusion_ds(both)


def _embedding_queries(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    mask = [v < 5 for v in t["vec_id"].to_pylist()]
    q = t.filter(pa.array(mask))
    qids = q["vec_id"].to_pylist()
    qm = list_to_matrix(q["embedding"])
    return qids, qm


def _q_ann_topk(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.ann import brute_force_topk

    qids, qm = _embedding_queries(sf_dir)
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=32)
    out = brute_force_topk(emb, qm, 10, query_ids=qids)
    return out.map_batches(
        lambda t: t.select(["query_id", "vec_id", "rank"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _aug_embeddings(sf_dir: str):
    """embeddings plus an exact copy of the first 50 vectors at
    vec_id + 100000 — the testdata vectors are mutually dissimilar (max
    pairwise cosine ~0.6), so without the derived duplicates every
    near-dup query is an information-free 0=0 oracle match. Same
    derivation in the SQL oracle."""
    import pyarrow.compute as pc

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=32)

    def derive(t: pa.Table) -> pa.Table:
        k = t.filter(pc.less(t["vec_id"], 50))
        return pa.table({"vec_id": pc.add(k["vec_id"], 100000),
                         "embedding": k["embedding"]})

    return emb.union(emb.map_batches(derive, batch_format="pyarrow",
                                     zero_copy_batch=True))


def _q_near_dup_cosine(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.dedup import embedding_neardup_pairs

    out = embedding_neardup_pairs(_aug_embeddings(sf_dir), threshold=0.95)
    out = out.map_batches(lambda t: t.select(["a", "b"]),
                          batch_format="pyarrow", zero_copy_batch=True)
    return _as_table(out, pa.schema([("a", pa.int64()), ("b", pa.int64())]))


def _q_near_dup_cosine_lsh(sf_dir: str):
    # the approximate scale path on the same fixture: identical vectors
    # collide in every hyperplane table, so recall on the planted exact
    # duplicates is 1.0 and the SAME SQL oracle applies
    from fashion_knowledge_graph_ray.stages.dedup import lsh_neardup_pairs

    out = lsh_neardup_pairs(_aug_embeddings(sf_dir), threshold=0.95)
    out = out.map_batches(lambda t: t.select(["a", "b"]),
                          batch_format="pyarrow", zero_copy_batch=True)
    return _as_table(out, pa.schema([("a", pa.int64()), ("b", pa.int64())]))


def _q_tumbling_window_events(sf_dir: str):
    # streaming-shaped: tumbling 1h window per user (count + max)
    from fashion_knowledge_graph_ray.stages.windows import tumbling_window

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return tumbling_window(ev, key_col="user_id", ts_col="ts",
                           value_col="value", width="h")


def _q_hopping_window_events(sf_dir: str):
    # overlapping 1h windows sliding every 15min per user (count + max);
    # window starts as integer epoch seconds (timezone-free compare)
    from fashion_knowledge_graph_ray.stages.windows import hopping_window

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return hopping_window(ev, key_col="user_id", ts_col="ts",
                          value_col="value", width_sec=3600, slide_sec=900)


def _q_session_window_events(sf_dir: str):
    # gap-based session windows (30 min) per user
    from fashion_knowledge_graph_ray.stages.windows import session_windows

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return session_windows(ev, key_col="user_id", ts_col="ts",
                           id_col="event_id", gap_minutes=30)


def _q_broadcast_join_lineitem(sf_dir: str):
    # J2 broadcast inner join: enrich lineitem with brand of large parts
    # (restricted lookup -> drop-on-miss semantics exercised)
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.stages.relational import broadcast_join

    p = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                      columns=["p_partkey", "p_size", "p_brand"])
    lut = {k: (b,) for k, s, b in zip(p["p_partkey"].to_pylist(),
                                      p["p_size"].to_pylist(),
                                      p["p_brand"].to_pylist()) if s >= 30}
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_partkey"])
    return broadcast_join(li, "l_partkey", lut, ["p_brand"], how="inner")


def _q_shuffle_join_orders(sf_dir: str):
    # large-large hash-shuffle equi-join (neither side broadcastable at
    # scale): orders x customer on custkey
    from fashion_knowledge_graph_ray.stages.relational import shuffle_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    out = shuffle_join(orders, cust, "o_custkey", "c_custkey",
                       how="inner")
    return out.map_batches(
        lambda t: t.select(["o_orderkey", "o_custkey", "c_name"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _q_union_upsert_docs(sf_dir: str):
    # K1+G7 combined-catalog upsert: base rows win over incoming rows
    from fashion_knowledge_graph_ray.stages.relational import union_upsert

    def half(mod: int):
        ds = _read(sf_dir, "documents", ["doc_id", "lang"])

        def f(t: pa.Table, m=mod) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % m == 0))

        return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    return union_upsert(half(2), half(3), "doc_id")


def _q_top1_per_order(sf_dir: str):
    # M7/O4 single_product_mode analog: per order keep the max-quantity item
    from fashion_knowledge_graph_ray.stages.relational import dedup_keep_first

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_partkey", "l_quantity"])
    top = dedup_keep_first(li, "l_orderkey",
                           ["l_quantity", "l_partkey", "l_linenumber"],
                           ascending=[False, True, True])
    return top.map_batches(
        lambda t: t.select(["l_orderkey", "l_partkey", "l_quantity"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _q_related_entities_topk(sf_dir: str):
    # J4+O1 query layer: 1-hop neighbors of one node, weight>=2, top-5.
    # The (src, rel) predicate is pushed BELOW the edge-aggregation
    # shuffle (it commutes with the per-key count), so the single-node
    # query ships only that node's partials instead of every edge.
    import pyarrow.compute as pc

    from fashion_knowledge_graph_ray.pipelines.query import related_entities
    from fashion_knowledge_graph_ray.stages.aggregate import aggregate_edges

    def pf(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.equal(t["src"], "p000001"),
                                pc.equal(t["rel"], "worn_with")))

    pairs = _order_pairs(sf_dir, only_partkey=1)
    edges = aggregate_edges(pairs, collect_evidence=False,
                            pre_filter=pf)
    return related_entities(edges, "p000001", "worn_with",
                            weight_threshold=2, top_k=5)


def _q_jaccard_ngram_pairs_docs(sf_dir: str):
    # exact word-3-gram Jaccard similarity join (prefix filtering)
    from fashion_knowledge_graph_ray.stages.dedup import jaccard_ngram_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    out = jaccard_ngram_pairs(docs, n=3, threshold=0.4)
    return _as_table(out, pa.schema([("a", pa.int64()), ("b", pa.int64()),
                                     ("jac", pa.float64())]))


def _q_attr_extract_docs(sf_dir: str):
    # M8 MAIN attribute profile (the 10-field closed vocabulary,
    # reference prompts.py:4-13): scalar fields = first vocabulary token
    # by position, list fields = all distinct hits sorted (joined with ','
    # so the SQL compare stays scalar-typed).
    from fashion_knowledge_graph_ray.stages.attributes import extract_attrs
    from fashion_knowledge_graph_ray.vocab import LIST_FIELDS, SCALAR_FIELDS

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=32)

    def f(t: pa.Table) -> pa.Table:
        recs = [extract_attrs(x) for x in t["text"].to_pylist()]
        cols = {"doc_id": t["doc_id"]}
        for n in SCALAR_FIELDS:
            cols[n] = pa.array([r[n] for r in recs], type=pa.string())
        for n in LIST_FIELDS:
            cols[n] = pa.array([",".join(r[n]) for r in recs],
                               type=pa.string())
        return pa.table(cols)

    return docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _q_spec_attrs_docs(sf_dir: str):
    # M11 spec-sheet vocabulary profile: first-phrase-by-position rule
    from fashion_knowledge_graph_ray.stages.attributes import spec_attrs

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=32)
    return spec_attrs(docs, fields=("sleeve_length", "closure", "pattern"))


def _q_kg_mentions(sf_dir: str):
    # FULL pipeline: html -> extract_text -> gazetteer detect -> link ->
    # distinct (doc_id, entity_id). SQL oracle recomputes by arithmetic.
    from fashion_knowledge_graph_ray.stages.pairs import explode_mentions

    res = _build_kg(sf_dir, "gazetteer")
    flat = explode_mentions(res.dataset("linked"))

    def project(t: pa.Table) -> pa.Table:
        doc_ids = [int(u.rsplit("/", 1)[1]) for u in t["url"].to_pylist()]
        keep = t["entity_id"].combine_chunks().is_valid()
        out = pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                        "entity_id": t["entity_id"]})
        return out.filter(keep)

    return flat.map_batches(project, batch_format="pyarrow",
                            zero_copy_batch=True)


def _q_kg_edges(sf_dir: str):
    res = _build_kg(sf_dir, "gazetteer")
    edges = res.dataset("edges")
    return edges.map_batches(
        lambda t: t.select(["src", "dst", "rel", "weight"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _q_kg_pagerank(sf_dir: str):
    # graph analytics over the engine's OWN weighted KG edge table:
    # integer PageRank (3 iterations) of the co-occurrence graph, top-50
    # entities by (rank DESC, entity ASC). oracle = the kg_edges SQL
    # derivation (independent of Ray) + a sequential Python-int pagerank
    # (_kg_pagerank_expected_values).
    import pyarrow.compute as pc

    from fashion_knowledge_graph_ray.stages.graph import pagerank

    res = _build_kg(sf_dir, "gazetteer")
    edges = res.dataset("edges")

    def to_int(t: pa.Table) -> pa.Table:
        # entity ids are "prod-%06d" (datagen.gen_taxonomy) — numeric tail
        return pa.table({
            "src": pc.utf8_slice_codeunits(t["src"], 5).cast(pa.int64()),
            "dst": pc.utf8_slice_codeunits(t["dst"], 5).cast(pa.int64()),
            "weight": t["weight"],
        })

    pr = pagerank(edges.map_batches(to_int, batch_format="pyarrow",
                                    zero_copy_batch=True),
                  weight_col="weight", iters=3)
    top = pr.sort(["rank", "id"], descending=[True, False]).limit(50)

    def back(t: pa.Table) -> pa.Table:
        return pa.table({
            "entity_id": pa.array([f"prod-{i:06d}"
                                   for i in t["id"].to_pylist()],
                                  type=pa.string()),
            "rank": t["rank"],
        })

    return top.map_batches(back, batch_format="pyarrow",
                           zero_copy_batch=True)


def _q_triangles_parts(sf_dir: str):
    # degree-ordered wedge-join triangle counting over the part
    # co-occurrence graph (G1's TPC-H analog: order=page, part=entity),
    # 10%-of-orders subgraph so the wedge set stays bounded at bench
    # scale; oracle = pure-SQL triangle enumeration over the same edges.
    # (The synthetic web-KG graph is triangle-free at sf0.01 — a 0=0
    # oracle match would exercise nothing.)
    import pyarrow.compute as pc

    from fashion_knowledge_graph_ray.stages.bucketed import (
        bucketed_group_apply,
    )
    from fashion_knowledge_graph_ray.stages.graph import triangle_counts
    from fashion_knowledge_graph_ray.stages.pairs import group_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"], blocks=16)

    def keep_tenth(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ok % 10 == 0))

    sub = li.map_batches(keep_tenth, batch_format="pyarrow",
                         zero_copy_batch=True)

    def pair_bucket(t: pa.Table) -> pa.Table:
        import pandas as pd

        _, a, b = group_pairs(t["l_orderkey"].to_numpy(zero_copy_only=False),
                              t["l_partkey"].to_numpy(zero_copy_only=False))
        j = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
        return pa.table({"src": pa.array(j["a"], type=pa.int64()),
                         "dst": pa.array(j["b"], type=pa.int64())})

    edges = bucketed_group_apply(sub, ["l_orderkey"], pair_bucket)
    return triangle_counts(edges)


def _q_kg_edges_canonical(sf_dir: str):
    # north-rule canonicalization pass wired INTO the build: MinHash-LSH
    # surface-form clusters -> canonical entity ids -> edges over canonical
    # ids. Oracle recomputes the id remap from the pure-Python reference
    # implementation (canonical_map_pure, conformance-tested equal to the
    # distributed path).
    res = _build_kg(sf_dir, "gazetteer", canonicalize=True)
    edges = res.dataset("edges")
    return edges.map_batches(
        lambda t: t.select(["src", "dst", "rel", "weight"]),
        batch_format="pyarrow", zero_copy_batch=True)




# rows-only (not SQL-expressible):

def _q_preprocess_catalog_parts(sf_dir: str):
    # §3.4 composed catalog ETL (data_preprocessing.py:106-128) over the
    # part table: brand filter (M1) -> anti-join vs the existing catalog
    # (M2, auto-routed) -> seeded per-brand sample of 10 (G6) ->
    # project/rename (M5) -> union-upsert, base wins (K1+G7).
    from fashion_knowledge_graph_ray.pipelines.preprocess import (
        preprocess_catalog,
    )

    def base_rows(t: pa.Table) -> pa.Table:
        keep = t.filter(pa.array(
            t["p_partkey"].to_numpy(zero_copy_only=False) % 3 == 0))
        return pa.table({"product_id": keep["p_partkey"],
                         "category": keep["p_type"]})

    new = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type"])
    base = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        base_rows, batch_format="pyarrow", zero_copy_batch=True)
    out = preprocess_catalog(
        new, base, key_col="p_partkey", category_col="p_brand",
        include_categories=["Brand#11", "Brand#22", "Brand#33"],
        sample_n=10,
        rename={"p_partkey": "product_id", "p_type": "category"})
    return out.map_batches(
        lambda t: t.select(["product_id", "category", "src"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _q_label_value_counts_events(sf_dir: str):
    # G9 metrics stage: categorical value counts (label histogram analog)
    from fashion_knowledge_graph_ray.stages.metrics import value_counts

    ev = _read(sf_dir, "events", ["event_type"])
    return value_counts(ev, "event_type")


def _q_source_stats_docs(sf_dir: str):
    # per-source (domain analog) corpus health report: doc count, token
    # sum (same tokenizer/SQL pairing as token_count_docs), integer
    # per-mille mean chars, exact distinct-language count
    from fashion_knowledge_graph_ray.stages.metrics import source_stats

    docs = _read(sf_dir, "documents",
                 ["source", "text", "n_chars", "lang"], blocks=16)
    return source_stats(docs)


_OUTFIT_QUERY = "a crimson silk blouse for party looks"
_OUTFIT_HTML = (b"<html><body><p>Street style: a black blouse worn with "
                b"faded jeans and white sneakers.</p></body></html>")


def _q_outfit_text(sf_dir: str):
    # dual-profile RRF text search over the PERSISTED embeddings table
    # (K2 + T3 + M10 + G5); oracle = sequential-reference VALUES
    # (_outfit_text_expected_values)
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.pipelines.query import outfit_from_text

    res = _build_kg(sf_dir, "gazetteer")
    emb = pq.read_table(res.embeddings_path)
    return outfit_from_text(_OUTFIT_QUERY, emb, top_k=10)


def _q_outfit_page(sf_dir: str):
    # style-match-by-page: the get_outfit_from_image analog driving the
    # same detect/attrs/match operators at query time; oracle =
    # sequential-reference VALUES (_outfit_page_expected_values)
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.pipelines.query import outfit_from_page

    res = _build_kg(sf_dir, "gazetteer")
    emb = pq.read_table(res.embeddings_path)
    tax = gen_taxonomy(42)
    return outfit_from_page(_OUTFIT_HTML, tax, emb, top_k=5, threshold=0.7)


def _q_kg_triples_embedding(sf_dir: str):
    # FULL embedding-mode build -> triples, with warc_ts projected to
    # epoch seconds so the sequential-reference VALUES oracle needs no
    # timestamp-literal round-trip (the min-ts dedup semantics are still
    # value-checked through ts_sec)
    res = _build_kg(sf_dir, "embedding")

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sec = pc.divide(t["warc_ts"].cast(pa.int64()), 1_000_000)
        return pa.table({"subj": t["subj"], "pred": t["pred"],
                         "obj": t["obj"], "url": t["url"], "ts_sec": sec})

    return res.dataset("triples").map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True)


def _q_minhash_dedup_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.dedup import minhash_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return minhash_dedup(docs, threshold=0.7)


def _q_simhash_pairs_docs(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.dedup import simhash_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"], blocks=64)
    return simhash_pairs(docs, max_hamming=3)


def _q_ivf_ann_topk(sf_dir: str):
    # IVF (inverted-file) approximate ANN: seeded spherical-kmeans
    # centroids + nprobe clusters per query -> rows-only (approximate)
    from fashion_knowledge_graph_ray.stages.ann import ivf_topk

    qids, qm = _embedding_queries(sf_dir)
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=32)
    return ivf_topk(emb, qm, 10, query_ids=qids, ncentroids=16, nprobe=4)


def _q_lsh_ann_topk(sf_dir: str):
    from fashion_knowledge_graph_ray.stages.ann import lsh_bucketed_topk

    qids, qm = _embedding_queries(sf_dir)
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"], blocks=32)
    return lsh_bucketed_topk(emb, qm, 10, query_ids=qids, nbits=6, probes=8)


def _q_canonical_map(sf_dir: str):
    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        canonicalize_taxonomy,
    )

    # max_driver_forms=0 forces the DISTRIBUTED minhash/LSH/verify/CC
    # path; the oracle is generated from the independent pure in-process
    # implementation (canonical_map_pure), so this row cross-checks the
    # two — with the default routing both sides would reduce to the same
    # pure call and the check would be vacuous.
    m = canonicalize_taxonomy(gen_taxonomy(42), max_driver_forms=0)
    items = sorted(m.items())
    return pa.table({"entity_id": [k for k, _ in items],
                     "canonical_id": [v for _, v in items]})


def _q_media_frame_sample(sf_dir: str):
    # Video frame sampling (multimodal flat-map): one video -> every-10th
    # frame row. Projection excludes the sliced payload so the oracle can
    # check (media_id, frame_idx) exactly in SQL.
    from fashion_knowledge_graph_ray.sources.media import media_from_documents
    from fashion_knowledge_graph_ray.stages.multimodal import (
        sample_video_frames,
    )

    frames = sample_video_frames(media_from_documents(sf_dir), every_k=10)
    return frames.select_columns(["media_id", "frame_idx"])


def _project_feat_crc(ds):
    """(media_id, features:list<float32>) -> (media_id, feat_crc).

    crc32 of the features' float32 bytes: a value-exact projection that a
    VALUES oracle can carry (raw float lists can't ride a hash compare).
    float32 -> python float -> float32 round-trips exactly (widening)."""
    import zlib

    def proj(t: pa.Table) -> pa.Table:
        crc = [zlib.crc32(np.asarray(f, dtype=np.float32).tobytes())
               for f in t["features"].to_pylist()]
        return pa.table({"media_id": t["media_id"],
                         "feat_crc": pa.array(crc, type=pa.int64())})

    return ds.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True)


def _q_media_image_features(sf_dir: str):
    from fashion_knowledge_graph_ray.sources.media import media_from_documents
    from fashion_knowledge_graph_ray.stages.multimodal import image_features

    return _project_feat_crc(image_features(media_from_documents(sf_dir)))


def _q_media_audio_features(sf_dir: str):
    from fashion_knowledge_graph_ray.sources.media import media_from_documents
    from fashion_knowledge_graph_ray.stages.multimodal import audio_features

    return _project_feat_crc(audio_features(media_from_documents(sf_dir)))


def queries() -> dict[str, Callable[[str], Any]]:
    # DICT ORDER IS LOAD-BEARING for driver evidence: the correctness
    # sweep verifies the first 50 entries in order. Standing ROTATION
    # POLICY (round-3 verdict): every query's driver row must be at most
    # one round old. Round 5 leads with (a) the 25 queries whose green
    # row dates from round 3 (media, corpus/index, dedup family, rrf,
    # pack/shuffle/quantiles, groupby/anti-join), then (b) the queries
    # over code round 5 touched (Arrow-native broadcast_join, typed
    # bucket-kernel outputs in shuffle/asof/band joins, numpy session
    # windows, vectorized simhash kernel, Arrow CC propagate), then
    # (c) fill to 50 with r04-green KG/graph/near-dup queries. Positions
    # 51-75 are all round-4-green, so after this sweep no driver row is
    # older than one round.
    return {
        # -- (a) driver row r03-dated: re-verify first --
        "spec_attrs_docs": _q_spec_attrs_docs,
        "media_frame_sample": _q_media_frame_sample,
        "media_image_features": _q_media_image_features,
        "media_audio_features": _q_media_audio_features,
        "preprocess_catalog_parts": _q_preprocess_catalog_parts,
        "label_value_counts_events": _q_label_value_counts_events,
        "hll_distinct_events": _q_hll_distinct_events,
        "incremental_dedup_docs": _q_incremental_dedup_docs,
        "inverted_index_docs": _q_inverted_index_docs,
        "bm25_topk_docs": _q_bm25_topk_docs,
        "token_freq_docs": _q_token_freq_docs,
        "bigram_counts_docs": _q_bigram_counts_docs,
        "semantic_dedup_emb": _q_semantic_dedup_emb,
        "kmeans_clusters_emb": _q_kmeans_clusters_emb,
        "ann_topk": _q_ann_topk,
        "exact_dedup_docs": _q_exact_dedup_docs,
        "chunk_dedup_docs": _q_chunk_dedup_docs,
        "training_set_docs": _q_training_set_docs,
        "curate_docs": _q_curate_docs,
        "quantiles_events": _q_quantiles_events,
        "rrf_orders": _q_rrf_orders,
        "pack_bins_docs": _q_pack_bins_docs,
        "shuffle_rank_docs": _q_shuffle_rank_docs,
        "groupby_count": _q_groupby_count,
        "anti_join_customers": _q_anti_join_customers,
        # -- (b) code touched in round 5 (re-verify) --
        "broadcast_join_lineitem": _q_broadcast_join_lineitem,
        "shuffle_join_orders": _q_shuffle_join_orders,
        "asof_join_events": _q_asof_join_events,
        "band_join_events": _q_band_join_events,
        "session_window_events": _q_session_window_events,
        "simhash_pairs_docs": _q_simhash_pairs_docs,
        "canonical_map": _q_canonical_map,
        "minhash_dedup_docs": _q_minhash_dedup_docs,
        "kg_edges_canonical": _q_kg_edges_canonical,
        # -- (c) r04-green fill to the 50-query window --
        "kg_mentions": _q_kg_mentions,
        "kg_edges": _q_kg_edges,
        "kg_pagerank": _q_kg_pagerank,
        "kg_triples_embedding": _q_kg_triples_embedding,
        "near_dup_cosine": _q_near_dup_cosine,
        "near_dup_cosine_lsh": _q_near_dup_cosine_lsh,
        "cooccur_edges": _q_cooccur_edges,
        "edge_topk_per_node": _q_edge_topk_per_node,
        "node_merge_lww": _q_node_merge_lww,
        "pagerank_lineitem": _q_pagerank_lineitem,
        "triangles_parts": _q_triangles_parts,
        "knn_graph_emb": _q_knn_graph_emb,
        "jaccard_ngram_pairs_docs": _q_jaccard_ngram_pairs_docs,
        "union_upsert_docs": _q_union_upsert_docs,
        "top1_per_order": _q_top1_per_order,
        "lsh_ann_topk": _q_lsh_ann_topk,
        # -- round-4-green, beyond the sweep window this round --
        "source_stats_docs": _q_source_stats_docs,
        "tumbling_window_events": _q_tumbling_window_events,
        "hopping_window_events": _q_hopping_window_events,
        "attr_triples_part": _q_attr_triples_part,
        "filter_project_events": _q_filter_project_events,
        "valid_docs": _q_valid_docs,
        "grouped_sample_docs": _q_grouped_sample_docs,
        "token_count_docs": _q_token_count_docs,
        "quality_docs": _q_quality_docs,
        "repetition_docs": _q_repetition_docs,
        "pii_scrub_docs": _q_pii_scrub_docs,
        "quality_filter_docs": _q_quality_filter_docs,
        "lang_id_docs": _q_lang_id_docs,
        "fingerprint_docs": _q_fingerprint_docs,
        "top_tokens_docs": _q_top_tokens_docs,
        "decontam_docs": _q_decontam_docs,
        "stratified_sample_docs": _q_stratified_sample_docs,
        "tfidf_topk_docs": _q_tfidf_topk_docs,
        "json_flatten_events": _q_json_flatten_events,
        "cms_counts_events": _q_cms_counts_events,
        "related_entities_topk": _q_related_entities_topk,
        "outfit_text": _q_outfit_text,
        "outfit_page": _q_outfit_page,
        "ivf_ann_topk": _q_ivf_ann_topk,
        "attr_extract_docs": _q_attr_extract_docs,
    }


# ── oracle SQL ───────────────────────────────────────────────────────────

# embeddings + planted exact duplicates (see _aug_embeddings): the exact
# broadcast path and the LSH scale path both recover precisely the planted
# pairs on this fixture, so one oracle serves both queries.
_NEAR_DUP_SQL = """
WITH e AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 100000, embedding FROM embeddings WHERE vec_id < 50
)
SELECT a.vec_id AS a, b.vec_id AS b
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.95"""

def _cat_case_sql(var: str) -> str:
    """CASE mapping entity index -> category, generated from the same
    PRODUCT_NOUNS table the taxonomy generator uses."""
    from fashion_knowledge_graph_ray.vocab import PRODUCT_NOUNS

    whens = " ".join(
        f"WHEN {i} THEN '{cat}'" for i, (_n, cat) in enumerate(PRODUCT_NOUNS)
    )
    return f"(CASE (({var}) // 20) {whens} END)"


# The driver evaluates every oracle at sf0.01 (driver contract); the
# sequential-reference oracles below read the same table the registered
# DuckDB views point at and emit literal VALUES.
_ORACLE_SF_DIR = "/root/testdata/sf0.01"


@functools.lru_cache(maxsize=1)
def _minhash_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for ``minhash_dedup`` over the
    sf0.01 documents: shares only the per-row hash kernels
    (minhash_signature/_shingle_hashes — the hashing IS the semantics)
    and re-orchestrates banding, candidate generation, Jaccard
    verification and connected components with plain dicts and a
    union-find — no Ray, no bucketing, no shuffle. Emitted as a VALUES
    oracle so the distributed orchestration is cross-checked end to end
    (the same pattern as canonical_map)."""
    import itertools
    import zlib
    from collections import defaultdict

    import numpy as np
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.stages.canonicalize import (
        _shingle_hashes,
        minhash_signature,
    )

    tbl = pq.read_table(_ORACLE_SF_DIR + "/documents.parquet",
                        columns=["doc_id", "text"])
    ids = [str(x) for x in tbl["doc_id"].to_pylist()]
    texts = {i: (t or "") for i, t in zip(ids, tbl["text"].to_pylist())}

    buckets: dict = defaultdict(set)
    for i in ids:
        sig = minhash_signature(texts[i], 64, 5)
        for b in range(16):
            buckets[(b, zlib.crc32(sig[b * 4:(b + 1) * 4].tobytes()))].add(i)
    cand: set = set()
    for mem in buckets.values():
        if len(mem) >= 2:
            cand.update(itertools.combinations(sorted(mem), 2))

    sh: dict = {}
    pairs = []
    for a, b in sorted(cand):
        for x in (a, b):
            if x not in sh:
                sh[x] = _shingle_hashes(texts[x], 5)
        sa, sb = sh[a], sh[b]
        la, lb = len(sa), len(sb)
        if min(la, lb) < 0.7 * max(la, lb):
            continue
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        if inter / (la + lb - inter) >= 0.7:
            pairs.append((a, b))

    parent = {i: i for i in ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return tuple((i, find(i)) for i in ids)


@functools.lru_cache(maxsize=1)
def _simhash_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for ``simhash_pairs`` at
    max_hamming=3: brute-force all-pairs Hamming over the shared
    simhash64 kernel. The Ray path's 16-bit-chunk blocking has PERFECT
    recall here by pigeonhole (3 differing bits across 4 chunks always
    leave one chunk identical), and its per-bucket truncation cannot
    trigger at 500 docs, so brute force equals the blocked output
    exactly."""
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.functions.textstats import (
        hamming64,
        simhash64,
    )

    tbl = pq.read_table(_ORACLE_SF_DIR + "/documents.parquet",
                        columns=["doc_id", "text"])
    ids = sorted(str(x) for x in tbl["doc_id"].to_pylist())
    texts = {str(i): (t or "") for i, t in
             zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())}
    hs = {i: simhash64(texts[i]) for i in ids}
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = hamming64(hs[ids[i]], hs[ids[j]])
            if d <= 3:
                out.append((ids[i], ids[j], d))
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _ann_corpus_seq():
    """(ids, normalized matrix, query ids, normalized query matrix) for
    the sequential ANN references — file order, same normalization kernel
    as the Ray stages."""
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.stages.ann import _normalize

    t = pq.read_table(_ORACLE_SF_DIR + "/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist())
    mat = _normalize(list_to_matrix(t["embedding"]))
    qids, qm_raw = _embedding_queries(_ORACLE_SF_DIR)
    return ids, mat, qids, _normalize(qm_raw)


def _seq_topk_rows(candidate_mask_fn, k: int = 10) -> list[tuple]:
    """Global sequential top-k per query over the candidate subset —
    the independent reference for the Ray partial-topk + bucketed-merge
    orchestration. Ordering matches: score DESC, vec_id ASC."""
    ids, mat, qids, qm = _ann_corpus_seq()
    rows = []
    for qi in range(len(qids)):
        mask = candidate_mask_fn(qi, mat)
        if not mask.any():
            continue
        cand_ids = ids[mask]
        sims = mat[mask] @ qm[qi]
        order = np.lexsort((cand_ids, -sims))[:min(k, len(cand_ids))]
        for rank, oi in enumerate(order, 1):
            rows.append((int(qids[qi]), int(cand_ids[oi]),
                         float(sims[oi]), rank))
    return rows


@functools.lru_cache(maxsize=1)
def _lsh_ann_expected_values() -> tuple:
    """Sequential reference for ``lsh_bucketed_topk`` (nbits=6, probes=8,
    seed=42): shared hyperplane/bucket kernels, independently re-derived
    margin-ordered multiprobe sets and a single-process global top-k —
    no Ray, no partial combine, no bucketed merge."""
    from fashion_knowledge_graph_ray.stages.ann import (
        _bucket_of,
        _hyperplanes,
    )

    nbits, probes, k = 6, 8, 10
    ids, mat, qids, qm = _ann_corpus_seq()
    planes = _hyperplanes(qm.shape[1], nbits, 42)
    qb = _bucket_of(qm, planes)
    vb = _bucket_of(mat, planes)
    margins = qm @ planes.T
    t_bits = min(nbits, max(1, (max(probes - 1, 1)).bit_length() + 1))
    probe_sets = []
    for qi, b in enumerate(qb):
        order = np.argsort(np.abs(margins[qi]))[:t_bits]
        subsets = []
        for mask in range(1 << t_bits):
            flip, loss = 0, 0.0
            for j in range(t_bits):
                if mask >> j & 1:
                    flip |= 1 << int(order[j])
                    loss += abs(float(margins[qi, order[j]]))
            subsets.append((loss, int(b) ^ flip))
        subsets.sort()
        probe_sets.append({code for _, code in subsets[:probes]})

    return tuple(_seq_topk_rows(
        lambda qi, m: np.isin(vb, list(probe_sets[qi])), k))


@functools.lru_cache(maxsize=1)
def _ivf_ann_expected_values() -> tuple:
    """Sequential reference for ``ivf_topk`` (ncentroids=16, nprobe=4,
    seed=42): shared seeded k-means kernel (the 500-row corpus IS the
    whole train sample, so file order pins the centroids), independently
    re-derived probe cells and a single-process global top-k."""
    from fashion_knowledge_graph_ray.stages.ann import _spherical_kmeans

    ncent, nprobe, k = 16, 4, 10
    ids, mat, qids, qm = _ann_corpus_seq()
    cent = _spherical_kmeans(mat, ncent, seed=42)
    probe = np.argsort(-(qm @ cent.T), axis=1)[:, :min(nprobe, len(cent))]
    probe_sets = [set(row.tolist()) for row in probe]
    vc = np.argmax(mat @ cent.T, axis=1)

    return tuple(_seq_topk_rows(
        lambda qi, m: np.isin(vc, list(probe_sets[qi])), k))


@functools.lru_cache(maxsize=1)
def _outfit_text_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for ``outfit_text``: shares only
    the per-row featurizer kernels (hash_embed / style_embed — the
    hashing IS the semantics) and the M10 rewrite (SQL-checked elsewhere
    via attr_extract_docs), and re-derives everything the query operator
    layers on top — dual-profile top-k selection (plain ``sorted`` by
    (-score, index) instead of ``cosine_topk``'s argpartition fast path),
    the per-path tau cuts, and RRF fusion (plain dict accumulation
    instead of ``rrf_scores``). The embedding index is re-derived from
    ``gen_taxonomy(42)`` directly, which also cross-checks the PERSISTED
    embeddings table the distributed build writes (K2)."""
    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.functions.vectors import (
        hash_embed,
        style_embed,
    )
    from fashion_knowledge_graph_ray.pipelines.query import (
        style_query_rewrite,
    )

    tax = gen_taxonomy(42)
    ids = tax["entity_id"].to_pylist()
    surfaces = tax["surface"].to_pylist()
    top_k, k0 = 10, 60

    def ranked(qvec: np.ndarray, index: np.ndarray, tau: float) -> list:
        sims = (qvec @ index.T)[0]  # same matmul shape as the operator
        order = sorted(range(len(ids)),
                       key=lambda i: (-float(sims[i]), i))[:top_k]
        return [ids[i] for i in order if sims[i] >= tau]

    primary = ranked(hash_embed([_OUTFIT_QUERY]), hash_embed(surfaces), 0.2)
    style = ranked(style_embed([style_query_rewrite(_OUTFIT_QUERY)]),
                   style_embed(surfaces), 0.5)
    sc: dict = {}
    for lst in (primary, style):
        for rank, eid in enumerate(lst, start=1):
            sc[eid] = sc.get(eid, 0.0) + 1.0 / (k0 + rank)
    fused = sorted(sc.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return tuple((e, float(s)) for e, s in fused)


@functools.lru_cache(maxsize=1)
def _outfit_page_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for ``outfit_page``: shares the
    per-row kernels (extract_text / trie detection / closed-vocab attrs /
    hash_embed — each SQL-checked through the kg_* and attr queries) and
    re-derives the query-time matching the operator composes on top: the
    category metadata filter, top-k selection by plain ``sorted`` over
    allowed candidates only (instead of ``cosine_topk``'s -inf mask +
    argpartition), the tau cut and the rank assignment."""
    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.functions.html import extract_text
    from fashion_knowledge_graph_ray.functions.vectors import hash_embed
    from fashion_knowledge_graph_ray.stages.attributes import extract_attrs
    from fashion_knowledge_graph_ray.stages.mentions import (
        build_gazetteer,
        compile_pattern,
        detect_in_text,
    )

    tax = gen_taxonomy(42)
    ids = tax["entity_id"].to_pylist()
    cats = tax["category"].to_pylist()
    index = hash_embed(tax["surface"].to_pylist())
    top_k, threshold = 5, 0.7

    text = extract_text(_OUTFIT_HTML)
    gaz = build_gazetteer(tax)
    mentions = detect_in_text(text, "query://page",
                              compile_pattern(list(gaz)), gaz)
    rows = []
    for rec in mentions:
        attrs = extract_attrs(rec.get("context", ""), rec.get("label"))
        sims = (hash_embed([rec["surface"]]) @ index.T)[0]
        allowed = [i for i in range(len(ids))
                   if not attrs.get("type") or cats[i] == attrs["type"]]
        order = sorted(allowed,
                       key=lambda i: (-float(sims[i]), i))[:top_k]
        rank = 0
        for i in order:
            if sims[i] < threshold:
                continue
            rank += 1
            rows.append((rec["mention_id"], rec["surface"],
                         rec.get("label"), ids[i], rank, float(sims[i])))
    return tuple(rows)


@functools.lru_cache(maxsize=1)
def _kmeans_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for ``kmeans_clusters_emb``:
    shares the seeded centroid trainer (`_spherical_kmeans` — the seeded
    init/iteration schedule IS the semantics, like the hash featurizers)
    and re-derives the assignment per row with a plain per-vector dot
    loop instead of the operator's batched matmul+argmax scan."""
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.stages.ann import (
        _normalize,
        _spherical_kmeans,
    )

    t = pq.read_table(_ORACLE_SF_DIR + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    mat = _normalize(list_to_matrix(t["embedding"]))
    cent = _spherical_kmeans(mat[:4096], 8, seed=42)
    rows = []
    for i, vid in enumerate(ids):
        sims = [float(mat[i] @ cent[c]) for c in range(len(cent))]
        best = max(range(len(sims)), key=lambda c: (sims[c], -c))
        rows.append((vid, best))
    return tuple(rows)


def _semantic_dedup_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for ``semantic_dedup_emb``: same
    seeded centroid trainer (the seed schedule is the semantics), then a
    plain per-row nearest-centroid loop and a per-cluster ascending-id
    greedy scan — no Ray, no batching, no shuffle."""
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.stages.ann import (
        _normalize,
        _spherical_kmeans,
    )

    t = pq.read_table(_ORACLE_SF_DIR + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    vecs = [np.asarray(v, dtype=np.float64)
            for v in t["embedding"].to_pylist()]
    # planted duplicates, same derivation as _aug_embeddings
    clones = [(v + 100000, x) for v, x in zip(ids, vecs) if v < 50]
    ids = ids + [v for v, _ in clones]
    vecs = vecs + [x for _, x in clones]
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    ids = [ids[i] for i in order]
    vecs = [vecs[i] for i in order]
    mat = _normalize(np.stack(vecs))
    cent = _spherical_kmeans(mat[:4096], 8, seed=42)
    clusters: dict[int, list[int]] = {}
    for i in range(len(ids)):
        best = int(np.argmax(mat[i] @ cent.T))
        clusters.setdefault(best, []).append(i)
    rows = []
    for c, members in clusters.items():
        members = sorted(members, key=lambda i: ids[i])
        kept_rows: list[int] = []
        for i in members:
            shadow = None
            best_s = -2.0
            for j in kept_rows:
                s = float(mat[i] @ mat[j])
                if s > best_s:
                    best_s, shadow = s, j
            if kept_rows and best_s >= 0.95:
                rows.append((ids[i], c, False, ids[shadow]))
            else:
                kept_rows.append(i)
                rows.append((ids[i], c, True, None))
    return tuple(rows)


def _semantic_dedup_values_sql() -> str:
    vals = ", ".join(
        f"({v}, {c}, {str(k).upper()}, "
        f"{'NULL' if d is None else d})"
        for v, c, k, d in _semantic_dedup_expected_values())
    return (f"SELECT CAST(vec_id AS BIGINT) AS vec_id, "
            f"CAST(cluster AS BIGINT) AS cluster, "
            f"CAST(kept AS BOOLEAN) AS kept, "
            f"CAST(dup_of AS BIGINT) AS dup_of "
            f"FROM (VALUES {vals}) AS t(vec_id, cluster, kept, dup_of)")


def _pagerank_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for ``pagerank_lineitem``: plain
    Python-int dict loops over the same edge derivation — no Ray, no
    bucketing. Integer fixed-point arithmetic makes the comparison exact
    (see stages/graph.py module docstring)."""
    import pyarrow.parquet as pq

    t = pq.read_table(_ORACLE_SF_DIR + "/lineitem.parquet",
                      columns=["l_orderkey", "l_partkey"])
    edges = list(zip(t["l_orderkey"].to_pylist(),
                     (p + 10_000_000 for p in t["l_partkey"].to_pylist())))
    ids = sorted({u for u, _ in edges} | {v for _, v in edges})
    n = len(ids)
    scale, d = 10 ** 12, 85
    deg: dict = {}
    for u, _ in edges:
        deg[u] = deg.get(u, 0) + 1
    rank = {i: scale // n for i in ids}
    for _ in range(5):
        dangling = sum(rank[i] for i in ids if deg.get(i, 0) == 0)
        base = (scale * (100 - d)) // (100 * n) + (dangling * d) // (100 * n)
        acc = {i: 0 for i in ids}
        for u, v in edges:
            acc[v] += (rank[u] * d) // (100 * deg[u])
        rank = {i: base + acc[i] for i in ids}
    top = sorted(rank.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    return tuple(top)


def _hll_expected_values() -> tuple:
    """Sequential reference for ``hll_distinct_events``: one flat pass
    building per-group registers with the same hash/estimator primitives
    (the seeded sketch IS the semantics) — no Ray, no batching; exercises
    that the distributed element-wise-max merge reconstructs the same
    registers as a single pass."""
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.stages.sketches import (
        _hash64,
        _hll_estimate,
        _hll_registers,
    )

    t = pq.read_table(_ORACLE_SF_DIR + "/events.parquet",
                      columns=["event_type", "user_id"])
    groups: dict[str, list] = {}
    for et, uid in zip(t["event_type"].to_pylist(), t["user_id"].to_pylist()):
        groups.setdefault(et, []).append(uid)
    return tuple(sorted(
        (et, _hll_estimate(_hll_registers(_hash64(vals), 12)))
        for et, vals in groups.items()))


def _hll_values_sql() -> str:
    vals = ", ".join(f"('{et}', {n})" for et, n in _hll_expected_values())
    return (f"SELECT event_type, CAST(approx_distinct AS BIGINT) "
            f"AS approx_distinct "
            f"FROM (VALUES {vals}) AS t(event_type, approx_distinct)")


def _cms_expected_values() -> tuple:
    """Sequential reference for ``cms_counts_events``: plain Python dict
    loops over the column with the same seeded blake2b row hash (the seed
    schedule is the semantics) — one pass, no numpy sketch array, no
    partial/merge structure."""
    import hashlib

    import pyarrow.parquet as pq

    depth, width = 4, 2048

    def cell(v: str, r: int) -> int:
        h = int.from_bytes(hashlib.blake2b(
            v.encode("utf-8"), digest_size=8,
            salt=r.to_bytes(2, "big")).digest(), "big")
        return h % width

    t = pq.read_table(_ORACLE_SF_DIR + "/events.parquet",
                      columns=["event_type"])
    counters: dict[tuple[int, int], int] = {}
    for v in t["event_type"].to_pylist():
        for r in range(depth):
            key = (r, cell(str(v), r))
            counters[key] = counters.get(key, 0) + 1
    qs = ["click", "view", "purchase", "signup", "error"]
    return tuple((v, min(counters.get((r, cell(v, r)), 0)
                         for r in range(depth))) for v in qs)


def _cms_values_sql() -> str:
    vals = ", ".join(f"('{v}', {n})" for v, n in _cms_expected_values())
    return (f"SELECT value, CAST(approx_count AS BIGINT) AS approx_count "
            f"FROM (VALUES {vals}) AS t(value, approx_count)")


def _kg_pagerank_expected_values() -> tuple:
    """Sequential reference for ``kg_pagerank``: edges from the
    independent DuckDB kg_edges derivation (`_kg_edges_sql`, no Ray),
    then plain Python-int weighted pagerank — bit-identical by integer
    arithmetic."""
    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{_ORACLE_SF_DIR}/documents.parquet')")
    rows = con.execute(_kg_edges_sql()).fetchall()
    edges = [(int(s[5:]), int(t[5:]), int(w)) for s, t, _rel, w in rows]
    ids = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    n = len(ids)
    scale, d = 10 ** 12, 85
    wsum: dict = {}
    for u, _, w in edges:
        wsum[u] = wsum.get(u, 0) + w
    rank = {i: scale // n for i in ids}
    for _ in range(3):
        dangling = sum(rank[i] for i in ids if wsum.get(i, 0) == 0)
        base = (scale * (100 - d)) // (100 * n) + (dangling * d) // (100 * n)
        acc = {i: 0 for i in ids}
        for u, v, w in edges:
            acc[v] += (rank[u] * d * w) // (100 * wsum[u])
        rank = {i: base + acc[i] for i in ids}
    top = sorted(rank.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    return tuple((f"prod-{i:06d}", r) for i, r in top)


def _kg_pagerank_values_sql() -> str:
    vals = ", ".join(f"('{e}', {r})"
                     for e, r in _kg_pagerank_expected_values())
    return (f"SELECT entity_id, CAST(rank AS BIGINT) AS rank "
            f"FROM (VALUES {vals}) AS t(entity_id, rank)")


def _pagerank_values_sql() -> str:
    vals = ", ".join(f"({i}, {r})" for i, r in _pagerank_expected_values())
    return (f"SELECT CAST(id AS BIGINT) AS id, CAST(rank AS BIGINT) AS rank "
            f"FROM (VALUES {vals}) AS t(id, rank)")


def _kmeans_values_sql() -> str:
    vals = ", ".join(f"({v}, {c})" for v, c in _kmeans_expected_values())
    return (f"SELECT CAST(vec_id AS BIGINT) AS vec_id, "
            f"CAST(cluster AS BIGINT) AS cluster "
            f"FROM (VALUES {vals}) AS t(vec_id, cluster)")


def _stratified_sample_sql() -> str:
    """The md5-threshold stratified sample, generated from the SAME rates
    dict the Ray query uses (``_STRATA_RATES`` is the semantics): a row
    survives iff the first 8 hex digits of md5(doc_id) compare below the
    stratum's rate cut — identical integer-free string comparison on both
    engines."""
    def cut(r: float) -> str:
        return format(min(int(r * (1 << 32)), (1 << 32) - 1), "08x")

    whens = " ".join(f"WHEN '{k}' THEN '{cut(r)}'"
                     for k, r in _STRATA_RATES.items())
    return (f"SELECT doc_id, source FROM documents "
            f"WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < "
            f"(CASE source {whens} ELSE '{cut(_STRATA_DEFAULT)}' END)")


def _outfit_text_values_sql() -> str:
    vals = ", ".join(f"('{e}', CAST('{s!r}' AS DOUBLE))"
                     for e, s in _outfit_text_expected_values())
    return (f"SELECT entity_id, rrf_score FROM (VALUES {vals}) "
            f"AS t(entity_id, rrf_score)")


def _outfit_page_values_sql() -> str:
    def lit(x):
        return "NULL" if x is None else "'" + str(x).replace("'", "''") + "'"

    vals = ", ".join(
        f"({lit(m)}, {lit(su)}, {lit(lb)}, {lit(e)}, "
        f"CAST({r} AS BIGINT), CAST('{s!r}' AS DOUBLE))"
        for m, su, lb, e, r, s in _outfit_page_expected_values())
    return (f"SELECT mention_id, surface, label, entity_id, rank, score "
            f"FROM (VALUES {vals}) "
            f"AS t(mention_id, surface, label, entity_id, rank, score)")


@functools.lru_cache(maxsize=1)
def _kg_triples_expected_values() -> tuple:
    """Independent SEQUENTIAL reference for the embedding-mode KG triples:
    the enrichment kernel (extract->detect->attrs->link) runs ONCE on the
    whole corpus as a single in-process batch — no Ray, no blocks, no
    actor pool — and everything downstream (page dedup, attr-triple
    emission, distinct-entity pairing with the category rule, both-way
    relation triples, min-ts triple dedup) is re-derived with plain Python
    loops and dicts. Cross-checks the distributed COMPOSITION: block
    splitting, the fused pool, the pairs self-merge vectorization, the
    attr-triple Arrow mask/flatten kernels, and both bucketed dedup
    shuffles. (The per-row enrichment semantics themselves are covered by
    the arithmetic SQL oracles of the gazetteer-mode kg_* queries.)"""
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.schemas import PAGES_SCHEMA
    from fashion_knowledge_graph_ray.sources.pages import _page_row
    from fashion_knowledge_graph_ray.stages.linker import EnrichmentStage
    from fashion_knowledge_graph_ray.vocab import (
        LIST_FIELDS,
        REL_COMPLEMENTED_BY,
        REL_WORN_WITH,
        SCALAR_FIELDS,
        UNKNOWN,
    )

    tbl = pq.read_table(_ORACLE_SF_DIR + "/documents.parquet",
                        columns=["doc_id", "text", "lang"])
    rows = [_page_row(int(d), t or "", lg or "und")
            for d, t, lg in zip(tbl["doc_id"].to_pylist(),
                                tbl["text"].to_pylist(),
                                tbl["lang"].to_pylist())]
    pages = pa.table(
        {
            "url": pa.array([r["url"] for r in rows], type=pa.string()),
            "warc_ts": pa.array([r["warc_ts"] for r in rows],
                                type=pa.timestamp("us", tz="UTC")),
            "html": pa.array([r["html"] for r in rows], type=pa.binary()),
            "text": pa.array([None] * len(rows), type=pa.string()),
            "lang": pa.array([r["lang"] for r in rows], type=pa.string()),
        },
        schema=PAGES_SCHEMA,
    )

    tax = gen_taxonomy(42)
    linked = EnrichmentStage(tax, link_mode="embedding")(pages)
    cat = dict(zip(tax["entity_id"].to_pylist(), tax["category"].to_pylist()))

    best: dict = {}  # keep-earliest-warc_ts page dedup
    for r in linked.to_pylist():
        u = r["url"]
        if u not in best or r["warc_ts"] < best[u]["warc_ts"]:
            best[u] = r

    tri: dict = {}  # (subj, pred, obj, url) -> min epoch sec

    def add(s, p, o, u, ts):
        k = (s, p, o, u)
        sec = int(ts.timestamp())
        if k not in tri or sec < tri[k]:
            tri[k] = sec

    for r in best.values():
        u, ts = r["url"], r["warc_ts"]
        linked_ids = []
        for m in r["mentions"]:
            eid = m.get("entity_id")
            if not eid:
                continue
            linked_ids.append(eid)
            a = m["attrs"]
            for f in SCALAR_FIELDS:
                v = a.get(f)
                if v not in (None, "", UNKNOWN):
                    add(eid, f"has_{f}", v, u, ts)
            for f in LIST_FIELDS:
                for v in a.get(f) or []:
                    add(eid, f"has_{f}", v, u, ts)
        ids = sorted(set(linked_ids))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                x, y = ids[i], ids[j]
                cx, cy = cat.get(x), cat.get(y)
                rel = (REL_COMPLEMENTED_BY if cx and cy and cx == cy
                       else REL_WORN_WITH)
                add(x, rel, y, u, ts)
                add(y, rel, x, u, ts)
    return tuple(sorted((s, p, o, u, t)
                        for (s, p, o, u), t in tri.items()))


@functools.lru_cache(maxsize=1)
def _media_expected_values(kind: str) -> tuple:
    """Sequential reference for the media featurizers: the media table is
    re-derived from documents and the featurizer kernel runs ONCE on the
    whole corpus as a single in-process batch — no Ray, no actor pool, no
    block splits. Features are per-row deterministic (stub codecs are
    seeded by payload bytes), so the distributed result must match
    bit-for-bit; the crc32-of-float32-bytes projection makes that
    comparable through a VALUES oracle."""
    import zlib

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.sources.media import (
        media_batch_from_documents,
    )
    from fashion_knowledge_graph_ray.stages.multimodal import (
        AudioFeaturizer,
        ImageFeaturizer,
    )

    docs = pq.read_table(_ORACLE_SF_DIR + "/documents.parquet",
                         columns=["doc_id", "text"])
    media = media_batch_from_documents(docs)
    media = media.filter(pc.equal(media["kind"], kind))
    feat = (ImageFeaturizer() if kind == "image"
            else AudioFeaturizer())(media)
    rows = []
    for mid, f in zip(feat["media_id"].to_pylist(),
                      feat["features"].to_pylist()):
        rows.append((mid, zlib.crc32(
            np.asarray(f, dtype=np.float32).tobytes())))
    return tuple(sorted(rows))


def _media_values_sql(kind: str) -> str:
    vals = ", ".join(f"('{m}', CAST({c} AS BIGINT))"
                     for m, c in _media_expected_values(kind))
    return (f"SELECT media_id, feat_crc FROM (VALUES {vals}) "
            f"AS t(media_id, feat_crc)")


def _kg_triples_values_sql() -> str:
    vals = ", ".join(
        f"('{s}', '{p}', '{o}', '{u}', CAST({t} AS BIGINT))"
        for s, p, o, u, t in _kg_triples_expected_values())
    return (f"SELECT subj, pred, obj, url, ts_sec FROM (VALUES {vals}) "
            f"AS t(subj, pred, obj, url, ts_sec)")


def _ann_values_sql(rows: tuple) -> str:
    # scores as QUOTED strings: a bare 17-digit decimal literal is parsed
    # by DuckDB as DECIMAL first (precision loss); string -> DOUBLE casts
    # round-trip the exact float64 bits
    vals = ", ".join(
        f"({q}, {v}, CAST('{s!r}' AS DOUBLE), CAST({r} AS BIGINT))"
        for q, v, s, r in rows)
    return (f"SELECT CAST(query_id AS BIGINT) AS query_id, "
            f"CAST(vec_id AS BIGINT) AS vec_id, score, rank "
            f"FROM (VALUES {vals}) AS t(query_id, vec_id, score, rank)")


def _minhash_values_sql() -> str:
    vals = ", ".join(f"('{i}', '{c}')"
                     for i, c in _minhash_expected_values())
    return (f"SELECT id, component FROM (VALUES {vals}) "
            f"AS t(id, component)")


def _simhash_values_sql() -> str:
    rows = _simhash_expected_values()
    if not rows:
        return ("SELECT '' AS a, '' AS b, CAST(0 AS BIGINT) AS hamming "
                "WHERE 1=0")
    vals = ", ".join(f"('{a}', '{b}', CAST({d} AS BIGINT))"
                     for a, b, d in rows)
    return f"SELECT a, b, hamming FROM (VALUES {vals}) AS t(a, b, hamming)"


def _pure_canonical_map() -> dict[str, str]:
    """entity_id -> canonical_id from the PURE (no-Ray) reference
    implementation — the independent oracle for the distributed
    canonicalization (tests assert both paths are identical)."""
    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        canonical_map_pure,
    )

    return canonical_map_pure(gen_taxonomy(42))


def _canon_case_sql(var: str) -> str:
    """CASE remapping entity INDEX -> canonical entity index, generated
    from the pure-python canonical map (identity entries omitted)."""
    m = _pure_canonical_map()
    whens = " ".join(
        f"WHEN {int(k.split('-')[1])} THEN {int(v.split('-')[1])}"
        for k, v in sorted(m.items()) if k != v)
    return f"(CASE ({var}) {whens} ELSE ({var}) END)"


def _canonical_map_values_sql() -> str:
    m = _pure_canonical_map()
    vals = ", ".join(f"('{k}', '{v}')" for k, v in sorted(m.items()))
    return (f"SELECT entity_id, canonical_id FROM (VALUES {vals}) "
            f"AS t(entity_id, canonical_id)")


def _stop_list_sql() -> str:
    from fashion_knowledge_graph_ray.functions.textstats import STOPWORDS

    return "[" + ", ".join(f"'{w}'" for w in STOPWORDS) + "]"


def _marker_sql(lang: str) -> str:
    from fashion_knowledge_graph_ray.functions.textstats import LANG_MARKERS

    return "[" + ", ".join(f"'{w}'" for w in LANG_MARKERS[lang]) + "]"


def _attr_extract_sql() -> str:
    """The M8 main-profile oracle: token-position scan per scalar field
    (list_position = first occurrence), distinct-sorted-hit list per list
    field, exactly mirroring stages/attributes.extract_attrs."""
    from fashion_knowledge_graph_ray.vocab import (
        ATTRIBUTE_FIELDS,
        LIST_FIELDS,
        SCALAR_FIELDS,
    )

    vocab = {n: v for n, v, _ in ATTRIBUTE_FIELDS}
    ctes, selects, joins = [], [], []
    for n in SCALAR_FIELDS:
        vals = ", ".join(f"('{w}')" for w in vocab[n])
        ctes.append(f"""
c_{n} AS (
  SELECT doc_id, v, list_position(toks, v) AS pos
  FROM t, (VALUES {vals}) AS vv_{n}(v)
  WHERE list_position(toks, v) > 0
),
s_{n} AS (
  SELECT doc_id, v, row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
  FROM c_{n}
)""")
        selects.append(f"coalesce(a_{n}.v, 'unknown') AS \"{n}\"")
        joins.append(f"LEFT JOIN (SELECT doc_id, v FROM s_{n} WHERE rn = 1) "
                     f"a_{n} USING (doc_id)")
    for n in LIST_FIELDS:
        arr = "[" + ", ".join(f"'{w}'" for w in vocab[n]) + "]"
        # array_to_string([]) is NULL in DuckDB; the engine emits ''
        selects.append(
            f"coalesce(array_to_string(list_sort(list_intersect("
            f"list_distinct(toks), {arr})), ','), '') AS \"{n}\"")
    tok = "regexp_extract_all(lower(text), '[a-z0-9][a-z0-9-]*')"
    return (f"WITH t AS (SELECT doc_id, {tok} AS toks FROM documents),"
            + ",".join(ctes)
            + "\nSELECT t.doc_id, " + ", ".join(selects)
            + "\nFROM t " + " ".join(joins))


def _spec_field_sql(field: str) -> tuple[str, str]:
    """(cte_sql, field) for one spec vocabulary field: first phrase by
    strpos position, ties on the lexicographically smaller phrase."""
    from fashion_knowledge_graph_ray.vocab import SPEC_ATTRIBUTE_FIELDS

    phrases = dict(SPEC_ATTRIBUTE_FIELDS)[field]
    vals = ", ".join(f"('{p}')" for p in sorted(phrases))
    cte = f"""
c_{field} AS (
  SELECT doc_id, v, strpos(lt, v) AS pos
  FROM t, (VALUES {vals}) AS vv_{field}(v)
  WHERE strpos(lt, v) > 0
),
s_{field} AS (
  SELECT doc_id, v,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos, v) AS rn
  FROM c_{field}
)"""
    return cte, field


_KG_MENTIONS_CTE = """
WITH m AS (
  SELECT doc_id, (doc_id * 7) % 500 AS e FROM documents WHERE doc_id % 3 <> 0
  UNION
  SELECT doc_id, (doc_id * 13) % 500 AS e FROM documents WHERE doc_id % 3 <> 0
)"""


def _kg_edges_sql() -> str:
    """The kg_edges oracle (module-level so the kg_pagerank sequential
    reference can reuse the same independent edge derivation)."""
    cat_a, cat_b = _cat_case_sql("a.e"), _cat_case_sql("b.e")
    return f"""
{_KG_MENTIONS_CTE},
pr AS (
  SELECT a.doc_id,
         printf('prod-%06d', a.e) AS ea, printf('prod-%06d', b.e) AS eb,
         CASE WHEN {cat_a} = {cat_b} THEN 'complemented_by'
              ELSE 'worn_with' END AS rel
  FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.e < b.e
),
bo AS (
  SELECT ea AS src, eb AS dst, rel FROM pr
  UNION ALL
  SELECT eb AS src, ea AS dst, rel FROM pr
)
SELECT src, dst, rel, count(*) AS weight FROM bo GROUP BY 1, 2, 3"""


def oracle_sql() -> dict[str, str]:
    toks = ("list_transform(CASE WHEN trim(text) = '' THEN [] ELSE "
            "regexp_split_to_array(trim(text), '\\s+') END, x -> lower(x))")
    ntok = ("CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END")
    nchr = "length(regexp_replace(text, '\\s', '', 'g'))"
    nstop = f"len(list_filter({toks}, x -> list_contains({_stop_list_sql()}, x)))"
    lang_counts = ", ".join(
        f"len(list_filter(toks, x -> list_contains({_marker_sql(lg)}, x))) AS {lg}"
        for lg in ("de", "en", "es", "fr")
    )
    cat_a = _cat_case_sql("a.e")
    cat_b = _cat_case_sql("b.e")

    kg_mentions_cte = _KG_MENTIONS_CTE

    kg_edges_sql = _kg_edges_sql()

    kg_edges_canon_sql = f"""
{kg_mentions_cte},
mc AS (
  SELECT DISTINCT doc_id, {_canon_case_sql('e')} AS e FROM m
),
pr AS (
  SELECT a.doc_id,
         printf('prod-%06d', a.e) AS ea, printf('prod-%06d', b.e) AS eb,
         CASE WHEN {cat_a} = {cat_b} THEN 'complemented_by'
              ELSE 'worn_with' END AS rel
  FROM mc a JOIN mc b ON a.doc_id = b.doc_id AND a.e < b.e
),
bo AS (
  SELECT ea AS src, eb AS dst, rel FROM pr
  UNION ALL
  SELECT eb AS src, ea AS dst, rel FROM pr
)
SELECT src, dst, rel, count(*) AS weight FROM bo GROUP BY 1, 2, 3"""

    cooccur_cte = """
WITH mm AS (
  SELECT DISTINCT l.l_orderkey AS ok, l.l_partkey AS pk, p.p_type AS cat
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
),
pr AS (
  SELECT a.ok, printf('p%06d', a.pk) AS src, printf('p%06d', b.pk) AS dst,
         CASE WHEN a.cat = b.cat THEN 'complemented_by'
              ELSE 'worn_with' END AS rel
  FROM mm a JOIN mm b ON a.ok = b.ok AND a.pk < b.pk
),
bo AS (
  SELECT src, dst, rel FROM pr
  UNION ALL
  SELECT dst AS src, src AS dst, rel FROM pr
)"""

    return {
        "groupby_count": """
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       count(*) AS n
FROM lineitem GROUP BY 1, 2""",
        "cooccur_edges": cooccur_cte + """
SELECT src, dst, rel, count(*) AS weight FROM bo GROUP BY 1, 2, 3""",
        "edge_topk_per_node": cooccur_cte + """,
ed AS (SELECT src, dst, rel, count(*) AS weight FROM bo GROUP BY 1, 2, 3)
SELECT src, dst, rel, weight,
       row_number() OVER (PARTITION BY src
                          ORDER BY weight DESC, dst) AS rank
FROM ed QUALIFY rank <= 3""",
        "attr_triples_part": """
SELECT printf('p%06d', p_partkey) AS subj, 'has_brand' AS pred,
       p_brand AS obj FROM part
UNION ALL
SELECT printf('p%06d', p_partkey), 'has_type', p_type FROM part
UNION ALL
SELECT printf('p%06d', p_partkey), 'has_size', CAST(p_size AS VARCHAR)
FROM part""",
        "node_merge_lww": """
SELECT o_custkey, o_orderkey AS last_orderkey,
       o_orderstatus AS last_status, o_totalprice AS last_price
FROM orders
QUALIFY row_number() OVER (PARTITION BY o_custkey
                           ORDER BY o_orderdate DESC, o_orderkey DESC) = 1""",
        "anti_join_customers": """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_totalprice > 350000)""",
        "filter_project_events": """
SELECT event_id, user_id, event_type, value FROM events
WHERE event_type IN ('click', 'purchase')""",
        "valid_docs": """
SELECT doc_id, length(text) AS n_chars FROM documents
WHERE text IS NOT NULL AND length(text) >= 200""",
        "grouped_sample_docs": """
SELECT doc_id, lang FROM documents
QUALIFY row_number() OVER (
  PARTITION BY lang
  ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 5""",
        "exact_dedup_docs": """
SELECT md5(text) AS md5, min(doc_id) AS doc_id
FROM documents GROUP BY md5(text)""",
        "inverted_index_docs": r"""
WITH raw AS (
  SELECT doc_id,
         unnest(CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array(trim(text), '\s+') END) AS token
  FROM documents
),
tok AS (SELECT DISTINCT doc_id, token FROM raw)
SELECT token, count(*) AS df,
       array_to_string(list(doc_id ORDER BY doc_id), ',') AS postings,
       false AS postings_truncated
FROM tok GROUP BY token""",
        # planted duplicates (+10000 ids) make the first-wins rule
        # observable; chunk = 20-token window, hash = md5 of the
        # space-joined window, winner = lexicographic min (doc_id, chunk_no)
        "chunk_dedup_docs": r"""
WITH d AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 10000, text FROM documents WHERE doc_id < 50
),
t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
         ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM d
),
gs AS (
  SELECT doc_id, toks,
         unnest(generate_series(1, CAST(ceil(len(toks) / 20.0) AS BIGINT)))
           AS g
  FROM t WHERE len(toks) > 0
),
c AS (
  SELECT doc_id, g - 1 AS chunk_no,
         md5(array_to_string(toks[(g-1)*20+1 : (g-1)*20+20], ' '))
           AS chunk_hash
  FROM gs
)
SELECT doc_id, chunk_no, chunk_hash FROM (
  SELECT c.*, row_number() OVER (PARTITION BY chunk_hash
                                 ORDER BY doc_id, chunk_no) AS rn
  FROM c
) WHERE rn = 1""",
        # bloom gate is an optimization only: results = exact anti-join of
        # the new shard's text against the processed-corpus text
        "incremental_dedup_docs": """
WITH old AS (SELECT text FROM documents WHERE doc_id < 250),
n AS (
  SELECT doc_id, text FROM documents WHERE doc_id >= 250
  UNION ALL
  SELECT doc_id + 10000, text FROM documents WHERE doc_id < 100
)
SELECT n.doc_id FROM n
WHERE n.text NOT IN (SELECT text FROM old)""",
        "token_count_docs": f"""
SELECT doc_id, {ntok} AS n_tokens FROM documents""",
        # same %7 PII-suffix augmentation as the Ray query; both sides run
        # RE2 (pyarrow kernels / DuckDB regexp_*), so match semantics agree
        # by construction. Scrub order (email -> IPv4 -> phone) and
        # count-before-own-replacement are part of the semantics.
        "pii_scrub_docs": """
WITH aug AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN COALESCE(text, '')
                || ' Contact a' || CAST(doc_id AS VARCHAR)
                || '@mail.example or 10.0.' || CAST(doc_id % 256 AS VARCHAR)
                || '.7 now +1 (555) 010-'
                || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || '.'
              ELSE COALESCE(text, '') END AS text
  FROM documents),
s1 AS (
  SELECT doc_id,
         len(regexp_extract_all(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n_emails,
         regexp_replace(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
             '<EMAIL>', 'g') AS t
  FROM aug),
s2 AS (
  SELECT doc_id, n_emails,
         len(regexp_extract_all(t,
             '\\b([0-9]{1,3}\\.){3}[0-9]{1,3}\\b')) AS n_ips,
         regexp_replace(t, '\\b([0-9]{1,3}\\.){3}[0-9]{1,3}\\b',
                        '<IP>', 'g') AS t
  FROM s1)
SELECT doc_id,
       regexp_replace(t, '\\+?[0-9][0-9()\\s.\\-]{6,}[0-9]',
                      '<PHONE>', 'g') AS scrubbed,
       n_emails, n_ips,
       len(regexp_extract_all(t,
           '\\+?[0-9][0-9()\\s.\\-]{6,}[0-9]')) AS n_phones
FROM s2""",
        # same %5 text-doubling augmentation as the Ray query; operation
        # order inside each arithmetic expression mirrors the Python
        # kernel exactly so the doubles hash-match
        "repetition_docs": r"""
WITH aug AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN text || chr(10) || text
              ELSE text END AS text
  FROM documents
),
tok AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\s+') END AS toks,
         string_split(text, chr(10)) AS lines
  FROM aug
),
pairs AS (
  SELECT doc_id, unnest(list_zip(toks[:-1], toks[2:])) AS bg
  FROM tok WHERE len(toks) >= 2
),
cnts AS (SELECT doc_id, bg, count(*) AS c FROM pairs GROUP BY doc_id, bg),
top AS (SELECT doc_id, max(c) AS topc FROM cnts GROUP BY doc_id)
SELECT t.doc_id,
       len(t.lines) AS n_lines,
       1.0 - (CAST(len(list_distinct(t.lines)) AS DOUBLE) / len(t.lines))
         AS dup_line_frac,
       CASE WHEN len(t.toks) < 2 THEN 0.0
            ELSE CAST(coalesce(top.topc, 0) AS DOUBLE) / (len(t.toks) - 1)
       END AS top_bigram_frac
FROM tok t LEFT JOIN top USING (doc_id)""",
        # composed curation pipeline, same %5-doubling and shifted-copy
        # augmentation as the Ray query; every signal expression mirrors
        # the single-pass _doc_signals kernel
        "curate_docs": f"""
WITH aug0 AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN text || chr(10) || text
              ELSE text END AS text
  FROM documents
),
aug AS (
  SELECT * FROM aug0
  UNION ALL
  SELECT doc_id + 100000 AS doc_id, text FROM aug0 WHERE doc_id < 25
),
t AS (
  SELECT doc_id, text,
         CASE WHEN trim(text) = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks,
         string_split(text, chr(10)) AS lines
  FROM aug
),
big AS (
  SELECT doc_id, max(c) AS topc FROM (
    SELECT doc_id, bg, count(*) AS c
    FROM (SELECT doc_id, unnest(list_zip(toks[:-1], toks[2:])) AS bg
          FROM t WHERE len(toks) >= 2) GROUP BY doc_id, bg)
  GROUP BY doc_id
),
sig AS (
  SELECT t.doc_id, md5(t.text) AS md5,
         len(t.toks) AS n_tokens,
         CASE WHEN len(t.toks) = 0 THEN 0.0
              ELSE CAST(len(list_filter(list_transform(t.toks,
                     x -> lower(x)), x -> list_contains(
                     {_stop_list_sql()}, x))) AS DOUBLE) / len(t.toks)
         END AS stop_ratio,
         CASE WHEN len(t.toks) = 0 THEN 0.0
              ELSE CAST(length(regexp_replace(t.text, '\\s', '', 'g'))
                        AS DOUBLE) / len(t.toks)
         END AS mean_token_len,
         1.0 - (CAST(len(list_distinct(t.lines)) AS DOUBLE)
                / len(t.lines)) AS dup_line_frac,
         CASE WHEN len(t.toks) < 2 THEN 0.0
              ELSE CAST(coalesce(big.topc, 0) AS DOUBLE)
                   / (len(t.toks) - 1)
         END AS top_bigram_frac,
         len(list_filter(list_transform(t.toks, x -> lower(x)),
             x -> list_contains({_marker_sql('de')}, x))) AS de,
         len(list_filter(list_transform(t.toks, x -> lower(x)),
             x -> list_contains({_marker_sql('en')}, x))) AS en,
         len(list_filter(list_transform(t.toks, x -> lower(x)),
             x -> list_contains({_marker_sql('es')}, x))) AS es,
         len(list_filter(list_transform(t.toks, x -> lower(x)),
             x -> list_contains({_marker_sql('fr')}, x))) AS fr
  FROM t LEFT JOIN big USING (doc_id)
)
SELECT doc_id, md5, n_tokens, stop_ratio, mean_token_len, dup_line_frac,
       top_bigram_frac
FROM sig
WHERE (CASE WHEN greatest(de, en, es, fr) = 0 THEN 'und'
            WHEN de >= en AND de >= es AND de >= fr THEN 'de'
            WHEN en >= es AND en >= fr THEN 'en'
            WHEN es >= fr THEN 'es'
            ELSE 'fr' END) = 'en'
  AND n_tokens BETWEEN 25 AND 90
  AND stop_ratio >= 0.01 AND mean_token_len <= 10.0
  AND dup_line_frac <= 0.4 AND top_bigram_frac <= 0.08
QUALIFY row_number() OVER (PARTITION BY md5 ORDER BY doc_id) = 1""",
        "quality_docs": f"""
SELECT doc_id, {ntok} AS n_tokens, {nchr} AS n_chars_nows,
       {nstop} AS n_stopwords,
       CASE WHEN {ntok} = 0 THEN 0.0
            ELSE CAST({nstop} AS DOUBLE) / {ntok} END AS stop_ratio,
       CASE WHEN {ntok} = 0 THEN 0.0
            ELSE CAST({nchr} AS DOUBLE) / {ntok} END AS mean_token_len
FROM documents""",
        "quality_filter_docs": f"""
WITH q AS (
  SELECT doc_id, {ntok} AS n_tokens,
         CASE WHEN {ntok} = 0 THEN 0.0
              ELSE CAST({nstop} AS DOUBLE) / {ntok} END AS stop_ratio,
         CASE WHEN {ntok} = 0 THEN 0.0
              ELSE CAST({nchr} AS DOUBLE) / {ntok} END AS mean_token_len
  FROM documents
)
SELECT doc_id, n_tokens, stop_ratio FROM q
WHERE n_tokens BETWEEN 40 AND 90
  AND stop_ratio >= 0.01 AND mean_token_len <= 10.0""",
        "lang_id_docs": f"""
WITH t AS (SELECT doc_id, {toks} AS toks FROM documents),
c AS (SELECT doc_id, {lang_counts} FROM t)
SELECT doc_id,
       CASE WHEN greatest(de, en, es, fr) = 0 THEN 'und'
            WHEN de >= en AND de >= es AND de >= fr THEN 'de'
            WHEN en >= es AND en >= fr THEN 'en'
            WHEN es >= fr THEN 'es'
            ELSE 'fr' END AS pred_lang,
       greatest(de, en, es, fr) AS marker_hits
FROM c""",
        "fingerprint_docs": "SELECT doc_id, md5(text) AS md5 FROM documents",
        "decontam_docs": r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'),
                     x -> x <> '') AS w
  FROM documents
),
g AS (
  SELECT doc_id,
         unnest(list_distinct(list_transform(
           generate_series(1, len(w) - 4),
           i -> array_to_string(w[i:i+4], ' ')))) AS gram
  FROM toks
),
bset AS (SELECT DISTINCT gram FROM g WHERE doc_id % 20 = 0),
tot AS (SELECT doc_id, count(*) AS ngrams_total FROM g GROUP BY 1),
hit AS (SELECT g.doc_id, count(*) AS ngrams_hit
        FROM g JOIN bset USING (gram) GROUP BY 1)
SELECT d.doc_id,
       coalesce(t.ngrams_total, 0) AS ngrams_total,
       coalesce(h.ngrams_hit, 0) AS ngrams_hit,
       (coalesce(t.ngrams_total, 0) > 0 AND
        coalesce(h.ngrams_hit, 0) * 100 >= coalesce(t.ngrams_total, 0) * 10)
         AS contaminated
FROM documents d
LEFT JOIN tot t ON d.doc_id = t.doc_id
LEFT JOIN hit h ON d.doc_id = h.doc_id""",
        "stratified_sample_docs": _stratified_sample_sql(),
        "pack_bins_docs": r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
         ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS start_offset
  FROM t
)
SELECT doc_id, n_tokens, CAST(start_offset AS BIGINT) AS start_offset,
       CAST(start_offset // 512 AS BIGINT) AS bin_id
FROM c""",
        "token_freq_docs": r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []
         ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents
),
u AS (SELECT doc_id, u.tok FROM t, unnest(t.toks) AS u(tok)),
vc AS (SELECT tok, count(*) AS c FROM u GROUP BY 1),
per AS (
  SELECT u.doc_id,
         count(*) AS n_tokens,
         CAST(sum(c) AS BIGINT) AS tf_sum,
         CAST(sum(CAST(floor(log2(c)) AS BIGINT)) AS BIGINT)
           AS sum_log2_floor,
         CAST(sum(CASE WHEN c <= 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS rare_count
  FROM u JOIN vc USING (tok) GROUP BY 1
)
SELECT d.doc_id,
       coalesce(p.n_tokens, 0) AS n_tokens,
       coalesce(p.tf_sum, 0) AS tf_sum,
       coalesce(p.sum_log2_floor, 0) AS sum_log2_floor,
       coalesce(p.rare_count, 0) AS rare_count,
       CASE WHEN coalesce(p.n_tokens, 0) = 0 THEN 0.0
            ELSE CAST(p.tf_sum AS DOUBLE) / p.n_tokens
       END AS mean_token_freq
FROM documents d LEFT JOIN per p ON d.doc_id = p.doc_id""",
        "asof_join_events": """
WITH r AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY 1, 2
)
SELECT e.event_id, e.ts, e.user_id, r.o_orderkey, r.o_orderdate
FROM events e ASOF JOIN r
  ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate""",
        "tfidf_topk_docs": r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []
         ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents
),
u AS (SELECT doc_id, u.tok FROM t, unnest(t.toks) AS u(tok)),
tf AS (SELECT doc_id, tok, count(*) AS tf FROM u GROUP BY 1, 2),
df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM u GROUP BY 1),
n AS (SELECT count(*) AS nd FROM documents),
sc AS (
  SELECT tf.doc_id, tf.tok,
         CAST(tf.tf * ((1000 * n.nd) // df.df) AS BIGINT) AS score
  FROM tf JOIN df USING (tok) CROSS JOIN n
),
r AS (
  SELECT doc_id, tok, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, tok) AS rn
  FROM sc
)
SELECT doc_id, tok AS token, score, CAST(rn AS BIGINT) AS rank
FROM r WHERE rn <= 3""",
        "shuffle_rank_docs": """
SELECT doc_id,
       CAST(row_number() OVER (ORDER BY md5(CAST(doc_id AS VARCHAR)))
            - 1 AS BIGINT) AS shuffle_pos
FROM documents""",
        "band_join_events": """
SELECT a.event_id, a.event_type, a.value,
       b.event_id AS event_id_r, b.value AS value_r
FROM events a JOIN events b
  ON a.event_type = b.event_type
 AND b.value >= a.value - 0.01 AND b.value <= a.value + 0.01
 AND a.event_id < b.event_id""",
        "quantiles_events": _quantiles_events_sql(),
        "top_tokens_docs": r"""
WITH t AS (
  SELECT CASE WHEN trim(text) = '' THEN []
         ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
  FROM documents
)
SELECT u.tok AS token, count(*) AS n
FROM t, unnest(t.toks) AS u(tok)
GROUP BY 1 ORDER BY n DESC, token LIMIT 50""",
        "rrf_orders": """
WITH r1 AS (
  SELECT CAST(o_orderkey AS VARCHAR) AS id,
         row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rank
  FROM orders QUALIFY rank <= 20
),
r2 AS (
  SELECT CAST(o_orderkey AS VARCHAR) AS id,
         row_number() OVER (ORDER BY o_orderdate DESC, o_orderkey) AS rank
  FROM orders QUALIFY rank <= 20
),
u AS (SELECT * FROM r1 UNION ALL SELECT * FROM r2)
SELECT id, sum(1.0 / (60 + rank)) AS rrf_score FROM u GROUP BY id""",
        "ann_topk": """
WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
           FROM embeddings WHERE vec_id < 5),
s AS (SELECT q.query_id, e.vec_id,
             list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[]))
               AS score
      FROM q CROSS JOIN embeddings e)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY score DESC, vec_id) AS rank
FROM s QUALIFY rank <= 10""",
        "near_dup_cosine": _NEAR_DUP_SQL,
        "near_dup_cosine_lsh": _NEAR_DUP_SQL,
        "tumbling_window_events": """
SELECT user_id, date_trunc('hour', ts) AS window_start,
       count(*) AS n_events, max(value) AS max_value
FROM events GROUP BY 1, 2""",
        "hopping_window_events": """
WITH e AS (
  SELECT user_id, value,
         CAST(floor(epoch(ts)) AS BIGINT) AS sec
  FROM events
),
w AS (
  SELECT user_id, value, (sec // 900 - k) * 900 AS ws_sec
  FROM e, unnest([0, 1, 2, 3]) AS t(k)
)
SELECT user_id, ws_sec, count(*) AS n_events, max(value) AS max_value
FROM w GROUP BY 1, 2""",
        "session_window_events": """
WITH e AS (
  SELECT user_id, event_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
s AS (
  SELECT user_id, ts,
         sum(CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS sess
  FROM e
)
SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events
FROM s GROUP BY user_id, sess""",
        "broadcast_join_lineitem": """
SELECT l_orderkey, l_linenumber, l_partkey, p_brand
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_size >= 30""",
        "shuffle_join_orders": """
SELECT o_orderkey, o_custkey, c_name
FROM orders JOIN customer ON c_custkey = o_custkey""",
        "source_stats_docs": f"""
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM({ntok}) AS BIGINT) AS sum_tokens,
       CAST((1000 * SUM(n_chars)) // COUNT(*) AS BIGINT)
           AS avg_chars_milli,
       CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs
FROM documents GROUP BY source""",
        "union_upsert_docs": """
WITH u AS (
  SELECT doc_id, lang, 0 AS prio FROM documents WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id, lang, 1 AS prio FROM documents WHERE doc_id % 3 = 0
)
SELECT doc_id, lang, CASE WHEN prio = 0 THEN 'base' ELSE 'new' END AS src
FROM u QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY prio) = 1""",
        "top1_per_order": """
SELECT l_orderkey, l_partkey, l_quantity FROM lineitem
QUALIFY row_number() OVER (
  PARTITION BY l_orderkey
  ORDER BY l_quantity DESC, l_partkey, l_linenumber) = 1""",
        "related_entities_topk": cooccur_cte + """,
ed AS (SELECT src, dst, rel, count(*) AS weight FROM bo GROUP BY 1, 2, 3)
SELECT dst, rel, weight FROM ed
WHERE src = 'p000001' AND rel = 'worn_with' AND weight >= 2
ORDER BY weight DESC, dst LIMIT 5""",
        "jaccard_ngram_pairs_docs": r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN [] ELSE
           list_transform(regexp_split_to_array(trim(text), '\s+'),
                          x -> lower(x)) END AS w
  FROM documents
),
g AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, len(w) - 1),
            i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS grams
  FROM t WHERE len(w) >= 3
),
p AS (
  SELECT a.doc_id AS a, b.doc_id AS b,
         len(list_intersect(a.grams, b.grams)) AS i,
         len(a.grams) AS la, len(b.grams) AS lb
  FROM g a JOIN g b ON a.doc_id < b.doc_id
)
SELECT a, b, CAST(i AS DOUBLE) / (la + lb - i) AS jac
FROM p WHERE i > 0 AND CAST(i AS DOUBLE) / (la + lb - i) >= 0.4""",
        "attr_extract_docs": _attr_extract_sql(),
        "spec_attrs_docs": (
            "WITH t AS (SELECT doc_id, lower(text) AS lt FROM documents),"
            + ",".join(_spec_field_sql(f)[0]
                       for f in ("sleeve_length", "closure", "pattern"))
            + """
SELECT t.doc_id,
       coalesce(a1.v, 'unknown') AS sleeve_length,
       coalesce(a2.v, 'unknown') AS closure,
       coalesce(a3.v, 'unknown') AS pattern
FROM t
LEFT JOIN (SELECT doc_id, v FROM s_sleeve_length WHERE rn = 1) a1 USING (doc_id)
LEFT JOIN (SELECT doc_id, v FROM s_closure WHERE rn = 1) a2 USING (doc_id)
LEFT JOIN (SELECT doc_id, v FROM s_pattern WHERE rn = 1) a3 USING (doc_id)"""),
        "kg_mentions": kg_mentions_cte + """
SELECT doc_id, printf('prod-%06d', e) AS entity_id FROM m""",
        "kg_edges": kg_edges_sql,
        "kg_pagerank": _kg_pagerank_values_sql(),
        "triangles_parts": """
WITH mm AS (SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk
            FROM lineitem WHERE l_orderkey % 10 = 0),
und AS (SELECT DISTINCT a.pk AS a, b.pk AS b
        FROM mm a JOIN mm b ON a.ok = b.ok AND a.pk < b.pk),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM und e1
  JOIN und e2 ON e2.a = e1.b
  JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
),
c AS (SELECT x AS id FROM tri UNION ALL SELECT y FROM tri
      UNION ALL SELECT z FROM tri)
SELECT id, count(*) AS triangles FROM c GROUP BY id""",
        "kg_edges_canonical": kg_edges_canon_sql,
        "canonical_map": _canonical_map_values_sql(),
        "kg_triples_embedding": _kg_triples_values_sql(),
        "media_image_features": _media_values_sql("image"),
        "media_audio_features": _media_values_sql("audio"),
        "minhash_dedup_docs": _minhash_values_sql(),
        "simhash_pairs_docs": _simhash_values_sql(),
        "outfit_text": _outfit_text_values_sql(),
        "outfit_page": _outfit_page_values_sql(),
        "kmeans_clusters_emb": _kmeans_values_sql(),
        "pagerank_lineitem": _pagerank_values_sql(),
        "hll_distinct_events": _hll_values_sql(),
        "bigram_counts_docs": r"""
WITH t AS (
  SELECT CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
         ELSE regexp_split_to_array(trim(text), '\s+') END AS w
  FROM documents
),
g AS (
  SELECT unnest(list_transform(generate_series(1, len(w) - 1),
                               i -> array_to_string(w[i:i+1], ' ')))
           AS gram
  FROM t WHERE len(w) >= 2
)
SELECT gram, count(*) AS n FROM g GROUP BY gram""",
        "json_flatten_events": """
SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k
FROM events""",
        "bm25_topk_docs": _bm25_sql(),
        "training_set_docs": _training_set_sql(),
        "cms_counts_events": _cms_values_sql(),
        "semantic_dedup_emb": _semantic_dedup_values_sql(),
        # exact self-kNN: rank by cosine DESC, dst ASC (score itself is
        # not compared — identical tie policy to ann_topk)
        "knn_graph_emb": """
WITH s AS (
  SELECT a.vec_id AS src, b.vec_id AS dst,
         list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                CAST(b.embedding AS DOUBLE[])) AS score
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
)
SELECT src, dst, rank FROM (
  SELECT src, dst,
         row_number() OVER (PARTITION BY src
                            ORDER BY score DESC, dst) AS rank
  FROM s
) WHERE rank <= 5""",
        "lsh_ann_topk": _ann_values_sql(_lsh_ann_expected_values()),
        "ivf_ann_topk": _ann_values_sql(_ivf_ann_expected_values()),
        "media_frame_sample": """
SELECT printf('doc-%d', doc_id) AS media_id, f AS frame_idx
FROM documents, (VALUES (0), (10), (20)) AS t(f)
WHERE doc_id % 3 = 2""",
        "preprocess_catalog_parts": """
WITH base AS (
  SELECT p_partkey AS product_id, p_type AS category
  FROM part WHERE p_partkey % 3 = 0
),
fresh AS (
  SELECT p_partkey, p_brand, p_type FROM part
  WHERE p_brand IN ('Brand#11', 'Brand#22', 'Brand#33')
    AND p_partkey NOT IN (SELECT product_id FROM base)
),
samp AS (
  SELECT * FROM fresh
  QUALIFY row_number() OVER (
    PARTITION BY p_brand
    ORDER BY md5(CAST(p_partkey AS VARCHAR)), p_partkey) <= 10
),
u AS (
  SELECT product_id, category, 0 AS prio FROM base
  UNION ALL
  SELECT p_partkey, p_type, 1 FROM samp
)
SELECT product_id, category,
       CASE WHEN prio = 0 THEN 'base' ELSE 'new' END AS src
FROM u QUALIFY row_number() OVER (PARTITION BY product_id
                                  ORDER BY prio) = 1""",
        "label_value_counts_events": """
SELECT event_type AS value, count(*) AS n FROM events GROUP BY 1""",
    }
