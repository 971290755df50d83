"""Corpus-level two-pass operators for LLM training-data preparation:
sequence packing (distributed prefix sum) and corpus-frequency scoring.

Neither exists in the reference (its pipelines are per-record,
`/root/reference/src/engine/process_catalog.py`); both are standard
large-corpus preparation steps and exercise a distributed pattern the
rest of the engine doesn't: a GLOBAL ordered scan (prefix sum) and a
corpus-wide statistic re-joined against every row.

Scale shapes
------------
``pack_bins`` is the GPT-style "concatenate all documents in a fixed
order, split every ``budget`` tokens" packing. The global prefix sum
runs as the classic distributed scan, ``bucketed.prefix_scan``:

1. one narrow pass computes per-doc token counts (id + int per row);
2. one ``Dataset.sort`` on the order key range-partitions that
   projection (never text), cutting on a sample of the keys, so skewed
   or gappy ids still spread over many blocks;
3. the driver takes one token total per sorted block (B integers),
   exclusive-prefixes them, and one task per block adds its offset to
   the block's local cumulative sum.

``exact_quantiles`` and ``with_global_index`` are the same scan with row
counts in place of token counts.

``token_freq_scores`` is the CCNet-style corpus-statistics scorer: pass
1 is the distributed word count (per-batch Counter partials, bucketed
merge); the resulting vocabulary is broadcast once via ``ray.put`` and
pass 2 scores every document against it batch-locally — no join
shuffle. A web-scale vocabulary of ``\\S+`` tokens can exceed driver
memory only because of singleton junk tokens; ``min_count`` drops
singletons from the broadcast (misses default to count 1, which is
EXACT for true singletons and a documented lower-bound approximation
only for counts in (1, min_count)). The default ``min_count=1`` keeps
the operator exactly SQL-equivalent.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textstats import tokens
from .bucketed import bucketed_aggregate, bucketed_group_apply, prefix_scan


def _token_count_batch(t: pa.Table, text_col: str, id_col: str) -> pa.Table:
    n = [len(tokens(x)) for x in t[text_col].to_pylist()]
    return pa.table({
        id_col: t[id_col],
        "n_tokens": pa.array(n, type=pa.int64()),
    })


def pack_bins(docs_ds, budget: int, *, text_col: str = "text",
              id_col: str = "doc_id"):
    """Assign each document to a fixed-token-budget training bin.

    Documents are laid out in ascending ``id_col`` order and the
    concatenated token stream is cut every ``budget`` tokens; a document
    belongs to the bin containing its FIRST token (GPT-style pack-and-
    split, where a document may straddle the cut). Output rows:
    ``(id_col, n_tokens, start_offset, bin_id)`` with
    ``start_offset`` = total tokens of all earlier documents and
    ``bin_id = start_offset // budget``.

    The prefix sum is ``prefix_scan`` over the (id, n_tokens) projection
    (see module docstring); the driver holds one integer per sorted
    block, never row data.
    """
    import ray.data as rd

    if budget <= 0:
        raise ValueError("budget must be positive")

    narrow = docs_ds.map_batches(
        lambda t: _token_count_batch(t, text_col, id_col),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    if not narrow.count():  # no block reached the maps: type the result
        s = docs_ds.schema()
        return rd.from_arrow(pa.schema(
            [(id_col, s.types[s.names.index(id_col)])]
            + [(c, pa.int64()) for c in ("n_tokens", "start_offset", "bin_id")]
        ).empty_table())

    def bins(t: pa.Table) -> pa.Table:
        start = t["start_offset"].to_numpy(zero_copy_only=False)
        return t.append_column("bin_id", pa.array(start // budget))

    return prefix_scan(narrow, id_col, "start_offset", "n_tokens") \
        .map_batches(bins, batch_format="pyarrow", zero_copy_batch=True)


def corpus_token_counts(docs_ds, *, text_col: str = "text"):
    """Distributed word count → Dataset of ``(token, n)`` rows: the
    ``n=1`` case of ``ngram_counts``."""
    return _gram_counts(docs_ds, 1, "token", text_col)


def token_freq_scores(docs_ds, stats_ds=None, *, text_col: str = "text",
                      id_col: str = "doc_id", rare_threshold: int = 2,
                      min_count: int = 1):
    """Score each document against corpus-wide token frequencies.

    Output per document (all integer-exact except one final division, so
    results are bit-identical across engines regardless of sum order):

    - ``n_tokens``     total tokens,
    - ``tf_sum``       Σ corpus-count(token)  (boilerplate mass),
    - ``sum_log2_floor`` Σ floor(log2 corpus-count) — an integer
      unigram-LM log-probability proxy (up to the corpus-size constant),
      computed with ``int.bit_length`` (exactly floor(log2 n)),
    - ``rare_count``   tokens whose corpus count ≤ ``rare_threshold``
      (gibberish / unique-id mass),
    - ``mean_token_freq`` = tf_sum / n_tokens (0.0 for empty docs).

    ``stats_ds``: optional precomputed ``corpus_token_counts`` output;
    recomputed from ``docs_ds`` when omitted. The vocabulary is pulled
    once and broadcast via ``ray.put`` — see module docstring for the
    ``min_count`` scale valve.
    """
    import ray

    if stats_ds is None:
        stats_ds = corpus_token_counts(docs_ds, text_col=text_col)
    if min_count > 1:
        stats_ds = stats_ds.filter(
            expr=f"n >= {int(min_count)}")
    vocab: dict = {}
    for b in stats_ds.iter_batches(batch_format="pyarrow"):
        vocab.update(zip(b["token"].to_pylist(),
                         b["n"].to_numpy(zero_copy_only=False).tolist()))
    ref = ray.put(vocab) if ray.is_initialized() else vocab

    def score(t: pa.Table) -> pa.Table:
        v = ref if isinstance(ref, dict) else ray.get(ref)
        ids, ntk, tfs, slf, rare, mean = [], [], [], [], [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            tks = tokens(txt)
            cs = [v.get(tok, 1) for tok in tks]
            ids.append(i)
            ntk.append(len(tks))
            tfs.append(sum(cs))
            slf.append(sum(c.bit_length() - 1 for c in cs))
            rare.append(sum(1 for c in cs if c <= rare_threshold))
            mean.append(sum(cs) / len(cs) if cs else 0.0)
        return pa.table({
            id_col: pa.array(ids, type=t[id_col].type),
            "n_tokens": pa.array(ntk, type=pa.int64()),
            "tf_sum": pa.array(tfs, type=pa.int64()),
            "sum_log2_floor": pa.array(slf, type=pa.int64()),
            "rare_count": pa.array(rare, type=pa.int64()),
            "mean_token_freq": pa.array(mean, type=pa.float64()),
        })

    return docs_ds.map_batches(score, batch_format="pyarrow",
                               zero_copy_batch=True)


def exact_quantiles(ds, col: str, qs_permille: list[int]):
    """EXACT distributed quantiles by rank selection — the driver never
    holds values.

    For each ``p`` in ``qs_permille`` the result row is the value at
    1-based rank ``max(1, ceil(p*n/1000))`` of the column sorted
    ascending (n = row count). Quantiles are specified in integer
    per-mille so the rank computation is pure integer arithmetic —
    bit-identical across engines (``0.1*n`` in binary floating point is
    not, and DuckDB would evaluate it in decimal).

    Shape: one narrow pass projects and materializes the column (n is
    its row count), ``prefix_scan`` gives every value its 0-based sorted
    position, and each block keeps the rows at a target rank. The
    exchange is one sort of the single-column projection.

    Returns a tiny Dataset: ``(q_permille, rank, value)``.
    """
    import ray.data as rd

    narrow = ds.select_columns([col]).materialize()
    n = narrow.count()
    out_schema = pa.schema([
        pa.field("q_permille", pa.int64()), pa.field("rank", pa.int64()),
        pa.field("value", narrow.schema().types[0]),
    ])
    if not n:
        return rd.from_arrow(out_schema.empty_table())
    ranks = {p: max(1, -(-p * n // 1000)) for p in qs_permille}
    at: dict[int, list[int]] = {}  # 0-based position -> its per-milles
    for p, k in ranks.items():
        at.setdefault(k - 1, []).append(p)

    def pick(t: pa.Table) -> pa.Table:
        hit = t.filter(pc.is_in(t["__pos"], pa.array(list(at), pa.int64())))
        pos = hit["__pos"].to_pylist()
        return pa.Table.from_arrays([
            pa.array([p for q in pos for p in at[q]], pa.int64()),
            pa.array([q + 1 for q in pos for _ in at[q]], pa.int64()),
            hit[col].take(pa.array(
                [i for i, q in enumerate(pos) for _ in at[q]], pa.int64())),
        ], schema=out_schema)

    return prefix_scan(narrow, col, "__pos").map_batches(
        pick, batch_format="pyarrow", zero_copy_batch=True)


def with_global_index(ds, order_col: str, *, index_col: str = "index"):
    """Attach a contiguous 0-based global rank by ascending ``order_col``
    (the zipWithIndex / row_number primitive Ray Data lacks) — used for
    deterministic corpus shuffling (rank by ``md5(id)``) and training
    shard assignment (``rank // shard_size``).

    ``order_col`` must be duplicate-free (an id or a cryptographic hash
    of one) so the total order — and therefore every rank — is unique
    and partitioning-independent.

    Scale shape: ``prefix_scan`` of the row counts — one sort of the full
    rows, one count per sorted block to the driver; the driver never
    holds row data.
    """
    return prefix_scan(ds, order_col, index_col)


def doc_frequencies(docs_ds, *, text_col: str = "text"):
    """Distributed DOCUMENT frequency: ``(token, df)`` with df = number
    of documents containing the token (each document's distinct tokens,
    then one keyed count — same exchange shape as the word count)."""

    def doc_tokens(t: pa.Table) -> pa.Table:
        return pa.table({"token": pa.array(
            [w for x in t[text_col].to_pylist() for w in set(tokens(x))],
            type=pa.string())})

    return bucketed_aggregate(
        docs_ds.map_batches(doc_tokens, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["token"], {"df": ("token", "count_all")})


def ngram_counts(docs_ds, n: int, *, text_col: str = "text"):
    """Corpus n-gram counts: ``(gram, n)`` with gram = the
    space-joined window of ``n`` consecutive ``\\S+`` tokens (documents
    shorter than ``n`` tokens contribute nothing). ``n=1`` is the word
    count (``corpus_token_counts``); ``n=2,3`` are the n-gram-LM /
    collocation tables. One keyed count over the per-batch grams (a hot
    gram ships one int row per block)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _gram_counts(docs_ds, n, "gram", text_col)


def _gram_counts(docs_ds, n: int, col: str, text_col: str):
    def grams(t: pa.Table) -> pa.Table:
        out = []
        for x in t[text_col].to_pylist():
            w = tokens(x)
            out.extend(" ".join(w[i:i + n]) for i in range(len(w) - n + 1))
        return pa.table({col: pa.array(out, type=pa.string())})

    return bucketed_aggregate(
        docs_ds.map_batches(grams, batch_format="pyarrow",
                            zero_copy_batch=True),
        [col], {"n": (col, "count_all")})


def bm25_topk(docs_ds, query_tokens: list[str], k: int, *,
              text_col: str = "text", id_col: str = "doc_id",
              k1_milli: int = 1200, b_milli: int = 750):
    """Top-``k`` documents for a bag-of-tokens query by integer-quantized
    BM25 (k1/b in integer per-mille; defaults 1.2 / 0.75).

    Per (doc, term), with dl = doc token count and avgdl = corpus mean
    (integer floor)::

        norm  = (1000 - b) + (b * dl) // avgdl
        s_t   = idf * (tf * (k1 + 1000)) // (tf*1000 + (k1 * norm)//1000)
        idf   = (1000 * N) // df_t

    score = Σ s_t over query terms with tf > 0; rank (score DESC, id
    ASC). Every operation is integer, so the ranking is bit-identical
    across engines and partitionings (same rationale as ``tfidf_topk``).

    Scale shape: pass 1 is ONE narrow scan emitting per-batch (term, df)
    partials plus a (Σdl, n_docs) meta row — the driver folds a
    query-terms-sized table, never documents; the per-term idf table and
    avgdl broadcast in the scoring closure; pass 2 scores batch-locally
    and only the global (score, id) top-k sort moves rows, pre-cut to
    score > 0."""
    import ray

    terms = sorted(set(query_tokens))
    if not terms or k <= 0:
        raise ValueError("need at least one query token and k > 0")

    # BOTH passes (df/avgdl stats, then scoring) consume docs_ds; without
    # a materialize a derived upstream pipeline would re-execute per
    # consumer (the multi-consumer rule of prepare_training_set /
    # knn_graph). Pin only the narrow (id, text) projection.
    docs_ds = docs_ds.select_columns([id_col, text_col]).materialize()

    def stats_partial(t: pa.Table) -> pa.Table:
        dfs = {w: 0 for w in terms}
        dl_sum = 0
        n_docs = 0
        for x in t[text_col].to_pylist():
            tks = tokens(x)
            dl_sum += len(tks)
            n_docs += 1
            ts = set(tks)
            for w in terms:
                if w in ts:
                    dfs[w] += 1
        return pa.table({
            "term": pa.array(terms + ["\x00meta"], type=pa.string()),
            "df": pa.array([dfs[w] for w in terms] + [0], type=pa.int64()),
            "dl_sum": pa.array([0] * len(terms) + [dl_sum],
                               type=pa.int64()),
            "n_docs": pa.array([0] * len(terms) + [n_docs],
                               type=pa.int64()),
        })

    df_tot = {w: 0 for w in terms}
    sdl = 0
    n = 0
    for b in docs_ds.select_columns([text_col]).map_batches(
            stats_partial, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        for term, df, dls, nd in zip(b["term"].to_pylist(),
                                     b["df"].to_pylist(),
                                     b["dl_sum"].to_pylist(),
                                     b["n_docs"].to_pylist()):
            if term == "\x00meta":
                sdl += dls
                n += nd
            else:
                df_tot[term] += df
    if n == 0:
        return docs_ds.map_batches(
            lambda t: pa.table({id_col: pa.array([], type=pa.int64()),
                                "score": pa.array([], type=pa.int64())}),
            batch_format="pyarrow")
    avgdl = max(1, sdl // n)
    idf = {w: (1000 * n) // df_tot[w] for w in terms if df_tot[w] > 0}
    ref = ray.put((idf, avgdl)) if ray.is_initialized() else (idf, avgdl)

    def score_batch(t: pa.Table) -> pa.Table:
        idf_, avgdl_ = ref if isinstance(ref, tuple) else ray.get(ref)
        ids, scores = [], []
        for i, x in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            tks = tokens(x)
            dl = len(tks)
            norm = (1000 - b_milli) + (b_milli * dl) // avgdl_
            s = 0
            for w, widf in idf_.items():
                tf = tks.count(w)
                if tf:
                    s += widf * (tf * (k1_milli + 1000)) // (
                        tf * 1000 + (k1_milli * norm) // 1000)
            if s > 0:
                ids.append(i)
                scores.append(s)
        return pa.table({id_col: pa.array(ids, type=t[id_col].type),
                         "score": pa.array(scores, type=pa.int64())})

    scored = docs_ds.map_batches(score_batch, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return scored.sort(["score", id_col],
                       descending=[True, False]).limit(k)


def inverted_index(docs_ds, *, text_col: str = "text",
                   id_col: str = "doc_id",
                   postings_cap: int = 100_000):
    """Distributed inverted-index construction: one row per distinct
    token with its document frequency and a sorted postings string.

    Output: ``(token, df, postings, postings_truncated)`` where ``df``
    counts ALL documents containing the token, ``postings`` is the
    ascending comma-joined list of the first ``postings_cap`` doc ids
    and ``postings_truncated`` flags a capped list (never a silent cut —
    the C4-style evidence-cap rule of stages/aggregate.py).

    Scale shape: the per-batch partial emits each (token, sorted-id-run)
    ONCE per batch — the shuffle carries one row per distinct token per
    block, not one per occurrence. Token frequencies are Zipfian; a stop
    word's merge (concat + sort of its FULL postings) is the heaviest
    per-key reduction in this engine. A salted two-phase merge (split a
    token's runs across tasks, then merge the pre-capped slices) paid in
    none of three skew benches (120k docs x 5 universal stop words: 1.6
    vs 2.4 s; 400k docs x 16 universal tokens: 1.7 vs 2.9 s; ONE
    12M-posting mega-token: 3.4 vs 3.9 s): hash-bucketing already spreads
    distinct hot tokens across buckets and per-batch partials bound any
    token to one row per block, so the merge is not salted.

    Postings ride as comma-joined strings (Arrow large-binary friendly,
    and the driver never sees them). The hottest token's FINAL postings
    are bounded by ``postings_cap``; pair with an upstream stop-word
    drop when the corpus is 100 TB (documented valve, same reasoning as
    ``token_freq_scores.min_count``)."""

    def partial(t: pa.Table) -> pa.Table:
        per_tok: dict[str, list[int]] = {}
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            for tok in set(tokens(txt)):
                per_tok.setdefault(tok, []).append(i)
        items = sorted(per_tok.items())
        return pa.table({
            "token": pa.array([k for k, _ in items], type=pa.string()),
            "df": pa.array([len(v) for _, v in items], type=pa.int64()),
            "postings": pa.array(
                [",".join(map(str, sorted(v))) for _, v in items],
                type=pa.string()),
        })

    def _sorted_cap(runs: list[str]) -> list:
        flat = [x for r in runs for x in r.split(",") if x]
        # id_col may be any stringable type (triangle_counts-style
        # string ids included): sort numerically when every id parses
        # as an int, lexically otherwise — deterministic either way
        try:
            ids: list = sorted(int(x) for x in flat)
        except ValueError:
            ids = sorted(flat)
        return ids[:postings_cap]

    def _fold(t: pa.Table) -> dict[str, tuple[int, list[str]]]:
        per_tok: dict[str, tuple[int, list[str]]] = {}
        for tok, df, run in zip(t["token"].to_pylist(),
                                t["df"].to_pylist(),
                                t["postings"].to_pylist()):
            n, runs = per_tok.get(tok, (0, []))
            per_tok[tok] = (n + df, runs + [run])
        return per_tok

    def merge(t: pa.Table) -> pa.Table:
        per_tok = _fold(t)
        keys = sorted(per_tok)
        return pa.table({
            "token": pa.array(keys, type=pa.string()),
            "df": pa.array([per_tok[k][0] for k in keys], type=pa.int64()),
            "postings": pa.array(
                [",".join(map(str, _sorted_cap(per_tok[k][1])))
                 for k in keys], type=pa.string()),
            "postings_truncated": pa.array(
                [per_tok[k][0] > postings_cap for k in keys],
                type=pa.bool_()),
        })

    partials = docs_ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True)
    return bucketed_group_apply(partials, ["token"], merge)


def tfidf_topk(docs_ds, k: int, *, text_col: str = "text",
               id_col: str = "doc_id"):
    """Top-``k`` keywords per document by a quantized tf-idf.

    ``score = tf * ((1000 * N) // df)`` — term frequency times a
    per-mille integer inverse document frequency. The quantization is
    deliberate: a float ``tf * ln(N/df)`` ranks identically in practice
    but transcendental kernels differ across engines in the last ulp,
    while integer arithmetic is bit-exact everywhere (same reasoning as
    ``token_freq_scores``). Ties break on ascending token.

    Scale shape: ``doc_frequencies`` is one bucketed word-count exchange;
    the df table is broadcast once via ``ray.put`` (same singleton-mass
    caveat and ``min_count`` valve as the vocabulary broadcast — see
    module docstring); scoring is batch-local. Output:
    ``(id_col, token, score, rank)``, rows with rank <= k.
    """
    import ray

    n_docs = docs_ds.count()
    dfs: dict = {}
    for b in doc_frequencies(docs_ds, text_col=text_col) \
            .iter_batches(batch_format="pyarrow"):
        dfs.update(zip(b["token"].to_pylist(),
                       b["df"].to_numpy(zero_copy_only=False).tolist()))
    ref = ray.put(dfs) if ray.is_initialized() else dfs

    def score(t: pa.Table) -> pa.Table:
        from collections import Counter

        dfm = ref if isinstance(ref, dict) else ray.get(ref)
        ids, toks, scores, ranks = [], [], [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            tf = Counter(tokens(txt))
            scored = sorted(
                ((-c * ((1000 * n_docs) // dfm[tok]), tok)
                 for tok, c in tf.items()),
            )[:k]
            for r, (neg, tok) in enumerate(scored, start=1):
                ids.append(i)
                toks.append(tok)
                scores.append(-neg)
                ranks.append(r)
        return pa.table({
            id_col: pa.array(ids, type=t[id_col].type),
            "token": pa.array(toks, type=pa.string()),
            "score": pa.array(scores, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
        })

    return docs_ds.map_batches(score, batch_format="pyarrow",
                               zero_copy_batch=True)
