"""Deduplication suite for the training-data pipeline (task brief):

- exact dedup (content-hash groupby, keep min id);
- MinHash-LSH near-dup clustering (shingle -> minhash -> band -> bucket
  groupby -> verified pairs -> connected components);
- SimHash near-dup (64-bit simhash, band blocking on 16-bit chunks,
  Hamming-distance verification);
- n-gram Jaccard near-dup (exact AllPairs/PPJoin prefix-filter join over
  64-bit gram hashes);
- embedding-cosine near-dup (exact broadcast-matrix path, auto-routed to
  the random-hyperplane ``lsh_neardup_pairs`` above a vector-count gate).

Every variant returns deterministic cluster assignments
``(id, cluster_id = min member id)`` or verified pair lists, independent of
partitioning (crc32/blake2b hashing, bucketed shuffles, min-label CC).
The reference's only dedup is exact ``drop_duplicates``
(`/root/reference/src/engine/data_preprocessing.py:75-79`); everything
else here is a north-rule / task-brief addition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textstats import (
    fingerprint_md5,
    hamming64,
    simhash64,
    simhash64_batch,
)
from ..functions.vectors import list_to_matrix
from .bucketed import (
    bucketed_aggregate,
    bucketed_cogroup,
    bucketed_group_apply,
)
from .canonicalize import (
    _distinct_pairs,
    candidate_pairs,
    connected_components,
    lsh_band_rows,
)
from .pairs import group_pairs


# ── exact dedup ──────────────────────────────────────────────────────────

def exact_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """One row per distinct text: (md5, id = min id). Content hash is
    computed in-batch (vectorized), then one keyed min aggregate."""

    def to_hash(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        h = pa.array([fingerprint_md5(x) for x in texts], type=pa.string())
        return pa.table({"md5": h, id_col: t[id_col]})

    return bucketed_aggregate(
        ds.map_batches(to_hash, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["md5"], {id_col: (id_col, "min")})


# ── MinHash-LSH / n-gram Jaccard near-dup ────────────────────────────────

def minhash_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  threshold: float = 0.7, shingle_k: int = 5,
                  num_perm: int = 64, bands: int = 16):
    """Near-dup clusters over documents: (id, cluster) with cluster = min
    member id. ``shingle_k=5`` char shingles suit document-length text;
    band/row config trades recall for candidate volume (16x4 here)."""

    def as_str(t: pa.Table) -> pa.Table:
        return pa.table({"id": t[id_col].cast(pa.string()),
                         "text": t[text_col]})

    sds = ds.map_batches(as_str, batch_format="pyarrow", zero_copy_batch=True)
    bands_ds = lsh_band_rows(sds, "text", "id", num_perm=num_perm,
                             bands=bands, shingle_k=shingle_k)
    pairs = candidate_pairs(bands_ds, sds, threshold=threshold,
                            shingle_k=shingle_k)
    comp = connected_components(pairs, sds.select_columns(["id"]))
    return comp  # (id, component)


# ── chunk (passage) level dedup ──────────────────────────────────────────

def chunk_dedup(ds, *, chunk_tokens: int = 20, text_col: str = "text",
                id_col: str = "doc_id"):
    """C4/RefinedWeb-style passage-level corpus dedup: split each
    document's ``\\S+`` token stream into fixed ``chunk_tokens``-token
    chunks (the last chunk may be short) and keep only the globally
    FIRST occurrence — min ``(doc id, chunk_no)`` lexicographically —
    of each distinct chunk.

    Output: ``(doc_id, chunk_no, chunk_hash)`` of the KEPT chunks;
    ``chunk_hash`` = hex md5 of the space-joined chunk tokens, so the
    result is SQL-checkable and the shuffle ships 3 narrow columns —
    never text. Duplicate-chunk removal at 100 TB is exactly this
    exchange: the flat-map emits (id, no, 16-byte hash) rows and ONE
    bucketed groupby on the hash picks the winner; chunk text is
    re-fetched by (doc_id, chunk_no) slicing at consumption time
    (cheap, column-pruned) instead of riding the shuffle.
    """
    import hashlib

    from ..functions.textstats import tokens as _tokens

    def explode(t: pa.Table) -> pa.Table:
        ids, nos, hs = [], [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = _tokens(txt)
            for c in range(0, max(1, -(-len(toks) // chunk_tokens))
                           if toks else 0):
                chunk = " ".join(toks[c * chunk_tokens:(c + 1) * chunk_tokens])
                ids.append(i)
                nos.append(c)
                hs.append(hashlib.md5(chunk.encode("utf-8")).hexdigest())
        return pa.table({
            id_col: pa.array(ids, type=t[id_col].type),
            "chunk_no": pa.array(nos, type=pa.int64()),
            "chunk_hash": pa.array(hs, type=pa.string()),
        })

    def keep_first(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[
            ("chunk_hash", "ascending"), (id_col, "ascending"),
            ("chunk_no", "ascending")])
        s = t.take(idx)
        mask = np.ones(s.num_rows, dtype=bool)
        h = s["chunk_hash"].to_numpy(zero_copy_only=False)
        mask[1:] = h[1:] != h[:-1]
        return s.filter(pa.array(mask))

    exploded = ds.map_batches(explode, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucketed_group_apply(exploded, ["chunk_hash"], keep_first)


# ── Bloom gate: shared by incremental_dedup and lsh_neardup_pairs ───────

def _bloom_slots(h: np.ndarray, bits: int, k: int):
    for i in range(k):
        # i-th derived hash: splitmix-style remix, vectorized
        hk = (h ^ np.uint64((0x9E3779B97F4A7C15 * (i + 1))
                            & 0xFFFFFFFFFFFFFFFF))
        yield (hk * np.uint64(0xBF58476D1CE4E5B9)) % np.uint64(bits)


def _bloom_filter(ds, hashes, *, bits: int, k: int):
    """Bloom filter of every uint64 ``hashes(batch)`` yields over ``ds``:
    one narrow pass ORs per-batch bitmap partials into ``bits`` bits on
    the driver (``bits/8`` bytes, never rows), broadcast once via
    ``ray.put``. Test membership with ``_bloom_hits``."""
    import ray

    # bitmap words are uint64; a bits that is not a multiple of 64 would
    # make slot indices (mod bits) point past the truncated word array —
    # round UP so every slot has a word
    bits = ((bits + 63) // 64) * 64

    def partial(t: pa.Table) -> pa.Table:
        bm = np.zeros(bits // 64, dtype=np.uint64)
        for s in _bloom_slots(hashes(t), bits, k):
            np.bitwise_or.at(bm, (s // np.uint64(64)).astype(np.int64),
                             np.uint64(1) << (s % np.uint64(64)))
        return pa.table({"bitmap": pa.array([bm.tobytes()],
                                            type=pa.binary())})

    bloom = np.zeros(bits // 64, dtype=np.uint64)
    for b in ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for raw in b["bitmap"].to_pylist():
            bloom |= np.frombuffer(raw, dtype=np.uint64)
    return ray.put(bloom) if ray.is_initialized() else bloom


def _bloom_hits(bloom_ref, h: np.ndarray, k: int) -> np.ndarray:
    """Membership mask of uint64 hashes ``h`` in a ``_bloom_filter``
    built with the same ``k`` (false positives, never false negatives)."""
    import ray

    bm = bloom_ref if isinstance(bloom_ref, np.ndarray) \
        else ray.get(bloom_ref)
    hit = np.ones(len(h), dtype=bool)
    for s in _bloom_slots(h, bm.size * 64, k):
        word = bm[(s // np.uint64(64)).astype(np.int64)]
        hit &= (word >> (s % np.uint64(64))) & np.uint64(1) != 0
    return hit


# ── incremental (bloom-gated) dedup against a reference corpus ───────────

def incremental_dedup(new_ds, ref_ds, *, text_col: str = "text",
                      id_col: str = "doc_id",
                      bloom_bits: int = 1 << 23, bloom_hashes: int = 4):
    """Drop rows of ``new_ds`` whose text already appears in ``ref_ds``
    (the incremental-crawl dedup: today's shard against the processed
    corpus). EXACT results with a Bloom-filter shuffle gate:

    1. one narrow pass over ``ref_ds`` hashes texts (md5 → 64-bit) and
       ORs per-batch bitmap partials into a ``bloom_bits``-bit filter —
       the driver holds one ``bloom_bits/8``-byte array (1 MiB at the
       default), never rows — broadcast once via ``ray.put``;
    2. ``new_ds`` rows whose hash MISSES the bloom are definitively
       fresh and stream through with NO shuffle (the common case: most
       of a new crawl is new);
    3. only bloom-HIT rows (true dups + false positives) enter a
       bucketed anti-join on the 64-bit hash against the ref hashes,
       which removes exactly the true dups.

    The bloom prunes the exchange, the anti-join restores exactness, so
    false positives cost only shuffle bytes — results are identical to a
    full anti-join. Size ``bloom_bits ≈ 10×`` ref cardinality for ~1%
    FP. Hash collisions (distinct texts, equal 64-bit md5 prefix) are
    the usual 2^-64 caveat, same as every content-hash dedup here.
    """
    from .relational import anti_join_shuffle

    def to_hash64(t: pa.Table, col: str) -> np.ndarray:
        # first 8 md5 digest bytes big-endian == int(hexdigest[:16], 16),
        # without the hex round-trip; md5 itself is per-text C code
        import hashlib

        md5 = hashlib.md5
        return np.fromiter(
            (int.from_bytes(md5((x or "").encode("utf-8")).digest()[:8],
                            "big") for x in t[col].to_pylist()),
            dtype=np.uint64, count=t.num_rows)

    # ref text is scanned and hashed ONCE; the (tiny) hash column is
    # materialized and reused for both the bloom build and the verify
    # anti-join's right side
    ref_hashes = ref_ds.select_columns([text_col]).map_batches(
        lambda t: pa.table({"__h64": pa.array(to_hash64(t, text_col),
                                              type=pa.uint64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    bloom_ref = _bloom_filter(
        ref_hashes,
        lambda t: t["__h64"].to_numpy(zero_copy_only=False)
        .astype(np.uint64),
        bits=bloom_bits, k=bloom_hashes)

    def bloom_test(t: pa.Table) -> pa.Table:
        h = to_hash64(t, text_col)
        hit = _bloom_hits(bloom_ref, h, bloom_hashes)
        return t.append_column("__h64", pa.array(h, type=pa.uint64())) \
                .append_column("__bloom_hit", pa.array(hit))

    # materialized: BOTH output branches (fresh pass-through and the
    # verify anti-join) consume it, and Ray re-executes un-materialized
    # lineage once per consumer — re-hashing every new row twice. The
    # incremental pattern processes one shard at a time, so pinning the
    # shard in the object store is the intended working set.
    tagged = new_ds.map_batches(bloom_test, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()

    def take_fresh(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(t["__bloom_hit"])) \
                .drop_columns(["__h64", "__bloom_hit"])

    def take_maybe(t: pa.Table) -> pa.Table:
        return t.filter(t["__bloom_hit"]).drop_columns(["__bloom_hit"])

    fresh = tagged.map_batches(take_fresh, batch_format="pyarrow",
                               zero_copy_batch=True)
    maybe = tagged.map_batches(take_maybe, batch_format="pyarrow",
                               zero_copy_batch=True)
    # the MATERIALIZED hash table from the bloom build is the anti-join
    # right side — the reference corpus is scanned/hashed exactly once
    survivors = anti_join_shuffle(maybe, "__h64", ref_hashes, "__h64") \
        .drop_columns(["__h64"])
    return fresh.union(survivors)


# ── SimHash near-dup ─────────────────────────────────────────────────────

def simhash_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3,
                  max_bucket_size: int = 2000):
    """Verified near-dup pairs by 64-bit SimHash: block on each of the four
    16-bit chunks (any pair within Hamming<=3 of each other shares at least
    one identical chunk when differing bits spread — standard simhash
    blocking), verify exact Hamming distance."""

    def to_bands(t: pa.Table) -> pa.Table:
        # band_key packs (band << 16) | 16-bit chunk into one int64 (same
        # grouping as the former "band:chunk" string, 8-byte exchange)
        texts = t[text_col].to_pylist()
        n = len(texts)
        sh = simhash64_batch(texts)
        idx = np.repeat(np.arange(n), 4)
        b = np.tile(np.arange(4, dtype=np.uint64), n)
        chunk = (sh[idx] >> (np.uint64(16) * b)) & np.uint64(0xFFFF)
        keys = (b.astype(np.int64) << np.int64(16)) | chunk.astype(np.int64)
        return pa.table({"band_key": pa.array(keys, type=pa.int64()),
                         "id": t[id_col].cast(pa.string()).take(idx),
                         "simhash": pa.array(sh[idx])})

    bands_ds = ds.map_batches(to_bands, batch_format="pyarrow",
                              zero_copy_batch=True)

    def pairs_in_buckets(t: pa.Table) -> pa.Table:
        # capped G1 fan-out per bucket, then one XOR + unpackbits popcount
        # pass for the Hamming verify; the within-call (a, b) dedup trims
        # the shuffle. An id's simhash is a function of its text, so it is
        # looked up by id.
        import pandas as pd

        ids = t["id"].to_numpy(zero_copy_only=False)
        _, a, b = group_pairs(t["band_key"].to_numpy(zero_copy_only=False),
                              ids, cap=max_bucket_size)
        sh = pd.Series(t["simhash"].to_numpy(zero_copy_only=False),
                       index=ids)
        sh = sh[~sh.index.duplicated()]
        x = (sh.reindex(a).to_numpy(dtype=np.uint64)
             ^ sh.reindex(b).to_numpy(dtype=np.uint64))
        d = np.unpackbits(x.view(np.uint8)).reshape(-1, 64).sum(axis=1)
        m = pd.DataFrame({"a": a, "b": b, "hamming": d.astype(np.int64)})
        m = m[m["hamming"] <= max_hamming].drop_duplicates(["a", "b"])
        return pa.table({"a": pa.array(m["a"], type=pa.string()),
                         "b": pa.array(m["b"], type=pa.string()),
                         "hamming": pa.array(m["hamming"],
                                             type=pa.int64())})

    raw = bucketed_group_apply(bands_ds, ["band_key"], pairs_in_buckets)
    return _distinct_pairs(raw, min_of="hamming")


# ── exact n-gram Jaccard similarity join (prefix filtering) ─────────────

def _word_ngram_hashes(text: str, n: int) -> np.ndarray:
    """Sorted distinct 64-bit hashes of the word-n-grams. Jaccard over the
    hash sets equals Jaccard over the gram sets unless two DISTINCT grams
    of a compared pair collide in 64 bits (~n^2/2^64 — never at any corpus
    size that fits a machine), so shipping 8-byte hashes instead of the
    gram strings preserves the exact join result while cutting the shuffle
    payload ~8x (measured: the gram-string variant was the slowest bench
    query)."""
    import hashlib

    ws = (text or "").strip().lower().split()
    if len(ws) < n:
        return np.empty(0, dtype=np.uint64)
    grams = {" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)}
    hs = np.fromiter(
        (int.from_bytes(hashlib.blake2b(g.encode("utf-8"),
                                        digest_size=8).digest(), "little")
         for g in grams),
        dtype=np.uint64, count=len(grams))
    return np.unique(hs)


def jaccard_ngram_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                        n: int = 3, threshold: float = 0.4,
                        demote_sample: int = 1000,
                        demote_k: int = 256, prefix_batch_size: int = 1024):
    """ALL pairs with word-``n``-gram Jaccard >= ``threshold`` — exact, not
    approximate: prefix filtering (AllPairs/PPJoin family) instead of
    MinHash banding. Under any fixed total order of grams, two sets with
    Jaccard >= t must share a gram within the first ``|s| - ceil(t*|s|) + 1``
    grams of each set, so blocking on prefix grams has perfect recall and
    the per-block verification computes the true Jaccard.

    Gram order (AllPairs frequency trick): the ``demote_k`` most frequent
    gram hashes in a ``demote_sample``-document prefix of the input sort
    AFTER all other grams, so prefixes prefer RARE grams and candidate
    buckets stay small. The output pair set is identical for ANY fixed
    order — the sample only tunes candidate volume, never recall — so the
    cheap driver-side sample is safe at any scale.

    Scale shape: one shuffle keyed by prefix-gram hash; rows carry the
    full gram set as ``list<uint64>`` (8 bytes/gram, not strings) so
    verification is block-local. The PPJoin LENGTH filter prunes pairs
    before intersection: Jaccard >= t forces min(|a|,|b|) >= t*max(|a|,|b|).
    Returns (a, b, jac) with a < b, deduped across blocks.
    """
    import math

    import ray

    sample = ds.limit(demote_sample).take_all()
    from collections import Counter

    counts: Counter = Counter()
    for row in sample:
        counts.update(_word_ngram_hashes(row[text_col], n).tolist())
    common = frozenset(g for g, _ in counts.most_common(demote_k))
    common_ref = ray.put(common) if ray.is_initialized() else common

    def prefix_rows(t: pa.Table) -> pa.Table:
        com = (ray.get(common_ref)
               if not isinstance(common_ref, frozenset) else common_ref)
        com_arr = np.fromiter(com, dtype=np.uint64, count=len(com))
        ids = t[id_col].to_pylist()
        texts = t[text_col].to_pylist()
        g_out, id_out, set_out = [], [], []
        for i, x in zip(ids, texts):
            hs = _word_ngram_hashes(x, n)
            if hs.size == 0:
                continue
            plen = hs.size - math.ceil(threshold * hs.size) + 1
            is_com = np.isin(hs, com_arr) if com_arr.size else \
                np.zeros(hs.shape, dtype=bool)
            rare = hs[~is_com]
            if rare.size >= plen:
                prefix = rare[:plen]
            else:  # not enough rare grams: pad with the common ones
                comm = hs[is_com]
                prefix = np.concatenate([rare, comm[:plen - rare.size]])
            for g in prefix.tolist():
                g_out.append(g)
                id_out.append(i)
                set_out.append(hs)
        return pa.table({
            "gram": pa.array(g_out, type=pa.uint64()),
            "id": pa.array(id_out, type=pa.int64()),
            "grams": pa.array(set_out, type=pa.list_(pa.uint64())),
        })

    # materialized: prefix_rows EXPANDS ~|prefix| x, and fused with the
    # bucket-tag stage (16384-row batches) it would bundle the whole small
    # input into ONE task, so the sort would make ONE partition and
    # serialize verification (observed: 12.6s single-task verify at
    # sf0.1). Unfused, the tag batches the expanded rows and the sort
    # fans out to their block count.
    blocks = ds.map_batches(prefix_rows, batch_format="pyarrow",
                            batch_size=prefix_batch_size,
                            zero_copy_batch=True).materialize()

    def verify(t: pa.Table) -> pa.Table:
        import pandas as pd

        # candidate generation is a vectorized self-merge per gram group
        # (C-speed), length-filtered and deduped BEFORE the per-pair
        # intersection loop — only surviving unique pairs pay Python cost
        df = pd.DataFrame({"gram": t["gram"].to_pandas(),
                           "id": t["id"].to_pandas(),
                           "grams": t["grams"].to_pandas()})
        first = df.drop_duplicates("id")
        gram_of = dict(zip(first["id"],
                           (np.asarray(g, dtype=np.uint64)
                            for g in first["grams"])))
        sizes = {i: g.size for i, g in gram_of.items()}
        _, a, b = group_pairs(df["gram"].to_numpy(), df["id"].to_numpy())
        j = pd.DataFrame({"id_x": a, "id_y": b}).drop_duplicates()
        if len(j) == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64()),
                             "jac": pa.array([], type=pa.float64())})
        la = j["id_x"].map(sizes).to_numpy()
        lb = j["id_y"].map(sizes).to_numpy()
        # PPJoin length filter: |inter| <= min  =>  jac <= min/max
        keep = np.minimum(la, lb) >= threshold * np.maximum(la, lb)
        j = j[keep]
        a_out, b_out, j_out = [], [], []
        for ia, ib in zip(j["id_x"].tolist(), j["id_y"].tolist()):
            sa, sb = gram_of[ia], gram_of[ib]
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if inter == 0:
                continue
            jac = inter / (sa.size + sb.size - inter)
            if jac >= threshold:
                a_out.append(ia); b_out.append(ib); j_out.append(jac)
        return pa.table({"a": pa.array(a_out, type=pa.int64()),
                         "b": pa.array(b_out, type=pa.int64()),
                         "jac": pa.array(j_out, type=pa.float64())})

    raw = bucketed_group_apply(blocks, ["gram"], verify)
    return _distinct_pairs(raw, min_of="jac")


# ── embedding-cosine near-dup ────────────────────────────────────────────

def lsh_neardup_pairs(ds, *, emb_col: str = "embedding",
                      id_col: str = "vec_id", threshold: float = 0.95,
                      ntables: int = 6, nbits: int = 8, seed: int = 42,
                      bloom_bits: int = 1 << 23):
    """APPROXIMATE cosine near-dup pairs via random-hyperplane LSH — the
    scale path behind ``embedding_neardup_pairs``.

    ``ntables`` independent sign-bit hash tables of ``nbits`` hyperplanes
    each; vectors sharing a key in ANY table become candidates, verified
    exactly in float64. For cosine >= 0.95 (angle <= 18°) the per-table
    collision probability is (1 - 18/180)^8 ≈ 0.43, so six tables catch
    ≈ 1-(1-0.43)^6 ≈ 97% of true pairs — approximate by design;
    documented trade for never materializing the corpus.

    Scale shape (the round-2 exchange carried the full float64 vector
    ntables× through the LSH shuffle with per-row Python key strings —
    this version moves ≥4× fewer bytes):

    1. **codes**: ONE matmul per batch against all ``ntables×nbits``
       hyperplanes, keys packed as int64 ``table<<nbits | code`` — the
       LSH exchange ships (int64 bkey, int64 id) rows ONLY, 16 B/row,
       no vectors, no Python loop;
    2. **candidates**: per-bucket vectorized self-merge on bkey emits
       distinct (a < b) id pairs; a bucketed distinct collapses
       cross-table duplicates BEFORE any vector moves;
    3. **verify**: a Bloom filter of involved ids (driver holds bits,
       never rows — same gate as ``incremental_dedup``) prunes the
       vector table to candidates±FP, then two bucketed gathers attach
       vec_a and vec_b and compute the exact float64 cosine. Vectors
       cross the exchanges ≤2× (only involved ones), vs ntables× for
       the whole corpus before.

    Deterministic: fixed-seed hyperplanes, (a < b) emitted once."""
    import ray

    # probe the dimension from one row (cheap; avoids schema reliance)
    dim = len(ds.limit(1).take_all()[0][emb_col])
    rng = np.random.Generator(np.random.PCG64(seed))
    # flat (ntables*nbits, dim): one matmul covers every table
    planes = rng.standard_normal((ntables, nbits, dim)) \
        .reshape(ntables * nbits, dim)
    planes_ref = ray.put(planes) if ray.is_initialized() else planes

    # consumed twice (code pass + verify gather) — pin the narrow
    # projection instead of re-executing upstream lineage per consumer
    vecs = ds.select_columns([id_col, emb_col]).materialize()

    def _matrix(t: pa.Table) -> np.ndarray:
        col = t[emb_col].combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.float64)
        if flat.size != t.num_rows * dim:
            raise ValueError(
                f"{emb_col} must be fixed-width list<{dim}> "
                f"(got {flat.size} values for {t.num_rows} rows)")
        return flat.reshape(t.num_rows, dim)

    weights = (1 << np.arange(nbits)).astype(np.int64)
    toffs = (np.arange(ntables, dtype=np.int64) << np.int64(nbits))

    def to_codes(t: pa.Table) -> pa.Table:
        pl = planes_ref if isinstance(planes_ref, np.ndarray) \
            else ray.get(planes_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        signs = (_matrix(t) @ pl.T) >= 0            # (n, ntables*nbits)
        codes = signs.reshape(len(ids), ntables, nbits) @ weights
        keys = (codes + toffs[None, :]).ravel()     # row-major: id repeats
        return pa.table({
            "bkey": pa.array(keys, type=pa.int64()),
            "id": pa.array(np.repeat(ids, ntables), type=pa.int64()),
        })

    rows = vecs.map_batches(to_codes, batch_format="pyarrow",
                            batch_size=4096, zero_copy_batch=True)

    def pairs_in_bucket(t: pa.Table) -> pa.Table:
        import pandas as pd

        _, a, b = group_pairs(t["bkey"].to_numpy(zero_copy_only=False),
                              t["id"].to_numpy(zero_copy_only=False))
        m = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
        return pa.table({"a": pa.array(m["a"], type=pa.int64()),
                         "b": pa.array(m["b"], type=pa.int64())})

    cand = _distinct_pairs(
        bucketed_group_apply(rows, ["bkey"], pairs_in_bucket)).materialize()

    # ── Bloom gate: prune the vector table to involved ids ± FP ─────────
    bloom_ref = _bloom_filter(
        cand,
        lambda t: np.unique(np.concatenate([
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False)])).astype(np.uint64),
        bits=bloom_bits, k=4)

    def vec_prune(t: pa.Table) -> pa.Table:
        h = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.filter(pa.array(_bloom_hits(bloom_ref, h, 4)))

    # BOTH gathers consume the pruned vectors — materialize once
    # (object-store footprint = involved ids ± bloom FP, not the corpus)
    pruned = vecs.map_batches(vec_prune, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    # ── two bucketed gathers attach vectors; exact float64 verify ───────
    vec_t = pa.list_(pa.float64())
    vec_schema = pa.schema([(id_col, pa.int64()), (emb_col, vec_t)])

    def _gather(v: pa.Table, keys: np.ndarray):
        """Rows of the bucket's vectors ``v`` for each key (argsort +
        searchsorted, all Arrow->numpy vectorized); miss mask for bloom
        FPs whose id has no vector in this bucket (cannot happen for real
        ids — only for pairs whose side never existed)."""
        vid = v[id_col].to_numpy(zero_copy_only=False)
        if len(vid) == 0:
            return np.zeros((len(keys), dim)), np.zeros(len(keys), bool)
        flat = np.asarray(v[emb_col].combine_chunks().flatten(),
                          dtype=np.float64)
        order = np.argsort(vid)
        vid, mat = vid[order], flat.reshape(len(vid), dim)[order]
        idx_c = np.clip(np.searchsorted(vid, keys), 0, len(vid) - 1)
        return mat[idx_c], vid[idx_c] == keys

    def attach(p: pa.Table, v: pa.Table) -> pa.Table:
        """Pairs keyed on ``a`` pick up vec_a, which rides to the second
        gather (keyed on ``b``) as ``carry``."""
        keys = p["a"].to_numpy(zero_copy_only=False)
        rows, hit = _gather(v, keys)
        carry = pa.ListArray.from_arrays(
            pa.array(np.arange(len(keys) + 1) * dim, type=pa.int32()),
            pa.array(rows.ravel(), type=pa.float64())) \
            if len(keys) else pa.array([], type=vec_t)
        out = p.append_column("carry", carry.cast(vec_t))
        return out.filter(pa.array(hit)) if not hit.all() else out

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    step_a = bucketed_cogroup(cand, pruned, ["a"], attach,
                              left_schema=pair_schema,
                              right_schema=vec_schema, right_keys=[id_col])

    def verify(p: pa.Table, v: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "cosine": pa.array([], type=pa.float64())})
        if p.num_rows == 0:
            return empty
        b_ids = p["b"].to_numpy(zero_copy_only=False)
        a_ids = p["a"].to_numpy(zero_copy_only=False)
        vb, hit = _gather(v, b_ids)
        ca = p["carry"].combine_chunks()
        va = np.asarray(ca.flatten(), dtype=np.float64) \
            .reshape(p.num_rows, dim)
        na = np.linalg.norm(va, axis=1)
        nb = np.linalg.norm(vb, axis=1)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        cos = np.einsum("ij,ij->i", va / na[:, None], vb / nb[:, None])
        keep = hit & (cos >= threshold)
        if not keep.any():
            return empty
        a_k, b_k, c_k = a_ids[keep], b_ids[keep], cos[keep]
        lo = np.minimum(a_k, b_k)
        hi = np.maximum(a_k, b_k)
        return pa.table({"a": pa.array(lo, type=pa.int64()),
                         "b": pa.array(hi, type=pa.int64()),
                         "cosine": pa.array(c_k, type=pa.float64())})

    return bucketed_cogroup(
        step_a, pruned, ["b"], verify,
        left_schema=pa.schema(list(pair_schema) + [("carry", vec_t)]),
        right_schema=vec_schema, right_keys=[id_col])


def embedding_neardup_pairs(ds, *, emb_col: str = "embedding",
                            id_col: str = "vec_id",
                            threshold: float = 0.95,
                            max_driver_vecs: int = 100_000):
    """Pairs (a < b) with cosine >= threshold.

    Two-regime routing (same shape as ``connected_components``): when the
    table fits ``max_driver_vecs`` the EXACT broadcast-matrix path runs —
    the full normalized matrix rides into every task once via ``ray.put``
    and each batch computes one (batch x all) matmul. A larger table
    automatically routes to ``lsh_neardup_pairs`` (random-hyperplane
    buckets, approximate-by-design), so no input size can materialize the
    corpus on the driver."""
    import ray

    # materialize once: count() would otherwise execute the upstream
    # pipeline just to route, and the chosen branch would recompute it
    # from scratch (candidate_pairs uses the same pattern)
    ds = ds.materialize()
    if ds.count() > max_driver_vecs:
        return lsh_neardup_pairs(ds, emb_col=emb_col, id_col=id_col,
                                 threshold=threshold)

    parts = list(ds.select_columns([id_col, emb_col])
                   .iter_batches(batch_format="pyarrow"))
    all_tbl = pa.concat_tables(parts) if parts \
        else pa.table({id_col: [], emb_col: []})
    ids = np.array(all_tbl[id_col].to_pylist())
    mat = list_to_matrix(all_tbl[emb_col]) if all_tbl.num_rows \
        else np.zeros((0, 1))
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat = mat / norms
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    ref = ray.put((ids, mat)) if ray.is_initialized() else (ids, mat)

    def find(batch: pa.Table) -> pa.Table:
        bid, bmat = ray.get(ref) if not isinstance(ref, tuple) else ref
        q_ids = np.asarray(batch[id_col].to_pylist())
        q = list_to_matrix(batch[emb_col])
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        q = q / qn
        sims = q @ bmat.T
        # one masked nonzero per batch: row-major order matches the old
        # per-row loop; qi < bid[j] keeps each pair once with a < b
        ii, jj = np.nonzero(sims >= threshold)
        keep = q_ids[ii] < bid[jj]
        ii, jj = ii[keep], jj[keep]
        return pa.table({"a": pa.array(q_ids[ii].astype(np.int64)),
                         "b": pa.array(bid[jj].astype(np.int64)),
                         "cosine": pa.array(sims[ii, jj].astype(np.float64))})

    return ds.map_batches(find, batch_format="pyarrow", batch_size=1024,
                          zero_copy_batch=True)
