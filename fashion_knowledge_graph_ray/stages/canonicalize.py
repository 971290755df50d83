"""Stage 5b: MinHash-LSH canonicalization of surface forms (north-rule).

The reference has no near-dedup (only exact ``drop_duplicates``,
`/root/reference/src/engine/data_preprocessing.py:75-79`); the north rule
adds a canonicalization pass that clusters near-duplicate surface forms
into canonical entity IDs. Design (SURVEY.md §7.1 step 5):

1. **signatures** — ``map_batches``: char-k-shingles -> 64 minhash values
   (numpy-vectorized universal hashing ``(a*h+b) mod p`` with fixed seeds);
2. **blocking** — flat-map each signature to ``(band_id, band_hash)`` keys
   (32 bands x 2 rows) and shuffle on the banded key;
3. **candidates** — within each LSH bucket, all pairs whose EXACT shingle
   Jaccard >= threshold (verification prunes LSH false positives);
4. **clustering** — distributed connected components by iterative min-label
   propagation (two bucketed shuffles per round, converges in O(diameter)
   rounds; deterministic: labels are string ids, min is total order);
5. **canonical id** = min entity_id over the cluster (FIXTURES.md §2).

Everything is seeded/deterministic: same input -> same clusters regardless
of partitioning or parallelism (crc32-based hashing; never builtin hash).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketed import bucketed_group_apply

_MERSENNE = np.uint64((1 << 61) - 1)
_NUM_PERM = 64
_BANDS = 32
_SHINGLE_K = 3
_JACCARD_THRESHOLD = 0.5


def _perm_params(num_perm: int, seed: int = 42):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


_A, _B = _perm_params(_NUM_PERM)


def shingles(text: str, k: int = _SHINGLE_K) -> set[str]:
    s = f" {text.lower()} "
    return {s[i: i + k] for i in range(max(1, len(s) - k + 1))}


_POLY = np.uint64(1099511628211)  # FNV-64 prime; any odd multiplier works


def _shingle_hash_values(text: str, k: int) -> np.ndarray:
    """uint64 rolling-polynomial hashes of every char-k-shingle of
    `` text `` (duplicates included), FULLY VECTORIZED: the text decodes
    once to a UTF-32 codepoint array and k Horner passes produce all
    window hashes — no per-shingle Python, no per-shingle crc32 calls
    (the round-2 hot loop: ~1 crc32 call per character of corpus).
    Deterministic and process-stable (pure integer arithmetic with
    uint64 wraparound); the hash VALUES differ from round 2's crc32 but
    the hashing is the semantics and every consumer — distributed band
    rows, verify kernels, and the sequential VALUES oracles — shares
    these kernels, so all results stay internally consistent."""
    s = f" {(text or '').lower()} "
    cp = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32) \
        .astype(np.uint64)
    n = len(cp) - k + 1
    if n <= 0:
        n, k = 1, len(cp)  # short string: one truncated shingle
    h = np.zeros(n, dtype=np.uint64)
    for j in range(k):  # Horner across window offsets, vectorized
        h = h * _POLY + cp[j:j + n]
    return h


def jaccard(a: str, b: str, k: int = _SHINGLE_K) -> float:
    sa, sb = shingles(a, k), shingles(b, k)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def minhash_signature(text: str, num_perm: int = _NUM_PERM,
                      k: int = _SHINGLE_K) -> np.ndarray:
    hs = np.unique(_shingle_hash_values(text, k))
    if hs.size == 0:
        return np.zeros(num_perm, dtype=np.uint64)
    # (num_perm, n_shingles) universal hashes, min over shingles
    vals = (_A[:num_perm, None] * hs[None, :]
            + _B[:num_perm, None]) % _MERSENNE
    return vals.min(axis=1)


def minhash_signatures_batch(texts, num_perm: int = _NUM_PERM,
                             k: int = _SHINGLE_K) -> np.ndarray:
    """(n, num_perm) minhash signatures for a whole batch, numerically
    identical to per-doc ``minhash_signature`` (asserted in tests) but
    with NO per-document numpy-call overhead: all documents' shingle
    windows hash in one concatenated Horner pass, and each permutation
    reduces per-document with ``np.minimum.reduceat``. The per-doc
    ``np.unique`` is dropped entirely — min over duplicate shingle
    hashes equals min over the distinct set."""
    n = len(texts)
    sigs = np.empty((n, num_perm), dtype=np.uint64)
    padded = [f" {(t or '').lower()} " for t in texts]
    long_idx = [i for i, s in enumerate(padded) if len(s) >= k]
    for i in range(n):  # rare: texts shorter than one shingle window
        if len(padded[i]) < k:
            sigs[i] = minhash_signature(texts[i] or "", num_perm, k)
    if not long_idx:
        return sigs
    parts = [padded[i] for i in long_idx]
    lens = np.fromiter((len(p) for p in parts), np.int64, count=len(parts))
    cp = np.frombuffer("".join(parts).encode("utf-32-le"),
                       dtype=np.uint32).astype(np.uint64)
    doc_end = np.cumsum(lens)
    # Horner over EVERY position of the concatenation, then drop the
    # k-1 tail positions of each document whose windows would cross
    # into the next document — one mask instead of k gathers
    nw = cp.size - (k - 1)
    h = cp[:nw].copy()
    for j in range(1, k):
        h *= _POLY
        h += cp[j:j + nw]
    valid = np.ones(nw, dtype=bool)
    for j in range(1, k):
        tail = doc_end[:-1] - j
        valid[tail[tail < nw]] = False
    h = h[valid]
    win_count = lens - k + 1
    woff = np.concatenate([np.zeros(1, np.int64), np.cumsum(win_count)])
    li = np.asarray(long_idx, dtype=np.int64)
    # doc-aligned window chunks: the (num_perm, chunk) hash block stays
    # cache-resident across all permutations instead of streaming the
    # whole window array num_perm times
    A2, B2 = _A[:num_perm, None], _B[:num_perm, None]
    CHUNK = 4096
    nd = li.size
    i = 0
    while i < nd:
        j = i
        while j < nd and woff[j + 1] - woff[i] < CHUNK:
            j += 1
        j = max(j, i + 1)
        hg = h[woff[i]:woff[j]]
        V = A2 * hg[None, :]
        V += B2
        V %= _MERSENNE
        red = woff[i:j] - woff[i]
        sigs[li[i:j]] = np.minimum.reduceat(V, red, axis=1).T
        i = j
    return sigs


def lsh_band_rows(ds, text_col: str, id_col: str, *,
                  num_perm: int = _NUM_PERM, bands: int = _BANDS,
                  shingle_k: int = _SHINGLE_K, batch_size: int = 4096):
    """-> Dataset (band_key:int64, id): one row per (record, band).

    Deliberately does NOT carry the text: band rows fan out x``bands`` per
    record, so carrying text would shuffle ``bands`` copies of the whole
    corpus (measured ~16x the table size at sf0.1). Verification fetches
    texts for the (few) candidate ids afterwards.

    ``band_key`` packs ``(band_index << 32) | crc32(segment bytes)`` into
    one int64 — the SAME grouping as the former ``f"{band}:{crc}"``
    string key, but the widest exchange of the LSH ships 8-byte ints
    instead of variable-width strings, and all per-(record, band) hashes
    of a batch compute in one table-driven CRC pass instead of
    n x bands ``zlib.crc32`` calls."""
    rows_per_band = num_perm // bands

    def to_bands(batch: pa.Table) -> pa.Table:
        from ..functions.vectors import _crc32_rows

        texts = batch[text_col].to_pylist()
        n = len(texts)
        sigs = minhash_signatures_batch(texts, num_perm, shingle_k)
        win = np.ascontiguousarray(sigs).view(np.uint8) \
            .reshape(n * bands, rows_per_band * 8)
        h = _crc32_rows(win).astype(np.int64)
        band_idx = np.tile(np.arange(bands, dtype=np.int64), n)
        keys = (band_idx << np.int64(32)) | h
        out_ids = batch[id_col].take(np.repeat(np.arange(n), bands))
        return pa.table({"band_key": pa.array(keys, type=pa.int64()),
                         "id": out_ids})

    return ds.map_batches(to_bands, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Sorted distinct uint64 rolling-hashes of the char-k-shingles
    (vectorized; see ``_shingle_hash_values``)."""
    return np.unique(_shingle_hash_values(text, k))


def candidate_pairs(band_rows_ds, texts_ds, *,
                    threshold: float = _JACCARD_THRESHOLD,
                    shingle_k: int = _SHINGLE_K,
                    text_col: str = "text", id_col: str = "id",
                    num_buckets: int = 64, max_bucket_size: int = 2000,
                    max_broadcast_pairs: int = 500_000):
    """LSH band rows + texts -> verified similar pairs (a < b), distinct.

    Three narrow phases, each sized by how rare near-duplicates are:

    1. id-pairs per LSH bucket (groups >=2 only; groups over
       ``max_bucket_size`` are truncated deterministically rather than
       O(n^2) blowup) -> distinct (a, b);
    2. semi-join: shingle hashes are computed for ONLY the ids that appear
       in some candidate pair;
    3. verification: exact shingle-Jaccard per distinct pair.

    Two-regime routing on the RAW pair count of phase 1 — pairs deduped
    only within each bucket-function call, never across calls, so an
    upper bound on the distinct candidate count: up to
    ``max_broadcast_pairs`` raw pairs the involved texts are fetched with
    a broadcast id-set filter and the verification runs against a
    broadcast id->shingles map (one pass, no extra shuffles). A larger raw
    count routes to ``_verify_pairs_shuffle`` (even when the distinct
    count would fit the gate) — a fully bucketed semi-join +
    two-sided attach that never materializes anything on the driver, so a
    duplicate-heavy crawl cannot OOM the coordinator."""
    import ray
    import ray.data

    def pairs_in_buckets(t: pa.Table) -> pa.Table:
        # Vectorized bucket kernel (was a Python double loop over sorted
        # bucket members): per-bucket cap by id order, pandas self-merge
        # for the pair fan-out. Pair set identical — same cap rule
        # (first ``max_bucket_size`` distinct ids per bucket, sorted),
        # same a<b ordering; within-task (a, b) dedup preserves the old
        # ``seen``-set shuffle volume.
        import pandas as pd

        df = pd.DataFrame({"band_key": t["band_key"].to_pandas(),
                           "id": t["id"].to_pandas()})
        df = (df.drop_duplicates(["band_key", "id"])
              .sort_values(["band_key", "id"], kind="mergesort"))
        df = df[df.groupby("band_key").cumcount() < max_bucket_size]
        m = df.merge(df, on="band_key", suffixes=("_a", "_b"))
        m = m[m["id_a"] < m["id_b"]].drop_duplicates(["id_a", "id_b"])
        return pa.table({"a": pa.array(m["id_a"], type=pa.string()),
                         "b": pa.array(m["id_b"], type=pa.string())})

    raw = bucketed_group_apply(band_rows_ds, ["band_key"], pairs_in_buckets,
                               num_buckets=num_buckets).materialize()

    # Regime gate on the RAW per-call pair count (>= the distinct count,
    # so it routes to the bucketed path no later than before). Dense: a
    # distinct exchange + fully bucketed semi-join verify, nothing on the
    # driver. Sparse: the candidates fit the driver by construction (the
    # gate bounds them), so the cross-band dedup and the involved-id set
    # are one local pandas pass — this removes a whole all-to-all exchange
    # (_distinct_pairs) from the common near-dup-sparse regime.
    if raw.count() > max_broadcast_pairs:
        cand = _distinct_pairs(raw, num_buckets=num_buckets)
        return _verify_pairs_shuffle(
            cand, texts_ds, threshold=threshold, shingle_k=shingle_k,
            text_col=text_col, id_col=id_col, num_buckets=num_buckets)

    import pandas as pd

    parts = [b.to_pandas()
             for b in raw.iter_batches(batch_format="pyarrow")]
    pdf = (pd.concat(parts, ignore_index=True) if parts
           else pd.DataFrame({"a": pd.Series(dtype=str),
                              "b": pd.Series(dtype=str)}))
    pdf = pdf.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
    cand = ray.data.from_arrow(pa.table({
        "a": pa.array(pdf["a"], type=pa.string()),
        "b": pa.array(pdf["b"], type=pa.string())}))

    involved = set(pdf["a"]).union(pdf["b"])
    inv_arr = pa.array(sorted(involved), type=pa.string())
    inv_ref = ray.put(inv_arr) if ray.is_initialized() else inv_arr

    def pick_texts(t: pa.Table) -> pa.Table:
        s = inv_ref if isinstance(inv_ref, pa.Array) else ray.get(inv_ref)
        ids = t[id_col].cast(pa.string())
        kept = t.filter(pc.is_in(ids, value_set=s))
        return pa.table({"id": kept[id_col].cast(pa.string()),
                         "text": kept[text_col]})

    texts = {}
    for batch in texts_ds.map_batches(
            pick_texts, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        texts.update(zip(batch["id"].to_pylist(), batch["text"].to_pylist()))
    texts_ref = ray.put(texts) if ray.is_initialized() else texts

    def verify(t: pa.Table) -> pa.Table:
        tm = ray.get(texts_ref) if not isinstance(texts_ref, dict) else texts_ref
        sh: dict[str, np.ndarray] = {}

        def get(i: str) -> np.ndarray:
            if i not in sh:
                sh[i] = _shingle_hashes(tm.get(i, ""), shingle_k)
            return sh[i]

        a_out, b_out = [], []
        for a, b in zip(t["a"].to_pylist(), t["b"].to_pylist()):
            sa, sb = get(a), get(b)
            la, lb = len(sa), len(sb)
            if la == 0 and lb == 0:
                a_out.append(a); b_out.append(b)
                continue
            if min(la, lb) < threshold * max(la, lb):  # size prune
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if inter / (la + lb - inter) >= threshold:
                a_out.append(a); b_out.append(b)
        return pa.table({"a": pa.array(a_out, type=pa.string()),
                         "b": pa.array(b_out, type=pa.string())})

    return cand.map_batches(verify, batch_format="pyarrow",
                            zero_copy_batch=True)


def _verify_pairs_shuffle(cand, texts_ds, *, threshold: float,
                          shingle_k: int, text_col: str, id_col: str,
                          num_buckets: int = 64):
    """Driver-free verification of candidate pairs — the dense-regime path.

    Four bucketed phases:

    1. distinct involved ids from both pair sides (candidate-sized);
    2. shuffle semi-join against ``texts_ds`` keyed by id — this ONE
       exchange is corpus-sized (every (id, text) row crosses it once,
       the unavoidable cost of an exact semi-join without a driver
       broadcast; pre-hashing shingles before the exchange would inflate
       it ~8x, one uint64 per character vs one byte). In-bucket, texts of
       involved ids reduce to (id, shingle-hash list), so everything
       DOWNSTREAM is candidate-sized;
    3. attach side-a shingles to each pair (bucketed on a);
    4. attach side-b shingles + exact Jaccard verdict (bucketed on b).

    The sparse regime (involved set small enough to broadcast) never
    reaches this function — ``candidate_pairs`` routes it to the
    broadcast verify, whose only exchange is the candidate pairs
    themselves. Identical output to that path (same shingle hashing,
    same size-prune + intersect arithmetic)."""
    import pandas as pd

    # 1. involved ids, distinct
    def both_sides(t: pa.Table) -> pa.Table:
        return pa.table({"id": pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()])})

    def dd_id(t: pa.Table) -> pa.Table:
        return t.group_by(["id"]).aggregate([])

    inv = bucketed_group_apply(
        cand.map_batches(both_sides, batch_format="pyarrow",
                         zero_copy_batch=True)
            .map_batches(dd_id, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["id"], dd_id, num_buckets=num_buckets)

    # 2. semi-join texts on involved ids; shingle in-bucket
    def tag_inv(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"id": t["id"], "kind": ["I"] * n,
                         "text": pa.nulls(n, type=pa.string())})

    def tag_text(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"id": t[id_col].cast(pa.string()),
                         "kind": ["T"] * n, "text": t[text_col]})

    tagged = inv.map_batches(tag_inv, batch_format="pyarrow").union(
        texts_ds.map_batches(tag_text, batch_format="pyarrow",
                             zero_copy_batch=True))

    def shingle_bucket(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"id": t["id"].to_pandas(),
                           "kind": t["kind"].to_pandas(),
                           "text": t["text"].to_pandas()})
        wanted = set(df.loc[df["kind"] == "I", "id"])
        hit = df[(df["kind"] == "T") & df["id"].isin(wanted)]
        hit = hit.drop_duplicates("id")
        ids = hit["id"].tolist()
        # involved ids with NO text row still verify as _shingle_hashes("")
        # (broadcast-path parity: tm.get(i, ""))
        missing = sorted(wanted - set(ids))
        shs = [_shingle_hashes(x or "", shingle_k) for x in hit["text"]] + \
              [_shingle_hashes("", shingle_k) for _ in missing]
        return pa.table({
            "id": pa.array(ids + missing, type=pa.string()),
            "sh": pa.array([s.tolist() for s in shs],
                           type=pa.list_(pa.uint64())),
        })

    # shingles feed BOTH attach phases — materialize once, not recompute
    shingles_ds = bucketed_group_apply(tagged, ["id"], shingle_bucket,
                                       num_buckets=num_buckets).materialize()

    # 3./4. attach shingles to each side, verify on the second attach
    def tag_sh(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"key": t["id"], "kind": ["S"] * n,
                         "other": pa.nulls(n, type=pa.string()),
                         "sh": t["sh"]})

    def _split_sp(t: pa.Table):
        """(S rows, P rows) of one mixed bucket."""
        kind = t["kind"].to_numpy(zero_copy_only=False)
        return (t.filter(pa.array(kind == "S")),
                t.filter(pa.array(kind == "P")))

    def _gather_sh(s_tbl: pa.Table, pkeys: np.ndarray):
        """Vectorized key join: each P key's shingle list from the bucket's
        S rows via argsort + searchsorted; misses land on an appended
        empty list (broadcast-path ``smap.get(k, [])`` parity). Returns
        the gathered Arrow list column — lists never round-trip through
        Python."""
        skeys = s_tbl["key"].to_numpy(zero_copy_only=False)
        order = np.argsort(skeys)
        sh_sorted = s_tbl["sh"].combine_chunks().take(
            pa.array(order, type=pa.int64()))
        sh_all = pa.concat_arrays(
            [sh_sorted, pa.array([[]], type=sh_sorted.type)])
        ns = len(skeys)
        if ns == 0:
            idx = np.zeros(len(pkeys), dtype=np.int64)
        else:
            pos = np.searchsorted(skeys[order], pkeys)
            posc = np.clip(pos, 0, ns - 1)
            idx = np.where(skeys[order][posc] == pkeys, posc, ns)
        return sh_all.take(pa.array(idx, type=pa.int64()))

    def attach_a(t: pa.Table) -> pa.Table:
        s_tbl, p_tbl = _split_sp(t)
        pkeys = p_tbl["key"].to_numpy(zero_copy_only=False)
        return pa.table({"a": p_tbl["key"], "b": p_tbl["other"],
                         "sh_a": _gather_sh(s_tbl, pkeys)})

    step_a = bucketed_group_apply(
        cand.map_batches(lambda t: pa.table(
            {"key": t["a"], "kind": ["P"] * t.num_rows, "other": t["b"],
             "sh": pa.nulls(t.num_rows, type=pa.list_(pa.uint64()))}),
            batch_format="pyarrow").union(
            shingles_ds.map_batches(tag_sh, batch_format="pyarrow")),
        ["key"], attach_a, num_buckets=num_buckets)

    def attach_b_verify(t: pa.Table) -> pa.Table:
        s_tbl, p_tbl = _split_sp(t)
        bkeys = p_tbl["key"].to_numpy(zero_copy_only=False)
        sh_a = p_tbl["sh"].combine_chunks()
        sh_b = _gather_sh(s_tbl, bkeys)
        # list columns as (offsets, values) — slices below are zero-copy
        off_a = sh_a.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        val_a = sh_a.values.to_numpy(zero_copy_only=False)
        off_b = sh_b.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        val_b = sh_b.values.to_numpy(zero_copy_only=False)
        la = np.diff(off_a)
        lb = np.diff(off_b)
        # vectorized size prune; both-empty pairs pass outright
        both_empty = (la == 0) & (lb == 0)
        cand_m = ~both_empty & (np.minimum(la, lb)
                                >= threshold * np.maximum(la, lb))
        keep = both_empty.copy()
        # per-surviving-pair exact intersect (intrinsic to exact Jaccard;
        # everything around it is vectorized)
        for i in np.nonzero(cand_m)[0]:
            sa = val_a[off_a[i]:off_a[i + 1]]
            sb = val_b[off_b[i]:off_b[i + 1]]
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if inter / (la[i] + lb[i] - inter) >= threshold:
                keep[i] = True
        kept = p_tbl.filter(pa.array(keep))
        return pa.table({"a": kept["other"].cast(pa.string()),
                         "b": kept["key"].cast(pa.string())})

    step_b_in = step_a.map_batches(
        lambda t: pa.table(
            {"key": t["b"], "kind": ["P"] * t.num_rows, "other": t["a"],
             "sh": t["sh_a"]}),
        batch_format="pyarrow").union(
        shingles_ds.map_batches(tag_sh, batch_format="pyarrow"))
    return bucketed_group_apply(step_b_in, ["key"], attach_b_verify,
                                num_buckets=num_buckets)


def _distinct_pairs(pairs_ds, *, num_buckets: int = 64):
    def dd(t: pa.Table) -> pa.Table:
        g = t.group_by(["a", "b"]).aggregate([])
        return g

    partial = pairs_ds.map_batches(dd, batch_format="pyarrow",
                                   zero_copy_batch=True)
    return bucketed_group_apply(partial, ["a", "b"], dd,
                                num_buckets=num_buckets)


def connected_components(pairs_ds, nodes_ds, *, max_iters: int = 12,
                         num_buckets: int = 64,
                         max_driver_pairs: int = 2_000_000):
    """Min-label propagation over an undirected edge list.

    ``nodes_ds``: Dataset with column ``id`` (one row per node).
    Returns Dataset ``(id, component)`` where component = min node id
    reachable.

    Fast path: near-dup edge lists are SPARSE (a sliver of the corpus), so
    when the pair count fits ``max_driver_pairs`` the components are solved
    with a driver-side union-find over just the pairs and broadcast back as
    a remap over nodes — one pass, no iterative shuffles. The iterative
    distributed path handles the dense regime: each round propagates min
    labels over the static edges PLUS the current pointer graph
    ``(label[id] -> id)`` — the pointer edges are exactly pointer-jumping
    (``label[label[id]]`` reaches ``id`` in one hop), so label distances
    roughly square per round and ``max_iters=12`` covers any component a
    real machine can hold (diameter up to ~2^12 via doubling). If the
    label checksum is still changing after ``max_iters`` rounds the result
    would be a silently-wrong partial clustering, so it raises instead."""
    import ray

    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs <= max_driver_pairs:
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        # deterministic union order: sorted edges, min root wins
        edges_sorted = sorted(
            (min(a, b), max(a, b))
            for batch in pairs_ds.iter_batches(batch_format="pyarrow")
            for a, b in zip(batch["a"].to_pylist(), batch["b"].to_pylist()))
        for a, b in edges_sorted:
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        comp_map = {x: find(x) for x in list(parent)}
        ref = ray.put(comp_map) if ray.is_initialized() else comp_map

        def assign(t: pa.Table) -> pa.Table:
            m = ray.get(ref) if not isinstance(ref, dict) else ref
            ids = t["id"].to_pylist()
            return pa.table({
                "id": pa.array(ids, type=pa.string()),
                "component": pa.array([m.get(i, i) for i in ids],
                                      type=pa.string()),
            })

        return nodes_ds.map_batches(assign, batch_format="pyarrow",
                                    zero_copy_batch=True)

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"id": t["id"], "label": t["id"]})

    labels = nodes_ds.map_batches(init_labels, batch_format="pyarrow",
                                  zero_copy_batch=True)

    # symmetric edge list, reused every round
    def sym(t: pa.Table) -> pa.Table:
        return pa.table(
            {"key": pa.concat_arrays([t["a"].combine_chunks(),
                                      t["b"].combine_chunks()]),
             "nbr": pa.concat_arrays([t["b"].combine_chunks(),
                                      t["a"].combine_chunks()])}
        )

    edges = pairs_ds.map_batches(sym, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()

    def checksum(label_ds) -> int:
        def cs(t: pa.Table) -> pa.Table:
            v = sum(zlib.crc32(x.encode()) for x in t["label"].to_pylist())
            return pa.table({"v": pa.array([v], type=pa.int64())})

        parts = label_ds.map_batches(cs, batch_format="pyarrow").take_all()
        return sum(r["v"] for r in parts)

    prev = None
    converged = False
    for _ in range(max_iters):
        # message pass: for each edge (key -> nbr), the label of `key`
        # travels to `nbr`; plus each node keeps its own label. The
        # pointer edges (label[id] -> id) implement pointer-jumping:
        # label[label[id]] arrives at id within the SAME propagate pass.
        def tag_label(t: pa.Table) -> pa.Table:
            return pa.table({"key": t["id"], "kind": ["L"] * t.num_rows,
                             "payload": t["label"]})

        def tag_edge(t: pa.Table) -> pa.Table:
            return pa.table({"key": t["key"], "kind": ["E"] * t.num_rows,
                             "payload": t["nbr"]})

        def tag_pointer(t: pa.Table) -> pa.Table:
            # skip self-pointers (label == id): they carry no information
            m = pa.compute.invert(pa.compute.equal(t["label"], t["id"]))
            t = t.filter(m)
            return pa.table({"key": t["label"], "kind": ["E"] * t.num_rows,
                             "payload": t["id"]})

        tagged = (labels.map_batches(tag_label, batch_format="pyarrow")
                  .union(edges.map_batches(tag_edge, batch_format="pyarrow"))
                  .union(labels.map_batches(tag_pointer,
                                            batch_format="pyarrow")))

        def propagate(t: pa.Table) -> pa.Table:
            # Arrow-native bucket kernel (was pandas groupby+merge): hash
            # group_by for the per-key label min, one pc.index_in probe +
            # pc.take to attach labels to edge messages — the algorithm
            # (min-label propagation + pointer jumping) is unchanged.
            is_l = pc.equal(t["kind"], pa.scalar("L"))
            lab = (t.filter(is_l).select(["key", "payload"])
                   .group_by(["key"]).aggregate([("payload", "min")]))
            lab_key = lab["key"].combine_chunks()
            lab_min = lab["payload_min"].combine_chunks()
            ed = t.filter(pc.invert(is_l))
            # messages (nbr <- label of key); an edge whose key has no
            # label in this bucket contributes nothing (null filtered)
            idx = pc.index_in(ed["key"].combine_chunks(),
                              value_set=lab_key)
            msg_lbl = pc.take(lab_min, idx)
            out = pa.table({
                "id": pa.concat_arrays(
                    [lab_key, ed["payload"].combine_chunks()]),
                "label": pa.concat_arrays([lab_min, msg_lbl]),
            }).filter(pc.is_valid(
                pa.concat_arrays([lab_min, msg_lbl])))
            best = out.group_by(["id"]).aggregate([("label", "min")])
            return pa.table({"id": best["id"].combine_chunks(),
                             "label": best["label_min"].combine_chunks()})

        propagated = bucketed_group_apply(tagged, ["key"], propagate,
                                          num_buckets=num_buckets)

        # propagate emitted per-bucket minima; a node can appear in several
        # buckets' outputs only via messages — reduce to global min per id
        def local_min(t: pa.Table) -> pa.Table:
            g = t.group_by(["id"]).aggregate([("label", "min")])
            return pa.table({"id": g["id"], "label": g["label_min"]})

        labels = bucketed_group_apply(propagated, ["id"], local_min,
                                      num_buckets=num_buckets).materialize()
        cur = checksum(labels)
        if cur == prev:
            converged = True
            break
        prev = cur

    if not converged:
        raise RuntimeError(
            f"connected_components: labels still changing after "
            f"{max_iters} pointer-jumping rounds — refusing to return a "
            f"partial (wrong) clustering; raise max_iters")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"id": t["id"], "component": t["label"]})

    return labels.map_batches(rename, batch_format="pyarrow")


def _taxonomy_forms(taxonomy: pa.Table) -> list[tuple[str, str, str]]:
    """(form_id, surface_text, entity_id) for every surface form.

    Form id = ``"{form}\\x1f{entity_id}"`` so identical forms owned by
    different entities also cluster (exact duplicates are near-duplicates).
    """
    forms = []
    for eid, surface, aliases in zip(taxonomy["entity_id"].to_pylist(),
                                     taxonomy["surface"].to_pylist(),
                                     taxonomy["aliases"].to_pylist()):
        forms.append((f"{surface}\x1f{eid}", surface, eid))
        for a in aliases or []:
            forms.append((f"{a}\x1f{eid}", a, eid))
    return forms


def _entity_map_from_components(forms, comp_map: dict[str, str]
                                ) -> dict[str, str]:
    """Cluster components -> entity_id remap: canonical = lexicographic
    min entity_id over the cluster; an entity with forms in several
    clusters takes the min over all of them."""
    cluster_min: dict[str, str] = {}
    for fid, _, eid in forms:
        c = comp_map.get(fid, fid)
        cluster_min[c] = min(cluster_min.get(c, eid), eid)
    out: dict[str, str] = {}
    for fid, _, eid in forms:
        c = comp_map.get(fid, fid)
        cand = cluster_min[c]
        out[eid] = min(out.get(eid, cand), cand)
    return out


def canonicalize_taxonomy(taxonomy: pa.Table, *, threshold: float =
                          _JACCARD_THRESHOLD,
                          max_driver_forms: int = 50_000) -> dict[str, str]:
    """entity_id -> canonical_entity_id by clustering ALL surface forms
    (primary + aliases). Canonical id = lexicographic min entity_id in the
    cluster.

    Two-regime routing (proven identical by the conformance test): a
    taxonomy fitting ``max_driver_forms`` runs the pure in-process
    implementation — the ~7 chained Dataset executions of the distributed
    path cost ~2.5s of fixed pipeline startup that dwarfs the actual work
    at catalog sizes. Larger form corpora take the Dataset path
    (lsh_band_rows / candidate_pairs / connected_components)."""
    import ray.data as rd

    forms = _taxonomy_forms(taxonomy)
    if len(forms) <= max_driver_forms:
        return canonical_map_pure(taxonomy, threshold=threshold)
    nodes = pa.table({"id": [f[0] for f in forms],
                      "text": [f[1] for f in forms]})
    ds = rd.from_arrow(nodes)
    bands = lsh_band_rows(ds, "text", "id")
    pairs = candidate_pairs(bands, ds, threshold=threshold)
    comp = connected_components(pairs, ds.select_columns(["id"]))
    comp_map = {r["id"]: r["component"] for r in comp.take_all()}
    return _entity_map_from_components(forms, comp_map)


def canonical_map_pure(taxonomy: pa.Table, *, threshold: float =
                       _JACCARD_THRESHOLD,
                       max_bucket_size: int = 2000) -> dict[str, str]:
    """Pure-Python (no Ray) reimplementation of ``canonicalize_taxonomy``:
    same minhash signatures, same 32x2 banding, same bucket truncation,
    same exact-Jaccard verification and min-label union-find — a
    distribution-independent reference used (a) by the conformance test
    asserting the Ray path computes the identical map and (b) to embed the
    canonical remap into the DuckDB oracle for the canonicalized KG-edges
    query."""
    from itertools import combinations

    forms = _taxonomy_forms(taxonomy)
    rows_per_band = _NUM_PERM // _BANDS
    buckets: dict[str, set[str]] = {}
    texts: dict[str, str] = {}
    for fid, text, _eid in forms:
        texts[fid] = text
        sig = minhash_signature(text or "")
        for b in range(_BANDS):
            seg = sig[b * rows_per_band:(b + 1) * rows_per_band]
            key = f"{b}:{zlib.crc32(seg.tobytes())}"
            buckets.setdefault(key, set()).add(fid)
    cand: set[tuple[str, str]] = set()
    for key in sorted(buckets):
        members = sorted(buckets[key])[:max_bucket_size]
        cand.update(combinations(members, 2))
    sh: dict[str, np.ndarray] = {}

    def get(i: str) -> np.ndarray:
        if i not in sh:
            sh[i] = _shingle_hashes(texts.get(i, ""), _SHINGLE_K)
        return sh[i]

    verified = []
    for a, b in sorted(cand):
        sa, sb = get(a), get(b)
        la, lb = len(sa), len(sb)
        if la == 0 and lb == 0:
            verified.append((a, b))
            continue
        if min(la, lb) < threshold * max(la, lb):
            continue
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        if inter / (la + lb - inter) >= threshold:
            verified.append((a, b))
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in sorted((min(a, b), max(a, b)) for a, b in verified):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    comp_map = {x: find(x) for x in list(parent)}
    return _entity_map_from_components(forms, comp_map)


def apply_canonical_map(linked_ds, canonical_map: dict[str, str]):
    """Rewrite entity ids in linked page-mentions via the broadcast map
    (identity for unmapped ids). Vectorized flat-struct surgery: only the
    non-identity entries ship, and the remap is one ``index_in`` + ``take``
    + ``coalesce`` over the flattened mention structs — no per-row Python
    (this stage sits INSIDE the hot linked chain when canonicalize=True)."""
    import pyarrow.compute as pc
    import ray

    nonid = {k: v for k, v in canonical_map.items() if k != v}
    if not nonid:
        return linked_ds
    keys = pa.array(sorted(nonid), type=pa.string())
    vals_a = pa.array([nonid[k] for k in sorted(nonid)], type=pa.string())
    ref = (ray.put((keys, vals_a)) if ray.is_initialized()
           else (keys, vals_a))

    def remap(batch: pa.Table) -> pa.Table:
        from .attributes import flat_mentions, rewrap_mentions

        k, v = ray.get(ref) if not isinstance(ref, tuple) else ref
        col, flat = flat_mentions(batch)
        if len(flat) == 0:
            return batch
        ent = flat.field("entity_id")
        idx = pc.index_in(ent, value_set=k)
        new_ent = pc.coalesce(pc.take(v, idx), ent)
        fields = list(flat.type)
        arrays = [new_ent if f.name == "entity_id" else flat.field(f.name)
                  for f in fields]
        new_flat = pa.StructArray.from_arrays(arrays, fields=fields)
        return rewrap_mentions(batch, col, new_flat)

    return linked_ds.map_batches(remap, batch_format="pyarrow",
                                 zero_copy_batch=True)
