"""Similarity search over an embedding column (task brief requirement).

- ``brute_force_topk`` — the exact baseline: broadcast the (few) query
  vectors via ``ray.put``; each batch computes one (batch x queries)
  matmul and emits its LOCAL top-k per query (partial combine!); one small
  bucketed reduce per query merges partials into the global top-k. The
  full corpus streams; nothing is materialized.
- ``lsh_bucketed_topk`` — the scale path: seeded random-hyperplane signs
  give every vector a ``nbits``-bit bucket; a query only scans its own
  bucket (plus Hamming-1 probes), so each probe touches ~``n / 2^nbits``
  of the corpus. Approximate; recall grows with probes.

Reference analog: the Pinecone ANN query (J1,
`/root/reference/src/database/vector_database.py:127-191`), generalized to
a batch operator over ``embeddings``-style tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.vectors import list_to_matrix
from .bucketed import bucketed_group_apply


def _normalize(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def _bottomk_sample(ds, k: int, emb_col: str, id_col: str) -> np.ndarray:
    """Deterministic seeded-trainer sample: the ``k`` SMALLEST-id rows
    of the dataset, id-sorted, L2-normalized.

    ``ds.limit(k)`` fixes neither membership nor order when the input is
    a union / multi-branch pipeline (block arrival order is not
    deterministic), and the seeded k-means result depends on BOTH — so
    every trained-centroid operator samples via this global bottom-k:
    one narrow pass emits each block's k smallest rows (partial combine)
    and the driver folds the tiny partials. Matches the sequential
    oracle's "first k rows by id" exactly at any partitioning."""
    import pyarrow.compute as pc

    def local_bottomk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[(id_col, "ascending")])
        return t.take(idx[:k])

    best: list = []
    for b in ds.select_columns([id_col, emb_col]).map_batches(
            local_bottomk, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        best.extend(zip(b[id_col].to_pylist(), b[emb_col].to_pylist()))
        if len(best) > 4 * k:
            best.sort(key=lambda r: r[0])
            del best[k:]
    best.sort(key=lambda r: r[0])
    del best[k:]
    return _normalize(np.stack([np.asarray(v, dtype=np.float64)
                                for _, v in best]))


def brute_force_topk(ds, queries: np.ndarray, k: int, *,
                     emb_col: str = "embedding", id_col: str = "vec_id",
                     query_ids: list | None = None):
    """Exact cosine top-k of each query against the whole corpus.

    Returns Dataset (query_id, vec_id, score, rank) with rank 1..k per
    query, ties broken by vec_id ASC (deterministic)."""
    import ray

    qm = _normalize(np.asarray(queries, dtype=np.float64))
    qids = list(query_ids) if query_ids is not None else list(range(len(qm)))
    ref = ray.put((qids, qm)) if ray.is_initialized() else (qids, qm)

    def local_topk(batch: pa.Table) -> pa.Table:
        qids_, qm_ = ray.get(ref) if not isinstance(ref, tuple) else ref
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(list_to_matrix(batch[emb_col]))
        sims = qm_ @ mat.T  # (q, n)
        kk = min(k, sims.shape[1])
        order = np.lexsort((np.broadcast_to(ids, sims.shape), -sims), axis=1)
        top = order[:, :kk]
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qids_)):
            out_q.extend([qids_[qi]] * kk)
            out_v.extend(ids[top[qi]].tolist())
            out_s.extend(sims[qi, top[qi]].tolist())
        return pa.table({"query_id": pa.array(out_q, type=pa.int64()),
                         "vec_id": pa.array(out_v, type=pa.int64()),
                         "score": pa.array(out_s, type=pa.float64())})

    partials = ds.map_batches(local_topk, batch_format="pyarrow",
                              batch_size=4096, zero_copy_batch=True)
    return bucketed_group_apply(partials, ["query_id"], _merge_topk(k))


def _spherical_kmeans(sample: np.ndarray, ncentroids: int, *,
                      iters: int = 10, seed: int = 42) -> np.ndarray:
    """Seeded spherical k-means over L2-normalized vectors (cosine
    assignment). Deterministic: seeded init, fixed iteration count, empty
    clusters re-seeded from the worst-assigned points in index order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = sample.shape[0]
    k = min(ncentroids, n)
    cent = sample[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        sims = sample @ cent.T
        assign = np.argmax(sims, axis=1)
        for c in range(k):
            members = sample[assign == c]
            if len(members) == 0:
                worst = int(np.argmin(np.max(sims, axis=1)))
                cent[c] = sample[worst]
                continue
            m = members.sum(axis=0)
            nrm = np.linalg.norm(m)
            cent[c] = m / nrm if nrm > 0 else cent[c]
    return cent


def ivf_topk(ds, queries: np.ndarray, k: int, *,
             emb_col: str = "embedding", id_col: str = "vec_id",
             query_ids: list | None = None, ncentroids: int = 16,
             nprobe: int = 4, train_sample: int = 4096, seed: int = 42):
    """Approximate cosine top-k via an IVF (inverted-file) index: centroids
    trained once on a driver-side sample with seeded spherical k-means,
    broadcast to every task; a vector is a candidate iff its nearest
    centroid is among the query's ``nprobe`` closest centroids. Scan
    fraction ≈ nprobe/ncentroids per query — the clustered-corpus scale
    path alongside the hyperplane LSH variant. Same output schema as
    ``brute_force_topk``."""
    import ray

    qm = _normalize(np.asarray(queries, dtype=np.float64))
    qids = list(query_ids) if query_ids is not None else list(range(len(qm)))
    sample = _bottomk_sample(ds, train_sample, emb_col, id_col)
    cent = _spherical_kmeans(sample, ncentroids, seed=seed)
    q_probe = np.argsort(-(qm @ cent.T), axis=1)[:, :min(nprobe, len(cent))]
    probe_sets = [set(row.tolist()) for row in q_probe]
    ref = ray.put((qids, qm, cent, probe_sets)) if ray.is_initialized() \
        else (qids, qm, cent, probe_sets)

    def local_topk(batch: pa.Table) -> pa.Table:
        qids_, qm_, cent_, probes_ = (ray.get(ref)
                                      if not isinstance(ref, tuple) else ref)
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(list_to_matrix(batch[emb_col]))
        vc = np.argmax(mat @ cent_.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qids_)):
            mask = np.isin(vc, list(probes_[qi]))
            if not mask.any():
                continue
            cand_ids = ids[mask]
            sims = mat[mask] @ qm_[qi]
            kk = min(k, len(cand_ids))
            order = np.lexsort((cand_ids, -sims))[:kk]
            out_q.extend([qids_[qi]] * kk)
            out_v.extend(cand_ids[order].tolist())
            out_s.extend(sims[order].tolist())
        return pa.table({"query_id": pa.array(out_q, type=pa.int64()),
                         "vec_id": pa.array(out_v, type=pa.int64()),
                         "score": pa.array(out_s, type=pa.float64())})

    partials = ds.map_batches(local_topk, batch_format="pyarrow",
                              batch_size=4096, zero_copy_batch=True)
    return bucketed_group_apply(partials, ["query_id"], _merge_topk(k))


def _merge_topk(k: int):
    """Bucket fn over ``(query_id, vec_id, score)`` partials: each query's
    ``k`` best by score DESC, vec_id ASC, with ``rank`` 1..k."""

    def merge(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({"query_id": t["query_id"].to_pandas(),
                           "vec_id": t["vec_id"].to_pandas(),
                           "score": t["score"].to_pandas()})
        df = df.sort_values(["query_id", "score", "vec_id"],
                            ascending=[True, False, True])
        df = df.groupby("query_id", sort=True).head(k)
        df["rank"] = df.groupby("query_id", sort=True).cumcount() + 1
        return pa.table({"query_id": pa.array(df["query_id"], type=pa.int64()),
                         "vec_id": pa.array(df["vec_id"], type=pa.int64()),
                         "score": pa.array(df["score"], type=pa.float64()),
                         "rank": pa.array(df["rank"], type=pa.int64())})
    return merge


def _hyperplanes(dim: int, nbits: int, seed: int = 42) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((nbits, dim))


def _bucket_of(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0  # (n, nbits)
    return (bits @ (1 << np.arange(planes.shape[0]))).astype(np.int64)


def lsh_bucketed_topk(ds, queries: np.ndarray, k: int, *,
                      emb_col: str = "embedding", id_col: str = "vec_id",
                      query_ids: list | None = None, nbits: int = 6,
                      probes: int = 1, seed: int = 42):
    """Approximate cosine top-k: candidates limited to vectors whose
    hyperplane bucket matches the query's (plus ``probes-1`` extra buckets
    by flipping the lowest bits). Same output schema as brute_force_topk."""
    import ray

    qm = _normalize(np.asarray(queries, dtype=np.float64))
    qids = list(query_ids) if query_ids is not None else list(range(len(qm)))
    planes = _hyperplanes(qm.shape[1], nbits, seed)
    qb = _bucket_of(qm, planes)
    # margin-ordered multiprobe: a neighbor most likely differs on the
    # bits whose hyperplane margin |q . plane| is smallest, so probe the
    # buckets reached by flipping the most UNCERTAIN bits first (subsets
    # ordered by total flipped margin) — far better recall per probe than
    # flipping fixed low bits.
    margins = qm @ planes.T  # (q, nbits)
    probe_sets = []
    t = min(nbits, max(1, (max(probes - 1, 1)).bit_length() + 1))
    for qi, b in enumerate(qb):
        order = np.argsort(np.abs(margins[qi]))[:t]
        subsets = []
        for mask in range(1 << t):
            flip = 0
            loss = 0.0
            for j in range(t):
                if mask >> j & 1:
                    flip |= 1 << int(order[j])
                    loss += abs(float(margins[qi, order[j]]))
            subsets.append((loss, int(b) ^ flip))
        subsets.sort()
        probe_sets.append({code for _, code in subsets[:probes]})
    ref = ray.put((qids, qm, probe_sets)) if ray.is_initialized() \
        else (qids, qm, probe_sets)

    def local_topk(batch: pa.Table) -> pa.Table:
        qids_, qm_, probes_ = ray.get(ref) if not isinstance(ref, tuple) else ref
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(list_to_matrix(batch[emb_col]))
        vb = _bucket_of(mat, planes)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qids_)):
            mask = np.isin(vb, list(probes_[qi]))
            if not mask.any():
                continue
            cand_ids = ids[mask]
            sims = mat[mask] @ qm_[qi]
            kk = min(k, len(cand_ids))
            order = np.lexsort((cand_ids, -sims))[:kk]
            out_q.extend([qids_[qi]] * kk)
            out_v.extend(cand_ids[order].tolist())
            out_s.extend(sims[order].tolist())
        return pa.table({"query_id": pa.array(out_q, type=pa.int64()),
                         "vec_id": pa.array(out_v, type=pa.int64()),
                         "score": pa.array(out_s, type=pa.float64())})

    partials = ds.map_batches(local_topk, batch_format="pyarrow",
                              batch_size=4096, zero_copy_batch=True)
    return bucketed_group_apply(partials, ["query_id"], _merge_topk(k))


def knn_graph(ds, k: int, *, emb_col: str = "embedding",
              id_col: str = "vec_id", max_broadcast: int = 100_000,
              ncentroids: int = 64, nprobe: int = 4,
              train_sample: int = 4096,
              seed: int = 42):
    """Self-kNN graph: for EVERY corpus vector, its ``k`` nearest other
    vectors by cosine — the substrate of SemDeDup, graph-based corpus
    clustering and diversity sampling. Output ``(src, dst, rank)``,
    rank 1..k per src, ties (score, then dst) deterministic.

    Two regimes, auto-routed by a corpus count (same two-regime design as
    ``embedding_neardup_pairs`` / ``connected_components``):

    - **exact** (count ≤ ``max_broadcast``): the id+matrix pair is pulled
      once, broadcast via ``ray.put``, and the corpus streams through a
      batch-local (batch × corpus) matmul — each batch emits its rows'
      FINAL top-k directly (queries are the streamed side, so no merge
      shuffle at all).
    - **IVF-bucketed** (above the gate): seeded spherical-k-means cells;
      every vector ships once as a MEMBER of its own cell and once as a
      QUERY replica to its ``nprobe`` nearest cells; each cell computes
      queries × members locally and per-src partials merge in one
      bucketed reduce. Scan fraction ≈ nprobe/ncentroids; approximate
      (exactly the IVF recall trade measured for ``ivf_topk`` in
      BASELINE.md).
    """
    import ray

    # one execution of the upstream pipeline for the three consumers
    # (count, broadcast pull / training sample, scoring pass) — same
    # routing-shape fix as embedding_neardup_pairs
    ds = ds.materialize()
    n = ds.count()
    if n <= max_broadcast:
        ids_all, mats = [], []
        for b in ds.select_columns([id_col, emb_col]) \
                   .iter_batches(batch_format="pyarrow"):
            ids_all.extend(b[id_col].to_pylist())
            if b.num_rows:
                mats.append(list_to_matrix(b[emb_col]))
        corpus_ids = np.asarray(ids_all)
        corpus = _normalize(np.vstack(mats)) if mats else np.zeros((0, 1))
        ref = ray.put((corpus_ids, corpus)) if ray.is_initialized() \
            else (corpus_ids, corpus)

        CHUNK = 8192  # corpus columns per matmul: the (batch × corpus)
        # sims matrix would be ~1.6 GB at batch 2048 × corpus 100k float64;
        # chunking bounds per-task transient memory to batch × CHUNK
        # (~128 MB) with a running per-row top-k merge across chunks.

        def exact(batch: pa.Table) -> pa.Table:
            cids, cmat = ray.get(ref) if not isinstance(ref, tuple) else ref
            ids = np.asarray(batch[id_col].to_pylist())
            mat = _normalize(list_to_matrix(batch[emb_col]))
            b = len(ids)
            ncand = len(cids)
            kk = min(k, ncand - 1) if ncand > 1 else 0
            empty = np.zeros(0, dtype=np.int64)
            out_s, out_d, out_r = empty, empty, empty
            if kk > 0:
                # running candidates: (b, ≤2k) best-so-far scores/ids
                best_s = np.full((b, 0), -np.inf)
                best_i = np.zeros((b, 0), dtype=np.int64)
                for c0 in range(0, ncand, CHUNK):
                    sims = mat @ cmat[c0:c0 + CHUNK].T
                    chunk_ids = cids[c0:c0 + CHUNK]
                    sims[ids[:, None] == chunk_ids[None, :]] = -np.inf
                    cw = min(kk, sims.shape[1])
                    rows = np.arange(b)[:, None]
                    part = np.argpartition(-sims, cw - 1, axis=1)[:, :cw]
                    # tie guard: argpartition's pick among boundary-score
                    # ties is arbitrary, but the contract breaks ties by
                    # dst ASC — rows where an EXCLUDED element ties the
                    # kept minimum re-select with a full (score, id) sort
                    # (rare: needs exactly-equal float scores, i.e.
                    # duplicate vectors)
                    kmin = sims[rows, part].min(axis=1)
                    masked = sims.copy()
                    masked[rows, part] = -np.inf
                    for r in np.where(masked.max(axis=1) >= kmin)[0]:
                        part[r] = np.lexsort(
                            (chunk_ids, -sims[r]))[:cw]
                    best_s = np.concatenate([best_s, sims[rows, part]],
                                            axis=1)
                    best_i = np.concatenate(
                        [best_i, chunk_ids[part]], axis=1)
                    if best_s.shape[1] > 2 * kk:
                        # small width (≤ 3k): full (score, id) lexsort is
                        # cheap and tie-exact
                        keep = np.lexsort((best_i, -best_s),
                                          axis=1)[:, :kk]
                        best_s = best_s[rows, keep]
                        best_i = best_i[rows, keep]
                order = np.lexsort((best_i, -best_s), axis=1)[:, :kk]
                rows = np.arange(b)[:, None]
                top_i = best_i[rows, order]
                out_s = np.repeat(ids.astype(np.int64), kk)
                out_d = top_i.reshape(-1)
                out_r = np.tile(np.arange(1, kk + 1, dtype=np.int64), b)
            return pa.table({"src": pa.array(np.asarray(out_s),
                                             type=pa.int64()),
                             "dst": pa.array(np.asarray(out_d),
                                             type=pa.int64()),
                             "rank": pa.array(np.asarray(out_r),
                                              type=pa.int64())})

        return ds.map_batches(exact, batch_format="pyarrow",
                              batch_size=2048, zero_copy_batch=True)

    # IVF regime: replicate each vector to its own cell (member) and its
    # nprobe nearest cells (query); per-cell local kNN, bucketed merge.
    cent = _spherical_kmeans(
        _bottomk_sample(ds, train_sample, emb_col, id_col),
        ncentroids, seed=seed)
    cent_ref = ray.put(cent) if ray.is_initialized() else cent

    def replicate(batch: pa.Table) -> pa.Table:
        c = cent_ref if isinstance(cent_ref, np.ndarray) \
            else ray.get(cent_ref)
        ids = batch[id_col].to_pylist()
        mat = _normalize(list_to_matrix(batch[emb_col]))
        sims = mat @ c.T
        own = np.argmax(sims, axis=1)
        probes = np.argsort(-sims, axis=1)[:, :min(nprobe, c.shape[0])]
        from .linker import matrix_to_list_array

        # member block (each vector once, its own cell) then query block
        # (each vector replicated to its nprobe cells); downstream is a
        # cell groupby + per-src merge, so block order is immaterial
        n, p = len(ids), probes.shape[1]
        idx = np.concatenate([np.arange(n), np.repeat(np.arange(n), p)])
        ids_arr = np.asarray(ids, dtype=np.int64)
        return pa.table({
            id_col: pa.array(ids_arr[idx], type=pa.int64()),
            emb_col: matrix_to_list_array(mat[idx], pa.float64()),
            "cell": pa.array(
                np.concatenate([own, probes.reshape(-1)]).astype(np.int64),
                type=pa.int64()),
            "role": pa.array(
                np.concatenate([np.zeros(n, dtype=np.int64),
                                np.ones(n * p, dtype=np.int64)]),
                type=pa.int64()),
        })

    def cell_topk(t: pa.Table) -> pa.Table:
        role = t["role"].to_numpy(zero_copy_only=False)
        ids = np.asarray(t[id_col].to_pylist())
        mat = list_to_matrix(t[emb_col])
        m_ids, m_mat = ids[role == 0], mat[role == 0]
        q_ids, q_mat = ids[role == 1], mat[role == 1]
        out_s = out_d = np.zeros(0, dtype=np.int64)
        out_sc = np.zeros(0, dtype=np.float64)
        if len(m_ids) and len(q_ids):
            sims = q_mat @ m_mat.T
            sims[q_ids[:, None] == m_ids[None, :]] = -np.inf
            kk = min(k, sims.shape[1])
            order = np.lexsort(
                (np.broadcast_to(m_ids, sims.shape), -sims), axis=1)[:, :kk]
            top_sc = np.take_along_axis(sims, order, axis=1)
            keep = (top_sc > -np.inf).reshape(-1)  # row-major, same order
            out_s = np.repeat(q_ids.astype(np.int64), kk)[keep]
            out_d = m_ids[order].reshape(-1)[keep].astype(np.int64)
            out_sc = top_sc.reshape(-1)[keep]
        return pa.table({"src": pa.array(np.asarray(out_s),
                                         type=pa.int64()),
                         "dst": pa.array(np.asarray(out_d),
                                         type=pa.int64()),
                         "score": pa.array(np.asarray(out_sc),
                                           type=pa.float64())})

    def merge(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({"src": t["src"].to_pandas(),
                           "dst": t["dst"].to_pandas(),
                           "score": t["score"].to_pandas()})
        df = df.drop_duplicates(["src", "dst"]) \
               .sort_values(["src", "score", "dst"],
                            ascending=[True, False, True])
        df = df.groupby("src", sort=True).head(k)
        df["rank"] = df.groupby("src", sort=True).cumcount() + 1
        return pa.table({"src": pa.array(df["src"], type=pa.int64()),
                         "dst": pa.array(df["dst"], type=pa.int64()),
                         "rank": pa.array(df["rank"], type=pa.int64())})

    cells = ds.map_batches(replicate, batch_format="pyarrow",
                           batch_size=2048, zero_copy_batch=True)
    partials = cells.groupby("cell").map_groups(cell_topk,
                                                batch_format="pyarrow")
    return bucketed_group_apply(partials, ["src"], merge)


def semantic_dedup(ds, threshold: float, ncentroids: int, *,
                   emb_col: str = "embedding", id_col: str = "vec_id",
                   train_sample: int = 4096, seed: int = 42):
    """SemDeDup-style semantic deduplication: cluster the corpus with
    seeded spherical k-means, then WITHIN each cluster greedily drop any
    vector whose cosine similarity to an already-kept lower-id vector is
    ≥ ``threshold``. Output ``(vec_id, cluster, kept, dup_of)`` with
    ``dup_of`` = the kept vector that shadowed a dropped one (null for
    kept rows).

    Deterministic: the greedy scan runs in ascending id order, so results
    are partitioning-independent. Scale shape: centroids broadcast
    (as ``kmeans_assign``), then ONE shuffle co-locates each cluster;
    per-cluster work is a (|C| × |C|) matmul — bound |C| via
    ``ncentroids`` ≈ corpus/10k so a cluster fits a task (the SemDeDup
    paper's regime: dedup only needs LOCAL comparisons once clustered;
    cross-cluster near-dups are the documented recall trade)."""
    import ray

    cent = _spherical_kmeans(
        _bottomk_sample(ds, train_sample, emb_col, id_col),
        ncentroids, seed=seed)
    ref = ray.put(cent) if ray.is_initialized() else cent

    def assign(batch: pa.Table) -> pa.Table:
        c = ref if isinstance(ref, np.ndarray) else ray.get(ref)
        mat = _normalize(list_to_matrix(batch[emb_col]))
        cl = np.argmax(mat @ c.T, axis=1)
        return pa.table({
            id_col: batch[id_col],
            emb_col: pa.array([m.tolist() for m in mat],
                              type=pa.list_(pa.float64())),
            "cluster": pa.array(cl, type=pa.int64()),
        })

    def dedup_cluster(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].to_pylist())
        mat = list_to_matrix(t[emb_col])
        order = np.argsort(ids)
        ids, mat = ids[order], mat[order]
        cluster = int(t["cluster"][0].as_py())
        sims = mat @ mat.T
        kept_idx: list[int] = []
        kept = np.zeros(len(ids), dtype=bool)
        dup_of = np.full(len(ids), -1, dtype=np.int64)
        for i in range(len(ids)):
            if kept_idx:
                s = sims[i, kept_idx]
                j = int(np.argmax(s))
                if s[j] >= threshold:
                    dup_of[i] = ids[kept_idx[j]]
                    continue
            kept[i] = True
            kept_idx.append(i)
        return pa.table({
            id_col: pa.array(ids, type=pa.int64()),
            "cluster": pa.array([cluster] * len(ids), type=pa.int64()),
            "kept": pa.array(kept),
            "dup_of": pa.array([None if d < 0 else int(d) for d in dup_of],
                               type=pa.int64()),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)
    return assigned.groupby("cluster").map_groups(dedup_cluster,
                                                  batch_format="pyarrow")


def kmeans_assign(ds, ncentroids: int, *, emb_col: str = "embedding",
                  id_col: str = "vec_id", train_sample: int = 4096,
                  seed: int = 42):
    """Corpus clustering: assign every vector to its nearest spherical
    k-means centroid (cosine). The standard corpus-organization step for
    cluster-balanced training mixes and cluster-local dedup.

    Scale shape mirrors ``ivf_topk``'s index build: centroids train ONCE
    on a driver-side sample (seeded, deterministic), broadcast via
    ``ray.put``, and assignment is a stateless batch-local matmul+argmax
    over the streaming corpus — no shuffle, no driver materialization of
    vectors beyond the fixed sample. Output rows: ``(id_col, cluster)``.
    """
    import ray

    cent = _spherical_kmeans(
        _bottomk_sample(ds, train_sample, emb_col, id_col),
        ncentroids, seed=seed)
    ref = ray.put(cent) if ray.is_initialized() else cent

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: batch[id_col],
                             "cluster": pa.array([], type=pa.int64())})
        c = ref if isinstance(ref, np.ndarray) else ray.get(ref)
        mat = _normalize(list_to_matrix(batch[emb_col]))
        cl = np.argmax(mat @ c.T, axis=1)
        return pa.table({
            id_col: batch[id_col],
            "cluster": pa.array(cl, type=pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)
