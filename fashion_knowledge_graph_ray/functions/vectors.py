"""Deterministic text featurization + vector kernels.

The reference embeds with CLIP / SBERT models loaded per process
(`/root/reference/src/models/embedding_model.py:46-291`) and computes
cosine similarity scalar-at-a-time (`/root/reference/src/utils/tools.py:3-23`).
This engine needs embeddings that are (a) deterministic across workers and
runs with no model downloads, and (b) cheap enough to vectorize — a char
n-gram feature-hashing encoder (the classic hashing trick). Swapping in a
real sentence-transformer is a one-line change at the actor ``__init__``
(extension point; see stages/linker.py).

All kernels are numpy-batched: never call these per row in a hot stage.
"""

from __future__ import annotations

import zlib

import numpy as np

DEFAULT_DIM = 256
_NGRAM = 3


def _ngrams(s: str, n: int = _NGRAM):
    s = f" {s.lower()} "
    return (s[i: i + n] for i in range(max(1, len(s) - n + 1)))


def _crc_table() -> np.ndarray:
    t = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        t = np.where(t & 1, (t >> 1) ^ np.uint32(0xEDB88320), t >> 1)
    return t


_CRC_TABLE = _crc_table()


def _crc32_rows(win: np.ndarray, lens: np.ndarray | None = None,
                seed: int = 0) -> np.ndarray:
    """Vectorized IEEE CRC-32 over byte rows: (G, L) uint8 -> (G,) uint32,
    bit-identical to ``zlib.crc32(row, seed)`` on each row — L table
    passes over all G rows at once instead of G Python-level calls.
    ``lens`` (G,) masks variable-length rows (bytes at j >= lens[g] are
    padding and leave row g's register untouched)."""
    crc = np.full(win.shape[0], np.uint32(seed) ^ np.uint32(0xFFFFFFFF),
                  dtype=np.uint32)
    for j in range(win.shape[1]):
        nxt = _CRC_TABLE[(crc ^ win[:, j]) & np.uint32(0xFF)] \
            ^ (crc >> np.uint32(8))
        crc = nxt if lens is None else np.where(j < lens, nxt, crc)
    return crc ^ np.uint32(0xFFFFFFFF)


def hash_embed(texts, dim: int = DEFAULT_DIM) -> np.ndarray:
    """(k,) strings -> (k, dim) float32, L2-normalized feature-hashed
    char-trigram vectors. crc32 is used for bucketing because it is stable
    across processes (Python's builtin ``hash`` is salted per process and
    must never be used for partitioning or features).

    Vectorized: ASCII rows (the overwhelming case) batch into one uint8
    sliding-window matrix and a table-driven numpy CRC-32 — measured 40x+
    over the per-gram ``zlib.crc32`` loop at web-scale gazetteer sizes
    (250k surfaces), where the loop dominated the whole linker-index
    build. Non-ASCII rows keep the exact per-row path. Output is
    BIT-identical either way: pre-normalization values are small-integer
    counts (exact in float32 regardless of accumulation order) and the
    normalization lines are shared."""
    n = len(texts)
    out = np.zeros((n, dim), dtype=np.float32)
    fast_rows: list[int] = []
    fast_parts: list[str] = []
    for i, t in enumerate(texts):
        if not t:
            continue
        tl = t.lower()
        if tl.isascii():
            fast_rows.append(i)
            fast_parts.append(f" {tl} ")
        else:
            row = out[i]
            for g in _ngrams(t):
                h = zlib.crc32(g.encode("utf-8"))
                row[h % dim] += 1.0 if h & 0x80000000 else -1.0
    if fast_parts:
        buf = np.frombuffer("".join(fast_parts).encode("ascii"), dtype=np.uint8)
        lens = np.fromiter((len(p) for p in fast_parts), dtype=np.int64,
                           count=len(fast_parts))
        ng = lens - (_NGRAM - 1)  # every padded part has len >= _NGRAM
        total = int(ng.sum())
        cum = np.cumsum(ng)
        starts = np.cumsum(lens) - lens
        gram_start = (np.repeat(starts, ng)
                      + np.arange(total) - np.repeat(cum - ng, ng))
        win = buf[gram_start[:, None] + np.arange(_NGRAM)]
        h = _crc32_rows(win)
        sign = np.where(h & np.uint32(0x80000000),
                        np.float32(1.0), np.float32(-1.0))
        flat = (np.repeat(np.asarray(fast_rows, dtype=np.int64), ng) * dim
                + (h % np.uint32(dim)).astype(np.int64))
        np.add.at(out.reshape(-1), flat, sign)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


def cosine_topk(queries: np.ndarray, index: np.ndarray, k: int,
                mask: np.ndarray | None = None):
    """Batched cosine top-k: queries (q, d) x index (n, d) -> (scores,
    indices) each (q, k). Rows are assumed L2-normalized so cosine is a
    matmul. ``mask`` (q, n) bool marks allowed candidates (metadata
    filters); disallowed candidates score -inf. Ties break on the lower
    index (deterministic).

    Fast path: ``argpartition`` selects the k candidates in O(n) and only
    they are sorted — an exact replacement for the full (q, n) lexsort
    UNLESS a score tie straddles the k boundary (the partition set is then
    arbitrary), so rows where the boundary score is tied (or -inf from
    all-masked candidates) fall back to the full deterministic lexsort.
    Measured: the full lexsort was the single hottest numpy kernel in the
    entity linker at bench scale."""
    sims = queries @ index.T  # (q, n)
    if mask is not None:
        sims = np.where(mask, sims, -np.inf)
    q, n = sims.shape
    k = min(k, n)

    def full_sort(rows: np.ndarray) -> np.ndarray:
        order = np.lexsort(
            (np.broadcast_to(np.arange(n), rows.shape), -rows), axis=1)
        return order[:, :k]

    if k >= n or n <= 64 or q == 0:
        idx = full_sort(sims)
        return np.take_along_axis(sims, idx, axis=1), idx

    part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    part_scores = np.take_along_axis(sims, part, axis=1)
    kth = part_scores.min(axis=1)
    # exact iff exactly k candidates score >= the boundary AND the
    # boundary is finite (an -inf boundary means <k real candidates)
    exact = ((sims >= kth[:, None]).sum(axis=1) == k) & np.isfinite(kth)
    # order each partition set by (-score, index)
    order = np.lexsort((part, -part_scores), axis=1)
    idx = np.take_along_axis(part, order, axis=1)
    if not exact.all():
        bad = ~exact
        idx[bad] = full_sort(sims[bad])
    return np.take_along_axis(sims, idx, axis=1), idx


def cosine_top1(queries: np.ndarray, index: np.ndarray,
                mask: np.ndarray | None = None):
    """Exact top-1 of the masked cosine search: (scores, indices) each
    (q,). Identical to ``cosine_topk(...)[:, 0]`` — highest score wins,
    ties break on the LOWER index — because ``np.argmax`` returns the
    FIRST maximum. No partition/sort at all: the top-1-only entity
    linker was paying an argpartition + lexsort-fallback over
    (q, |category|) per batch for ranks it never read."""
    sims = queries @ index.T
    if mask is not None:
        sims = np.where(mask, sims, -np.inf)
    if sims.shape[0] == 0 or sims.shape[1] == 0:
        return (np.full(sims.shape[0], -np.inf, dtype=np.float32),
                np.zeros(sims.shape[0], dtype=np.int64))
    idx = np.argmax(sims, axis=1)
    return np.take_along_axis(sims, idx[:, None], axis=1)[:, 0], idx


def list_to_matrix(col, dtype=np.float64) -> np.ndarray:
    """Arrow ``list<float>`` column (Array or ChunkedArray) -> (n, d)
    numpy matrix via ONE flat-values cast + reshape — no per-row Python
    lists. Exactly equal to ``np.stack([np.asarray(v, dtype) for v in
    col.to_pylist()])`` on rectangular non-null input (float32->float64
    widening is exact in both paths); raises on ragged or null rows so a
    bad schema fails loudly instead of mis-shaping. This conversion ran
    per batch in every embedding-column stage (ANN, kNN-graph, near-dup,
    SemDeDup, k-means) and was a measured slice of each."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    if col.null_count:
        raise ValueError("null rows in embedding column")
    lens = pc.list_value_length(col).to_numpy()
    d = int(lens[0])
    if not (lens == d).all():
        raise ValueError("ragged embedding column")
    flat = pc.list_flatten(col)
    return flat.to_numpy(zero_copy_only=False) \
               .astype(dtype, copy=False).reshape(n, d)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise L2 distance of two equal-shape (k, d) matrices (F2,
    `/root/reference/src/utils/tools.py:25-26` — scalar there, batched
    here; never call per row in a hot stage)."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


STYLE_DIM = 384
_STYLE_SEED = np.uint32(0x5EED)


def style_embed(texts, dim: int = STYLE_DIM) -> np.ndarray:
    """Second embedding profile (T3): the analog of the reference's 384-d
    SBERT style encoder (`/root/reference/src/models/embedding_model.py:200-291`),
    kept deliberately DIFFERENT from ``hash_embed``: word-level unigrams +
    bigrams (style sentences are word-structured), a distinct hash seed,
    and 384 dims — so the two retrieval paths of the dual-profile search
    rank differently, as the reference's CLIP-vs-SBERT paths do.

    Vectorized like ``hash_embed``: after whitespace normalization every
    unigram AND bigram feature is a contiguous byte slice of the row, so
    one variable-length masked table-CRC pass hashes all features of all
    ASCII rows at once (the taxonomy-sized build path). Non-ASCII rows
    keep the exact per-row loop; output is BIT-identical either way
    (pre-normalization values are exact small-integer counts)."""
    n = len(texts)
    out = np.zeros((n, dim), dtype=np.float32)
    fast_rows: list[int] = []
    fast_parts: list[str] = []
    for i, t in enumerate(texts):
        if not t:
            continue
        tl = t.lower()
        if tl.isascii():
            fast_rows.append(i)
            # single-space-normalized: bigram "a b" is now a contiguous
            # slice; "\n" never appears (split consumed all whitespace)
            fast_parts.append(" ".join(tl.split()))
        else:
            ws = tl.split()
            feats = ws + [f"{a} {b}" for a, b in zip(ws, ws[1:])]
            row = out[i]
            for g in feats:
                h = zlib.crc32(g.encode("utf-8"), int(_STYLE_SEED))
                row[h % dim] += 1.0 if h & 0x80000000 else -1.0
    if fast_parts:
        buf = np.frombuffer("\n".join(fast_parts).encode("ascii"),
                            dtype=np.uint8)
        is_sep = (buf == 0x20) | (buf == 0x0A)
        edge = np.empty(len(buf) + 1, dtype=bool)
        edge[0] = True
        edge[1:] = is_sep
        w_start = np.nonzero(~is_sep & edge[:-1])[0]
        edge_r = np.empty(len(buf) + 1, dtype=bool)
        edge_r[-1] = True
        edge_r[:-1] = is_sep
        w_end = np.nonzero(~is_sep & edge_r[1:])[0] + 1  # exclusive
        # row index per word: count of "\n" boundaries before the word
        nl_cum = np.cumsum(buf == 0x0A)
        w_row = np.where(w_start > 0, nl_cum[w_start - 1], 0)
        same = w_row[:-1] == w_row[1:] if len(w_row) else \
            np.zeros(0, dtype=bool)
        starts = np.concatenate([w_start, w_start[:-1][same]])
        ends = np.concatenate([w_end, w_end[1:][same]])
        rows = np.concatenate([w_row, w_row[:-1][same]])
        if len(starts):
            lens = ends - starts
            lmax = int(lens.max())
            win = buf[np.minimum(starts[:, None] + np.arange(lmax),
                                 len(buf) - 1)]
            h = _crc32_rows(win, lens=lens, seed=int(_STYLE_SEED))
            sign = np.where(h & np.uint32(0x80000000),
                            np.float32(1.0), np.float32(-1.0))
            flat = (np.asarray(fast_rows, dtype=np.int64)[rows] * dim
                    + (h % np.uint32(dim)).astype(np.int64))
            np.add.at(out.reshape(-1), flat, sign)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out
