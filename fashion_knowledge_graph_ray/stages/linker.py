"""Stage 4: entity linking (J1/T8) — the ANN-lookup join, with per-worker state.

Reference semantics being re-expressed (call site
`/root/reference/src/engine/process_social_media_images.py:67-111`, query
impl `/root/reference/src/database/vector_database.py:127-191`):

- skip the mention if it has no ``type`` (line 74-76);
- candidate metadata filters: ``type == t``, ``gender IN (unisex, g)``,
  ``color == c`` (c skipped when empty — Pinecone treats an empty filter
  value as no constraint);
- query top_k=5 against the catalog index, take ``matches[0]``;
- accept iff ``score >= similarity_threshold`` (0.75 default, line 97).

Two interchangeable linkers:

- ``GazetteerLinker`` — exact surface-form lookup (form -> entity). The
  deterministic fast path; SQL-expressible, used by the oracle-checked
  queries.
- ``EmbeddingLinker`` — the reference-shaped path, **stateful**: a
  matrix of hash-embedded PRIMARY surfaces, built ONCE on the driver
  (``build_index``) and broadcast with ``ray.put``; each worker process
  adopts it zero-copy once per build, inside the memoized
  ``EnrichmentStage`` that ``enrich_pages`` runs as a task stage
  (aliases are deliberately not indexed: alias mentions must link through
  vector similarity, exercising the threshold). Per batch it embeds all
  mention surfaces at once and does one masked matmul top-k. Swap point
  for a real sentence-transformer: replace ``hash_embed`` here and in
  ``__init__`` (extension surface per SURVEY.md §2.11).

Both operate on the page-mentions list column, adding ``entity_id``
(nullable) and ``link_score`` to every mention struct.
"""

from __future__ import annotations

import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.vectors import DEFAULT_DIM, cosine_top1, hash_embed
from ..vocab import LINK_SIMILARITY_THRESHOLD, UNKNOWN
from .attributes import attrs_batch  # noqa: F401  (pipeline composes these)


class GazetteerLinker:
    """Exact form -> entity link; score 1.0. Broadcast-small-side join
    (taxonomy << pages), no shuffle (SURVEY.md §2.5 J1): the gazetteer is
    held as parallel (form, entity_id) Arrow arrays and each batch
    resolves with one ``pc.index_in`` probe + ``pc.take``, as
    ``relational.broadcast_join`` does."""

    def __init__(self, taxonomy_ref):
        tax = taxonomy_ref
        if not isinstance(tax, pa.Table):
            import ray

            tax = ray.get(taxonomy_ref)
        from .mentions import build_gazetteer

        gaz = build_gazetteer(tax)
        self.forms = pa.array(list(gaz), type=pa.string())
        self.entity_ids = pa.array([e for e, _ in gaz.values()],
                                   type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .attributes import flat_mentions

        col, vals = flat_mentions(batch)
        idx = pc.index_in(vals.field("form"), value_set=self.forms)
        ent = pc.take(self.entity_ids, idx)
        sc = pc.if_else(pc.is_valid(idx), 1.0,
                        pa.scalar(None, type=pa.float64()))
        return _rebuild_flat(batch, col, vals, ent, sc)


class EmbeddingLinker:
    """ANN linker: hash-embed index over primary taxonomy surfaces,
    metadata-filtered cosine top-k, threshold accept.

    Index lifecycle (the reference persists its index in Pinecone,
    `/root/reference/scripts/setup_pinecone.py:22-72`; this engine's
    analog): ``build_index`` computes the numeric artifact ONCE —
    embedding matrix + int filter codes — which ``build_graph`` both
    broadcasts to the enrichment workers via ``ray.put`` (``index_ref``;
    the float matrix rides zero-copy from the object store, so workers
    skip the per-``__init__`` rebuild) and persists as the ``index/`` output
    table (``linker_index_table``); a later query session reconstructs
    the linker from that table with ``from_index_table`` without the
    taxonomy or the embedding function."""

    def __init__(self, taxonomy_ref, *, dim: int = DEFAULT_DIM, top_k: int = 5,
                 threshold: float = LINK_SIMILARITY_THRESHOLD,
                 index_ref=None):
        if index_ref is not None:
            idx = index_ref
            if not isinstance(idx, dict):
                import ray

                idx = ray.get(index_ref)
        else:
            tax = taxonomy_ref
            if not isinstance(tax, pa.Table):
                import ray

                tax = ray.get(taxonomy_ref)
            idx = self.build_index(tax, dim=dim)
        self._adopt(idx)
        self.top_k = top_k
        self.threshold = threshold

    @staticmethod
    def build_index(tax: pa.Table, *, dim: int = DEFAULT_DIM) -> dict:
        """The numeric index artifact: embedding matrix over primary
        surfaces + int metadata-filter codes (the per-batch mask is then
        three broadcast int comparisons, not a Python loop per mention).
        All-numpy values so a ``ray.put`` broadcast is zero-copy."""
        enc = EmbeddingLinker._encode
        cat_code, cat = enc(tax["category"].to_pylist())
        gen_code, gen = enc(tax["gender"].to_pylist())
        col_code, col = enc(tax["color"].to_pylist())
        return {
            "entity_id": np.asarray(tax["entity_id"].to_pylist()),
            "cat_code": cat_code, "cat": cat,
            "gen_code": gen_code, "gen": gen,
            "col_code": col_code, "col": col,
            "matrix": hash_embed(tax["surface"].to_pylist(), dim=dim),
            "dim": dim,
        }

    def _adopt(self, idx: dict) -> None:
        self.entity_id = idx["entity_id"]
        self._cat_code, self.cat = idx["cat_code"], idx["cat"]
        self._gen_code, self.gen = idx["gen_code"], idx["gen"]
        self._col_code, self.col = idx["col_code"], idx["col"]
        self._unisex = self._gen_code.get("unisex", -3)
        self.index = idx["matrix"]
        self.dim = idx["dim"]
        # category-partitioned view of the index: a labeled query's mask
        # requires category == label, so its candidates live entirely in
        # one category slice — searching the slice instead of the full
        # matrix cuts the per-batch (q, n) sims/mask from n = |taxonomy|
        # to n = |category| (the web-scale-gazetteer fix; at 250k
        # entities the dense full-matrix path was ~0.5 s per PAGE).
        # kind="stable" keeps original index order inside each slice, so
        # lowest-index tie-breaks match the full-matrix path exactly.
        order = np.argsort(self.cat, kind="stable")
        self._cat_order = order
        cat_sorted = self.cat[order]
        self._cat_lo = np.searchsorted(cat_sorted, np.arange(
            len(self._cat_code) + 1, dtype=np.int32))
        self._index_by_cat = self.index[order]
        self._gen_by_cat = self.gen[order]
        self._col_by_cat = self.col[order]

    @classmethod
    def from_index_table(cls, tbl: pa.Table, *, top_k: int = 5,
                         threshold: float = LINK_SIMILARITY_THRESHOLD):
        """Reconstruct a linker from the persisted ``index/`` table —
        codes rebuild deterministically from the raw label columns
        (same sorted-set ranks as ``build_index``), the matrix loads
        straight from the embedding column."""
        # hash_embed emits float32; the parquet column stores exact
        # float64 copies — cast back so scores are BIT-identical to a
        # taxonomy-built linker
        flat = np.asarray(tbl["embedding"].combine_chunks().flatten(),
                          dtype=np.float64).astype(np.float32)
        matrix = flat.reshape(tbl.num_rows, -1) if tbl.num_rows \
            else np.zeros((0, DEFAULT_DIM), dtype=np.float32)
        enc = cls._encode
        cat_code, cat = enc(tbl["category"].to_pylist())
        gen_code, gen = enc(tbl["gender"].to_pylist())
        col_code, col = enc(tbl["color"].to_pylist())
        self = cls.__new__(cls)
        self._adopt({
            "entity_id": np.asarray(tbl["entity_id"].to_pylist()),
            "cat_code": cat_code, "cat": cat,
            "gen_code": gen_code, "gen": gen,
            "col_code": col_code, "col": col,
            "matrix": matrix, "dim": matrix.shape[1],
        })
        self.top_k = top_k
        self.threshold = threshold
        return self

    @staticmethod
    def _encode(values):
        codes = {v: i for i, v in enumerate(sorted(set(values)))}
        return codes, np.asarray([codes[v] for v in values], dtype=np.int32)

    def _codes(self, values, table, *, missing: int):
        """strings -> int codes; None/empty -> ``missing`` sentinel, unseen
        strings -> -2 (matches nothing)."""
        return np.asarray(
            [missing if not v else table.get(v, -2) for v in values],
            dtype=np.int32)

    def _link_many(self, surfaces, labels, genders, colors):
        """Vectorized top-1-of-top-k with reference filter semantics:
        ``category == label`` (skipped if no label), ``gender IN (unisex,
        g)``, ``color == c`` (skipped if c empty/unknown) — then cosine
        top-k, take top-1, accept iff score >= threshold.

        Two batch-size reducers, both result-identical to the naive
        per-mention dense path (equivalence-tested):

        - whole-QUERY dedup on (surface, label, gender, color): mention
          tuples repeat heavily (the vocabulary is gazetteer-bounded), so
          the masked search runs once per distinct tuple, not per mention;
        - per-CATEGORY search: a labeled query's candidates live entirely
          in one category slice of the index (mask requires category ==
          label), so the sims/mask matrices are (q_cat, |category|) not
          (q, |taxonomy|). Unlabeled queries (label missing) keep the
          full-matrix path.

        At web-scale gazetteers (250k entities) the naive path built a
        ~12 GB dense mask per 500-page batch; this shape is what survives
        100 TB."""
        uniq, inv = np.unique(np.asarray(surfaces, dtype=object),
                              return_inverse=True)
        lab = self._codes(labels, self._cat_code, missing=-1)
        g = self._codes(genders, self._gen_code, missing=-2)
        c = np.asarray(
            [-1 if (not v or v == UNKNOWN) else self._col_code.get(v, -2)
             for v in colors], dtype=np.int32)
        keys = np.stack([inv.astype(np.int64), lab.astype(np.int64),
                         g.astype(np.int64), c.astype(np.int64)], axis=1)
        ukeys, kinv = np.unique(keys, axis=0, return_inverse=True)
        kinv = kinv.reshape(-1)  # numpy 2.x keeps an (n, 1) axis here
        uq = hash_embed(uniq.tolist(), dim=self.dim)[ukeys[:, 0]]
        ulab = ukeys[:, 1].astype(np.int32)
        ug = ukeys[:, 2].astype(np.int32)
        uc = ukeys[:, 3].astype(np.int32)
        m = len(ukeys)
        u_scores = np.full(m, -np.inf, dtype=np.float32)
        u_idx = np.zeros(m, dtype=np.int64)
        for lv in np.unique(ulab):
            sel = np.nonzero(ulab == lv)[0]
            if lv == -2:
                continue  # unseen label: category == label never holds
            if lv == -1:  # no label: full-matrix search (rare)
                sub_index, sub_gen, sub_col = self.index, self.gen, self.col
                back = None
            else:
                lo, hi = self._cat_lo[lv], self._cat_lo[lv + 1]
                if hi == lo:
                    continue
                sub_index = self._index_by_cat[lo:hi]
                sub_gen = self._gen_by_cat[lo:hi]
                sub_col = self._col_by_cat[lo:hi]
                back = self._cat_order[lo:hi]
            mask = (sub_gen[None, :] == self._unisex) | \
                   (sub_gen[None, :] == ug[sel][:, None])
            mask &= (uc[sel][:, None] == -1) | \
                    (sub_col[None, :] == uc[sel][:, None])
            scores, idx = cosine_top1(uq[sel], sub_index, mask=mask)
            u_scores[sel] = scores
            u_idx[sel] = idx if back is None else back[idx]
        top_scores = u_scores[kinv]
        top_idx = u_idx[kinv]
        ok = np.isfinite(top_scores) & (top_scores >= self.threshold)
        return ok, top_scores, self.entity_id[top_idx]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .attributes import flat_mentions

        col, vals = flat_mentions(batch)
        n = len(vals)
        entity = [None] * n
        score = [None] * n
        if n:
            attrs = vals.field("attrs")
            typ = attrs.field("type").to_pylist()
            surf = vals.field("surface").to_pylist()
            # reference line 74-76: mention without a type is skipped
            sel = [i for i, t in enumerate(typ)
                   if t is not None and t != UNKNOWN]
            if sel:
                gen = attrs.field("gender").to_pylist()
                colr = attrs.field("color").to_pylist()
                ok, scores, eids = self._link_many(
                    [surf[i] for i in sel], [typ[i] for i in sel],
                    [gen[i] for i in sel], [colr[i] for i in sel])
                for j, good, s, e in zip(sel, ok, scores, eids):
                    if good:
                        entity[j] = str(e)
                        score[j] = float(s)
        ent = pa.array(entity, type=pa.string())
        sc = pa.array(score, type=pa.float64())
        return _rebuild_flat(batch, col, vals, ent, sc)


def _rebuild_flat(batch: pa.Table, list_arr, vals, ent: pa.Array,
                  sc: pa.Array) -> pa.Table:
    """Append (or replace) entity_id/link_score on the FLAT mention struct
    and re-wrap with the original list offsets — no Python dict round-trip."""
    from .attributes import rewrap_mentions

    keep = [f for f in vals.type if f.name not in ("entity_id", "link_score")]
    fields = keep + [pa.field("entity_id", pa.string()),
                     pa.field("link_score", pa.float64())]
    arrays = [vals.field(f.name) for f in keep] + [ent, sc]
    new_vals = pa.StructArray.from_arrays(arrays, fields=fields)
    return rewrap_mentions(batch, list_arr, new_vals)


def matrix_to_list_array(mat: np.ndarray, value_type=None) -> pa.ListArray:
    """(n, d) numpy -> Arrow list column without a per-row ``.tolist()``
    loop: one flat cast + constant-stride offsets. At web-scale gazetteer
    sizes (250k x 256) the per-row loop was a measured multi-second slice
    of the index persist."""
    n, d = mat.shape
    if n * d > np.iinfo(np.int32).max:
        # int32 offsets would wrap silently into a corrupt ListArray; a
        # single Arrow list column cannot index >2^31 values. Callers at
        # that scale must chunk the matrix into multiple batches.
        raise ValueError(
            f"matrix_to_list_array: {n}x{d} = {n * d} values exceeds "
            f"int32 list offsets; split the matrix into chunks")
    flat = mat.reshape(-1)
    if value_type is not None:
        flat = flat.astype(value_type.to_pandas_dtype(), copy=False)
    if d == 0:  # degenerate empty batch: n empty lists
        offsets = pa.array(np.zeros(n + 1, dtype=np.int32), type=pa.int32())
    else:
        offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32),
                           type=pa.int32())
    return pa.ListArray.from_arrays(offsets, pa.array(flat))


def linker_index_table(tax: pa.Table, *, dim: int = DEFAULT_DIM,
                       idx: dict | None = None) -> pa.Table:
    """The persisted form of the linker's ANN index (K6 analog — the
    reference stores it in Pinecone, setup_pinecone.py:22-72): entity
    ids, the raw filter-label columns (codes rebuild deterministically),
    and the surface-embedding rows. ``EmbeddingLinker.from_index_table``
    round-trips it. Pass the already-built ``idx`` dict (the broadcast
    artifact) to skip re-embedding the taxonomy."""
    if idx is None:
        idx = EmbeddingLinker.build_index(tax, dim=dim)
    return pa.table({
        "entity_id": pa.array(idx["entity_id"].tolist(), type=pa.string()),
        "category": tax["category"],
        "gender": tax["gender"],
        "color": tax["color"],
        # float32 -> float64 is exact, matching the documented
        # "exact float64 copies" round-trip contract in from_index_table
        "embedding": matrix_to_list_array(idx["matrix"], pa.float64()),
    })


class EnrichmentStage:
    """FUSED extract -> detect -> attrs -> link (M13 + M6 + M8/M9 + J1 in
    one callable), built once per worker process per build.

    Why fused: with separate detector and linker stages, the integer split
    of a small cluster's CPUs between them set a serial floor — at 8 CPUs
    a 1-actor detector pool put a hard 40s floor under the 800k-page bench
    no matter how fast the linker ran (measured; the reason the 8->32
    scaling ratio collapsed after the per-kernel optimizations). One
    callable holding BOTH states lets every worker do all the steps, so
    the work balances itself at any parallelism and one batch never
    crosses the object store between stages. Construction is cheap
    (10-40 ms: the ANN index arrives pre-built through ``index_ref``), so
    ``enrich_pages`` runs it as a task stage with a per-process memo
    rather than an actor pool."""

    def __init__(self, taxonomy_ref, *, link_mode: str = "embedding",
                 single_product_mode: bool = False, **link_kw):
        from .mentions import MentionDetector

        self.detector = MentionDetector(taxonomy_ref, single_product_mode)
        self.linker = (EmbeddingLinker(taxonomy_ref, **link_kw)
                       if link_mode == "embedding"
                       else GazetteerLinker(taxonomy_ref))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "html" in batch.schema.names:
            # extraction (M13) is fused in too: it is pure per-page CPU,
            # and one batch then goes html -> linked mentions in a single
            # call with no object-store hop between steps
            from .extract import extract_text_batch

            batch = extract_text_batch(batch)
        return self.linker(attrs_batch(self.detector(batch)))


# The worker process's EnrichmentStage for the build it last served.
# One entry: a new build (new broadcast refs or link config) replaces it,
# so warm workers reused across builds never grow it or serve stale
# state. The stored task handle keeps every non-ref key object alive, so
# an ``id()`` in the key cannot be recycled while the entry stands; the
# entry (and the broadcast objects it reads zero-copy) is released when
# the worker serves its next build or exits.
_STAGE_CACHE: dict = {}
_STAGE_LOCK = threading.Lock()


def _arg_key(v):
    import ray

    if isinstance(v, ray.ObjectRef):
        return v.hex()
    return v if isinstance(v, (str, int, float, bool, type(None))) else id(v)


class EnrichmentStageTask:
    """Picklable task-side handle of one build's enrichment config: each
    call runs the worker's memoized ``EnrichmentStage`` for that config,
    building it on the first batch the worker sees."""

    def __init__(self, taxonomy_ref, link_mode: str,
                 single_product_mode: bool, link_kw: dict):
        self.taxonomy_ref = taxonomy_ref
        self.link_mode = link_mode
        self.single_product_mode = single_product_mode
        self.link_kw = link_kw

    def stage(self) -> EnrichmentStage:
        key = (_arg_key(self.taxonomy_ref), self.link_mode,
               self.single_product_mode,
               tuple(sorted((k, _arg_key(v))
                            for k, v in self.link_kw.items())))
        with _STAGE_LOCK:
            hit = _STAGE_CACHE.get(key)
            if hit is None:
                hit = (self, EnrichmentStage(
                    self.taxonomy_ref, link_mode=self.link_mode,
                    single_product_mode=self.single_product_mode,
                    **self.link_kw))
                _STAGE_CACHE.clear()
                _STAGE_CACHE[key] = hit
        return hit[1]

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.stage()(batch)


def enrich_pages(pages_ds, taxonomy_ref, *, link_mode: str = "embedding",
                 single_product_mode: bool = False, concurrency=None,
                 batch_size: int = 512, **link_kw):
    """pages(html or text) -> linked page-mentions, as a task stage.

    Each task runs ``EnrichmentStage`` from its worker's one-entry memo
    (``EnrichmentStageTask``), so a build starts no actor pool: Ray Data
    reuses warm task workers across builds, and a task holds its CPU only
    until its input bundle is done, so the read tasks feeding it always
    get scheduled — on a one-CPU cluster too. ``concurrency``: None lets Ray Data size
    the stage; an int caps concurrent enrichment tasks
    (``pipelines.build_graph.resolve_pool_sizes`` picks it for builds)."""
    return pages_ds.map_batches(
        EnrichmentStageTask(taxonomy_ref, link_mode, single_product_mode,
                            link_kw),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
