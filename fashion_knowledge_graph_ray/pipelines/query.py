"""Query layer over the materialized KG tables (SURVEY.md §3.3).

Re-expresses the reference's serving operators as filter/join/sort/limit
DAGs over the ``edges``/``nodes`` Parquet datasets:

- 1-hop traversal with predicates + top-k (J4/O1,
  `/root/reference/src/database/graph_database.py:206-355`): filter on
  (src, rel, weight>=t) -> broadcast-join node attrs on dst -> type
  predicate -> sort ``(weight DESC, dst ASC)`` (tie-break pinned per
  SURVEY.md §4.4) -> limit k;
- complete-the-look (recommender.py:91-202): WORN_WITH neighbors with
  ``related.type != selected.type`` plus COMPLEMENTED_BY neighbors with
  ``related.type == selected.type``;
- RRF fusion (G5, recommender.py:512-552): ``score[id] += 1/(k0+rank)``
  over k ranked lists, rank starting at 1, k0 = 60;
- text vector search (recommender.py:327-442): hash-embed the query, cosine
  top-k over taxonomy surfaces with threshold (the CLIP/SBERT dual-path
  analog).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.vectors import cosine_topk, hash_embed
from ..stages.bucketed import bucketed_aggregate
from ..vocab import REL_COMPLEMENTED_BY, REL_WORN_WITH

RRF_K0 = 60  # reference recommender.py:334


def related_entities(edges_ds, entity_id: str, rel: str, *,
                     weight_threshold: int = 1, top_k: int = 10,
                     entity_type: str | None = None,
                     same_type: bool | None = None,
                     type_of: dict[str, str] | None = None) -> pa.Table:
    """1-hop neighbors of ``entity_id`` via ``rel`` (J4 + O1).

    ``type_of`` is the entity->category lookup (broadcast small side).
    ``same_type=True`` keeps neighbors of ``entity_type`` (COMPLEMENTED_BY
    rule); ``False`` excludes them (WORN_WITH rule); ``None`` no predicate.
    Returns (dst, rel, weight) sorted by (weight DESC, dst ASC), limit k.
    """

    def flt(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.equal(t["src"], entity_id), pc.equal(t["rel"], rel)),
            pc.greater_equal(t["weight"], weight_threshold),
        )
        t = t.filter(m)
        if same_type is not None and type_of is not None:
            cats = [type_of.get(d) for d in t["dst"].to_pylist()]
            if same_type:
                keep = [c is not None and c == entity_type for c in cats]
            else:
                keep = [c != entity_type for c in cats]
            t = t.filter(pa.array(keep, type=pa.bool_()))
        return t.select(["dst", "rel", "weight"])

    out = edges_ds.map_batches(flt, batch_format="pyarrow",
                               zero_copy_batch=True)
    rows = out.take_all()
    tbl = pa.table(
        {
            "dst": pa.array([r["dst"] for r in rows], type=pa.string()),
            "rel": pa.array([r["rel"] for r in rows], type=pa.string()),
            "weight": pa.array([r["weight"] for r in rows], type=pa.int64()),
        }
    )
    idx = pc.sort_indices(tbl, sort_keys=[("weight", "descending"),
                                          ("dst", "ascending")])
    return tbl.take(idx[:top_k])


def complete_the_look(edges_ds, entity_id: str, entity_type: str | None,
                      type_of: dict[str, str], *, weight_threshold: int = 1,
                      top_k: int = 10) -> dict[str, pa.Table]:
    """Reference get_recommendations (recommender.py:91-202): WORN_WITH
    different-type neighbors + COMPLEMENTED_BY same-type neighbors."""
    worn = related_entities(
        edges_ds, entity_id, REL_WORN_WITH, weight_threshold=weight_threshold,
        top_k=top_k, entity_type=entity_type, same_type=False, type_of=type_of)
    comp = related_entities(
        edges_ds, entity_id, REL_COMPLEMENTED_BY,
        weight_threshold=weight_threshold, top_k=top_k,
        entity_type=entity_type, same_type=True, type_of=type_of)
    return {"worn_with": worn, "complemented_by": comp}


def rrf_scores(rankings: list[list[str]], k0: int = RRF_K0) -> list[tuple[str, float]]:
    """Pure RRF arithmetic (G5): score[id] = sum over lists of 1/(k0+rank),
    rank from 1. Sorted (score DESC, id ASC) for determinism."""
    scores: dict[str, float] = {}
    for ranking in rankings:
        for rank, pid in enumerate(ranking, start=1):
            scores[pid] = scores.get(pid, 0.0) + 1.0 / (k0 + rank)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def rrf_fusion_ds(ranked_ds, *, id_col: str = "id", rank_col: str = "rank",
                  k0: int = RRF_K0, top_k: int | None = None):
    """Dataset RRF: rows (id, rank) possibly from several source lists ->
    (id, rrf_score) sorted desc. A keyed sum over rank-scored rows."""

    def score(t: pa.Table) -> pa.Table:
        r = t[rank_col].cast(pa.float64())
        s = pc.divide(pa.scalar(1.0), pc.add(r, float(k0)))
        return pa.table({id_col: t[id_col], "rrf_score": s})

    scored = ranked_ds.map_batches(score, batch_format="pyarrow",
                                   zero_copy_batch=True)
    agg = bucketed_aggregate(scored, [id_col],
                             {"rrf_score": ("rrf_score", "sum")})
    out = agg.sort(["rrf_score", id_col], descending=[True, False])
    return out.limit(top_k) if top_k else out


def text_vector_search(query: str, taxonomy: pa.Table, *, top_k: int = 10,
                       threshold: float = 0.2) -> pa.Table:
    """Style-match-by-text (recommender.py:384-442): embed the query, cosine
    top-k over taxonomy surface embeddings, keep score >= threshold."""
    q = hash_embed([query])
    index = hash_embed(taxonomy["surface"].to_pylist())
    scores, idx = cosine_topk(q, index, top_k)
    ids = np.asarray(taxonomy["entity_id"].to_pylist())[idx[0]]
    keep = scores[0] >= threshold
    return pa.table(
        {
            "entity_id": pa.array(ids[keep].tolist(), type=pa.string()),
            "score": pa.array(scores[0][keep].tolist(), type=pa.float64()),
        }
    )


def style_query_rewrite(query: str) -> str:
    """M10 query-text style rewrite
    (`/root/reference/src/models/attribute_extraction_model.py:172-221`):
    the reference asks an LLM to rewrite a free-text search query into
    style-description phrasing; the deterministic analog extracts the
    closed-vocab attributes from the query text and serializes them with
    the SAME canonical style-sentence rule used for mentions (M9), falling
    back to the whitespace-normalized lowercase query when the query
    contains no vocabulary signal (the reference returns the raw query on
    LLM failure)."""
    from ..stages.attributes import extract_attrs, style_sentence

    attrs = extract_attrs(query)
    sent = style_sentence(attrs)
    if sent:  # style_sentence already returns '' for the no-signal case
        return sent
    return " ".join((query or "").lower().split())


def _matrix(tbl: pa.Table, col: str) -> np.ndarray:
    from ..functions.vectors import list_to_matrix

    return list_to_matrix(tbl[col], dtype=np.float32)


def outfit_from_text(query: str, embeddings_tbl: pa.Table, *,
                     top_k: int = 10, tau_primary: float = 0.2,
                     tau_style: float = 0.5, k0: int = RRF_K0) -> pa.Table:
    """Dual-profile style-match-by-text (recommender.py:327-510): path 1
    embeds the raw query with the primary profile against the ``embedding``
    index (CLIP-path analog, τ=0.2); path 2 rewrites the query (M10) and
    embeds with the style profile against ``style_embedding`` (SBERT-path
    analog, τ=0.5); the two ranked lists fuse with RRF (k0=60) and cut to
    ``top_k``. Consumes the PERSISTED embeddings table written by
    ``build_graph`` — no re-embedding of the taxonomy per query (the K2
    round-1 gap)."""
    from ..functions.vectors import cosine_topk, hash_embed, style_embed

    ids = np.asarray(embeddings_tbl["entity_id"].to_pylist())

    def ranked(qvec: np.ndarray, index: np.ndarray, tau: float) -> list[str]:
        scores, idx = cosine_topk(qvec, index, top_k)
        keep = scores[0] >= tau
        return [str(e) for e in ids[idx[0][keep]]]

    primary = ranked(hash_embed([query]),
                     _matrix(embeddings_tbl, "embedding"), tau_primary)
    style = ranked(style_embed([style_query_rewrite(query)]),
                   _matrix(embeddings_tbl, "style_embedding"), tau_style)
    fused = rrf_scores([primary, style], k0=k0)[:top_k]
    return pa.table({
        "entity_id": pa.array([e for e, _ in fused], type=pa.string()),
        "rrf_score": pa.array([s for _, s in fused], type=pa.float64()),
    })


def outfit_from_page(html: bytes | str, taxonomy: pa.Table,
                     embeddings_tbl: pa.Table, *, top_k: int = 5,
                     threshold: float = 0.7) -> pa.Table:
    """Style-match-by-page (recommender.py:204-325 ``get_outfit_from_image``
    re-expressed over web text): run the SAME per-page operators the build
    pipeline uses — extract_text (M13), gazetteer/trie mention scan (M6),
    closed-vocab attrs (M8) — then match each mention's surface against the
    persisted embedding index with the reference's top-k + threshold
    semantics (τ=0.7, recommender.py:253-321). Returns one row per
    (mention, match): (mention_id, surface, label, entity_id, rank, score).
    """
    from ..functions.html import extract_text
    from ..functions.vectors import cosine_topk, hash_embed
    from ..stages.attributes import extract_attrs
    from ..stages.mentions import (
        build_gazetteer,
        compile_pattern,
        detect_in_text,
    )

    text = extract_text(html)
    gaz = build_gazetteer(taxonomy)
    pat = compile_pattern(list(gaz))
    mentions = detect_in_text(text, "query://page", pat, gaz)
    ids = np.asarray(embeddings_tbl["entity_id"].to_pylist())
    index = _matrix(embeddings_tbl, "embedding")
    cats = np.asarray(embeddings_tbl["category"].to_pylist())

    m_id, m_surf, m_lab, e_out, r_out, s_out = [], [], [], [], [], []
    for rec in mentions:
        attrs = extract_attrs(rec.get("context", ""), rec.get("label"))
        q = hash_embed([rec["surface"]])
        # reference metadata filter: candidate type == detected label
        mask = (cats == attrs["type"])[None, :] if attrs.get("type") \
            else None
        scores, idx = cosine_topk(q, index, top_k, mask=mask)
        rank = 0
        for s, j in zip(scores[0], idx[0]):
            if not np.isfinite(s) or s < threshold:
                continue
            rank += 1
            m_id.append(rec["mention_id"])
            m_surf.append(rec["surface"])
            m_lab.append(rec.get("label"))
            e_out.append(str(ids[j]))
            r_out.append(rank)
            s_out.append(float(s))
    return pa.table({
        "mention_id": pa.array(m_id, type=pa.string()),
        "surface": pa.array(m_surf, type=pa.string()),
        "label": pa.array(m_lab, type=pa.string()),
        "entity_id": pa.array(e_out, type=pa.string()),
        "rank": pa.array(r_out, type=pa.int64()),
        "score": pa.array(s_out, type=pa.float64()),
    })


def node_properties(nodes_ds, entity_id: str) -> dict | None:
    """Point lookup (J5, graph_database.py:357-398).

    Column-expression equality, NOT an interpolated filter string: a key
    containing a quote must stay a literal value, never become expression
    syntax."""
    out = nodes_ds.map_batches(
        lambda t: t.filter(pc.equal(t["entity_id"], pa.scalar(entity_id))),
        batch_format="pyarrow", zero_copy_batch=True)
    rows = out.take(1)
    return rows[0] if rows else None
