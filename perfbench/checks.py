"""Correctness checks run on the outputs of every operation.

Each check returns a list of problems; an empty list means correct. A
non-empty list counts the operation as failed.

- Builds: a seeded sample of urls is recomputed in-process with plain
  Python (no Ray, no blocks, no actor pool), following the
  ``_kg_triples_expected_values`` recipe of ``__ray_entry__.py``: the fused
  enrichment kernel runs once over the sample's pages as a single batch;
  page dedup, attribute triples, distinct-entity pairing with the category
  rule and min-``warc_ts`` triple dedup are plain loops and dicts. The
  build's triples for those urls must match exactly. Whole-table
  invariants and an order-independent digest per output table complete the
  check.
- Resume: the resumed tables must be digest-identical to the tables the
  set-up build wrote, and ``metrics.json`` must report one partition built.
- Queries: every answer must equal a pyarrow/numpy filter and sort over the
  parquet tables the build wrote.
"""

from __future__ import annotations

import json
import os

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from fashion_knowledge_graph_ray.vocab import (
    LIST_FIELDS,
    REL_COMPLEMENTED_BY,
    REL_WORN_WITH,
    SCALAR_FIELDS,
    UNKNOWN,
)

TABLES = ("linked", "pairs", "triples", "nodes", "edges")
REL_PREDS = (REL_WORN_WITH, REL_COMPLEMENTED_BY)
SAMPLE_URLS = 48


def read_dir(path: str, columns=None) -> pa.Table:
    """All parquet files under ``path`` (``part=i`` subdirectories
    included), without hive partition columns."""
    return pq.read_table(path, columns=columns, partitioning=None)


def digest(tbl: pa.Table) -> str:
    """Order-independent digest: row count plus the wrapping sum and the
    xor of per-row 64-bit hashes."""
    if tbl.num_rows == 0:
        return "0:0:0"
    h = pl.from_arrow(tbl).hash_rows(seed=0, seed_1=1, seed_2=2, seed_3=3)
    a = h.to_numpy()
    return f"{tbl.num_rows}:{int(a.sum(dtype=np.uint64))}:" \
           f"{int(np.bitwise_xor.reduce(a))}"


def table_digests(out_dir: str) -> dict[str, str]:
    return {t: digest(read_dir(os.path.join(out_dir, t))) for t in TABLES}


class ExpectedTriples:
    """The in-process reference for a build: enrichment kernel + plain
    Python derivation over a seeded url sample."""

    def __init__(self, pages: pa.Table, tax: pa.Table, *, link_mode: str,
                 canonicalize: bool, seed: int):
        from fashion_knowledge_graph_ray.stages.canonicalize import (
            canonical_map_pure,
        )
        from fashion_knowledge_graph_ray.stages.linker import EnrichmentStage

        self.pages = pages
        self.stage = EnrichmentStage(tax, link_mode=link_mode)
        self.cat = dict(zip(tax["entity_id"].to_pylist(),
                            tax["category"].to_pylist()))
        self.cmap = canonical_map_pure(tax) if canonicalize else {}
        urls = sorted(set(pages["url"].to_pylist()))
        rng = np.random.Generator(np.random.PCG64(seed * 7 + 3))
        pick = rng.choice(len(urls), size=min(SAMPLE_URLS, len(urls)),
                          replace=False)
        self.urls = sorted(urls[int(i)] for i in pick)
        self._expected: set | None = None

    def expected(self) -> set:
        if self._expected is None:
            mask = pc.is_in(self.pages["url"], pa.array(self.urls))
            self._expected = self._derive(self.stage(self.pages.filter(mask)))
        return self._expected

    def _derive(self, linked: pa.Table) -> set:
        best: dict = {}
        for r in linked.to_pylist():
            u = r["url"]
            if u not in best or r["warc_ts"] < best[u]["warc_ts"]:
                best[u] = r
        tri: dict = {}

        def add(s, p, o, u, ts):
            k = (s, p, o, u)
            if k not in tri or ts < tri[k]:
                tri[k] = ts

        for r in best.values():
            u, ts = r["url"], r["warc_ts"]
            ids = []
            for m in r["mentions"]:
                eid = m.get("entity_id")
                if not eid:
                    continue
                eid = self.cmap.get(eid, eid)
                ids.append(eid)
                a = m["attrs"]
                for f in SCALAR_FIELDS:
                    v = a.get(f)
                    if v not in (None, "", UNKNOWN):
                        add(eid, f"has_{f}", v, u, ts)
                for f in LIST_FIELDS:
                    for v in a.get(f) or []:
                        add(eid, f"has_{f}", v, u, ts)
            ids = sorted(set(ids))
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    x, y = ids[i], ids[j]
                    cx, cy = self.cat.get(x), self.cat.get(y)
                    rel = (REL_COMPLEMENTED_BY if cx and cy and cx == cy
                           else REL_WORN_WITH)
                    add(x, rel, y, u, ts)
                    add(y, rel, x, u, ts)
        return {(s, p, o, u, ts) for (s, p, o, u), ts in tri.items()}

    def check(self, triples: pa.Table) -> list[str]:
        got = triples.filter(pc.is_in(triples["url"], pa.array(self.urls)))
        got = set(zip(*(got[c].to_pylist() for c in
                        ("subj", "pred", "obj", "url", "warc_ts"))))
        exp = self.expected()
        if got == exp:
            return []
        return [f"sampled triples differ: {len(exp - got)} missing, "
                f"{len(got - exp)} unexpected (of {len(exp)} expected)"]


def invariants(out_dir: str) -> list[str]:
    """Whole-table invariants of a KG build."""
    bad = []
    triples = read_dir(os.path.join(out_dir, "triples"),
                       ["subj", "pred", "obj", "url"])
    edges = read_dir(os.path.join(out_dir, "edges"),
                     ["src", "dst", "rel", "weight"])
    nodes = read_dir(os.path.join(out_dir, "nodes"), ["entity_id"])
    linked = read_dir(os.path.join(out_dir, "linked"), ["mentions"])
    n_rel = pc.sum(pc.is_in(triples["pred"], pa.array(REL_PREDS))).as_py()
    w = pc.sum(edges["weight"]).as_py() or 0
    if w != n_rel:
        bad.append(f"sum(edges.weight)={w} != relation triples {n_rel}")
    if edges.group_by(["src", "dst", "rel"]).aggregate([]).num_rows \
            != edges.num_rows:
        bad.append("edges not unique on (src,dst,rel)")
    if triples.group_by(["subj", "pred", "obj", "url"]).aggregate([]) \
            .num_rows != triples.num_rows:
        bad.append("triples not unique on (subj,pred,obj,url)")
    ents = pc.list_flatten(linked["mentions"]).combine_chunks() \
        .field("entity_id")
    linked_ids = set(pc.unique(ents.drop_null()).to_pylist()) - {""}
    node_ids = nodes["entity_id"].to_pylist()
    if len(node_ids) != len(set(node_ids)) or set(node_ids) != linked_ids:
        bad.append(f"node ids ({len(node_ids)}) != linked entity ids "
                   f"({len(linked_ids)})")
    if triples.num_rows == 0 or edges.num_rows == 0:
        bad.append("empty triples or edges")
    return bad


def check_build(out_dir: str, ref: ExpectedTriples) -> list[str]:
    triples = read_dir(os.path.join(out_dir, "triples"))
    return ref.check(triples) + invariants(out_dir)


def check_resume(out_dir: str, setup_digests: dict) -> list[str]:
    bad = []
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        m = json.load(fh)
    if m.get("partitions_built") != 1:
        bad.append(f"metrics.json partitions_built="
                   f"{m.get('partitions_built')}, expected 1")
    now = table_digests(out_dir)
    for t in TABLES:
        if now[t] != setup_digests[t]:
            bad.append(f"resumed {t} digest {now[t]} != set-up "
                       f"{setup_digests[t]}")
    return bad


class QueryOracle:
    """Reference answers for the query mix, computed with pyarrow and
    numpy directly over the parquet tables of the KG."""

    def __init__(self, kg_dir: str, tax: pa.Table):
        from fashion_knowledge_graph_ray.stages.mentions import (
            build_gazetteer,
            compile_pattern,
        )

        self.edges = read_dir(os.path.join(kg_dir, "edges"))
        self.nodes = read_dir(os.path.join(kg_dir, "nodes"))
        self.emb = read_dir(os.path.join(kg_dir, "embeddings"))
        self.type_of = dict(zip(tax["entity_id"].to_pylist(),
                                tax["category"].to_pylist()))
        self.emb_ids = np.asarray(self.emb["entity_id"].to_pylist())
        self.emb_cat = np.asarray(self.emb["category"].to_pylist())
        self.emb_m = self._matrix("embedding")
        self.style_m = self._matrix("style_embedding")
        self.gaz = build_gazetteer(tax)
        self.pattern = compile_pattern(list(self.gaz))

    def _matrix(self, col: str) -> np.ndarray:
        flat = self.emb[col].combine_chunks().flatten().to_numpy()
        return flat.reshape(self.emb.num_rows, -1).astype(np.float32)

    @staticmethod
    def _ranked(scores: np.ndarray, k: int) -> np.ndarray:
        """Indices by (score desc, index asc), full sort."""
        return np.lexsort((np.arange(len(scores)), -scores))[:k]

    def related(self, eid: str, rel: str, same_type: bool, k: int) -> list:
        e = self.edges
        t = e.filter(pc.and_(pc.equal(e["src"], eid), pc.equal(e["rel"], rel)))
        mine = self.type_of.get(eid)
        rows = [(d, w) for d, w in zip(t["dst"].to_pylist(),
                                       t["weight"].to_pylist())
                if (self.type_of.get(d) is not None
                    and self.type_of.get(d) == mine if same_type
                    else self.type_of.get(d) != mine)]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:k]

    def complete_the_look(self, eid: str, k: int) -> dict:
        return {"worn_with": self.related(eid, REL_WORN_WITH, False, k),
                "complemented_by": self.related(eid, REL_COMPLEMENTED_BY,
                                                True, k)}

    def node_properties(self, eid: str) -> dict | None:
        t = self.nodes.filter(pc.equal(self.nodes["entity_id"], eid))
        return t.to_pylist()[0] if t.num_rows else None

    def outfit_from_text(self, query: str, k: int) -> list:
        from fashion_knowledge_graph_ray.functions.vectors import (
            hash_embed,
            style_embed,
        )
        from fashion_knowledge_graph_ray.pipelines.query import (
            RRF_K0,
            style_query_rewrite,
        )

        def ranked(q, m, tau):
            s = (m @ q[0]).astype(np.float32)
            return [str(self.emb_ids[i]) for i in self._ranked(s, k)
                    if s[i] >= tau]

        lists = [ranked(hash_embed([query]), self.emb_m, 0.2),
                 ranked(style_embed([style_query_rewrite(query)]),
                        self.style_m, 0.5)]
        score: dict = {}
        for lst in lists:
            for r, e in enumerate(lst, start=1):
                score[e] = score.get(e, 0.0) + 1.0 / (RRF_K0 + r)
        return sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def outfit_from_page(self, html: bytes, k: int, thr: float) -> list:
        from fashion_knowledge_graph_ray.functions.html import extract_text
        from fashion_knowledge_graph_ray.functions.vectors import hash_embed
        from fashion_knowledge_graph_ray.stages.attributes import (
            extract_attrs,
        )
        from fashion_knowledge_graph_ray.stages.mentions import detect_in_text

        ments = detect_in_text(extract_text(html), "query://page",
                               self.pattern, self.gaz)
        out = []
        for m in ments:
            typ = extract_attrs(m.get("context", ""), m.get("label"))["type"]
            s = (self.emb_m @ hash_embed([m["surface"]])[0]).astype(np.float32)
            if typ:
                s = np.where(self.emb_cat == typ, s, -np.inf)
            rank = 0
            for i in self._ranked(s, k):
                if np.isfinite(s[i]) and s[i] >= thr:
                    rank += 1
                    out.append((m["mention_id"], m["surface"], m.get("label"),
                                str(self.emb_ids[i]), rank, float(s[i])))
        return out


def compare_query(op: str, got, want) -> list[str]:
    """``got`` is the package's answer, ``want`` the oracle's."""
    if op == "complete_the_look":
        g = {k: list(zip(v["dst"].to_pylist(), v["weight"].to_pylist()))
             for k, v in got.items()}
        ok = g == want
    elif op == "node_properties":
        ok = got == want
    elif op == "outfit_from_text":
        g = list(zip(got["entity_id"].to_pylist(), got["rrf_score"].to_pylist()))
        ok = [e for e, _ in g] == [e for e, _ in want] and np.allclose(
            [s for _, s in g], [s for _, s in want], rtol=0, atol=1e-12)
    else:
        cols = ("mention_id", "surface", "label", "entity_id", "rank")
        g = list(zip(*(got[c].to_pylist() for c in cols)))
        ok = g == [w[:5] for w in want] and np.allclose(
            got["score"].to_pylist(), [w[5] for w in want], rtol=0,
            atol=1e-5)
    return [] if ok else [f"{op}: answer differs from the parquet oracle"]
