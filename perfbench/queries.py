"""The query layer's load: a fixed seeded mix of ``pipelines.query``
calls against a built KG, every answer checked against the parquet
oracle (``checks.QueryOracle``). The traced run times it per call type.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import checks

# call types per block of ten, shuffled per block (seeded)
BLOCK = (("complete_the_look", 3), ("node_properties", 3),
         ("outfit_from_text", 2), ("outfit_from_page", 2))
TOP_K = 10
PAGE_TOP_K, PAGE_THRESHOLD = 5, 0.7
TIMEOUT_S = 30.0


class QueryLoad:
    """``complete_the_look`` and ``node_properties`` run Ray Data jobs over
    the ``edges``/``nodes`` parquet; ``outfit_from_text`` and
    ``outfit_from_page`` run in-process over the ``embeddings`` table."""

    def __init__(self, kg_dir: str, tax: pa.Table, pages: pa.Table,
                 seed: int):
        import ray.data as rd

        self.tax = tax
        self.edges_ds = rd.read_parquet(os.path.join(kg_dir, "edges"))
        self.nodes_ds = rd.read_parquet(os.path.join(kg_dir, "nodes"))
        self.emb = checks.read_dir(os.path.join(kg_dir, "embeddings"))
        self.type_of = dict(zip(tax["entity_id"].to_pylist(),
                                tax["category"].to_pylist()))
        self.oracle = checks.QueryOracle(kg_dir, tax)
        self.plan = self._plan(pages, seed)

    def _plan(self, pages: pa.Table, seed: int) -> list[tuple[str, object]]:
        """A seeded list of (call, argument); ``op(i)`` cycles through it."""
        from fashion_knowledge_graph_ray.vocab import (
            COLORS,
            OCCASIONS,
            PRODUCT_NOUNS,
            STYLES,
        )

        rng = np.random.Generator(np.random.PCG64(seed * 11 + 5))
        srcs = sorted(set(self.oracle.edges["src"].to_pylist()))
        html = [h for h in pages["html"].to_pylist() if h]
        block = [op for op, n in BLOCK for _ in range(n)]

        def pick(seq):
            return seq[int(rng.integers(0, len(seq)))]

        plan = []
        for _ in range(40):
            for op in rng.permutation(block):
                if op in ("complete_the_look", "node_properties"):
                    arg = pick(srcs)
                elif op == "outfit_from_text":
                    arg = (f"{pick(COLORS)} {pick(STYLES)} "
                           f"{pick(PRODUCT_NOUNS)[0]} for {pick(OCCASIONS)}")
                else:
                    arg = pick(html)
                plan.append((str(op), arg))
        return plan

    def op_name(self, i: int) -> str:
        return self.plan[i % len(self.plan)][0]

    def op(self, i: int) -> None:
        from fashion_knowledge_graph_ray.pipelines import query

        op, arg = self.plan[i % len(self.plan)]
        if op == "complete_the_look":
            self.answer = query.complete_the_look(
                self.edges_ds, arg, self.type_of.get(arg), self.type_of,
                top_k=TOP_K)
        elif op == "node_properties":
            self.answer = query.node_properties(self.nodes_ds, arg)
        elif op == "outfit_from_text":
            self.answer = query.outfit_from_text(arg, self.emb, top_k=TOP_K)
        else:
            self.answer = query.outfit_from_page(
                arg, self.tax, self.emb, top_k=PAGE_TOP_K,
                threshold=PAGE_THRESHOLD)

    def check(self, i: int) -> list[str]:
        op, arg = self.plan[i % len(self.plan)]
        o = self.oracle
        if op == "complete_the_look":
            want = o.complete_the_look(arg, TOP_K)
        elif op == "node_properties":
            want = o.node_properties(arg)
        elif op == "outfit_from_text":
            want = o.outfit_from_text(arg, TOP_K)
        else:
            want = o.outfit_from_page(arg, PAGE_TOP_K, PAGE_THRESHOLD)
        return checks.compare_query(op, self.answer, want)
