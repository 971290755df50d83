"""The workloads. Each drives only public package functions from outside:
``pipelines.build_graph`` and ``pipelines.resumable`` here, the
``stages.*`` entry points and ``pipelines.query`` in the traced run.

A workload object goes through ``generate`` (the load generator, timed
apart from set-up), ``setup`` (after ``ray.init``), then repeated ``op``
calls, each followed by ``check``. ``trace`` is the per-layer run
(``ledger.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import checks
import corpus

# Sizes, fixed per workload (documented in README.md).
TYPICAL_PAGES, TYPICAL_FILES = 3000, 8
DENSE_PAGES, DENSE_FILES = 800, 8
RESUME_PAGES, RESUME_PARTS, RESUME_PART = 1600, 4, 1
WARMUP_PAGES = 64
OP_TIMEOUT_S = 120.0


class Workload:
    name = ""

    def __init__(self, work: str, seed: int):
        from fashion_knowledge_graph_ray.datagen import gen_taxonomy

        self.work = work
        self.seed = seed
        self.tax = gen_taxonomy(seed)
        self.context: dict = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def op(self, i: int) -> None:
        raise NotImplementedError

    def check(self, i: int) -> list[str]:
        raise NotImplementedError


class Build(Workload):
    """One operation = one ``build_graph`` call over the parquet corpus,
    from the read to the last output written."""

    link_mode = "embedding"
    canonicalize = False
    n_pages = n_files = 0

    def pages(self) -> pa.Table:
        raise NotImplementedError

    def generate(self) -> None:
        self.table = self.pages()
        self.files = corpus.write_shards(self.table, self.path("corpus"),
                                         self.n_files)
        warm = self.table.slice(0, WARMUP_PAGES)
        self.warm_files = corpus.write_shards(warm, self.path("warm"), 2)

    def build(self, files: list[str], out: str):
        import ray.data as rd

        from fashion_knowledge_graph_ray.pipelines.build_graph import (
            build_graph,
        )

        return build_graph(rd.read_parquet(files), self.tax, out,
                           link_mode=self.link_mode,
                           canonicalize=self.canonicalize)

    def setup(self, tracer) -> None:
        with tracer.span("setup.warmup"):
            self.build(self.warm_files, self.path("warm_out"))
        with tracer.span("setup.taxonomy_index"):
            self.ref = checks.ExpectedTriples(
                self.table, self.tax, link_mode=self.link_mode,
                canonicalize=self.canonicalize, seed=self.seed)
        self.out = self.path("out")
        self.digests: dict | None = None

    def op(self, i: int) -> None:
        self.build(self.files, self.out)

    def check(self, i: int) -> list[str]:
        d = checks.table_digests(self.out)
        if self.digests is None:
            self.digests = d
            self.context["triples"] = int(d["triples"].split(":")[0])
            self.context["digests"] = d
            return checks.check_build(self.out, self.ref)
        return [f"{t} digest {d[t]} != first build {self.digests[t]}"
                for t in checks.TABLES if d[t] != self.digests[t]]


class BuildTypical(Build):
    name = "build_typical"
    n_pages, n_files = TYPICAL_PAGES, TYPICAL_FILES

    def pages(self) -> pa.Table:
        return corpus.typical_pages(self.seed, self.n_pages, self.tax)


class BuildDense(Build):
    name = "build_dense"
    link_mode = "gazetteer"
    canonicalize = True
    n_pages, n_files = DENSE_PAGES, DENSE_FILES

    def pages(self) -> pa.Table:
        return corpus.dense_pages(self.seed, self.n_pages, self.tax)


class ResumeOnePart(Workload):
    """Set-up builds every partition with ``build_graph_resumable``. One
    operation deletes partition ``RESUME_PART`` (its ``linked/``,
    ``pairs/`` and manifest) and resumes."""

    name = "resume_one_part"
    n_pages = RESUME_PAGES

    def generate(self) -> None:
        self.table = corpus.typical_pages(self.seed, self.n_pages, self.tax)
        # shard by url hash: the resumable build assumes shard-unique urls
        h = np.array([zlib.crc32(u.encode()) % RESUME_PARTS
                      for u in self.table["url"].to_pylist()])
        self.corpus_dir = self.path("corpus")
        os.makedirs(self.corpus_dir, exist_ok=True)
        for k in range(RESUME_PARTS):
            pq.write_table(self.table.filter(pa.array(h == k)),
                           os.path.join(self.corpus_dir,
                                        f"pages-{k:03d}.parquet"))

    def resume(self):
        from fashion_knowledge_graph_ray.pipelines.resumable import (
            build_graph_resumable,
        )

        return build_graph_resumable(self.corpus_dir, self.tax, self.out,
                                     num_partitions=RESUME_PARTS)

    def setup(self, tracer) -> None:
        self.out = self.path("out")
        with tracer.span("setup.taxonomy_index"):
            self.ref = checks.ExpectedTriples(
                self.table, self.tax, link_mode="embedding",
                canonicalize=False, seed=self.seed)
        with tracer.span("setup.initial_build"):
            self.resume()
        bad = checks.check_build(self.out, self.ref)
        if bad:
            raise RuntimeError("set-up build incorrect: " + "; ".join(bad))
        self.digests = checks.table_digests(self.out)
        self.context["triples"] = int(self.digests["triples"].split(":")[0])
        self.context["digests"] = self.digests

    def drop_part(self) -> None:
        for t in ("linked", "pairs"):
            shutil.rmtree(os.path.join(self.out, t, f"part={RESUME_PART}"))
        os.remove(os.path.join(self.out, "manifests",
                               f"part={RESUME_PART}.json"))

    def op(self, i: int) -> None:
        self.drop_part()
        self.resume()

    def check(self, i: int) -> list[str]:
        bad = checks.check_resume(self.out, self.digests)
        with open(os.path.join(self.out, "metrics.json")) as fh:
            self.context["narrow_wall_sec_built"] = \
                json.load(fh)["narrow_wall_sec_built"]
        return bad


WORKLOADS = {w.name: w for w in (BuildTypical, BuildDense, ResumeOnePart)}
