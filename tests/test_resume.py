"""Checkpoint/resume: per-partition lineage manifests (SURVEY.md §4.3).

Invariants under test:
- partitioned build == monolithic build (same final tables);
- resume skips validated partitions and recomputes killed ones, with
  byte-identical final outputs;
- a tampered manifest or deleted part file forces recompute;
- a stage-version bump invalidates every manifest.
"""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from fashion_knowledge_graph_ray.datagen import gen_pages_table, gen_taxonomy
from fashion_knowledge_graph_ray.pipelines.build_graph import build_graph
from fashion_knowledge_graph_ray.pipelines.resumable import (
    assign_partitions,
    build_graph_resumable,
)
from fashion_knowledge_graph_ray.state import manifests as mf

N_PAGES = 300
N_PARTS = 4


@pytest.fixture(scope="module")
def sharded_pages(tmp_path_factory):
    """The fixture corpus written as 4 shard files (the partition unit)."""
    root = tmp_path_factory.mktemp("shards")
    tax = gen_taxonomy(42)
    pages = gen_pages_table(42, N_PAGES, tax)
    per = N_PAGES // N_PARTS
    for i in range(N_PARTS):
        pq.write_table(pages.slice(i * per, per),
                       str(root / f"shard-{i:02d}.parquet"))
    return str(root), tax


def _canon(path, sort_cols):
    t = pq.read_table(path)
    t = t.sort_by([(c, "ascending") for c in sort_cols])
    return t


def _table_sets(out_dir):
    return {
        "triples": _canon(os.path.join(out_dir, "triples"),
                          ["subj", "pred", "obj", "url"]),
        "edges": _canon(os.path.join(out_dir, "edges"),
                        ["src", "dst", "rel"]),
        "nodes": _canon(os.path.join(out_dir, "nodes"), ["entity_id"]),
    }


def test_assign_partitions_deterministic():
    files = [f"/x/s{i}.parquet" for i in (3, 1, 0, 2)]
    a = assign_partitions(files, 2)
    b = assign_partitions(list(reversed(files)), 2)
    assert a == b
    assert sorted(sum(a, [])) == sorted(files)


def test_partitioned_matches_monolithic(ray_session, sharded_pages, tmp_path):
    import ray.data as rd

    shards, tax = sharded_pages
    out_p = str(tmp_path / "part")
    out_m = str(tmp_path / "mono")
    build_graph_resumable(shards, tax, out_p, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    build_graph(rd.read_parquet(shards), tax, out_m, link_mode="gazetteer")
    got, want = _table_sets(out_p), _table_sets(out_m)
    for name in got:
        assert got[name].equals(want[name]), name
    # K2 parity: the resumable build must ship the same dual-profile
    # embeddings table the monolithic build guarantees (the query layer's
    # outfit_from_text/outfit_from_page consume res.embeddings_path)
    emb_p = pq.read_table(os.path.join(out_p, "embeddings"))
    emb_m = pq.read_table(os.path.join(out_m, "embeddings"))
    assert emb_p.equals(emb_m) and emb_p.num_rows == tax.num_rows
    metrics = json.load(open(os.path.join(out_p, "metrics.json")))
    assert metrics["partitions"] == N_PARTS
    assert metrics["partitions_built"] == N_PARTS
    assert metrics["triples_rows"] == got["triples"].num_rows
    # G9: the aggregated mention-label histogram equals a direct count
    # over the linked output's mention structs
    lc = metrics["label_counts"]
    linked = pq.read_table(os.path.join(out_p, "linked"))
    want_lc: dict[str, int] = {}
    for recs in linked["mentions"].to_pylist():
        for r in recs or []:
            want_lc[r["label"]] = want_lc.get(r["label"], 0) + 1
    assert lc == dict(sorted(want_lc.items())) and sum(lc.values()) > 0


def test_resume_skips_valid_and_recomputes_killed(ray_session, sharded_pages,
                                                  tmp_path):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    first = _table_sets(out)

    # kill partition 1's output mid-"write" (drop a part file) and nuke
    # partition 2 entirely, manifest included
    linked1 = os.path.join(out, "linked", "part=1")
    victim = [f for f in os.listdir(linked1) if f.endswith(".parquet")][0]
    os.remove(os.path.join(linked1, victim))
    shutil.rmtree(os.path.join(out, "linked", "part=2"))
    shutil.rmtree(os.path.join(out, "pairs", "part=2"))
    os.remove(mf.manifest_path(out, 2))

    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_skipped"] == 2
    assert metrics["partitions_built"] == 2
    assert _table_sets(out) == first or all(
        _table_sets(out)[k].equals(first[k]) for k in first)


def test_tampered_manifest_forces_recompute(ray_session, sharded_pages,
                                            tmp_path):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    p = mf.manifest_path(out, 0)
    d = json.load(open(p))
    d["rows"]["linked"] += 1
    json.dump(d, open(p, "w"))
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_built"] == 1
    assert metrics["partitions_skipped"] == N_PARTS - 1


def test_canonicalized_partitioned_matches_monolithic(ray_session,
                                                      sharded_pages,
                                                      tmp_path):
    import ray.data as rd

    shards, tax = sharded_pages
    out_p = str(tmp_path / "part_c")
    out_m = str(tmp_path / "mono_c")
    build_graph_resumable(shards, tax, out_p, num_partitions=N_PARTS,
                          link_mode="gazetteer", canonicalize=True)
    build_graph(rd.read_parquet(shards), tax, out_m, link_mode="gazetteer",
                canonicalize=True)
    got, want = _table_sets(out_p), _table_sets(out_m)
    for name in got:
        assert got[name].equals(want[name]), name
    # canonical ids actually differ from the raw build
    raw = build_graph_resumable(shards, tax, str(tmp_path / "part_raw"),
                                num_partitions=N_PARTS,
                                link_mode="gazetteer")
    raw_edges = _canon(os.path.join(str(tmp_path / "part_raw"), "edges"),
                       ["src", "dst", "rel"])
    assert not got["edges"].equals(raw_edges)


def test_config_change_invalidates(ray_session, sharded_pages, tmp_path):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    # different link mode -> different config -> full recompute
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="embedding")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_skipped"] == 0


def test_int_concurrency_builds_and_resumes(ray_session, sharded_pages,
                                            tmp_path):
    # build_graph takes an int cap; the resumable build must too, store it
    # in the manifest config, and skip every partition on an identical call
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer", concurrency=2)
    assert mf.load_manifest(out, 0).config["concurrency"] == 2
    first = _table_sets(out)
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer", concurrency=2)
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_skipped"] == 2
    got = _table_sets(out)
    assert all(got[k].equals(first[k]) for k in first)


def test_stage_version_bump_invalidates(ray_session, sharded_pages, tmp_path,
                                        monkeypatch):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    bumped = dict(mf.STAGE_VERSIONS, extract=mf.STAGE_VERSIONS["extract"] + 1)
    monkeypatch.setattr(mf, "STAGE_VERSIONS", bumped)
    assert mf.validate_manifest(out, 0,
                                assign_partitions(
                                    sorted(os.path.join(shards, f)
                                           for f in os.listdir(shards)
                                           if f.endswith(".parquet")), 2)[0],
                                {"link_mode": "gazetteer",
                                 "single_product_mode": False,
                                 "dedup": True,
                                 "concurrency": [1, 8]}) is None


def test_no_part_column_leaks(ray_session, sharded_pages, tmp_path):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    res = build_graph_resumable(shards, tax, out, num_partitions=2,
                                link_mode="gazetteer")
    for which in ("linked", "pairs", "triples", "nodes", "edges"):
        cols = res.dataset(which).schema().names
        assert "part" not in cols, which
