"""Checkpoint/resume: per-partition lineage manifests (SURVEY.md §4.3).

Invariants under test:
- partitioned build == monolithic build (same final tables);
- resume skips validated partitions and recomputes killed ones, with
  byte-identical final outputs;
- a tampered manifest or deleted part file forces recompute;
- a stage-version bump invalidates every manifest;
- a rerun with fewer partitions leaves only its own partitions on disk;
- a plain build into a partitioned build's dir leaves no resume state;
- a resume after deleting one partition rebuilds it alone and equals a
  fresh build, table for table; a changed taxonomy rebuilds them all;
- the finals read only ``linked/`` and run no Ray Data execution; a
  plain build, and a resume rebuilding one partition, run no Ray Data
  sort or write (the url dedup and every write are raw tasks), and the
  resume reads only that partition's files;
- a resume submits the skipped partitions' finals maps, over their
  ``linked/`` files only, before it rebuilds a partition, and each url
  shard of the rebuild is one more finals unit; a rebuilt partition
  with a 0-row input, and a resume rebuilding every partition, equal a
  fresh build;
- a failed shard task stops the build at its partition, whose dirs are
  never swapped in; the partitions rebuilt before it keep their
  manifests, and the next run skips them;
- the url dedup keeps the earliest crawl of a url whatever block each
  crawl is in: 1, 3 or 8 blocks, canonical ids on or off, give the same
  tables, and ``linked/`` equals the Dataset operators' result;
- a manifest's ``config`` keeps its five keys and fixed values;
- pages that link no entity, no pages at all, and a url shard with no
  rows still give typed tables in both builds.
"""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fashion_knowledge_graph_ray.datagen import gen_pages_table, gen_taxonomy
from fashion_knowledge_graph_ray.pipelines.build_graph import build_graph
from fashion_knowledge_graph_ray.pipelines.resumable import (
    assign_partitions,
    build_graph_resumable,
    list_parquet_files,
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
    t = pq.read_table(path, partitioning=None)
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


def _all_tables(out_dir):
    """The five tables of a gazetteer build (whose link scores are exact),
    each sorted on all of its columns."""
    keys = {"linked": ["url"], "pairs": ["src", "dst", "rel", "url"]}
    out = {t: _canon(os.path.join(out_dir, t), k) for t, k in keys.items()}
    return {**out, **_table_sets(out_dir)}


def test_assign_partitions_deterministic():
    files = [f"/x/s{i}.parquet" for i in (3, 1, 0, 2)]
    a = assign_partitions(files, 2)
    b = assign_partitions(list(reversed(files)), 2)
    assert a == b
    assert sorted(sum(a, [])) == sorted(files)


def _linked_rows(out_dir):
    """linked rows by url, with every mention's link_score split out: the
    embedding linker's score moves by float32 ulps with the batch it is
    scored in, so scores are compared within a tolerance and everything
    else exactly."""
    rows = sorted(pq.read_table(os.path.join(out_dir, "linked"),
                                partitioning=None).to_pylist(),
                  key=lambda r: r["url"])
    scores = [[m.pop("link_score") for m in r["mentions"] or []]
              for r in rows]
    return rows, scores


@pytest.mark.parametrize("link_mode", ["gazetteer", "embedding"])
def test_partitioned_matches_monolithic(ray_session, sharded_pages, tmp_path,
                                        link_mode):
    import ray.data as rd

    shards, tax = sharded_pages
    out_p = str(tmp_path / "part")
    out_m = str(tmp_path / "mono")
    build_graph_resumable(shards, tax, out_p, num_partitions=N_PARTS,
                          link_mode=link_mode)
    build_graph(rd.read_parquet(shards), tax, out_m, link_mode=link_mode)
    got, want = _table_sets(out_p), _table_sets(out_m)
    for name in got:
        assert got[name].equals(want[name]), name
    pairs_cols = ["src", "dst", "rel", "url", "warc_ts"]
    assert _canon(os.path.join(out_p, "pairs"), pairs_cols).equals(
        _canon(os.path.join(out_m, "pairs"), pairs_cols))
    (rows_p, scores_p), (rows_m, scores_m) = (_linked_rows(out_p),
                                              _linked_rows(out_m))
    assert rows_p == rows_m and len(rows_p) > 0
    for sp, sm in zip(scores_p, scores_m):
        assert sp == pytest.approx(sm, abs=1e-5)
    # K2/K6 parity: the resumable build must ship the same dual-profile
    # embeddings table and persisted ANN index the monolithic build
    # guarantees (the query layer's outfit_from_text/outfit_from_page
    # consume res.embeddings_path; EmbeddingLinker.from_index_table
    # reads index/)
    for table in ("embeddings", "index"):
        t_p = pq.read_table(os.path.join(out_p, table))
        t_m = pq.read_table(os.path.join(out_m, table))
        assert t_p.equals(t_m) and t_p.num_rows == tax.num_rows, table
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


def test_manifest_config_format_is_unchanged(ray_session, sharded_pages,
                                             tmp_path):
    # the checkpoint format: five keys, "dedup" and "concurrency" fixed
    # from when they were options, so older manifests stay valid; the
    # dict perfbench's ledger validates with must match it too
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer", canonicalize=True)
    want = {"link_mode": "gazetteer", "single_product_mode": False,
            "dedup": True, "canonicalize": True, "concurrency": "auto"}
    parts = assign_partitions(list_parquet_files(shards), 2)
    for i, files in enumerate(parts):
        with open(mf.manifest_path(out, i)) as fh:
            assert json.load(fh)["config"] == want
        assert mf.validate_manifest(out, i, files, want) is not None
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer", canonicalize=True)
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_skipped"] == 2


def test_stage_version_bump_invalidates(ray_session, sharded_pages, tmp_path,
                                        monkeypatch):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    files = assign_partitions(list_parquet_files(shards), 2)[0]
    config = mf.load_manifest(out, 0).config
    assert mf.validate_manifest(out, 0, files, config) is not None
    bumped = dict(mf.STAGE_VERSIONS, extract=mf.STAGE_VERSIONS["extract"] + 1)
    monkeypatch.setattr(mf, "STAGE_VERSIONS", bumped)
    assert mf.validate_manifest(out, 0, files, config) is None


def test_rerun_with_fewer_partitions_drops_stale_ones(ray_session,
                                                      sharded_pages, tmp_path):
    # a rerun into the same out_dir with fewer partitions must not leave
    # the old partitions on disk for the finals (or dataset()) to read:
    # that double-counted their pages in linked and inflated edge weights
    shards, tax = sharded_pages
    out, fresh = str(tmp_path / "kg"), str(tmp_path / "fresh")
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    res = build_graph_resumable(shards, tax, out, num_partitions=2,
                                link_mode="gazetteer")
    build_graph_resumable(shards, tax, fresh, num_partitions=2,
                          link_mode="gazetteer")
    for sub in ("linked", "pairs"):
        assert sorted(os.listdir(os.path.join(out, sub))) == \
            ["part=0", "part=1"], sub
    assert sorted(os.listdir(os.path.join(out, "manifests"))) == \
        ["part=0.json", "part=1.json"]
    assert res.dataset("linked").count() == \
        pq.read_table(os.path.join(fresh, "linked"),
                      partitioning=None).num_rows
    got, want = _table_sets(out), _table_sets(fresh)
    for name in got:
        assert got[name].equals(want[name]), name


def test_plain_build_drops_resume_state(ray_session, sharded_pages,
                                        tmp_path):
    # build_graph into a dir a partitioned build used owns the whole
    # directory: the old manifests and metrics.json described another KG
    import ray.data as rd

    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    assert os.path.exists(os.path.join(out, "metrics.json"))
    build_graph(rd.read_parquet(list_parquet_files(shards)[0]), tax, out,
                link_mode="gazetteer")
    assert not os.path.exists(os.path.join(out, "manifests"))
    assert not os.path.exists(os.path.join(out, "metrics.json"))


def test_no_part_column_leaks(ray_session, sharded_pages, tmp_path):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    res = build_graph_resumable(shards, tax, out, num_partitions=2,
                                link_mode="gazetteer")
    for which in ("linked", "pairs", "triples", "nodes", "edges"):
        cols = res.dataset(which).schema().names
        assert "part" not in cols, which


def _drop_partition(out_dir, part) -> None:
    for t in ("linked", "pairs"):
        shutil.rmtree(os.path.join(out_dir, t, f"part={part}"))
    os.remove(mf.manifest_path(out_dir, part))


def test_resume_one_deleted_partition_equals_fresh_build(ray_session,
                                                         sharded_pages,
                                                         tmp_path):
    shards, tax = sharded_pages
    out, fresh = str(tmp_path / "kg"), str(tmp_path / "fresh")
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    _drop_partition(out, 1)
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_built"] == 1
    build_graph_resumable(shards, tax, fresh, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    got, want = _all_tables(out), _all_tables(fresh)
    assert set(got) == {"linked", "pairs", "triples", "edges", "nodes"}
    for name in want:
        assert got[name].num_rows > 0 and got[name].equals(want[name]), name


def test_taxonomy_change_rebuilds_every_partition(ray_session, sharded_pages,
                                                  tmp_path):
    # the manifests record a digest of the taxonomy columns the narrow
    # chain reads: new categories change the pair relations, so a resume
    # must rebuild every partition and equal a fresh build
    shards, tax = sharded_pages
    out, fresh = str(tmp_path / "kg"), str(tmp_path / "fresh")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    before = _all_tables(out)
    cats = tax["category"].to_pylist()
    tax2 = tax.set_column(tax.schema.get_field_index("category"), "category",
                          pa.array(cats[1:] + cats[:1], type=pa.string()))
    build_graph_resumable(shards, tax2, out, num_partitions=2,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_built"] == 2
    build_graph_resumable(shards, tax2, fresh, num_partitions=2,
                          link_mode="gazetteer")
    got, want = _all_tables(out), _all_tables(fresh)
    for name in want:
        assert got[name].equals(want[name]), name
    assert not got["pairs"].equals(before["pairs"])
    # row order does not change the digest
    assert mf.taxonomy_digest(tax2) == mf.taxonomy_digest(
        tax2.take(pa.array(range(tax2.num_rows - 1, -1, -1))))


def _spy_dataset_runs(monkeypatch, seen: list) -> None:
    """Record every Ray Data ``read_parquet``, ``sort``, ``write_datasink``
    and ``write_parquet`` call in ``seen``."""
    import ray.data as rd

    for name in ("sort", "write_datasink", "write_parquet"):
        real = getattr(rd.Dataset, name)

        def spy(self, *a, _name=name, _real=real, **kw):
            seen.append(_name)
            return _real(self, *a, **kw)
        monkeypatch.setattr(rd.Dataset, name, spy)
    real_read = rd.read_parquet

    def read_spy(path, *a, **kw):
        seen.append(("read", path))
        return real_read(path, *a, **kw)
    monkeypatch.setattr(rd, "read_parquet", read_spy)


def test_finals_read_only_linked_with_no_dataset_execution(
        ray_session, sharded_pages, tmp_path, monkeypatch):
    # with every partition valid only the finals run: raw tasks over the
    # linked/ files (never pairs/), no Ray Data read, sort or write
    from fashion_knowledge_graph_ray.pipelines import resumable

    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    first = _table_sets(out)
    seen, units = [], []
    _spy_dataset_runs(monkeypatch, seen)
    real_maps = resumable.map_kinds

    def maps_spy(u, *a, **kw):
        units.extend(u)
        return real_maps(u, *a, **kw)
    monkeypatch.setattr(resumable, "map_kinds", maps_spy)
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_skipped"] == 2
    assert seen == []
    files = [f for group in units for f in group]
    assert files and all(os.path.relpath(f, out).startswith("linked" + os.sep)
                         for f in files)
    got = _table_sets(out)
    assert all(got[k].equals(first[k]) for k in first)


def test_plain_build_runs_no_dataset_sort_or_write(
        ray_session, sharded_pages, tmp_path, monkeypatch):
    # the narrow chain's one Ray Data execution is read -> enrich; the url
    # dedup and every table's write run on raw tasks
    import ray.data as rd

    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    seen = []
    pages = rd.read_parquet(shards)
    _spy_dataset_runs(monkeypatch, seen)
    build_graph(pages, tax, out, link_mode="gazetteer")
    assert seen == []
    for name in ("linked", "pairs", "triples", "nodes", "edges"):
        assert pq.read_table(os.path.join(out, name)).num_rows > 0, name


def test_resume_rebuilding_one_partition_reads_once_and_sorts_nothing(
        ray_session, sharded_pages, tmp_path, monkeypatch):
    shards, tax = sharded_pages
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    first = _all_tables(out)
    os.remove(mf.manifest_path(out, 1))
    seen = []
    _spy_dataset_runs(monkeypatch, seen)
    build_graph_resumable(shards, tax, out, num_partitions=2,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_built"] == 1
    parts = assign_partitions(list_parquet_files(shards), 2)
    assert seen == [("read", parts[1])]
    got = _all_tables(out)
    assert all(got[k].equals(first[k]) for k in first)


def _split_corpus(sharded_pages, root, sizes) -> str:
    """The fixture pages rewritten as one file per entry of ``sizes``
    (a 0 makes a 0-row file), in a new directory under ``root``."""
    shards, _ = sharded_pages
    pages = pq.read_table(shards)
    src = os.path.join(root, "pages")
    os.makedirs(src)
    lo = 0
    for k, n in enumerate(sizes):
        pq.write_table(pages.slice(lo, n),
                       os.path.join(src, f"shard-{k:02d}.parquet"))
        lo += n
    return src


def test_resume_overlaps_skipped_finals_with_the_rebuild(
        ray_session, sharded_pages, tmp_path, monkeypatch):
    # six files in three partitions; partition 1 is rebuilt with one url
    # shard per input block. The skipped partitions' finals maps go
    # first, over their linked/ files only; each url shard is one more
    # unit
    from fashion_knowledge_graph_ray.pipelines import resumable

    _, tax = sharded_pages
    src = _split_corpus(sharded_pages, str(tmp_path), [50] * 6)
    out = str(tmp_path / "kg")
    build_graph_resumable(src, tax, out, num_partitions=3,
                          link_mode="gazetteer")
    first = _all_tables(out)
    _drop_partition(out, 1)
    routed = _one_block_per_input_block(monkeypatch)
    events = []
    real_maps, real_chain = resumable.map_kinds, resumable.narrow_chain

    def maps_spy(units, map_fn, s):
        events.append(("maps", list(units), s))
        return real_maps(units, map_fn, s)

    def chain_spy(*a, **kw):
        events.append(("narrow_chain",))
        shards = real_chain(*a, **kw)
        events.append(("shards", shards))
        return shards
    monkeypatch.setattr(resumable, "map_kinds", maps_spy)
    monkeypatch.setattr(resumable, "narrow_chain", chain_spy)
    build_graph_resumable(src, tax, out, num_partitions=3,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_built"] == 1
    assert [e[0] for e in events] == ["maps", "narrow_chain", "shards",
                                      "maps"]
    (_, groups, s), (_, shards), (_, built, s_built) = (
        events[0], events[2], events[3])
    want = sorted(os.path.join(out, "linked", f"part={i}", f)
                  for i in (0, 2)
                  for f in os.listdir(os.path.join(out, "linked",
                                                   f"part={i}")))
    assert sorted(f for g in groups for f in g) == want
    assert routed == [len(shards)] and len(shards) > 1
    assert built == shards
    assert s == s_built == 1  # 300 input pages, one merge per 1,024
    got = _all_tables(out)
    assert all(got[k].equals(first[k]) for k in first)


@pytest.mark.parametrize("rebuild", ["empty_input", "every_partition"])
def test_resume_edge_cases_equal_a_fresh_build(ray_session, sharded_pages,
                                               tmp_path, rebuild):
    # the only rebuilt partition reads a 0-row file (no url shard, no
    # unit), or every partition is rebuilt (no skipped unit); both write
    # the tables a fresh build writes, typed
    _, tax = sharded_pages
    src = _split_corpus(sharded_pages, str(tmp_path), [100, 0, 100, 100])
    out, fresh = str(tmp_path / "kg"), str(tmp_path / "fresh")
    build_graph_resumable(src, tax, out, num_partitions=4,
                          link_mode="gazetteer")
    for part in ((1,) if rebuild == "empty_input" else range(4)):
        _drop_partition(out, part)
    build_graph_resumable(src, tax, out, num_partitions=4,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["partitions_built"] == (1 if rebuild == "empty_input"
                                           else 4)
    assert pq.read_table(os.path.join(out, "linked", "part=1")).num_rows \
        == 0
    build_graph_resumable(src, tax, fresh, num_partitions=4,
                          link_mode="gazetteer")
    got, want = _all_tables(out), _all_tables(fresh)
    for name in want:
        assert got[name].num_rows > 0 and got[name].equals(want[name]), name


def test_failed_shard_task_keeps_the_partitions_before_it(
        ray_session, sharded_pages, tmp_path, monkeypatch):
    # partition 2's shard task raises: the build stops there, partitions
    # 0 and 1 are checkpointed, and the next run rebuilds only 2 and 3
    from fashion_knowledge_graph_ray.pipelines import resumable

    shards, tax = sharded_pages
    out, fresh = str(tmp_path / "kg"), str(tmp_path / "fresh")
    real = resumable.shard_partials

    def failing(i, parts, *, dirs, **kw):
        if os.path.basename(dirs["linked"]).startswith("part=2"):
            raise RuntimeError("shard task failed")
        return real(i, parts, dirs=dirs, **kw)
    monkeypatch.setattr(resumable, "shard_partials", failing)
    with pytest.raises(RuntimeError, match="shard task failed"):
        build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                              link_mode="gazetteer")
    assert [os.path.exists(mf.manifest_path(out, i))
            for i in range(N_PARTS)] == [True, True, False, False]
    assert sorted(os.listdir(os.path.join(out, "linked"))) == \
        ["part=0", "part=1", "part=2.tmp"]
    monkeypatch.setattr(resumable, "shard_partials", real)
    build_graph_resumable(shards, tax, out, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert [p["skipped"] for p in metrics["per_partition"]] == \
        [True, True, False, False]
    assert sorted(os.listdir(os.path.join(out, "linked"))) == \
        [f"part={i}" for i in range(N_PARTS)]
    build_graph_resumable(shards, tax, fresh, num_partitions=N_PARTS,
                          link_mode="gazetteer")
    got, want = _all_tables(out), _all_tables(fresh)
    assert all(got[k].equals(want[k]) for k in want)


def _one_block_per_input_block(monkeypatch) -> list:
    """Make every non-empty input block its own enriched block, so a
    build's url shards are as many as its input blocks (enrichment
    otherwise bundles small blocks up to its 512-page batch), and record
    the block count each ``hash_partition`` call routes."""
    import functools

    from fashion_knowledge_graph_ray.pipelines import build_graph as bg
    from fashion_knowledge_graph_ray.stages import linker

    monkeypatch.setattr(linker, "enrich_pages",
                        functools.partial(linker.enrich_pages, batch_size=1))
    routed = []
    real = bg.hash_partition

    def spy(blocks, keys):
        routed.append(len(blocks))
        return real(blocks, keys)
    monkeypatch.setattr(bg, "hash_partition", spy)
    return routed


def _shift_days(t: pa.Table, days: int) -> pa.Table:
    import datetime

    import pyarrow.compute as pc

    return t.set_column(
        t.schema.get_field_index("warc_ts"), "warc_ts",
        pc.add(t["warc_ts"], pa.scalar(datetime.timedelta(days=days),
                                       pa.duration("us"))))


@pytest.mark.parametrize("canonicalize", [False, True])
def test_url_dedup_across_blocks(ray_session, tmp_path, monkeypatch,
                                 canonicalize):
    # every third url crawled again a day later with another page's text,
    # the re-crawls first in row order, so they sit in other blocks than
    # their first crawl; the earliest crawl must win in every layout
    import ray
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.build_graph import (
        _LINKED_SCHEMA,
    )
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        apply_canonical_map,
        canonical_remap,
        canonicalize_taxonomy,
    )
    from fashion_knowledge_graph_ray.stages.extract import dedup_pages
    from fashion_knowledge_graph_ray.stages.linker import enrich_pages

    tax = gen_taxonomy(42)
    pages = gen_pages_table(42, 120, tax)
    again = list(range(0, 120, 3))
    other = pages.take([(i + 1) % 120 for i in again])
    recrawl = _shift_days(pages.take(again), 1)
    for col in ("html", "text"):
        recrawl = recrawl.set_column(recrawl.schema.get_field_index(col),
                                     col, other[col])
    corpus = pa.concat_tables([recrawl, pages])
    cmap = canonicalize_taxonomy(tax) if canonicalize else {}
    assert (canonical_remap(cmap) is not None) == canonicalize
    want = apply_canonical_map(dedup_pages(enrich_pages(
        rd.from_arrow(corpus), ray.put(tax), link_mode="gazetteer")), cmap)
    want = pa.Table.from_pylist(want.take_all(), schema=_LINKED_SCHEMA) \
        .sort_by("url")
    assert want.num_rows == len(set(pages["url"].to_pylist()))

    routed = _one_block_per_input_block(monkeypatch)
    got = {}
    for n in (1, 3, 8):
        step = -(-corpus.num_rows // n)
        blocks = [corpus.slice(k * step, step) for k in range(n)]
        out = str(tmp_path / f"kg{n}")
        build_graph(rd.from_arrow(blocks), tax, out, link_mode="gazetteer",
                    canonicalize=canonicalize)
        got[n] = _all_tables(out)
        assert got[n]["linked"].equals(want), n
    assert routed == [1, 3, 8]
    for n in (3, 8):
        for name in got[1]:
            assert got[n][name].num_rows > 0, name
            assert got[n][name].equals(got[1][name]), (n, name)


@pytest.mark.parametrize("n_pages", [0, 2])
def test_empty_corpus_and_empty_shard_write_typed_tables(
        ray_session, sharded_pages, tmp_path, monkeypatch, n_pages):
    # four input files, two of them empty: no pages at all, or two crawls
    # of one url — two url shards, one of which gets no rows
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.build_graph import (
        _EDGES_OUT_SCHEMA,
        _LINKED_SCHEMA,
    )
    from fashion_knowledge_graph_ray.schemas import (
        NODES_SCHEMA,
        TRIPLES_SCHEMA,
    )
    from fashion_knowledge_graph_ray.stages.pairs import PAIRS_SCHEMA

    shards, tax = sharded_pages
    first = pq.read_table(list_parquet_files(shards)[0]).slice(0, 1)
    crawls = [first, _shift_days(first, 1)][:n_pages]
    blocks = [crawls[0], first.slice(0, 0), crawls[1], first.slice(0, 0)] \
        if n_pages else [first.slice(0, 0)] * 4
    src = str(tmp_path / "pages")
    os.makedirs(src)
    for k, t in enumerate(blocks):
        pq.write_table(t, os.path.join(src, f"shard-{k}.parquet"))
    routed = _one_block_per_input_block(monkeypatch)
    plain, part = str(tmp_path / "plain"), str(tmp_path / "part")
    build_graph(rd.read_parquet(src), tax, plain, link_mode="gazetteer")
    build_graph_resumable(src, tax, part, num_partitions=1,
                          link_mode="gazetteer")
    assert routed == [n_pages, n_pages]
    schemas = {"linked": _LINKED_SCHEMA, "pairs": PAIRS_SCHEMA,
               "nodes": NODES_SCHEMA, "edges": _EDGES_OUT_SCHEMA,
               "triples": TRIPLES_SCHEMA}
    for out in (plain, part):
        for name, schema in schemas.items():
            t = pq.read_table(os.path.join(out, name), partitioning=None)
            assert t.schema.equals(schema), (out, name)
            assert (t.num_rows > 0) == bool(n_pages), (out, name)
        linked = pq.read_table(os.path.join(out, "linked"),
                               partitioning=None)
        assert linked["warc_ts"].to_pylist() == \
            first["warc_ts"].to_pylist()[:min(n_pages, 1)]
    want = _all_tables(plain)
    got = _all_tables(part)
    assert all(got[k].equals(want[k]) for k in want)


@pytest.mark.parametrize("pages_kept", [N_PAGES, 0])
def test_plain_build_linking_nothing_writes_typed_empty_tables(
        ray_session, sharded_pages, tmp_path, pages_kept):
    # one entity no page mentions; with no pages at all linked/ is empty
    # too. Every table reads back typed; only linked/ has rows, one per url
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.build_graph import (
        _EDGES_OUT_SCHEMA,
        _LINKED_SCHEMA,
    )
    from fashion_knowledge_graph_ray.schemas import (
        NODES_SCHEMA,
        TRIPLES_SCHEMA,
    )
    from fashion_knowledge_graph_ray.stages.pairs import PAIRS_SCHEMA

    shards, tax = sharded_pages
    lone = tax.slice(0, 1)
    for col, val in (("surface", ["zzqxv"]), ("aliases", [[]])):
        lone = lone.set_column(lone.schema.get_field_index(col), col,
                               pa.array(val, type=lone.schema.field(col).type))
    pages = pq.read_table(shards).slice(0, pages_kept)
    src = str(tmp_path / "pages.parquet")
    pq.write_table(pages, src)
    out = str(tmp_path / "kg")
    build_graph(rd.read_parquet(src), lone, out, link_mode="gazetteer")
    linked = pq.read_table(os.path.join(out, "linked"))
    assert linked.num_rows == len(set(pages["url"].to_pylist()))
    assert linked.schema.equals(_LINKED_SCHEMA)
    for name, schema in (("pairs", PAIRS_SCHEMA), ("nodes", NODES_SCHEMA),
                         ("edges", _EDGES_OUT_SCHEMA),
                         ("triples", TRIPLES_SCHEMA)):
        t = pq.read_table(os.path.join(out, name))
        assert t.num_rows == 0 and t.schema.equals(schema), name


def test_unlinked_pages_write_typed_empty_finals(ray_session, sharded_pages,
                                                 tmp_path):
    from fashion_knowledge_graph_ray.pipelines.build_graph import (
        _EDGES_OUT_SCHEMA,
    )
    from fashion_knowledge_graph_ray.schemas import (
        NODES_SCHEMA,
        TRIPLES_SCHEMA,
    )

    shards, tax = sharded_pages
    # one entity whose surface no page mentions
    lone = tax.slice(0, 1)
    for col, val in (("surface", ["zzqxv"]), ("aliases", [[]])):
        lone = lone.set_column(lone.schema.get_field_index(col), col,
                               pa.array(val, type=lone.schema.field(col).type))
    out = str(tmp_path / "kg")
    build_graph_resumable(shards, lone, out, num_partitions=2,
                          link_mode="gazetteer")
    assert pq.read_table(os.path.join(out, "linked"),
                         partitioning=None).num_rows > 0
    for name, schema in (("nodes", NODES_SCHEMA),
                         ("edges", _EDGES_OUT_SCHEMA),
                         ("triples", TRIPLES_SCHEMA)):
        t = pq.read_table(os.path.join(out, name))
        assert t.num_rows == 0 and t.schema.equals(schema), name
