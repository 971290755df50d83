"""Seeded input generators owned by the benchmark.

Every generator is a pure function of its arguments, so the same seed
gives byte-identical parquet inputs on every run. All corpora are written
with ``text`` set to null: the build then extracts text from ``html``
(``stages.extract.extract_text_batch``), as it does for raw crawl input.

- ``typical_pages``: the package's standard page mix
  (``datagen.gen_page``, the generator ``datagen.pages_dataset`` maps over
  row ids) — long pages, 0-6 mentions each, filler paragraphs, planted
  empty/malformed/duplicate rows.
- ``dense_pages``: short pages carrying ``DENSE_MENTIONS`` mentions each,
  so pairs grow quadratically per page; ``DENSE_RECRAWL_SHARE`` of the
  rows re-crawl an earlier url with a later ``warc_ts`` and different
  content; one hot entity (``prod-000000``) sits on about half of all
  pages.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from fashion_knowledge_graph_ray.datagen import EPOCH_2025, gen_pages_table
from fashion_knowledge_graph_ray.schemas import PAGES_SCHEMA
from fashion_knowledge_graph_ray.vocab import FITS, OCCASIONS, SEASONS

# dense mix parameters (documented in README.md)
DENSE_MENTIONS = 10
DENSE_RECRAWL_SHARE = 0.2
DENSE_HOT_SHARE = 0.5
HOT_ENTITY = 0


def _null_text(tbl: pa.Table) -> pa.Table:
    i = tbl.schema.get_field_index("text")
    return tbl.set_column(i, "text", pa.nulls(tbl.num_rows, pa.string()))


def typical_pages(seed: int, n_pages: int, tax: pa.Table) -> pa.Table:
    return _null_text(gen_pages_table(seed, n_pages, tax))


def _dense_sentence(rng: np.random.Generator, tax_cols: dict, eid: int) -> str:
    forms = [tax_cols["surface"][eid]] + list(tax_cols["aliases"][eid])
    form = forms[int(rng.integers(1, len(forms)))] \
        if len(forms) > 1 and rng.random() < 0.15 else forms[0]
    mats = tax_cols["material"][eid]
    styles = tax_cols["style"][eid]
    return (f"{form}: {FITS[int(rng.integers(0, len(FITS)))]} "
            f"{mats[int(rng.integers(0, len(mats)))]}, "
            f"{styles[int(rng.integers(0, len(styles)))]}, "
            f"{OCCASIONS[int(rng.integers(0, len(OCCASIONS)))]}, "
            f"{SEASONS[int(rng.integers(0, len(SEASONS)))]}.")


def _dense_page(i: int, seed: int, tax_cols: dict) -> str:
    rng = np.random.Generator(np.random.PCG64(seed * 2_000_003 + i))
    n_ent = len(tax_cols["surface"])
    eids = rng.choice(n_ent, size=DENSE_MENTIONS, replace=False).tolist()
    if rng.random() < DENSE_HOT_SHARE and HOT_ENTITY not in eids:
        eids[0] = HOT_ENTITY
    title = f"Look {i}"
    body = "".join(f"<li>{_dense_sentence(rng, tax_cols, int(e))}</li>"
                   for e in eids)
    return (f"<html><head><title>{title}</title></head><body><article>"
            f"<h1>{title}</h1><ul>{body}</ul></article></body></html>")


def dense_pages(seed: int, n_pages: int, tax: pa.Table) -> pa.Table:
    """Row ``i`` is either a fresh page on its own url, or a re-crawl of an
    earlier row's url, captured later and carrying different content;
    exactly ``DENSE_RECRAWL_SHARE`` of the rows (row 0 excepted) are
    re-crawls, so every seed carries the same amount of work."""
    cols = {c: tax[c].to_pylist()
            for c in ("surface", "aliases", "material", "style")}
    pick = np.random.Generator(np.random.PCG64(seed * 3_000_017 + 1))
    recrawl = np.zeros(n_pages, dtype=bool)
    recrawl[1 + pick.choice(n_pages - 1, replace=False, size=int(
        DENSE_RECRAWL_SHARE * n_pages))] = True
    urls, ts, htmls = [], [], []
    for i in range(n_pages):
        if recrawl[i]:
            j = int(pick.integers(0, i))
            urls.append(urls[j])
            ts.append(ts[j] + 1_000_000 * int(pick.integers(1, 86_400)))
        else:
            urls.append(f"https://look-{i % 53:02d}.example/d/{i:08d}")
            ts.append(EPOCH_2025 + i * 61_000_007)
        htmls.append(_dense_page(i, seed, cols).encode("utf-8"))
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts, type=pa.timestamp("us", tz="UTC")),
            "html": pa.array(htmls, type=pa.binary()),
            "text": pa.nulls(n_pages, pa.string()),
            "lang": pa.array(["en"] * n_pages, type=pa.string()),
        },
        schema=PAGES_SCHEMA,
    )


def write_shards(tbl: pa.Table, out_dir: str, n_files: int) -> list[str]:
    """Contiguous row ranges into ``n_files`` parquet files; returns the
    sorted file list."""
    os.makedirs(out_dir, exist_ok=True)
    files = []
    step = -(-tbl.num_rows // n_files)
    for k in range(n_files):
        path = os.path.join(out_dir, f"pages-{k:03d}.parquet")
        pq.write_table(tbl.slice(k * step, step), path)
        files.append(path)
    return files
