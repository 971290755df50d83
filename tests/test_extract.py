"""extract_text conformance: frozen rules + per-url byte identity (M13)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from fashion_knowledge_graph_ray.datagen import gen_pages_table, gen_taxonomy
from fashion_knowledge_graph_ray.functions.html import extract_text


def test_extract_basic_rules():
    assert extract_text(b"") == ""
    assert extract_text(None) == ""
    assert extract_text(b"plain words only") == "plain words only"
    # script/style/comment removal
    assert extract_text(b"<script>x=1</script>hello<!-- c --><style>a{}</style>") == "hello"
    # article scope beats body
    html = b"<body>nav<article><p>inner</p></article>footer</body>"
    assert extract_text(html) == "inner"
    # body scope when no article
    assert extract_text(b"<html><head><title>t</title></head><body><p>a</p><p>b</p></body></html>") == "a\nb"
    # block tags break lines, inline tags become spaces
    assert extract_text(b"<body><p>one <b>two</b>three</p><div>four</div></body>") == "one two three\nfour"
    # entity unescape + whitespace collapse
    assert extract_text(b"<body>a &amp;   b\t c</body>") == "a & b c"
    # malformed: unclosed body -> whole-doc scope, best-effort
    assert extract_text(b"<body><p>x") == "x"
    # non-utf8 bytes -> replacement chars, never an exception
    assert "�" in extract_text(b"<body>\xff\xfe</body>")


def test_generator_extractor_byte_identity():
    tax = gen_taxonomy(42)
    pages = gen_pages_table(42, 400, tax)
    for url, html, text in zip(pages["url"].to_pylist(),
                               pages["html"].to_pylist(),
                               pages["text"].to_pylist()):
        assert extract_text(html) == text, url


def test_generator_is_pure_of_partitioning():
    tax = gen_taxonomy(42)
    full = gen_pages_table(42, 120, tax)
    # regenerating any sub-range yields identical rows
    part = gen_pages_table(42, 60, tax)
    assert full.slice(0, 60).equals(part)


def _extracted_on_ray(fixture_dir):
    """The fixture pages with ``text`` nulled, then refilled from ``html``
    by ``extract_text_batch`` in Ray tasks."""
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.extract import extract_text_batch

    def null_text(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index("text"), "text",
                            pa.nulls(t.num_rows, pa.string()))

    return rd.read_parquet(f"{fixture_dir}/pages.parquet") \
        .map_batches(null_text, batch_format="pyarrow") \
        .map_batches(extract_text_batch, batch_format="pyarrow")


def test_extract_stage_on_ray(ray_session, fixture_dir):
    out = _extracted_on_ray(fixture_dir)
    got = out.to_pandas().sort_values(["url", "warc_ts"]).reset_index(drop=True)
    exp = (
        pq.read_table(f"{fixture_dir}/pages.parquet")
        .select(["url", "warc_ts", "text", "lang"])
        .to_pandas()
        .sort_values(["url", "warc_ts"])
        .reset_index(drop=True)
    )
    assert "html" not in got.columns
    assert list(got["url"]) == list(exp["url"])
    assert list(got["text"]) == list(exp["text"])


def test_dedup_pages(ray_session, fixture_dir):
    from fashion_knowledge_graph_ray.stages.extract import dedup_pages

    ds = _extracted_on_ray(fixture_dir)
    deduped = dedup_pages(ds).to_pandas()
    assert deduped["url"].is_unique
    # keep-first = earliest warc_ts per url
    raw = pq.read_table(f"{fixture_dir}/pages.parquet").to_pandas()
    expect = raw.sort_values(["warc_ts", "url"]).groupby("url", as_index=False).first()
    assert len(deduped) == len(expect)
    merged = deduped.merge(expect[["url", "warc_ts"]], on="url", suffixes=("", "_exp"))
    assert (merged["warc_ts"] == merged["warc_ts_exp"]).all()
