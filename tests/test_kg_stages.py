"""Per-operator conformance tests pinning reference semantics (SURVEY §5.2)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from fashion_knowledge_graph_ray.datagen import gen_taxonomy
from fashion_knowledge_graph_ray.stages.attributes import extract_attrs, style_sentence
from fashion_knowledge_graph_ray.stages.linker import EmbeddingLinker, GazetteerLinker
from fashion_knowledge_graph_ray.stages.mentions import (
    MentionDetector,
    build_gazetteer,
    compile_pattern,
    detect_in_text,
)
from fashion_knowledge_graph_ray.stages.pairs import PairGenerator, rel_type
from fashion_knowledge_graph_ray.vocab import UNKNOWN


@pytest.fixture(scope="module")
def tax():
    return gen_taxonomy(42)


@pytest.fixture(scope="module")
def gaz_pat(tax):
    gaz = build_gazetteer(tax)
    return gaz, compile_pattern(gaz.keys())


def _page_batch(rows):
    return pa.table(
        {
            "url": [r[0] for r in rows],
            "warc_ts": pa.array([0] * len(rows), type=pa.timestamp("us", tz="UTC")),
            "text": [r[1] for r in rows],
            "lang": ["en"] * len(rows),
        }
    )


# ── M6: mention detection ────────────────────────────────────────────────

def test_detect_distinct_per_form(gaz_pat):
    gaz, pat = gaz_pat
    text = "a black blouse and a black blouse and a white jeans"
    recs = detect_in_text(text, "u", pat, gaz)
    assert len(recs) == 2
    assert recs[0]["form"] == "black blouse" and recs[0]["n_hits"] == 2
    assert recs[1]["form"] == "white jeans" and recs[1]["n_hits"] == 1
    assert recs[0]["mention_id"] == "u#m0"


def test_detect_word_boundary_and_case(gaz_pat):
    gaz, pat = gaz_pat
    # substring inside a longer word must not match
    assert detect_in_text("xblack blousex", "u", pat, gaz) == []
    recs = detect_in_text("BLACK BLOUSE here", "u", pat, gaz)
    assert len(recs) == 1 and recs[0]["surface"] == "BLACK BLOUSE"
    assert recs[0]["form"] == "black blouse"


def test_detect_salience_threshold(gaz_pat):
    # area>=1028 analog: forms shorter than min_chars are dropped
    gaz, pat = gaz_pat
    recs = detect_in_text("black blouse", "u", pat, gaz, min_chars=99)
    assert recs == []


def test_single_product_mode(tax):
    det = MentionDetector(tax, single_product_mode=True)
    out = det(_page_batch([("u1", "a black blouse with a crim blazer here")]))
    ms = out["mentions"].to_pylist()[0]
    assert len(ms) == 1
    # 'black blouse' (12 chars) beats 'crim blazer' (11 chars) on salience
    assert ms[0]["form"] == "black blouse"


def test_alias_detection_maps_to_owner(tax, gaz_pat):
    gaz, pat = gaz_pat
    aliases = {a for lst in tax["aliases"].to_pylist() for a in lst}
    alias = sorted(aliases)[0]
    recs = detect_in_text(f"look at this {alias} now", "u", pat, gaz)
    assert len(recs) == 1
    assert recs[0]["entity_hint"].startswith("prod-")


# ── M8/M9: attribute extraction ──────────────────────────────────────────

def test_attrs_closed_vocab_and_fallback():
    a = extract_attrs("a slim linen piece in crimson for casual work wear "
                      "during summer at a low price for adult shoppers")
    assert a["fit"] == "slim" and a["color"] == "crimson"
    assert a["material"] == ["linen"] and a["style"] == ["casual"]
    # "casual" is in BOTH the style and occasion vocabularies (verbatim
    # reference lists, prompts.py:6,8) so it hits both list fields
    assert a["season"] == ["summer"] and a["occasion"] == ["casual", "work"]
    assert a["price"] == "low" and a["age_group"] == "adult"
    # no-hit fallback: scalars -> "unknown", lists -> []
    b = extract_attrs("nothing relevant here at all")
    assert b["color"] == UNKNOWN and b["fit"] == UNKNOWN
    assert b["material"] == [] and b["style"] == []


def test_attrs_label_becomes_type():
    # the detected class label is authoritative for `type` (the reference
    # passes the segmented label into the extraction prompt)
    a = extract_attrs("some words", label="jacket")
    assert a["type"] == "jacket"
    b = extract_attrs("a nice top for you")
    assert b["type"] == "top"


def test_attrs_scalar_first_hit_list_sorted():
    a = extract_attrs("wool then cotton, red then blue")
    assert a["color"] == "red"  # first by position
    assert a["material"] == ["cotton", "wool"]  # distinct hits, sorted


def test_style_sentence_deterministic():
    a = extract_attrs("a slim linen piece in crimson", label="jacket")
    s1, s2 = style_sentence(a), style_sentence(a)
    assert s1 == s2 and "crimson" in s1 and "jacket" in s1
    assert style_sentence({f: UNKNOWN for f in ("type", "color", "fit")}) == ""


# ── J1: linking ──────────────────────────────────────────────────────────

def _mention_row(url, surface, label, attrs):
    return {
        "url": [url],
        "warc_ts": pa.array([0], type=pa.timestamp("us", tz="UTC")),
        "lang": ["en"],
        "mentions": [[{
            "mention_id": f"{url}#m0", "surface": surface,
            "form": surface.lower(), "span_start": 0,
            "span_end": len(surface), "salience": len(surface),
            "n_hits": 1, "context": surface, "label": label,
            "entity_hint": None, "attrs": attrs, "style_description": "",
        }]],
    }


def _attrs(**kw):
    base = {"type": UNKNOWN, "color": UNKNOWN, "style": [], "season": [],
            "occasion": [], "price": UNKNOWN, "material": [], "fit": UNKNOWN,
            "gender": UNKNOWN, "age_group": UNKNOWN}
    base.update(kw)
    return base


def test_gazetteer_linker_exact(tax):
    lk = GazetteerLinker(tax)
    batch = pa.table(_mention_row("u", "Black Blouse", "top", _attrs(type="top")))
    out = lk(batch)["mentions"].to_pylist()[0][0]
    assert out["entity_id"] == "prod-000000" and out["link_score"] == 1.0


def test_gazetteer_linker_matches_dict_lookup(tax, gaz_pat):
    # every gazetteer form (surfaces and aliases), misses and a null form,
    # spread over pages with 0..3 mentions: entity and score must equal a
    # per-form dict lookup
    gaz, _ = gaz_pat
    forms = sorted(gaz) + ["no such product", "BLACK BLOUSE", None]
    pages, i = [], 0
    while i < len(forms):
        n = len(pages) % 4
        pages.append([{"mention_id": f"p{len(pages)}#m{j}", "form": f}
                      for j, f in enumerate(forms[i:i + n])])
        i += n
    batch = pa.table({"url": [f"p{k}" for k in range(len(pages))],
                      "mentions": pages})
    seen = [m["form"] for p in batch["mentions"].to_pylist() for m in p]
    assert seen == forms
    out = GazetteerLinker(tax)(batch)["mentions"].to_pylist()
    got = [(m["entity_id"], m["link_score"]) for p in out for m in p]
    assert got == [(gaz[f][0], 1.0) if f in gaz else (None, None)
                   for f in forms]


def test_embedding_linker_exact_surface_scores_1(tax):
    lk = EmbeddingLinker(tax)
    batch = pa.table(_mention_row("u", "black blouse", "top",
                                  _attrs(type="top", gender="unisex")))
    out = lk(batch)["mentions"].to_pylist()[0][0]
    assert out["entity_id"] == "prod-000000"
    assert out["link_score"] == pytest.approx(1.0, abs=1e-6)


def test_embedding_linker_skips_unknown_type(tax):
    # reference process_social_media_images.py:74-76: no type -> skip
    lk = EmbeddingLinker(tax)
    batch = pa.table(_mention_row("u", "black blouse", None, _attrs()))
    out = lk(batch)["mentions"].to_pylist()[0][0]
    assert out["entity_id"] is None and out["link_score"] is None


def test_embedding_linker_threshold_rejects(tax):
    # a surface far from every taxonomy surface must fall below tau=0.75
    lk = EmbeddingLinker(tax)
    batch = pa.table(_mention_row("u", "zzqq vvrr", "top",
                                  _attrs(type="top", gender="unisex")))
    out = lk(batch)["mentions"].to_pylist()[0][0]
    assert out["entity_id"] is None


def test_embedding_linker_type_filter(tax):
    # same surface, wrong type filter -> no candidates of that category
    lk = EmbeddingLinker(tax)
    batch = pa.table(_mention_row("u", "black blouse", "shoes",
                                  _attrs(type="shoes", gender="unisex")))
    out = lk(batch)["mentions"].to_pylist()[0][0]
    # 'black blouse' is category top; with type=shoes filter the best
    # candidate is some shoes surface, similarity << 0.75
    assert out["entity_id"] is None


def test_embedding_linker_index_roundtrip(tax):
    """build_index broadcast + persisted index_table reconstruction must
    link identically to the taxonomy-built linker."""
    from fashion_knowledge_graph_ray.stages.linker import linker_index_table

    batch = pa.table(_mention_row("u", "black blouse", "top",
                                  _attrs(type="top", gender="unisex")))
    base = EmbeddingLinker(tax)(batch)["mentions"].to_pylist()
    via_ref = EmbeddingLinker(
        None, index_ref=EmbeddingLinker.build_index(tax))(batch) \
        ["mentions"].to_pylist()
    via_table = EmbeddingLinker.from_index_table(
        linker_index_table(tax))(batch)["mentions"].to_pylist()
    assert base == via_ref == via_table
    assert base[0][0]["entity_id"] == "prod-000000"


def test_embedding_linker_gender_filter(tax):
    # gender filter allows unisex + extracted gender (reference $in filter)
    lk = EmbeddingLinker(tax)
    eid0_gender = tax["gender"].to_pylist()[0]
    wrong = "men" if eid0_gender == "women" else "women"
    if eid0_gender == "unisex":
        pytest.skip("entity 0 is unisex; filter cannot exclude it")
    batch = pa.table(_mention_row("u", "black blouse", "top",
                                  _attrs(type="top", gender=wrong)))
    out = lk(batch)["mentions"].to_pylist()[0][0]
    assert out["entity_id"] != "prod-000000"


def test_embedding_linker_alias_fuzzy_link(tax):
    # typo alias of an entity links to it via vector similarity when the
    # filters line up (alias forms are NOT indexed)
    lk = EmbeddingLinker(tax)
    eid = "prod-000000"
    cat = tax["category"].to_pylist()[0]
    g = tax["gender"].to_pylist()[0]
    alias = tax["aliases"].to_pylist()[0][0]
    batch = pa.table(_mention_row("u", alias, cat, _attrs(type=cat, gender=g)))
    out = lk(batch)["mentions"].to_pylist()[0][0]
    assert out["entity_id"] == eid
    assert 0.75 <= out["link_score"] < 1.0


# ── G1: pair generation ──────────────────────────────────────────────────

def test_rel_type_rule():
    # reference process_social_media_images.py:121-131
    assert rel_type("top", "top") == "complemented_by"
    assert rel_type("top", "shoes") == "worn_with"
    assert rel_type(None, "shoes") == "worn_with"
    assert rel_type(None, None) == "worn_with"


def _linked_page(url, ents, tax):
    cat = dict(zip(tax["entity_id"].to_pylist(), tax["category"].to_pylist()))
    mentions = [
        {
            "mention_id": f"{url}#m{i}", "surface": e, "form": e,
            "span_start": 0, "span_end": 1, "salience": 1, "n_hits": 1,
            "context": "", "label": cat.get(e), "entity_hint": e,
            "attrs": _attrs(), "style_description": "",
            "entity_id": e, "link_score": 1.0,
        }
        for i, e in enumerate(ents)
    ]
    return {
        "url": [url],
        "warc_ts": pa.array([7], type=pa.timestamp("us", tz="UTC")),
        "lang": ["en"], "mentions": [mentions],
    }


def test_pairs_both_directions_and_rule(tax):
    pg = PairGenerator(tax)
    # prod-000000 (top) + prod-000020 (top, same noun row? check) pick two
    # entities with known categories:
    cats = tax["category"].to_pylist()
    same = [i for i in range(len(cats)) if cats[i] == cats[0]]
    a, b = "prod-%06d" % 0, "prod-%06d" % same[1]
    diff = next(i for i in range(len(cats)) if cats[i] != cats[0])
    c = "prod-%06d" % diff
    out = pg(pa.table(_linked_page("u", [b, a, c], tax))).to_pylist()
    # 3 unordered pairs x 2 directions
    assert len(out) == 6
    keys = {(r["src"], r["dst"], r["rel"]) for r in out}
    assert (a, b, "complemented_by") in keys and (b, a, "complemented_by") in keys
    assert (a, c, "worn_with") in keys and (c, a, "worn_with") in keys
    assert all(r["url"] == "u" for r in out)


def test_pairs_single_entity_no_pairs(tax):
    # len>1 guard (reference line 113)
    pg = PairGenerator(tax)
    out = pg(pa.table(_linked_page("u", ["prod-000000"], tax)))
    assert out.num_rows == 0


def test_pairs_dedup_same_entity_twice(tax):
    # page mentioning the same entity twice (alias+primary) -> no self pair
    pg = PairGenerator(tax)
    out = pg(pa.table(_linked_page("u", ["prod-000000", "prod-000000"], tax)))
    assert out.num_rows == 0


# ── M11 spec-sheet profile ───────────────────────────────────────────────

def test_spec_attrs_first_phrase_by_position():
    from fashion_knowledge_graph_ray.stages.attributes import extract_spec_attrs

    a = extract_spec_attrs(
        "a short sleeve pullover with patch pocket, striped, at knee")
    assert a["sleeve_length"] == "short sleeve"
    assert a["closure"] == "pullover"
    assert a["pocket_details"] == "patch pocket"
    assert a["pattern"] == "striped"
    assert a["length"] == "at knee"
    assert a["activity"] == "unknown"


def test_spec_attrs_position_beats_alphabet():
    from fashion_knowledge_graph_ray.stages.attributes import extract_spec_attrs

    # 'striped' occurs before 'abstract' -> position wins
    assert extract_spec_attrs("striped then abstract")["pattern"] == "striped"
    # same position is impossible for distinct phrases at distinct offsets;
    # overlapping-at-same-offset: 'tight sleeve' vs 'tight' (different
    # fields) both match from position 0 in their own fields
    a = extract_spec_attrs("tight sleeve cuffs")
    assert a["sleeve_fit"] == "tight sleeve" and a["spec_fit"] == "tight"


def test_spec_attrs_all_unknown_on_empty():
    from fashion_knowledge_graph_ray.stages.attributes import extract_spec_attrs
    from fashion_knowledge_graph_ray.vocab import SPEC_ATTRIBUTE_FIELDS

    a = extract_spec_attrs("")
    assert all(a[f] == "unknown" for f, _ in SPEC_ATTRIBUTE_FIELDS)


def test_spec_attrs_stage_over_dataset(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from fashion_knowledge_graph_ray.stages.attributes import spec_attrs

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2],
        "text": ["full sleeve yoga top with kangaroo pocket", "nothing here"],
    }))
    out = {r["doc_id"]: r for r in spec_attrs(ds).take_all()}
    assert out[1]["sleeve_length"] == "full sleeve"
    assert out[1]["activity"] == "yoga"
    assert out[1]["pocket_details"] == "kangaroo pocket"
    assert out[2]["sleeve_length"] == "unknown"


def test_page_local_triples_matches_general_dedup(ray_session, tax):
    # A page mentioning the SAME entity via alias + primary (duplicate
    # attr-triple keys within the page — the case the fixture corpus never
    # produces) plus a distinct second entity. The zero-shuffle page-local
    # path must equal the general bucketed dedup_triples output exactly.
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.pairs import (
        explode_mentions,
        generate_pairs,
    )
    from fashion_knowledge_graph_ray.stages.triples import (
        dedup_triples,
        emit_attr_triples,
        emit_rel_triples,
        page_local_triples,
    )

    a, b = "prod-000000", "prod-000001"
    rows = [_linked_page("u1", [a, a, b], tax),
            _linked_page("u2", [b], tax)]
    for r in rows:  # real attrs so attr triples (and their dups) exist
        for m in r["mentions"][0]:
            m["attrs"] = _attrs(type="top", color="black",
                                style=["casual", "formal"])
    linked = rd.from_arrow(pa.concat_tables(pa.table(r) for r in rows))
    pairs = generate_pairs(linked, tax)

    fast = sorted(map(tuple, page_local_triples(linked, pairs)
                      .to_pandas().values.tolist()))
    slow = sorted(map(tuple, dedup_triples(
        emit_attr_triples(explode_mentions(linked))
        .union(emit_rel_triples(pairs))).to_pandas().values.tolist()))
    assert fast == slow and len(fast) > 0
    # duplicate keys collapsed: each (subj,pred,obj,url) appears once
    keys = [t[:4] for t in fast]
    assert len(keys) == len(set(keys))
