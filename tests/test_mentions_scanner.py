"""Trie scanners (Aho-Corasick regime) equivalence with the trie regex.

``NumpyTrieScanner`` replaces the compiled regex above ``AC_FORM_GATE``
forms; these tests pin match-for-match identity of the regex, the numpy
automaton and the pure-Python ``TrieScanner`` oracle (``trie_scanner.py``)
on adversarial fixtures and exercise the gate switch plus
large-gazetteer build/scan viability."""
import random
import string

import pyarrow as pa

from fashion_knowledge_graph_ray.stages.mentions import (
    AC_FORM_GATE,
    MentionDetector,
    NumpyTrieScanner,
    build_gazetteer,
    compile_pattern,
    detect_in_text,
)
from trie_scanner import TrieScanner


def _spans(it):
    return [(m.start(), m.end(), m.group(0)) for m in it]


def test_scanner_matches_regex_on_adversarial_forms():
    forms = ["silk", "silk scarf", "silk scarf red", "scarf", "red",
             "a", "ab", "abc", "x_y", "x", "1984", "19", "belt"]
    pat = compile_pattern(forms)
    sc = TrieScanner(forms)
    texts = [
        "silk scarf red and a silk scarf, red belt",
        "xsilk scarfx silk  scarf",          # boundary rejects + longest
        "ab abc a b x_y x _y",               # prefix chains, underscore \w
        "1984 19 x1984 1984x",               # digit boundaries
        "silk scarf redder",                 # longest fails end-\b, backtrack
        "",
        "silk",
        "scarf.silk,red;belt",               # punctuation boundaries
        "SILK was lowered upstream",         # scanner sees lowered text
        "a a a a a",
        "abcabc abc",
    ]
    for t in texts:
        t = t.lower()
        assert _spans(sc.finditer(t)) == _spans(pat.finditer(t)), t


def test_scanner_matches_regex_randomized():
    rng = random.Random(42)
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 6)))
             for _ in range(200)]
    forms = sorted({w for w in words})
    # multi-word forms too
    forms += [f"{a} {b}" for a, b in zip(forms[:30], forms[30:60])]
    pat = compile_pattern(forms)
    sc = TrieScanner(forms)
    vocab = forms + ["zzz", "q", "-", ",", "  "]
    for _ in range(50):
        t = " ".join(rng.choices(vocab, k=rng.randint(0, 40)))
        assert _spans(sc.finditer(t)) == _spans(pat.finditer(t)), t


def test_scanner_casefold_spans_index_original():
    sc = TrieScanner(["straße", "belt"], casefold=True)
    # 'STRASSE'.lower() == 'strasse' (no ß) so the form with ß is NOT a
    # match; the uppercase ẞ lowers to ß and must match in-place
    text = "STRAẞE and BELT"
    got = _spans(sc.finditer(text))
    assert got == [(0, 6, "STRAẞE"), (11, 15, "BELT")]


def test_detector_gate_switch_identical_mentions():
    # same taxonomy through both regimes (gate forced by monkeypatching
    # the form count is intrusive; instead compare detect_in_text over
    # scanner vs regex directly on the gazetteer)
    tax = pa.table({
        "entity_id": ["e1", "e2", "e3"],
        "surface": ["black blouse", "denim jacket", "scarf"],
        "aliases": [["blouse"], [], ["silk scarf"]],
        "category": ["top", "jacket", "scarf"],
    })
    gaz = build_gazetteer(tax)
    pat = compile_pattern(gaz.keys())
    sc = TrieScanner(gaz.keys())
    for text in ["A Black Blouse with a silk scarf and denim jacket.",
                 "blouse scarf blouse", "no mentions here"]:
        a = detect_in_text(text, "u", pat, gaz)
        b = detect_in_text(text, "u", sc, gaz)
        assert a == b


def test_large_gazetteer_uses_scanner_and_detects():
    # 10^5-form synthetic taxonomy: MentionDetector must pick the
    # automaton (regex compile at this size is prohibitive) and still
    # detect planted forms
    n = AC_FORM_GATE * 2
    forms = [f"brandword{i:06d}" for i in range(n)]
    tax = pa.table({
        "entity_id": [f"e{i}" for i in range(n)],
        "surface": forms,
        "aliases": [[] for _ in range(n)],
        "category": ["top"] * n,
    })
    det = MentionDetector(tax)
    assert isinstance(det.pattern, NumpyTrieScanner)
    batch = pa.table({
        "url": ["u1"],
        "warc_ts": [0],
        "lang": ["en"],
        "text": ["x brandword000123 y brandword009999 brandword000123"],
    })
    out = det(batch)
    recs = out["mentions"].to_pylist()[0]
    assert [r["form"] for r in recs] == ["brandword000123",
                                        "brandword009999"]
    assert recs[0]["n_hits"] == 2


def test_scanner_ci_matches_regex_ignorecase():
    # advisor finding: the ci regimes must agree on the length-changing
    # Unicode path they exist for. TrieScanner(casefold=True) folds with
    # re.IGNORECASE's SIMPLE lowering (U+0130 'İ' -> 'i'), not
    # str.lower()'s full mapping ('i'+U+0307), so both regimes see the
    # same matches on the same ORIGINAL-text spans.
    from fashion_knowledge_graph_ray.stages.mentions import compile_pattern_ci

    forms = ["istanbul", "belt", "straße", "scarf"]
    ci_re = compile_pattern_ci(forms)
    ci_sc = TrieScanner(forms, casefold=True)
    texts = [
        "İstanbul BELT",               # U+0130: len(text.lower()) != len(text)
        "ISTANBUL and istanbul",
        "STRAẞE Scarf",                # ẞ lowers in place
        "xİstanbulx İstanbul",         # boundaries around the fold
        "",
    ]
    for t in texts:
        assert _spans(ci_sc.finditer(t)) == _spans(ci_re.finditer(t)), t


def test_detect_in_text_ci_fallback_gate_crossing():
    # the full detect path through BOTH ci regimes on a length-changing
    # text (detect_in_text routes to ci_pattern exactly then)
    from fashion_knowledge_graph_ray.stages.mentions import compile_pattern_ci

    tax = pa.table({
        "entity_id": ["e1", "e2"],
        "surface": ["istanbul shawl", "belt"],
        "aliases": [["istanbul"], []],
        "category": ["shawl", "belt"],
    })
    gaz = build_gazetteer(tax)
    text = "İstanbul shawl with a BELT"
    assert len(text.lower()) != len(text)  # exercises the ci fallback
    a = detect_in_text(text, "u", compile_pattern(gaz.keys()), gaz,
                       ci_pattern=compile_pattern_ci(gaz.keys()))
    b = detect_in_text(text, "u", TrieScanner(gaz.keys()), gaz,
                       ci_pattern=TrieScanner(gaz.keys(), casefold=True))
    assert a == b and len(a) == 2


def test_numpy_scanner_matches_trie_scanner_adversarial():
    forms = ["silk", "silk scarf", "silk scarf red", "scarf", "red",
             "a", "ab", "abc", "x_y", "x", "1984", "19", "belt"]
    sc = TrieScanner(forms)
    nsc = NumpyTrieScanner(forms)
    texts = [
        "silk scarf red and a silk scarf, red belt",
        "xsilk scarfx silk  scarf", "ab abc a b x_y x _y",
        "1984 19 x1984 1984x", "silk scarf redder", "", "silk",
        "scarf.silk,red;belt", "a a a a a", "abcabc abc",
    ]
    for t in texts:
        t = t.lower()
        assert _spans(nsc.finditer(t)) == _spans(sc.finditer(t)), t


def test_numpy_scanner_matches_trie_scanner_randomized():
    rng = random.Random(1234)
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 6)))
             for _ in range(200)]
    forms = sorted({w for w in words})
    forms += [f"{a} {b}" for a, b in zip(forms[:30], forms[30:60])]
    sc = TrieScanner(forms)
    nsc = NumpyTrieScanner(forms)
    vocab = forms + ["zzz", "q", "-", ",", "  "]
    for _ in range(100):
        t = " ".join(rng.choices(vocab, k=rng.randint(0, 40)))
        assert _spans(nsc.finditer(t)) == _spans(sc.finditer(t)), t


def test_numpy_scanner_casefold_parity():
    forms = ["istanbul", "belt", "straße", "scarf", "istanbul shawl"]
    sc = TrieScanner(forms, casefold=True)
    nsc = NumpyTrieScanner(forms, casefold=True)
    for t in ["İstanbul BELT", "ISTANBUL and istanbul", "STRAẞE Scarf",
              "xİstanbulx İstanbul", "", "İstanbul shawl with a BELT",
              "STRAẞE and BELT"]:
        assert _spans(nsc.finditer(t)) == _spans(sc.finditer(t)), t


def test_numpy_scanner_scan_many_doc_mapping():
    # spans from the concatenated batch scan must map back to per-doc
    # offsets identically to scanning each doc alone
    forms = ["silk", "silk scarf", "red", "belt"]
    nsc = NumpyTrieScanner(forms)
    sc = TrieScanner(forms)
    docs = ["silk scarf here", "", "red belt red", "no match",
            "silk", "\x00embedded nul red\x00silk"]
    lo = [d.lower() for d in docs]
    got = nsc.scan_many(lo)
    exp = [[(m.start(), m.end()) for m in sc.finditer(t)] for t in lo]
    assert got == exp
