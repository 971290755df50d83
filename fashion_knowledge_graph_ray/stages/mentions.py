"""Stage 2: mention detection — the segmentation analog (M6/T1).

Reference semantics being re-expressed
(`/root/reference/src/engine/image_processor.py:106-148` and
`/root/reference/src/models/segmentation_model.py:208-237`):

- per document, detect every known "class" present (there: SegFormer mask
  classes; here: taxonomy surface forms + aliases via a compiled
  word-boundary gazetteer), at most ONE item per class per document;
- salience = matched chars (area analog); drop below
  ``MIN_MENTION_CHARS`` (area >= 1028 analog at image_processor.py:117-119);
- ``single_product_mode`` keeps only the top-1 item by salience
  (image_processor.py:138-142).

The detector is a callable CLASS: the matcher over all surface forms is
built ONCE per worker process per build in ``__init__`` (reference analog:
model load in ModelManager, model_manager.py:109). Two matcher regimes,
identical semantics, switched on the form count:

- ≤ ``AC_FORM_GATE`` forms: a character-trie REGEX — Python's C regex
  engine scans tries in one pass and wins on scan speed (measured
  2.9 vs 1.7 MB/s at 10^6 forms) while compile time stays amortizable
  (3.4 s at 10^5 forms, once per worker);
- above the gate (true web-scale gazetteers): ``NumpyTrieScanner``, an
  Aho-Corasick-style longest-match automaton built and scanned as numpy
  array programs over a whole batch — at 10^6 forms ``re.compile``
  measures 49 s PER WORKER (a cluster-wide startup tax that grows
  superlinearly and eventually exhausts memory) while a dict-trie
  automaton builds in 6 s; match-for-match identical to the regex
  (equivalence-tested at 10^6 forms: same hits; the pure-Python dict
  trie ``TrieScanner`` in ``tests/trie_scanner.py`` is the parity
  oracle for both).

Output keeps each page's mentions as ONE list<struct> row so that
per-page pair semantics never depend on block boundaries (SURVEY.md §7.4
"Cross-block pair semantics").
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np
import pyarrow as pa

from ..vocab import MIN_MENTION_CHARS

MENTION_STRUCT = pa.struct(
    [
        ("mention_id", pa.string()),
        ("surface", pa.string()),       # verbatim matched text
        ("form", pa.string()),          # lowercased gazetteer form
        ("span_start", pa.int64()),
        ("span_end", pa.int64()),
        ("salience", pa.int64()),
        ("n_hits", pa.int64()),
        ("context", pa.string()),
        ("label", pa.string()),         # taxonomy category of the form
        ("entity_hint", pa.string()),   # gazetteer entity id of the form
    ]
)

CONTEXT_WINDOW = 120  # chars either side of the span


def build_gazetteer(taxonomy: pa.Table) -> dict[str, tuple[str, str]]:
    """form(lower) -> (entity_id, category) for surfaces and aliases."""
    gaz: dict[str, tuple[str, str]] = {}
    for eid, surface, aliases, cat in zip(
        taxonomy["entity_id"].to_pylist(),
        taxonomy["surface"].to_pylist(),
        taxonomy["aliases"].to_pylist(),
        taxonomy["category"].to_pylist(),
    ):
        gaz[surface.lower()] = (eid, cat)
        for a in aliases or []:
            gaz.setdefault(a.lower(), (eid, cat))
    return gaz


def _trie_regex(words) -> str:
    """Compile the form set into a character-trie regex — the pure-Python
    stand-in for an Aho-Corasick automaton. ~80x faster than a flat
    alternation at a few hundred forms (regex engines scan tries in one
    pass; greedy continuation prefers the longest form)."""
    trie: dict = {}
    for w in words:
        d = trie
        for ch in w:
            d = d.setdefault(ch, {})
        d[""] = {}

    def build(d: dict) -> str:
        if "" in d and len(d) == 1:
            return ""
        parts = [(re.escape(ch), build(sub))
                 for ch, sub in sorted(d.items()) if ch != ""]
        alts = [c + t for c, t in parts]
        body = alts[0] if len(alts) == 1 else "(?:" + "|".join(alts) + ")"
        if "" not in d:
            return body
        # a terminal node with ONE continuing alternative must group
        # before applying '?': "bc?" + "?" would bind the optionality to
        # the last atom only, silently requiring the continuation and
        # breaking prefix-chain forms ("silk" vs "silk scarf red").
        # Single-atom bodies (lone escaped char, or an already-grouped
        # multi-alt) skip the extra group — the pattern stays tight.
        if len(alts) == 1 and parts[0][1]:
            return f"(?:{body})?"
        return body + "?"

    return "(?:" + "|".join(
        re.escape(ch) + build(sub) for ch, sub in sorted(trie.items()) if ch != ""
    ) + ")"


def compile_pattern(forms) -> re.Pattern:
    """Word-boundary trie regex over all (lowercase) gazetteer forms.
    Matching is run on ``text.lower()``; longest form wins (greedy trie
    continuation — equivalent to a longest-first alternation, verified in
    tests)."""
    return re.compile(r"\b" + _trie_regex(list(forms)) + r"\b")


# Above this form count the automaton replaces the regex: measured
# breakeven — regex compile is 3.4 s at 1e5 forms (fine once per worker)
# but 49 s at 1e6; the automaton builds 8x faster and scans within 2x.
AC_FORM_GATE = 200_000

_ASCII_WORD = tuple(bool(re.match(r"\w", chr(c))) for c in range(128))
_WORD_RE = re.compile(r"\w")


def _simple_lower(s: str) -> str:
    """re.IGNORECASE's SIMPLE per-codepoint lowering. Identical to
    ``str.lower()`` except U+0130 'İ' (the only codepoint whose full
    lowercase is multi-char: 'i'+U+0307, where the simple mapping — and
    therefore ``re.IGNORECASE`` — uses plain 'i'). Gazetteer keys are
    built with full lower on ORIGINAL taxonomy surfaces (never containing
    a combining-dot artifact), so simple-lowered match text is the
    correct lookup key on the rare-Unicode ci path."""
    if "İ" in s:
        s = s.replace("İ", "i")
    return s.lower()


class _Span:
    """Minimal ``re.Match`` stand-in (group/start/end) so a trie scanner
    drops into every call site that iterates ``pattern.finditer``."""

    __slots__ = ("_s", "_e", "_t")

    def __init__(self, s: int, e: int, t: str):
        self._s, self._e, self._t = s, e, t

    def group(self, idx: int = 0) -> str:
        return self._t[self._s:self._e]

    def start(self) -> int:
        return self._s

    def end(self) -> int:
        return self._e


_CP_ALPHABET = 0x110000  # one past the max Unicode codepoint
_ASCII_WORD_NP = np.array(_ASCII_WORD, dtype=bool)


class NumpyTrieScanner:
    """Batched numpy automaton for the above-``AC_FORM_GATE`` web-scale
    gazetteer regime.

    Same longest-match / word-boundary / resume-at-end semantics as the
    trie regex and as the pure-Python ``TrieScanner`` parity oracle in
    ``tests/trie_scanner.py`` (equivalence-tested on every scanner
    fixture), but both the build and the scan run as numpy array
    programs, lifting the pure-Python scan ceiling (measured
    1.7-2.0 MB/s/core):

    - **Build**: per-depth ``np.unique`` over int64-packed
      ``state * 0x110000 + codepoint`` transition keys — O(Σ form chars)
      array work with a loop only over max form LENGTH, not form count.
    - **Scan**: the whole batch of documents is concatenated (NUL
      separators — non-word, never a trie key, so matches cannot span
      documents and boundary semantics at document edges equal the
      start/end-of-string rules), candidate starts are found with one
      vectorized boundary+root-membership mask, and ALL candidates walk
      the trie in lock-step — one ``searchsorted`` per depth level over
      the surviving candidates. The only per-match Python is the final
      greedy non-overlap filter, O(matches) not O(text).

    ``casefold=True`` applies re.IGNORECASE's SIMPLE
    per-codepoint lowering (``_simple_lower``): the fold feeds the trie
    walk only; boundaries and spans index the scanned string verbatim.
    """

    __slots__ = ("trans_keys", "trans_vals", "terminal", "root_chars",
                 "root_vals", "maxlen", "casefold", "_word_cache",
                 "_fold_cache")

    def __init__(self, forms, *, casefold: bool = False):
        forms = [f for f in forms if f]  # "" never yields (best > i)
        self.casefold = casefold
        self._word_cache: dict[int, bool] = {}
        self._fold_cache: dict[int, int] = {}
        if not forms:
            self.trans_keys = np.empty(0, np.int64)
            self.trans_vals = np.empty(0, np.int64)
            self.terminal = np.zeros(1, bool)
            self.root_chars = np.empty(0, np.int64)
            self.root_vals = np.empty(0, np.int64)
            self.maxlen = 0
            return
        forms = sorted(forms)  # lexicographic: per-depth keys arrive
        # nondecreasing, so "unique" is a diff, not a sort
        lens = np.fromiter((len(f) for f in forms), np.int64, count=len(forms))
        cp = np.frombuffer("".join(forms).encode("utf-32-le"),
                           dtype=np.uint32).astype(np.int64)
        offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(lens)])[:-1]
        self.maxlen = int(lens.max())
        active = np.arange(len(forms))
        parent = np.zeros(len(forms), np.int64)
        key_parts, val_parts, term_parts = [], [], []
        next_state = 1
        for d in range(self.maxlen):
            keep = lens[active] > d
            active, parent = active[keep], parent[keep]
            if active.size == 0:
                break
            keys = parent * _CP_ALPHABET + cp[offs[active] + d]
            new = np.empty(keys.size, bool)
            new[0] = True
            np.not_equal(keys[1:], keys[:-1], out=new[1:])
            group = np.cumsum(new) - 1  # diff-based unique: keys sorted
            uk = keys[new]
            childs = np.arange(next_state, next_state + uk.size, dtype=np.int64)
            next_state += uk.size
            key_parts.append(uk)
            val_parts.append(childs)
            parent = childs[group]
            term_parts.append(parent[lens[active] == d + 1])
        trans_keys = np.concatenate(key_parts)
        trans_vals = np.concatenate(val_parts)
        order = np.argsort(trans_keys)  # states are depth-unique: keys too
        self.trans_keys = trans_keys[order]
        self.trans_vals = trans_vals[order]
        terminal = np.zeros(next_state, bool)
        terminal[np.concatenate(term_parts)] = True
        self.terminal = terminal
        self.root_chars = key_parts[0]  # depth-0 keys = codepoints, sorted
        self.root_vals = val_parts[0]   # their child states

    def _map_distinct(self, cp: np.ndarray, cache: dict, fn) -> np.ndarray:
        """Evaluate fn once per DISTINCT codepoint, map back via inverse."""
        uniq, inv = np.unique(cp, return_inverse=True)
        vals = np.fromiter(
            (cache.get(c) if c in cache else cache.setdefault(c, fn(c))
             for c in uniq.tolist()),
            dtype=np.int64, count=uniq.size)
        return vals[inv]

    def _is_word_arr(self, cp: np.ndarray) -> np.ndarray:
        out = np.zeros(cp.size, bool)
        asc = cp < 128
        out[asc] = _ASCII_WORD_NP[cp[asc]]
        rest = ~asc
        if rest.any():
            out[rest] = self._map_distinct(
                cp[rest], self._word_cache,
                lambda c: int(bool(_WORD_RE.match(chr(c))))).astype(bool)
        return out

    @staticmethod
    def _fold_one(c: int) -> int:
        lc = _simple_lower(chr(c))
        # only U+0130 lowers multi-char and _simple_lower handles it; a
        # hypothetical other maps to NUL, which is never a trie key —
        # exactly a dict trie's failed d.get(multi-char-key) transition
        return ord(lc) if len(lc) == 1 else 0

    def _fold_arr(self, cp: np.ndarray) -> np.ndarray:
        out = cp.copy()
        up = (cp >= 65) & (cp <= 90)
        out[up] = cp[up] + 32
        rest = cp >= 128
        if rest.any():
            out[rest] = self._map_distinct(cp[rest], self._fold_cache,
                                           self._fold_one)
        return out

    def scan_many(self, texts) -> list[list[tuple[int, int]]]:
        """Per-text lists of (start, end) spans, regex-identical."""
        if not texts:
            return []
        if self.root_chars.size == 0:
            return [[] for _ in texts]
        joined = "\x00" + "\x00".join(texts) + "\x00"
        cp = np.frombuffer(joined.encode("utf-32-le"),
                           dtype=np.uint32).astype(np.int64)
        n = cp.size
        dlens = np.fromiter((len(t) for t in texts), np.int64,
                            count=len(texts))
        doc_start = np.concatenate(
            [np.ones(1, np.int64), 1 + np.cumsum(dlens + 1)[:-1]])
        isw = self._is_word_arr(cp)
        fcp = self._fold_arr(cp) if self.casefold else cp
        # boundary positions first, root membership ONLY at those — and
        # the membership probe doubles as the depth-0 transition
        bpos = 1 + np.nonzero(isw[1:] != isw[:-1])[0]  # \b at the start
        ridx = np.searchsorted(self.root_chars, fcp[bpos])
        np.minimum(ridx, self.root_chars.size - 1, out=ridx)
        in_root = self.root_chars[ridx] == fcp[bpos]
        starts = bpos[in_root]
        best = np.full(starts.size, -1, np.int64)
        pos = starts + 1
        state = self.root_vals[ridx[in_root]]  # after consuming char 0
        alive = np.arange(starts.size)
        tk, tv, term = self.trans_keys, self.trans_vals, self.terminal
        # pos < n always: the trailing NUL can never be consumed
        hit = term[state] & (isw[pos - 1] != isw[pos])  # 1-char forms
        best[alive[hit]] = pos[hit]
        for _ in range(self.maxlen - 1):
            if alive.size == 0:
                break
            keys = state * _CP_ALPHABET + fcp[pos]
            j = np.searchsorted(tk, keys)
            np.minimum(j, tk.size - 1, out=j)
            ok = tk[j] == keys
            alive, pos = alive[ok], pos[ok] + 1
            state = tv[j[ok]]
            hit = term[state] & (isw[pos - 1] != isw[pos])
            best[alive[hit]] = pos[hit]
        m = best >= 0
        out: list[list[tuple[int, int]]] = [[] for _ in texts]
        last = 0
        ds = doc_start
        for s, e in zip(starts[m].tolist(), best[m].tolist()):
            if s >= last:  # greedy resume-at-match-end, like the regex
                last = e
                d = int(np.searchsorted(ds, s, side="right")) - 1
                base = int(ds[d])
                out[d].append((s - base, e - base))
        return out

    def finditer(self, text: str):
        """Drop-in for ``pattern.finditer`` call sites (parity tests)."""
        for s, e in self.scan_many([text])[0]:
            yield _Span(s, e, text)


def compile_pattern_ci(forms) -> re.Pattern:
    """Case-insensitive fallback used when ``text.lower()`` changes the
    string length (rare Unicode case mappings), so spans always index the
    ORIGINAL text."""
    ordered = sorted(forms, key=lambda s: (-len(s), s))
    return re.compile(
        r"\b(?:" + "|".join(re.escape(f) for f in ordered) + r")\b",
        re.IGNORECASE,
    )


def detect_in_text(text: str, url: str,
                   pattern: "re.Pattern | NumpyTrieScanner",
                   gaz: dict[str, tuple[str, str]],
                   min_chars: int = MIN_MENTION_CHARS,
                   ci_pattern: "re.Pattern | NumpyTrieScanner | None" = None,
                   ) -> list[dict]:
    """Distinct-per-form mentions, ordered by first occurrence.

    One record per (document, form) — the reference emits one item per mask
    class per image regardless of pixel multiplicity; ``n_hits`` preserves
    the raw occurrence count. The fast path scans ``text.lower()`` with the
    trie pattern; when lowercasing changes the length (rare Unicode), the
    case-insensitive fallback scans the original so spans stay valid.
    """
    lowered = text.lower()
    if len(lowered) == len(text):
        spans = [(m.start(), m.end()) for m in pattern.finditer(lowered)]
        scanned = lowered
    else:
        it = (ci_pattern or compile_pattern_ci(gaz.keys())).finditer(text)
        spans = [(m.start(), m.end()) for m in it]
        scanned = text
    return _mentions_from_spans(text, scanned, url, spans, gaz, min_chars)


def _mentions_from_spans(text: str, scanned: str, url: str,
                         spans: list[tuple[int, int]],
                         gaz: dict[str, tuple[str, str]],
                         min_chars: int) -> list[dict]:
    """Span list (indexing ``scanned``) -> mention records (spans are
    valid in ``text`` too: the two strings always have equal length)."""
    found: dict[str, dict] = {}
    order: list[str] = []
    for s, e in spans:
        # simple lowering, matching how the ci regimes matched: full
        # .lower() on a matched 'İ...' would produce a combining-dot key
        # absent from the gazetteer (KeyError on the rare-Unicode path)
        form = _simple_lower(scanned[s:e])
        if form in found:
            found[form]["n_hits"] += 1
            continue
        if len(form) < min_chars:
            continue  # area-threshold analog
        eid, cat = gaz[form]
        found[form] = {
            "surface": text[s:e],
            "form": form,
            "span_start": s,
            "span_end": e,
            "salience": e - s,
            "n_hits": 1,
            "context": text[max(0, s - CONTEXT_WINDOW): e + CONTEXT_WINDOW],
            "label": cat,
            "entity_hint": eid,
        }
        order.append(form)
    out = []
    for k, form in enumerate(order):
        rec = dict(found[form])
        rec["mention_id"] = f"{url}#m{k}"
        out.append(rec)
    return out


class MentionDetector:
    """Batch callable: pages(text) -> page rows with a mentions list column.

    Built once per worker inside ``linker.EnrichmentStage`` from
    ``tax_ref``, a ``ray.put`` handle of the taxonomy Arrow table
    (broadcast once, not re-shipped per batch), or the table itself for
    local/test use.
    """

    def __init__(self, taxonomy_ref, single_product_mode: bool = False,
                 min_chars: int = MIN_MENTION_CHARS):
        tax = taxonomy_ref
        if not isinstance(tax, pa.Table):
            import ray

            tax = ray.get(taxonomy_ref)
        self.gaz = build_gazetteer(tax)
        forms = list(self.gaz.keys())
        if len(forms) > AC_FORM_GATE:
            # web-scale gazetteer: the batched numpy automaton (identical
            # matches, whole batch scanned per searchsorted lock-step)
            self.pattern: Any = NumpyTrieScanner(forms)
            self.ci_pattern: Any = NumpyTrieScanner(forms, casefold=True)
        else:
            self.pattern = compile_pattern(forms)
            self.ci_pattern = compile_pattern_ci(forms)
        self.single = single_product_mode
        self.min_chars = min_chars

    def _detect_batch(self, urls, texts) -> list[list[dict]]:
        """Batched automaton path: ONE concatenated scan per ci regime
        instead of a per-document Python walk."""
        texts = [t or "" for t in texts]
        lowered = [t.lower() for t in texts]
        fast = [i for i, (t, l) in enumerate(zip(texts, lowered))
                if len(t) == len(l)]
        rare = [i for i in range(len(texts)) if len(texts[i]) != len(lowered[i])]
        spans: list[list[tuple[int, int]]] = [[]] * len(texts)
        scanned: list[str] = list(lowered)
        for idx, sp in zip(fast, self.pattern.scan_many(
                [lowered[i] for i in fast])):
            spans[idx] = sp
        for idx, sp in zip(rare, self.ci_pattern.scan_many(
                [texts[i] for i in rare])):
            spans[idx] = sp
            scanned[idx] = texts[idx]  # ci spans index the ORIGINAL
        return [
            _mentions_from_spans(texts[i], scanned[i], urls[i], spans[i],
                                 self.gaz, self.min_chars)
            for i in range(len(texts))
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        texts = batch["text"].to_pylist()
        if isinstance(self.pattern, NumpyTrieScanner):
            per_doc = self._detect_batch(urls, texts)
        else:
            per_doc = [
                detect_in_text(text or "", url, self.pattern, self.gaz,
                               self.min_chars, ci_pattern=self.ci_pattern)
                for url, text in zip(urls, texts)
            ]
        mentions_col = []
        for recs in per_doc:
            if self.single and len(recs) > 1:
                # top-1 by salience, stable on earlier span (sort is stable;
                # reference sorts desc by area and keeps the first —
                # image_processor.py:140-141)
                recs = [max(recs, key=lambda r: (r["salience"], -r["span_start"]))]
            mentions_col.append(recs)
        arr = pa.array(mentions_col, type=pa.list_(MENTION_STRUCT))
        return pa.table(
            {
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "lang": batch["lang"],
                "mentions": arr,
            }
        )

