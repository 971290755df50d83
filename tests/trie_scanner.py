"""Pure-Python trie scanner: the parity oracle for the mention matchers.

``TrieScanner`` walks a dict trie one character at a time with the trie
regex's semantics (``stages/mentions.py``). The engine scans with the
regex below ``AC_FORM_GATE`` forms and with ``NumpyTrieScanner`` above
it; the scanner tests check both against this plain walk."""
from __future__ import annotations

from fashion_knowledge_graph_ray.stages.mentions import (
    _ASCII_WORD,
    _WORD_RE,
    _simple_lower,
    _Span,
)


def _is_word(ch: str) -> bool:
    o = ord(ch)
    return _ASCII_WORD[o] if o < 128 else bool(_WORD_RE.match(ch))


class TrieScanner:
    """Aho-Corasick-style longest-match scanner for LARGE gazetteers.

    Semantics replicate the trie regex exactly (verified by the
    equivalence test): matches must start and end on ``\\b`` word
    boundaries, the LONGEST form anchored at a position wins (greedy
    with backtrack-to-shorter-terminal, like the regex), and scanning
    resumes at the match end (non-overlapping, left-to-right).

    Build: O(Σ form chars) dict trie — measured 6 s at 10^6 forms where
    ``re.compile`` of the equivalent pattern takes 49 s (per worker!).
    Scan: O(len(text) × avg trie walk), independent of form count
    (measured 1.7-2.0 MB/s/core at 10^5-10^6 forms vs the regex's
    2.9 — the trade is per-worker startup for a bounded scan slowdown).
    ``casefold=True`` walks the ORIGINAL text lowering characters on the
    fly (the rare length-changing-Unicode fallback, mirroring
    ``compile_pattern_ci``); spans always index the scanned string.
    The fold is re.IGNORECASE's SIMPLE per-codepoint lowering, not
    ``str.lower()``'s full mapping: the two differ only at U+0130 'İ'
    (full: 'i'+U+0307, simple: 'i' — probed against this interpreter's
    ``re``), and using the full mapping here made the two ci regimes
    diverge on exactly the length-changing path the fallback exists
    for."""

    __slots__ = ("root", "casefold")

    def __init__(self, forms, *, casefold: bool = False):
        root: dict = {}
        for w in forms:
            d = root
            for ch in w:
                d = d.setdefault(ch, {})
            d[""] = True
        self.root = root
        self.casefold = casefold

    @staticmethod
    def _bound(text: str, i: int) -> bool:
        n = len(text)
        if n == 0:
            return False
        if i <= 0:
            return _is_word(text[0])
        if i >= n:
            return _is_word(text[n - 1])
        return _is_word(text[i - 1]) != _is_word(text[i])

    _fold = staticmethod(_simple_lower)

    def finditer(self, text: str):
        root = self.root
        bound = self._bound
        fold = self.casefold
        _fold = self._fold
        n = len(text)
        i = 0
        while i < n:
            first = _fold(text[i]) if fold else text[i]
            if (first not in root) or not bound(text, i):
                i += 1
                continue
            d = root
            j = i
            best = -1
            while j < n:
                ch = _fold(text[j]) if fold else text[j]
                nxt = d.get(ch)
                if nxt is None:
                    break
                d = nxt
                j += 1
                if "" in d and bound(text, j):
                    best = j
            if best > i:
                yield _Span(i, best, text)
                i = best
            else:
                i += 1
