"""Stage 3: closed-vocabulary attribute extraction + style sentence (M8/M9).

Reference semantics being re-expressed
(`/root/reference/src/models/attribute_extraction_model.py:47-170`, prompt
vocabulary `/root/reference/src/utils/prompts.py:1-32`):

- extraction is closed-vocab: every field only ever takes values from its
  vocabulary; anything else is impossible by construction;
- the detected class label is given to the extractor and becomes ``type``
  (the reference passes the segmented label into the GPT prompt);
- on no evidence the field falls back to ``"unknown"`` / empty list —
  never an error (attribute_extraction_model.py:100-114);
- the style description (M9) in the reference is LLM prose; here it is the
  canonical deterministic serialization of the extracted attrs, so it is a
  pure function of the attrs record.

Deterministic rules (frozen; conformance tests pin them):
- the mention's context window is tokenized to lowercase word tokens;
- scalar fields take the FIRST context token (by position) found in the
  field vocabulary, else "unknown";
- list fields take ALL distinct vocabulary hits, sorted alphabetically,
  else the empty list;
- ``type`` is the mention label when present, else vocabulary scan.

This is a stateless ``map_batches`` stage over the page-mentions list
column (one row per page; mentions never split across blocks).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..vocab import ATTRIBUTE_FIELDS, UNKNOWN

_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9-]*")

_VOCAB_SETS = {name: frozenset(vocab) for name, vocab, _ in ATTRIBUTE_FIELDS}
_IS_LIST = {name: is_list for name, _, is_list in ATTRIBUTE_FIELDS}
FIELD_ORDER = tuple(name for name, _, _ in ATTRIBUTE_FIELDS)

# token -> tuple of (field, is_list) entries: ONE dict probe per token
# replaces ten per-field scans (a token can sit in several vocabularies,
# e.g. "casual" is both a style and an occasion). This stage runs once per
# mention over the whole corpus — it measured as the hottest per-row
# kernel in the 800k-page bench.
_TOKEN_FIELDS: dict[str, tuple[tuple[str, bool], ...]] = {}
for _name, _vocab, _ in ATTRIBUTE_FIELDS:
    for _tok in _vocab:
        _TOKEN_FIELDS.setdefault(_tok, ())
        _TOKEN_FIELDS[_tok] += ((_name, _IS_LIST[_name]),)


def extract_attrs(context: str, label: str | None = None) -> dict:
    """Pure per-mention extraction; see module docstring for the rules.
    Single pass in token order: the first hit per scalar field IS the
    first vocabulary token by position; list fields collect distinct hits
    (sorted at the end)."""
    tokens = _TOKEN_RE.findall((context or "").lower())
    scalars: dict[str, str] = {}
    lists: dict[str, set] = {}
    for t in tokens:
        hits = _TOKEN_FIELDS.get(t)
        if hits is None:
            continue
        for name, is_list in hits:
            if is_list:
                s = lists.get(name)
                if s is None:
                    lists[name] = {t}
                else:
                    s.add(t)
            elif name not in scalars:
                scalars[name] = t
    attrs: dict = {}
    for name in FIELD_ORDER:
        if _IS_LIST[name]:
            s = lists.get(name)
            attrs[name] = sorted(s) if s else []
        else:
            attrs[name] = scalars.get(name, UNKNOWN)
    if label:
        attrs["type"] = label
    return attrs


def style_sentence(attrs: dict) -> str:
    """Canonical attrs serialization — deterministic M9 analog of the LLM
    style sentence (attribute_extraction_model.py:116-170). '' when there
    is nothing to say (the reference returns '' on failure)."""
    parts = []
    if attrs.get("color", UNKNOWN) != UNKNOWN:
        parts.append(attrs["color"])
    if attrs.get("fit", UNKNOWN) != UNKNOWN:
        parts.append(attrs["fit"])
    mats = attrs.get("material") or []
    if mats:
        parts.append("-".join(mats))
    t = attrs.get("type", UNKNOWN)
    parts.append(t if t != UNKNOWN else "piece")
    styles = attrs.get("style") or []
    if styles:
        parts.append("for " + "-".join(styles) + " looks")
    if len(parts) == 1 and t == UNKNOWN:
        return ""
    return " ".join(parts)


def flat_mentions(batch: pa.Table):
    """(list_array, flat_struct_values) of the mentions column — the
    zero-copy flat view both enrichment stages operate on. Appending
    columns to the FLAT struct and re-wrapping with the original offsets
    replaces the per-row ``to_pylist`` + dict-copy + re-encode round-trip
    (measured ~3x stage speedup at 32 CPUs on the 50k-page corpus)."""
    col = batch["mentions"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col, col.values


def rewrap_mentions(batch: pa.Table, list_arr: pa.ListArray,
                    new_values: pa.StructArray) -> pa.Table:
    arr = pa.ListArray.from_arrays(list_arr.offsets, new_values)
    return batch.set_column(batch.schema.get_field_index("mentions"),
                            "mentions", arr)


def extract_spec_attrs(text: str) -> dict:
    """Spec-sheet profile (M11) — the reference's second closed vocabulary
    (`/root/reference/src/utils/prompts.py:149-178`, extractor
    `product_attributes.py:27-88`). Values are multi-word phrases, so the
    frozen deterministic rule is FIRST PHRASE BY POSITION: per field, the
    vocabulary phrase with the smallest occurrence position in the
    lowercased text wins (ties break on the lexicographically smaller
    phrase); no occurrence -> "unknown" (the reference's fallback-default
    semantics, product_attributes.py:75-88)."""
    from ..vocab import SPEC_ATTRIBUTE_FIELDS, UNKNOWN

    lt = (text or "").lower()
    out = {}
    for field, phrases in SPEC_ATTRIBUTE_FIELDS:
        best = None
        for p in sorted(phrases):
            pos = lt.find(p)
            if pos >= 0 and (best is None or pos < best[0]):
                best = (pos, p)
        out[field] = best[1] if best else UNKNOWN
    return out


def spec_attrs(ds, *, text_col: str = "text", id_col: str = "doc_id",
               fields: tuple[str, ...] | None = None):
    """documents -> (id, <spec fields...>) via the M11 spec-sheet profile.
    ``fields`` restricts the output columns (None = all ten)."""
    from ..vocab import SPEC_ATTRIBUTE_FIELDS

    names = fields or tuple(f for f, _ in SPEC_ATTRIBUTE_FIELDS)

    def f(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        recs = [extract_spec_attrs(x) for x in texts]
        cols = {id_col: t[id_col]}
        for n in names:
            cols[n] = pa.array([r[n] for r in recs], type=pa.string())
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=512,
                          zero_copy_batch=True)


def attrs_batch(batch: pa.Table) -> pa.Table:
    """page_mentions row -> same row with ``attrs`` + ``style_description``
    added to every mention struct (flat-vectorized; extraction itself is
    inherently per-string regex work)."""
    from .mentions import MENTION_STRUCT
    from ..schemas import ATTRS_STRUCT

    col, vals = flat_mentions(batch)
    ctxs = vals.field("context").to_pylist() if len(vals) else []
    labs = vals.field("label").to_pylist() if len(vals) else []
    attrs = [extract_attrs(c, l) for c, l in zip(ctxs, labs)]
    styles = [style_sentence(a) for a in attrs]
    # `context` is consumed HERE and dropped from the output struct: at
    # web scale it is the widest mention field, and carrying it through
    # the link/pairs/nodes/triples chain roughly doubles every downstream
    # byte moved (write, re-read, explode x2) for no reader
    keep = [f for f in MENTION_STRUCT if f.name != "context"]
    fields = keep + [
        pa.field("attrs", ATTRS_STRUCT),
        pa.field("style_description", pa.string()),
    ]
    arrays = [vals.field(f.name) for f in keep] + [
        pa.array(attrs, type=ATTRS_STRUCT),
        pa.array(styles, type=pa.string()),
    ]
    new_vals = pa.StructArray.from_arrays(arrays, fields=fields)
    return rewrap_mentions(batch, col, new_vals)

