"""PII scrubbing over a documents table — a standard corpus-curation
stage (C4/FineWeb-style) beyond the reference's own operators, per the
task brief's training-data-pipeline suite.

Fully vectorized, fully streaming: one stateless ``map_batches`` pass,
no shuffle, no state — the 100-TB shape is trivial (scales linearly with
input blocks).

Engine-equivalence design: the patterns are written in the RE2 subset,
and BOTH sides of the correctness check execute them on RE2 —
``pyarrow.compute.replace_substring_regex`` / ``count_substring_regex``
here, DuckDB ``regexp_replace(..., 'g')`` / ``regexp_extract_all`` in
the oracle — so match semantics (leftmost, greediness, ``\\b``, ``\\s``)
agree byte-for-byte by construction, not by luck.

Scrub ORDER is part of the semantics and is applied identically in the
oracle: emails first, then IPv4, then phones. Each count is taken on the
text as it stands BEFORE that pattern's own replacement (an IPv4 would
otherwise also count as a phone number).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b([0-9]{1,3}\.){3}[0-9]{1,3}\b"
PHONE_RE = r"\+?[0-9][0-9()\s.\-]{6,}[0-9]"

EMAIL_TOKEN = "<EMAIL>"
IPV4_TOKEN = "<IP>"
PHONE_TOKEN = "<PHONE>"


def scrub_pii_batch(batch: pa.Table, *, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    txt = pc.fill_null(txt.cast(pa.string()), "")

    n_email = pc.count_substring_regex(txt, EMAIL_RE)
    s1 = pc.replace_substring_regex(txt, EMAIL_RE, EMAIL_TOKEN)
    n_ip = pc.count_substring_regex(s1, IPV4_RE)
    s2 = pc.replace_substring_regex(s1, IPV4_RE, IPV4_TOKEN)
    n_phone = pc.count_substring_regex(s2, PHONE_RE)
    s3 = pc.replace_substring_regex(s2, PHONE_RE, PHONE_TOKEN)

    return pa.table(
        {
            id_col: batch[id_col],
            "scrubbed": s3,
            "n_emails": n_email.cast(pa.int64()),
            "n_ips": n_ip.cast(pa.int64()),
            "n_phones": n_phone.cast(pa.int64()),
        }
    )


def scrub_pii(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """documents -> (id, scrubbed, n_emails, n_ips, n_phones)."""

    def fn(t: pa.Table) -> pa.Table:
        return scrub_pii_batch(t, text_col=text_col, id_col=id_col)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=4096,
                          zero_copy_batch=True)
