"""Partition lineage manifests.

One JSON manifest per input partition, written ONLY after the partition's
narrow-chain outputs (``linked/part=i``, ``pairs/part=i``) are fully on
disk. A manifest records exactly enough lineage to decide "skip or
recompute" on resume:

- the input fragment list (path + byte size + parquet row count) — any
  drift in the assigned inputs invalidates the partition;
- the stage-version map (bump a stage's version → every manifest built
  with the old version invalidates);
- the pipeline config that shaped the outputs (link mode, thresholds...);
- an order-independent digest of the taxonomy columns the narrow chain
  reads (a changed taxonomy links and pairs differently);
- output row counts per table, cross-checked against the parquet FOOTER
  metadata of the files actually on disk (a footer only exists when the
  write completed, so a killed mid-write partition always fails
  validation);
- an order-independent url fingerprint of the linked output (crc32 XOR),
  cheap to recompute from a column-pruned read.

Validation never trusts the manifest alone: it re-lists the output files
and re-reads footers, so deleting/corrupting any part file forces a
recompute even if the JSON survived.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import asdict, dataclass, field

# Bump a stage's version whenever its semantics change; manifests carry the
# map they were built with and any mismatch invalidates the partition.
STAGE_VERSIONS: dict[str, int] = {
    "extract": 1,
    "mentions": 2,  # v2: trie-regex scanner over lowered text
    "attributes": 1,
    "linker": 1,
    "pairs": 1,
}

# The taxonomy columns the narrow chain reads: the mention detector
# (entity_id, surface, aliases, category), the linker's index and filters
# (surface, category, gender, color) and the pair relation (category).
TAXONOMY_COLUMNS = ("entity_id", "surface", "aliases", "category", "gender",
                    "color")


@dataclass
class PartitionManifest:
    part: int
    inputs: list[dict]                     # [{path, size, rows}]
    stage_versions: dict[str, int]
    config: dict
    rows: dict[str, int]                   # {"linked": n, "pairs": n}
    linked_url_fingerprint: int
    wall_sec: float
    engine_version: str
    run_id: str = ""
    extra: dict = field(default_factory=dict)
    taxonomy_digest: str = ""


def manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, "manifests", f"part={part}.json")


def describe_inputs(paths: list[str]) -> list[dict]:
    """Stat + footer row count per input file (footer read is metadata-only)."""
    import pyarrow.parquet as pq

    out = []
    for p in sorted(paths):
        out.append({
            "path": p,
            "size": os.path.getsize(p),
            "rows": pq.read_metadata(p).num_rows,
        })
    return out


def dir_parquet_rows(path: str) -> int:
    """Total rows across a directory's parquet files, from footers only.
    Raises on a truncated/corrupt file — that is the validation working."""
    import pyarrow.parquet as pq

    total = 0
    for f in sorted(os.listdir(path)):
        if f.endswith(".parquet"):
            total += pq.read_metadata(os.path.join(path, f)).num_rows
    return total


def url_fingerprint(path: str) -> int:
    """Order-independent fingerprint of the ``url`` column across a parquet
    directory: XOR of crc32 per url. Column-pruned read — cheap even when
    the table carries wide nested mention structs."""
    import pyarrow.parquet as pq

    fp = 0
    for f in sorted(os.listdir(path)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(path, f), columns=["url"])
        for u in t["url"].to_pylist():
            fp ^= zlib.crc32(u.encode("utf-8"))
    return fp


def taxonomy_digest(taxonomy) -> str:
    """Order-independent digest of the ``TAXONOMY_COLUMNS`` a taxonomy
    table has: sha256 over its rows' sorted JSON encodings."""
    cols = [c for c in TAXONOMY_COLUMNS if c in taxonomy.column_names]
    h = hashlib.sha256(json.dumps(cols).encode("utf-8"))
    rows = zip(*(taxonomy[c].to_pylist() for c in cols))
    for r in sorted(json.dumps(list(r)) for r in rows):
        h.update(b"\n" + r.encode("utf-8"))
    return h.hexdigest()


def write_manifest(out_dir: str, m: PartitionManifest) -> str:
    """Atomic write (tmp + rename) so a crash mid-write never leaves a
    parseable-but-wrong manifest."""
    path = manifest_path(out_dir, m.part)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(asdict(m), fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return path


def load_manifest(out_dir: str, part: int) -> PartitionManifest | None:
    path = manifest_path(out_dir, part)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            d = json.load(fh)
        return PartitionManifest(**d)
    except (json.JSONDecodeError, TypeError, KeyError):
        return None


def validate_manifest(out_dir: str, part: int, input_paths: list[str],
                      config: dict, tax_digest: str | None = None
                      ) -> PartitionManifest | None:
    """Return the manifest iff the partition can be skipped on resume:
    manifest parses, inputs / stage versions / config all match, so does
    the ``taxonomy_digest`` when ``tax_digest`` is given, AND the
    on-disk outputs agree with the recorded row counts (footer-verified).
    Returns None (→ recompute) otherwise."""
    m = load_manifest(out_dir, part)
    if m is None:
        return None
    if m.stage_versions != STAGE_VERSIONS or m.config != config:
        return None
    if tax_digest is not None and m.taxonomy_digest != tax_digest:
        return None
    try:
        if m.inputs != describe_inputs(input_paths):
            return None
        for table in ("linked", "pairs"):
            part_dir = os.path.join(out_dir, table, f"part={part}")
            if dir_parquet_rows(part_dir) != m.rows[table]:
                return None
        linked_dir = os.path.join(out_dir, "linked", f"part={part}")
        if url_fingerprint(linked_dir) != m.linked_url_fingerprint:
            return None
    except Exception:
        # missing dir, truncated footer, schema drift — all mean recompute
        return None
    return m
