"""Small shared helpers: deterministic ordering, canonical JSON, digests."""

from __future__ import annotations

import hashlib
import json
import re

_CHUNKS = re.compile(r"(\d+)")


def natural_key(text: str) -> tuple:
    """Sort key that orders embedded numbers numerically (C2 before C10)."""
    return tuple([
        (0, int(chunk)) if chunk.isdigit() else (1, chunk)
        for chunk in _CHUNKS.split(text)
        if chunk != ""
    ])


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON used for digests and comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def pretty_json(obj) -> str:
    """Key-sorted, indented JSON for files and CLI output (no timestamps)."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def simple_name(qualified: str) -> str:
    """Last dotted segment of a qualified type name."""
    return qualified.rsplit(".", 1)[-1]


def upper_first(name: str) -> str:
    return name[:1].upper() + name[1:]


def lower_first(name: str) -> str:
    return name[:1].lower() + name[1:]
