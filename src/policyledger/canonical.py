"""Canonical serialization and hashing helpers.

Every digest in the system is computed over canonical JSON: keys sorted,
compact separators, no ASCII escaping of non-ASCII text, and numbers
rendered by Python's shortest-roundtrip repr. Two values that compare
equal always serialize to identical bytes, which is what makes chain
hashes and report digests reproducible across runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any

HASH_FUNCTION_NAME = "sha-256"
ZERO_DIGEST = "0" * 64

# json.dumps with non-default arguments builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to its canonical JSON form."""
    return _ENCODER.encode(value)


def canonical_bytes(value: Any) -> bytes:
    return canonical_json(value).encode("utf-8")


def digest_bytes(data: bytes) -> str:
    """Lowercase hex SHA-256 of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def digest_value(value: Any) -> str:
    """Lowercase hex SHA-256 of the canonical JSON form of ``value``."""
    return digest_bytes(canonical_bytes(value))


def stable_index(label: str, size: int) -> int:
    """Map a feature label to a bucket in [0, size) via SHA-256.

    Independent of PYTHONHASHSEED, unlike builtin hash().
    """
    if size <= 0:
        raise ValueError("size must be positive")
    h = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") % size


def substream(master_seed: int, *labels: object) -> random.Random:
    """Derive an independent RNG substream from a master seed and labels.

    Streams are keyed by (seed, labels) through SHA-256, so adding a new
    consumer (e.g. one more endpoint) never perturbs existing streams.
    """
    key = "/".join([str(master_seed), *[str(x) for x in labels]])
    h = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(h[:8], "big"))
