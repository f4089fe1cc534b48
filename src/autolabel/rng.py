"""Deterministic derivation of per-purpose random streams.

Every stochastic operation in this package takes an integer seed. Orchestration
code never reuses a seed for two purposes; instead it derives child seeds from
a master seed plus a tag path (round index, purpose string, ...). Derivation
goes through sha256 so it is stable across processes and platforms; Python's
builtin hash() is salted per process and must never be used here. A
master seed is checked by the integer rule of ``data``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .data import _is_integer


def child_seed(master: int, *tags) -> int:
    """Derive a 64-bit seed from a master seed and a tag path.

    Tags may be ints or strings; they are joined with '/' so ("a", 1) and
    ("a1",) cannot collide. Every seed a run draws from passes through
    here, so this is its one check: ``master`` must be an integer and not a
    bool (a float seed would be truncated, and True would pass as 1).
    """
    if not _is_integer(master):
        raise ValueError(f"seed must be an integer, got {master!r}")
    h = hashlib.sha256()
    h.update(str(int(master)).encode("ascii"))
    for tag in tags:
        h.update(b"/")
        h.update(str(tag).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def stream(master: int, *tags) -> np.random.Generator:
    """A fresh Generator for (master, *tags). Same arguments, same stream."""
    return np.random.default_rng(child_seed(master, *tags))
