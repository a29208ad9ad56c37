"""Deterministic derivation of independent random streams.

Every stochastic activity (a trial, a training run, a validation batch)
hashes its identifying parts -- master seed, instance id, policy name,
trial index -- into a SeedSequence, so streams never collide or depend on
execution order, and parallel runs reproduce serial ones bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _as_entropy(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(*parts) -> np.random.Generator:
    if not parts:
        raise ValueError("need at least one seed part")
    return np.random.default_rng(np.random.SeedSequence([_as_entropy(p) for p in parts]))
