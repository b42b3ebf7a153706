"""Deterministic random-stream derivation.

Every stochastic element of the simulator (run-to-run noise, fault
windows, mdtest timing jitter) draws from a stream derived from a
*root seed* plus a structured key such as ``("ior", run_id, iteration,
"write")``.  Identical keys always yield identical streams, which makes
every experiment in EXPERIMENTS.md bit-reproducible while keeping
independent components statistically uncorrelated.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["derive_seed", "RankSeeds", "stream", "lognormal_factor"]


def _key_hash(root_seed: int, key: tuple[object, ...]) -> hashlib._Hash:
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for part in key:
        h.update(b"\x1f")
        h.update(repr(part).encode())
    return h


def _seed_of(h: hashlib._Hash) -> int:
    return int.from_bytes(h.digest()[:8], "big") >> 1


def _generator(seed: int) -> np.random.Generator:
    # numpy's own definition of ``default_rng(seed)``, without the wrapper.
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(root_seed: int, *key: object) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a structured key.

    The key parts are rendered with ``repr`` and hashed with SHA-256, so
    any hashable/representable objects (strings, ints, tuples) can be
    used and the derivation is stable across processes and Python
    versions.
    """
    return _seed_of(_key_hash(root_seed, key))


class RankSeeds:
    """Seeds ``derive_seed(root_seed, *head, (*tail, rank))`` for any ``rank``.

    Per-rank streams share everything but the rank, so the shared
    prefix — the root seed, ``head`` and the ``repr`` of the key tuple
    up to its last element — is hashed once, and each rank only copies
    that hash state and appends ``repr(rank)`` and the tuple's closing
    bracket.  Seeds and draws equal the full derivation's.
    """

    __slots__ = ("_prefix", "_close")

    def __init__(self, root_seed: int, *head: object, tail: tuple[object, ...]) -> None:
        h = _key_hash(root_seed, head)
        h.update(b"\x1f(")
        for part in tail:
            h.update(repr(part).encode())
            h.update(b", ")
        self._prefix = h
        # A one-element tuple renders as ``(x,)``.
        self._close = b")" if tail else b",)"

    def seed(self, rank: int) -> int:
        """``derive_seed(root_seed, *head, (*tail, rank))``."""
        h = self._prefix.copy()
        h.update(repr(rank).encode() + self._close)
        return _seed_of(h)

    def stream(self, rank: int) -> np.random.Generator:
        """The generator :func:`stream` returns for the same key."""
        return _generator(self.seed(rank))


def stream(root_seed: int, *key: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``(root_seed, *key)``."""
    return _generator(derive_seed(root_seed, *key))


def lognormal_factor(
    rng: np.random.Generator, sigma: float, size: int | None = None
) -> np.ndarray | float:
    """Draw multiplicative noise factors with unit median.

    A lognormal with ``mu = 0`` has median 1.0, so multiplying a cost by
    this factor perturbs it symmetrically in log-space — the standard
    model for I/O timing variation.  ``sigma == 0`` returns exactly 1.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return 1.0 if size is None else np.ones(size)
    return rng.lognormal(mean=0.0, sigma=sigma, size=size)


def choice_without_replacement(
    rng: np.random.Generator, items: Iterable[object], k: int
) -> list[object]:
    """Pick ``k`` distinct items deterministically from ``rng``."""
    pool = list(items)
    if k > len(pool):
        raise ValueError(f"cannot choose {k} from {len(pool)} items")
    idx = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in idx]
