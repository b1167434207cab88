"""Deterministic, named random streams.

Every stochastic component of the simulation draws from its own named
stream so that adding a new random consumer does not perturb the draws seen
by existing ones — runs stay reproducible and comparable across experiment
configurations (common random numbers for variance reduction in sweeps).

Weighted categorical draws (the transaction type of every OLTP
transaction, the tenant of every open-loop arrival) go through
:func:`weight_cdf`, computed once per client or arrival loop, and
:func:`draw_index`, one bisect per draw.  Together they make exactly the
draw ``Generator.choice(n, p=w / w.sum())`` makes — the same cumulative
sums, one ``random()`` double, a right-side search — so the indices and
the stream state after each draw are bit-identical, at a fraction of
``choice``'s per-call validation cost.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Dict, List, Sequence

import numpy as np


class RandomStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("tpch.arrivals")
    >>> b = streams.get("tpce.keys")
    >>> a is streams.get("tpch.arrivals")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for *name*, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            substream_seed = int.from_bytes(digest[:8], "little")
            stream = np.random.default_rng(substream_seed)
            self._streams[name] = stream
        return stream

    def fork(self, salt: str) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per experiment)."""
        digest = hashlib.sha256(f"{self.seed}:fork:{salt}".encode()).digest()
        return RandomStreams(seed=int.from_bytes(digest[:8], "little"))


#: ``Generator.choice``'s tolerance on the sum of the probabilities.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def weight_cdf(weights: Sequence[float]) -> List[float]:
    """Cumulative distribution of non-negative *weights* for
    :func:`draw_index`.

    The arithmetic is ``Generator.choice``'s, in its order: normalise to
    ``p = w / w.sum()``, then ``cdf = p.cumsum(); cdf /= cdf[-1]``.  Pass
    the raw weights: normalising an already-normalised vector again can
    change its last bit.  ``choice``'s input checks run here, once,
    instead of on every draw.

    >>> weight_cdf([1, 0, 3])
    [0.25, 0.25, 1.0]
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(
            f"weights must be a non-empty 1-D sequence, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    if (w < 0).any():
        raise ValueError(f"weights must be non-negative, got {w.tolist()}")
    total = w.sum()
    if total <= 0:
        raise ValueError(f"weights must not all be zero, got {w.tolist()}")
    p = w / total
    if abs(math.fsum(p.tolist()) - 1.0) > _SUM_ATOL:
        raise ValueError(
            f"weights {w.tolist()} do not normalise to probabilities")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_index(rng: np.random.Generator, cdf: List[float]) -> int:
    """Draw an index from the distribution *cdf* (see :func:`weight_cdf`).

    Equal to ``int(rng.choice(len(cdf), p=p))`` for the *p* the cdf was
    built from, and leaves *rng* in the same state: ``choice`` with
    ``p`` and replacement draws one ``random()`` double and searches the
    cdf for it with ``side="right"``.
    """
    return bisect.bisect_right(cdf, rng.random())
