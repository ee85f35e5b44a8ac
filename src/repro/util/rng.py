"""Deterministic random-number management.

Every stochastic element of the simulation (measurement noise, contention
jitter) draws from an :class:`RngStream`, a thin wrapper around
``numpy.random.Generator`` that supports hierarchical, *named* child streams.
Deriving children by name rather than by call order keeps experiments
reproducible even when the code paths that consume randomness are reordered.

A stream seeds its generator on first use, so deriving a path of children
costs a tuple append per name and only the streams that draw pay for a
PCG64.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np
from numpy.random import PCG64, Generator


def _generator(seed: int) -> Generator:
    """The one place a numpy generator is built from a derived seed.

    For an integer seed ``default_rng(seed)`` is exactly
    ``Generator(PCG64(seed))``; spelling it directly skips the dispatch.
    """
    return Generator(PCG64(seed))


def _path_hasher(base_seed: int, names: Iterable[object]):
    """The BLAKE2 hasher of a seed path, ready to be extended or digested."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("utf-8"))
    for name in names:
        h.update(b"/")
        h.update(str(name).encode("utf-8"))
    return h


def derive_seed(base_seed: int, *names: str) -> int:
    """Derive a child seed from a base seed and a path of names.

    Uses BLAKE2 over the textual path so the mapping is stable across runs,
    platforms and Python versions (unlike ``hash()``).
    """
    return int.from_bytes(_path_hasher(base_seed, names).digest(), "little")


def sibling_seeds(
    base_seed: int,
    prefix: Sequence[object],
    leaves: Iterable[object],
) -> list[int]:
    """Seeds of many streams sharing a path prefix, hashing the prefix once.

    Each leaf may be one path component or a tuple of trailing components:
    ``sibling_seeds(s, ("a",), [("b", "c")])[0] == derive_seed(s, "a", "b", "c")``.
    The prefix digest is computed once and extended per leaf via hasher
    copies, which is what makes batched noise generation cheap; the result
    is bit-identical to calling :func:`derive_seed` on each full path.
    """
    base = _path_hasher(base_seed, prefix)
    seeds = []
    for leaf in leaves:
        h = base.copy()
        for part in leaf if isinstance(leaf, tuple) else (leaf,):
            h.update(b"/")
            h.update(str(part).encode("utf-8"))
        seeds.append(int.from_bytes(h.digest(), "little"))
    return seeds


def sibling_generators(
    base_seed: int,
    prefix: Sequence[object],
    leaves: Iterable[object],
) -> list[Generator]:
    """Generators of many sibling streams (see :func:`sibling_seeds`).

    ``sibling_generators(s, p, [leaf])[0]`` draws the same sequence as
    ``RngStream(s, (*p, leaf)).generator``: both are built by the same
    helper from the same BLAKE2 seed.
    """
    return [_generator(seed) for seed in sibling_seeds(base_seed, prefix, leaves)]


class RngStream:
    """A named, seedable random stream with named child derivation.

    >>> root = RngStream(42)
    >>> a = root.child("gpu0")
    >>> b = root.child("gpu0")
    >>> a.uniform(0, 1) == b.uniform(0, 1)
    True
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = _path

    @property
    def generator(self) -> Generator:
        """The underlying numpy Generator (for bulk array draws).

        Built on first use.  ``dict.setdefault`` publishes it atomically,
        so threads racing on a fresh stream's first draw share one
        generator; it lives in the instance dict, so a stream pickles
        and deep-copies with its position in the sequence.
        """
        try:
            return self.__dict__["_gen"]
        except KeyError:
            return self.__dict__.setdefault(
                "_gen", _generator(derive_seed(self.seed, *self.path))
            )

    def child(self, name: str) -> "RngStream":
        """Return an independent stream derived from this one by ``name``."""
        return RngStream(self.seed, self.path + (str(name),))

    # -- convenience draws -------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw in [low, high)."""
        return float(self.generator.uniform(low, high))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """One Gaussian draw."""
        return float(self.generator.normal(mean, std))

    def lognormal_factor(self, sigma: float) -> float:
        """A multiplicative noise factor with median 1.0 (log-normal)."""
        if sigma == 0.0:
            return 1.0
        return float(np.exp(self.generator.normal(0.0, sigma)))

    def integers(self, low: int, high: int) -> int:
        """One integer draw in [low, high)."""
        return int(self.generator.integers(low, high))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self.generator.shuffle(items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStream(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"
