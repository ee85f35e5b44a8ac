"""Deterministic random-number management.

Every stochastic element of the simulation (measurement noise, contention
jitter) draws from an :class:`RngStream`, a thin wrapper around
``numpy.random.Generator`` that supports hierarchical, *named* child streams.
Deriving children by name rather than by call order keeps experiments
reproducible even when the code paths that consume randomness are reordered.

A stream seeds its generator on first use, so deriving a path of children
costs a tuple append per name and only the streams that draw pay for a
PCG64.  Sibling streams drawn together are seeded in bulk: one kernel
reproduces ``SeedSequence`` for a whole batch of seeds at once.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence


def _generator(seed: "int | _SeededState") -> Generator:
    """The one place a numpy generator is built from a derived seed.

    For an integer seed ``default_rng(seed)`` is exactly
    ``Generator(PCG64(seed))``; spelling it directly skips the dispatch.
    A :class:`_SeededState` seeds the same PCG64 from a state the bulk
    kernel already computed.
    """
    return Generator(PCG64(seed))


# -- bulk seeding ------------------------------------------------------------
# ``PCG64(seed)`` spends most of its time in ``SeedSequence(seed)`` and
# ``generate_state(4, uint64)``.  For an integer seed below 2**64 that is a
# fixed, data-independent sequence of uint32 operations: the entropy is the
# seed's low and high 32-bit words (a seed below 2**32 has one word, and a
# missing word hashes exactly like a zero one), there is no spawn key, and
# the ``hash_const`` multipliers advance the same way for every seed, so
# they are constants.  ``_seed_states`` runs that sequence for many seeds
# at once by packing one seed per 64-bit lane of a Python int: a uint32
# times a uint32 constant fits its lane, and masking each lane to 32 bits
# afterwards is the uint32 wrap-around.  ``x >> 16`` pulls the low bits
# of the next lane into the top of this one, so it is masked to 16 bits.

_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash_const
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash_const
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_STATE_WORDS = 8  # generate_state(4, uint64) draws 8 uint32 words


def _hash_consts(value: int, mult: int, count: int) -> tuple[int, ...]:
    consts = []
    for _ in range(count):
        consts.append(value)
        value = (value * mult) & _MASK32
    return tuple(consts)


# Step k of mix_entropy's hashmix xors with _HASH_A[k] and multiplies by
# _HASH_A[k + 1]: 4 pool fills, then 12 source/destination mixes.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + 1)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, _STATE_WORDS + 1)
_MIX_STEPS = tuple(
    (src, dst) for src in range(_POOL) for dst in range(_POOL) if dst != src
)
_NEG_MIX_MULT_R = -_MIX_MULT_R & _MASK32  # x - R*y == x + (2**32 - R)*y


@lru_cache(maxsize=64)
def _lane_consts(n: int) -> tuple:
    """Per-lane masks and xor constants for ``n`` packed seeds."""
    ones = int.from_bytes((1).to_bytes(8, "little") * n, "little")
    return (
        _MASK32 * ones,
        (_MASK32 >> _XSHIFT) * ones,
        tuple(c * ones for c in _HASH_A),
        tuple(c * ones for c in _HASH_B),
    )


def _seed_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed ``s``.

    Returns an ``(n, 4)`` uint64 array, row ``i`` bit-identical to NumPy's
    result for ``seeds[i]`` (each seed in ``[0, 2**64)``).
    """
    words = np.asarray(seeds, dtype=np.uint64)
    n = len(words)
    if n == 0:
        return np.empty((0, 4), dtype=np.uint64)
    mask, low16, xor_a, xor_b = _lane_consts(n)

    def pack(lanes: np.ndarray) -> int:
        return int.from_bytes(lanes.astype("<u8").tobytes(), "little")

    def hashmix(value: int, k: int) -> int:
        value = ((value ^ xor_a[k]) * _HASH_A[k + 1]) & mask
        return value ^ ((value >> _XSHIFT) & low16)

    entropy = (pack(words & np.uint64(_MASK32)), pack(words >> np.uint64(32)), 0, 0)
    pool = [hashmix(word, k) for k, word in enumerate(entropy)]
    for k, (src, dst) in enumerate(_MIX_STEPS, start=_POOL):
        # A masked product plus an unmasked one stays below 2**64: no carry
        # into the next lane.
        mixed = (((_MIX_MULT_L * pool[dst]) & mask)
                 + _NEG_MIX_MULT_R * hashmix(pool[src], k)) & mask
        pool[dst] = mixed ^ ((mixed >> _XSHIFT) & low16)
    state = []
    for i in range(_STATE_WORDS):
        word = ((pool[i % _POOL] ^ xor_b[i]) * _HASH_B[i + 1]) & mask
        state.append(word ^ ((word >> _XSHIFT) & low16))
    out = np.empty((n, 4), dtype=np.uint64)
    for j in range(4):  # uint32 words 2j, 2j+1 form uint64 j (little-endian)
        packed = state[2 * j] | (state[2 * j + 1] << 32)
        out[:, j] = np.frombuffer(packed.to_bytes(8 * n, "little"), dtype="<u8")
    return out


class _SeededState(ISpawnableSeedSequence):
    """A seed whose PCG64 state :func:`_seed_states` already computed.

    ``PCG64`` asks its seed sequence for ``generate_state(4, uint64)``
    once; this answers with the precomputed row.  Anything else — other
    state requests, ``spawn`` — goes to ``SeedSequence(seed)``, built on
    first need and kept, so spawning, pickling and deep-copying a
    bulk-seeded generator behave as for ``Generator(PCG64(seed))``.
    """

    def __init__(self, seed: int, state: np.ndarray) -> None:
        self.seed = seed
        self._state = state
        self._sequence: SeedSequence | None = None

    def _seq(self) -> SeedSequence:
        if self._sequence is None:
            self._sequence = SeedSequence(self.seed)
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._state
        return self._seq().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seq().spawn(n_children)


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
    A list leaf is rejected: it would hash as one component (its repr),
    not as the path a tuple spells.
    """
    base = _path_hasher(base_seed, prefix)
    seeds = []
    for leaf in leaves:
        if isinstance(leaf, list):
            raise TypeError(
                f"leaf must be a path component or a tuple of them, "
                f"got list {leaf!r}"
            )
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
    ``RngStream(s, (*p, leaf)).generator``: both are built by
    :func:`_generator` from the same BLAKE2 seed.  Here the whole batch is
    seeded by one :func:`_seed_states` call instead of one ``SeedSequence``
    per stream; the PCG64 states, and so every draw, are bit-identical.
    """
    seeds = sibling_seeds(base_seed, prefix, leaves)
    return [
        _generator(_SeededState(seed, state))
        for seed, state in zip(seeds, _seed_states(seeds))
    ]


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
