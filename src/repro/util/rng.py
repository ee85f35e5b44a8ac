"""Deterministic random-number management.

Every stochastic element of the simulation (measurement noise, kernel
faults, speed drift, contention jitter) draws from a named stream of an
:class:`RngStream` seed tree.  Deriving children by name rather than by
call order keeps experiments reproducible even when the code paths that
consume randomness are reordered.

Two kinds of draws hang off that tree:

* :attr:`RngStream.generator` seeds a ``numpy.random.Generator`` from the
  BLAKE2 digest of the stream's path (:func:`derive_seed`), for code
  that wants a whole sequence (data generation, load generators);
* platform events draw one value per stream, many streams at a time,
  through counter-based keys (:func:`stream_keys`, :func:`fold_keys`,
  :func:`key_uniforms`): no generator is built at all.

A stream's key is a left fold ``k <- mix(k ^ blake2(name))`` from
``k = 0`` over ``(seed, *path)``, where ``mix`` is the SplitMix64
finaliser and each component's BLAKE2 key is memoised.  Because it is a
fold, how a path is split into a shared prefix and per-stream leaves
never changes a key.  Its uniform number ``slot`` is the top 53 bits of
``mix(key + (slot + 1) * golden)``, SplitMix64's output for that state.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator


def _generator(seed: int) -> Generator:
    """The one place a numpy generator is built from a derived seed.

    ``default_rng(seed)`` is exactly ``Generator(PCG64(seed))``; spelling
    it directly skips the dispatch.
    """
    return Generator(PCG64(seed))


def derive_seed(base_seed: int, *names: str) -> int:
    """Derive a child seed from a base seed and a path of names.

    Uses BLAKE2 over the textual path so the mapping is stable across runs,
    platforms and Python versions (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("utf-8"))
    for name in names:
        h.update(b"/")
        h.update(str(name).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


# -- counter-based stream keys ------------------------------------------------
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_MIX_MULT_A, _MIX_MULT_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# 0-d uint64 arrays: the cheapest operands for ufuncs on small arrays
_SHIFT_A, _SHIFT_B, _SHIFT_C = (np.array(v, dtype=np.uint64) for v in (30, 27, 31))
_MULT_A, _MULT_B = (np.array(v, dtype=np.uint64) for v in (_MIX_MULT_A, _MIX_MULT_B))
_UNIFORM_SHIFT = np.array(11, dtype=np.uint64)  # keep 53 bits: one float64 mantissa
_UNIFORM_SCALE = 2.0**-53
#: ``(slot + 1) * golden`` for slots 0 and 1, as a column
_SLOT_STEPS = (np.arange(1, 3, dtype=np.uint64) * np.uint64(_GOLDEN))[:, None]


@lru_cache(maxsize=1 << 16)
def _component_key(name: str) -> int:
    """The BLAKE2 key of one path component (memoised: ``r0``..``r99``,
    device and kernel names recur across every call)."""
    return int.from_bytes(
        hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little"
    )


def _mix(z: int) -> int:
    """The SplitMix64 finaliser on one 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX_MULT_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_B) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix` on a uint64 array (uint64 products wrap)."""
    z = z ^ (z >> _SHIFT_A)
    z = z * _MULT_A
    z = z ^ (z >> _SHIFT_B)
    z = z * _MULT_B
    return z ^ (z >> _SHIFT_C)


def component_keys(names: Sequence[object]) -> np.ndarray:
    """The BLAKE2 keys of the path components ``names``, as uint64.

    What :func:`fold_keys` folds in: a caller that folds the same
    components again and again may keep this array and pass it instead.
    """
    return np.fromiter(map(_component_key, map(str, names)), np.uint64, len(names))


def fold_keys(keys: np.ndarray, names: Sequence[object] | np.ndarray) -> np.ndarray:
    """One fold step: extend stream ``i`` (key ``keys[i]``) by ``names[i]``.

    Returns the uint64 keys of the child streams, ``mix(key ^
    blake2(name))``; ``keys`` may also be one shared 0-d key, or a column
    that broadcasts against ``names``.  ``names`` may be given as their
    :func:`component_keys` (a uint64 array).  Folding a key that
    :func:`stream_keys` returned by one more component equals asking
    :func:`stream_keys` for the longer path, bit for bit.
    """
    if not (isinstance(names, np.ndarray) and names.dtype == np.uint64):
        names = component_keys(names)
    return _mix_array(keys ^ names)


def _fold_leaves(key: int, parts: Sequence[tuple]) -> np.ndarray:
    """Fold leaves of ONE length onto the prefix key, a component at a time."""
    keys = np.array(key, dtype=np.uint64)
    for column in zip(*parts):
        keys = fold_keys(keys, column)
    if keys.ndim == 0:  # every leaf is ``()``: the prefix stream itself
        keys = np.full(len(parts), key, dtype=np.uint64)
    return keys


def stream_keys(
    base_seed: int, prefix: Sequence[object], leaves: Sequence[object]
) -> np.ndarray:
    """The keys of the streams ``(base_seed, *prefix, *leaf)``, as uint64.

    Each leaf is one path component or a tuple of trailing components
    (``()`` is the prefix stream itself); a list leaf is rejected, since
    it would read as one component.  The prefix is folded once in Python
    integers and the leaves in one vectorised step per component, so
    ``stream_keys(s, ("a",), [("b", "c")])`` equals
    ``stream_keys(s, ("a", "b"), ["c"])`` bit for bit.
    """
    if list in set(map(type, leaves)):
        raise TypeError(
            f"leaf must be a path component or a tuple of them, got a list "
            f"in {list(leaves)!r}"
        )
    key = _mix(_component_key(str(int(base_seed))))
    for name in prefix:
        key = _mix(key ^ _component_key(str(name)))
    parts = [leaf if isinstance(leaf, tuple) else (leaf,) for leaf in leaves]
    lengths = set(map(len, parts))
    if len(lengths) <= 1:
        return _fold_leaves(key, parts)
    keys = np.empty(len(parts), dtype=np.uint64)
    for length in lengths:
        rows = [i for i, part in enumerate(parts) if len(part) == length]
        keys[rows] = _fold_leaves(key, [parts[i] for i in rows])
    return keys


def key_uniforms(keys: np.ndarray, slots: int) -> np.ndarray:
    """Uniform ``[0, 1)`` draws ``0 .. slots - 1`` (at most 2) of keyed streams.

    Returns a ``(slots, len(keys))`` float array; entry ``[j, i]`` is the
    top 53 bits of ``mix(keys[i] + (j + 1) * golden)``, scaled.  A slot
    depends on its key alone, never on how many streams share the call.
    """
    if not 1 <= slots <= len(_SLOT_STEPS):
        raise ValueError(f"slots must be 1 or 2, got {slots}")
    state = _mix_array(keys + _SLOT_STEPS[:slots])
    return (state >> _UNIFORM_SHIFT) * _UNIFORM_SCALE


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
