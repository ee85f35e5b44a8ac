"""Content-addressed cache keys: canonical JSON + BLAKE2 digests.

Every cached artifact is addressed by a digest of its *inputs*: the
hardware description (:class:`~repro.platform.spec.NodeSpec`), the
experiment configuration, any extra parameters of the producing call,
and a code-version salt.  Two runs with identical inputs map to the same
digest; changing any field of any input — a GPU's bandwidth, the seed,
the ``fast`` flag — changes the digest, so stale artifacts are simply
never found (invalidation by construction, paper Section III's
"measurements are only comparable under identical conditions").

The salt folds in :data:`repro.__version__` plus a manually bumped
schema tag (:data:`STORE_SCHEMA`), so upgrading the library or changing
what a cached payload means orphans every old entry instead of
replaying it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any

#: Bump when the *meaning* of cached payloads changes (not just the code).
#: 2: noise, fault and drift draws come from counter-based streams.
STORE_SCHEMA = 2

#: Hex digest length (BLAKE2b, 16-byte digests — plenty for a local cache).
_DIGEST_SIZE = 16


def code_salt() -> str:
    """The code-version salt mixed into every digest."""
    from repro import __version__

    return f"repro-{__version__}-schema{STORE_SCHEMA}"


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, dataclasses flattened.

    ``NaN``/``Infinity`` are rejected — a key containing them would not be
    canonical (``NaN != NaN``), so callers must not put them in keys.
    """
    return json.dumps(
        _plain(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise value of type {type(value).__name__}")


def digest_key(kind: str, key: Any, salt: str | None = None) -> str:
    """The content address of one artifact: BLAKE2b over kind+key+salt."""
    if salt is None:
        salt = code_salt()
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(kind.encode("utf-8"))
    h.update(b"\x00")
    h.update(canonical_json(key).encode("utf-8"))
    h.update(b"\x00")
    h.update(salt.encode("utf-8"))
    return h.hexdigest()


def node_key(node: Any) -> dict:
    """A NodeSpec (or any spec dataclass) as a canonical key fragment.

    Every field participates, so *any* changed hardware parameter — core
    count, bandwidth, interference drop — produces a different digest.
    """
    plain = _plain(node)
    if not isinstance(plain, dict):
        raise TypeError(f"expected a spec dataclass, got {type(node).__name__}")
    return plain


def bench_key(bench: Any) -> dict:
    """A benchmark facade as a key fragment: node + everything stochastic.

    The simulated measurements depend on the node's hardware description,
    the RNG seed, the noise level, and the reliability criterion's
    stopping rule — nothing else — so these four pin a benchmark's output
    exactly.
    """
    return {
        "node": node_key(bench.node),
        "seed": bench.seed,
        "noise_sigma": bench.noise_sigma,
        "criterion": _plain(bench.criterion),
    }


def kernel_key(kernel: Any) -> dict:
    """A kernel as a key fragment.

    Kernel names encode their full configuration (device, active cores,
    contention flag, GPU version), and the valid range pins boundedness;
    device behaviour itself is covered by the accompanying
    :func:`bench_key`.  Infinite range bounds are canonicalised to the
    string ``"inf"`` (canonical JSON rejects non-finite floats).
    """
    rng = kernel.valid_range
    return {
        "type": type(kernel).__name__,
        "name": kernel.name,
        "block_size": kernel.block_size,
        "range": [
            b if math.isfinite(b) else "inf"
            for b in (rng.min_blocks, rng.max_blocks)
        ],
    }


def models_key(models: list) -> list:
    """Performance models as a key fragment (samples are the content)."""
    out = []
    for m in models:
        samples = getattr(m, "speed_function", m)
        out.append(
            {
                "name": getattr(m, "name", ""),
                "bounded": bool(getattr(samples, "bounded", False)),
                "samples": [
                    [s.size, s.speed] for s in getattr(samples, "samples", ())
                ],
            }
        )
    return out
