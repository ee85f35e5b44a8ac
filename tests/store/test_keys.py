"""Key derivation: canonical JSON, digests, and input sensitivity."""

import dataclasses
import math

import pytest

import repro.store.keys as keys_module
from repro.measurement.benchmark import HybridBenchmark
from repro.store import (
    bench_key,
    canonical_json,
    code_salt,
    digest_key,
    kernel_key,
    node_key,
)


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_dataclasses_flatten(self):
        @dataclasses.dataclass(frozen=True)
        class P:
            x: int
            y: tuple

        assert canonical_json(P(1, (2, 3))) == canonical_json({"x": 1, "y": [2, 3]})

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"bad": math.nan})
        with pytest.raises(ValueError):
            canonical_json([math.inf])

    def test_unserialisable_values_are_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"f": lambda: None})


class TestDigestKey:
    def test_deterministic(self):
        assert digest_key("fpm", {"a": 1}) == digest_key("fpm", {"a": 1})

    def test_kind_participates(self):
        assert digest_key("fpm", {"a": 1}) != digest_key("result", {"a": 1})

    def test_salt_participates(self):
        assert digest_key("fpm", {"a": 1}, "s1") != digest_key("fpm", {"a": 1}, "s2")

    def test_default_salt_is_code_salt(self):
        assert digest_key("fpm", {}) == digest_key("fpm", {}, code_salt())

    def test_schema_bump_moves_every_key(self, monkeypatch):
        """Schema 2 (counter-based noise streams) never replays schema-1 payloads."""
        key = {"seed": 42, "noise": 0.02, "fast": False}
        assert keys_module.STORE_SCHEMA == 2
        current = digest_key("result", key)
        monkeypatch.setattr(keys_module, "STORE_SCHEMA", 1)
        assert code_salt().endswith("-schema1")
        assert digest_key("result", key) != current

    def test_any_key_field_change_changes_the_digest(self):
        base = {"seed": 42, "noise": 0.02, "fast": False}
        d0 = digest_key("result", base)
        for field, value in (("seed", 43), ("noise", 0.021), ("fast", True)):
            assert digest_key("result", {**base, field: value}) != d0


class TestSpecKeys:
    def test_node_key_covers_every_field(self, node):
        plain = node_key(node)
        assert plain["block_size"] == node.block_size
        assert plain["num_sockets"] == node.num_sockets
        assert len(plain["gpus"]) == len(node.gpus)

    def test_changed_hardware_changes_the_digest(self, node):
        faster = dataclasses.replace(node, block_size=node.block_size * 2)
        assert digest_key("fpm", node_key(node)) != digest_key("fpm", node_key(faster))

    def test_bench_key_pins_seed_noise_and_criterion(self, node):
        a = bench_key(HybridBenchmark(node, seed=1, noise_sigma=0.01))
        b = bench_key(HybridBenchmark(node, seed=2, noise_sigma=0.01))
        c = bench_key(HybridBenchmark(node, seed=1, noise_sigma=0.02))
        assert a != b and a != c
        assert "criterion" in a and a["criterion"]["min_repetitions"] >= 1

    def test_kernel_key_distinguishes_kernels(self, bench):
        cpu = kernel_key(bench.socket_kernel(0, 5))
        cpu_contended = kernel_key(bench.socket_kernel(0, 5, gpu_active=True))
        gpu = kernel_key(bench.gpu_kernel(0, version=3))
        assert cpu != cpu_contended
        assert cpu != gpu

    def test_kernel_key_canonicalises_infinite_ranges(self, bench):
        key = kernel_key(bench.socket_kernel(0, 5))
        canonical_json(key)  # must not raise even for unbounded kernels
