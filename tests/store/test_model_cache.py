"""Store-backed model building: warm replays are bit-identical to cold."""

import json
import math

import pytest

from repro.core.serialization import fpm_to_dict
from repro.experiments.common import make_app
from repro.measurement.fpm_builder import FpmBuilder, SizeGrid
from repro.measurement.online import PartialFpmBuilder, online_partition
from repro.obs import Tracer, use_tracer
from repro.store import ResultStore, use_store


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestFpmBuilderCache:
    def test_warm_build_is_bit_identical(self, quiet_bench, store):
        builder = FpmBuilder(quiet_bench)
        kernel = quiet_bench.socket_kernel(0, 5)
        grid = SizeGrid.geometric(4.0, 400.0, 6)
        cold = builder.build(kernel, grid, adaptive=True, name="s5")
        with use_store(store):
            miss = builder.build(kernel, grid, adaptive=True, name="s5")
            hit = builder.build(kernel, grid, adaptive=True, name="s5")
        assert fpm_to_dict(cold) == fpm_to_dict(miss) == fpm_to_dict(hit)
        assert len(store.entries("fpm")) == 1

    def test_changed_grid_rebuilds(self, quiet_bench, store):
        builder = FpmBuilder(quiet_bench)
        kernel = quiet_bench.socket_kernel(0, 5)
        with use_store(store):
            builder.build(kernel, SizeGrid.geometric(4.0, 400.0, 6), name="s5")
            builder.build(kernel, SizeGrid.geometric(4.0, 400.0, 7), name="s5")
        assert len(store.entries("fpm")) == 2

    def test_contention_state_participates(self, quiet_bench, store):
        builder = FpmBuilder(quiet_bench)
        kernel = quiet_bench.gpu_kernel(0)
        grid = SizeGrid.geometric(8.0, 200.0, 4)
        with use_store(store):
            a = builder.build(kernel, grid, busy_cpu_cores=0)
            b = builder.build(kernel, grid, busy_cpu_cores=4)
        assert len(store.entries("fpm")) == 2
        assert a.speed(100.0) != b.speed(100.0)

    def test_app_models_replay_through_the_store(self, fast_config, store):
        cold = make_app(fast_config)
        with use_store(store):
            first = make_app(fast_config)
            tracer = Tracer()
            with use_tracer(tracer):
                warm = make_app(fast_config)
        for name in cold._models:
            assert fpm_to_dict(warm._models[name]) == fpm_to_dict(cold._models[name])
            assert fpm_to_dict(first._models[name]) == fpm_to_dict(cold._models[name])
        metrics = tracer.metrics.snapshot()
        assert metrics["store.hit"] == len(cold._models)
        assert "store.miss" not in metrics


def _set_second_speed(value):
    def tamper(samples):
        samples[1]["speed"] = value

    return tamper


#: Payload edits the store cannot see (its digest covers the key, not the
#: payload) but the model decoder rejects.
TAMPERED = {
    "nan-speed": _set_second_speed(math.nan),
    "infinite-speed": _set_second_speed(math.inf),
    "negative-speed": _set_second_speed(-1.0),
    "unsorted-sizes": list.reverse,
    "no-samples": list.clear,
}


@pytest.mark.parametrize("tamper", TAMPERED.values(), ids=TAMPERED.keys())
def test_tampered_fpm_payload_is_a_miss_and_rebuilt(quiet_bench, store, tamper):
    builder = FpmBuilder(quiet_bench)
    kernel = quiet_bench.socket_kernel(0, 5)
    grid = SizeGrid.geometric(4.0, 400.0, 6)
    with use_store(store):
        cold = builder.build(kernel, grid, name="s5")
    (path,) = store.entries("fpm")
    envelope = json.loads(path.read_text(encoding="utf-8"))
    tamper(envelope["payload"]["samples"])
    path.write_text(json.dumps(envelope), encoding="utf-8")

    tracer = Tracer()
    with use_store(store), use_tracer(tracer):
        rebuilt = builder.build(kernel, grid, name="s5")
    assert fpm_to_dict(rebuilt) == fpm_to_dict(cold)
    assert tracer.metrics.snapshot()["store.corrupt"] == 1
    # the rebuild overwrote the bad entry
    repaired = json.loads(path.read_text(encoding="utf-8"))
    assert repaired["payload"] == fpm_to_dict(cold)


class TestOnlinePartitionCache:
    def _builders(self, bench):
        kernel = bench.socket_kernel(0, 5)
        other = bench.socket_kernel(1, 6)
        return [
            PartialFpmBuilder(bench=bench, kernel=kernel, name="s5"),
            PartialFpmBuilder(bench=bench, kernel=other, name="s6"),
        ]

    def test_warm_run_replays_the_history(self, quiet_bench, store):
        cold = online_partition(self._builders(quiet_bench), 900)
        with use_store(store):
            miss = online_partition(self._builders(quiet_bench), 900)
            warm = online_partition(self._builders(quiet_bench), 900)
        assert miss == cold
        assert warm == cold
        assert len(store.entries("partition")) == 1

    def test_prewarmed_builders_bypass_the_cache(self, quiet_bench, store):
        with use_store(store):
            online_partition(self._builders(quiet_bench), 900)
            warmed = self._builders(quiet_bench)
            for b in warmed:
                b.bootstrap(4.0, 900.0)
            online_partition(warmed, 900)
        # the pre-warmed run must not have added a second entry
        assert len(store.entries("partition")) == 1

    def test_loop_parameters_participate(self, quiet_bench, store):
        with use_store(store):
            online_partition(self._builders(quiet_bench), 900)
            online_partition(self._builders(quiet_bench), 900, max_rounds=5)
            online_partition(self._builders(quiet_bench), 901)
        assert len(store.entries("partition")) == 3
