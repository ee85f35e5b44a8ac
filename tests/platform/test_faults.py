"""Deterministic fault injection: spec grammar, seeding, batch equivalence."""

import pickle

import numpy as np
import pytest

from repro.platform.faults import (
    HEALTHY,
    DeviceDrop,
    DeviceFaults,
    FaultPlan,
    FaultSpec,
    KernelFaultError,
    RetryPolicy,
    parse_fault_spec,
)
from tests.oracles import platform_events as oracle


class TestSpecGrammar:
    def test_full_spec_round_trip(self):
        spec = parse_fault_spec(
            "fail:GeForce GTX680:p=0.05,code=13; spike:*:p=0.01,x=8; "
            "drop:Tesla C870:t=1.5"
        )
        gtx = spec.for_device("GeForce GTX680")
        assert gtx.fail_prob == 0.05
        assert gtx.error_code == 13
        anything = spec.for_device("socket0:c5")
        assert anything.spike_prob == 0.01
        assert anything.spike_factor == 8.0
        assert spec.drops() == (DeviceDrop(time_s=1.5, device="Tesla C870"),)

    def test_empty_spec_is_inert(self):
        spec = parse_fault_spec("")
        assert spec.inert
        assert spec.for_device("anything") is HEALTHY

    def test_same_device_clauses_merge(self):
        spec = parse_fault_spec("fail:gpu0:p=0.2; spike:gpu0:p=0.1,x=4; drop:gpu0:t=2")
        faults = spec.for_device("gpu0")
        assert faults.fail_prob == 0.2
        assert faults.spike_prob == 0.1
        assert faults.spike_factor == 4.0
        assert faults.drop_time_s == 2.0

    def test_substring_matches_kernel_names(self):
        # kernel names embed their device; a rule naming the bare device
        # must reach the kernel's invocations
        spec = parse_fault_spec("fail:Tesla C870:p=1")
        assert spec.for_device("gpu-gemm-v3[ig.icl.utk.edu.Tesla C870]").fail_prob == 1.0
        assert spec.for_device("gpu-gemm-v3[ig.icl.utk.edu.GeForce GTX680]").inert

    def test_exact_match_beats_wildcard(self):
        spec = parse_fault_spec("fail:*:p=1; fail:gpu0:p=0")
        assert spec.for_device("gpu0").fail_prob == 0.0
        assert spec.for_device("gpu1").fail_prob == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus",
            "explode:gpu0:p=1",
            "fail::p=1",
            "fail:gpu0:code=13",  # missing p
            "spike:gpu0:x=4",  # missing p
            "drop:gpu0:p=1",  # wrong param
            "drop:*:t=1",  # wildcard drop
            "fail:gpu0:p=oops",
            "fail:gpu0:p",
        ],
    )
    def test_bad_clauses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    @pytest.mark.parametrize("code", ["inf", "-inf", "nan", "13.7"])
    def test_code_must_be_a_finite_integer(self, code):
        clause = f"fail:gpu0:p=0.1,code={code}"
        with pytest.raises(ValueError) as info:
            parse_fault_spec(clause)
        assert str(info.value) == (
            f"bad fault parameter value {code!r} in clause {clause!r}"
        )

    def test_whole_float_code_is_accepted(self):
        faults = parse_fault_spec("fail:gpu0:p=0.1,code=13.0").for_device("gpu0")
        assert faults.error_code == 13 and isinstance(faults.error_code, int)

    def test_bad_code_fails_the_experiment_config_fast(self):
        from repro.experiments.common import ExperimentConfig

        with pytest.raises(ValueError, match="in clause 'fail:a:p=1,code=inf'"):
            ExperimentConfig(faults="fail:a:p=1,code=inf")

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_spike_factor_must_be_finite(self, x):
        with pytest.raises(ValueError, match="spike_factor"):
            parse_fault_spec(f"spike:a:p=0.1,x={x}")
        with pytest.raises(ValueError, match="spike_factor"):
            DeviceFaults(spike_prob=0.1, spike_factor=float(x))

    def test_device_faults_validation(self):
        with pytest.raises(ValueError):
            DeviceFaults(fail_prob=1.5)
        with pytest.raises(ValueError):
            DeviceFaults(spike_factor=0.5)
        with pytest.raises(ValueError):
            DeviceDrop(time_s=-1.0, device="gpu0")
        with pytest.raises(ValueError, match="concrete device"):
            DeviceDrop(time_s=1.0, device="*")


class TestRetryPolicy:
    def test_exponential_backoff(self):
        retry = RetryPolicy(max_retries=3, backoff_base_s=0.002, backoff_factor=2.0)
        assert retry.backoff_s(1) == 0.002
        assert retry.backoff_s(2) == 0.004
        assert retry.backoff_s(3) == 0.008

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultPlan.from_spec("fail:gpu:p=0.3; spike:gpu:p=0.2,x=5", seed=11)
        b = FaultPlan.from_spec("fail:gpu:p=0.3; spike:gpu:p=0.2,x=5", seed=11)
        outcomes_a = [a.kernel_outcome("gpu", "x10", f"r{i}", "a0") for i in range(40)]
        outcomes_b = [b.kernel_outcome("gpu", "x10", f"r{i}", "a0") for i in range(40)]
        assert outcomes_a == outcomes_b
        assert any(o.failed for o in outcomes_a)
        assert any(o.spike_factor > 1.0 for o in outcomes_a)

    def test_different_seeds_differ(self):
        a = FaultPlan.from_spec("fail:gpu:p=0.5", seed=1)
        b = FaultPlan.from_spec("fail:gpu:p=0.5", seed=2)
        seq_a = [a.kernel_outcome("gpu", f"r{i}").failed for i in range(64)]
        seq_b = [b.kernel_outcome("gpu", f"r{i}").failed for i in range(64)]
        assert seq_a != seq_b

    def test_attempts_draw_independently(self):
        # a rep that fails on attempt 0 can succeed on attempt 1 — the
        # attempt is part of the stream path
        plan = FaultPlan.from_spec("fail:gpu:p=0.5", seed=3)
        flips = [
            (
                plan.kernel_outcome("gpu", f"r{i}", "a0").failed,
                plan.kernel_outcome("gpu", f"r{i}", "a1").failed,
            )
            for i in range(64)
        ]
        assert any(first and not second for first, second in flips)

    def test_inert_plan_never_hashes(self):
        plan = FaultPlan.from_spec("", seed=1)
        assert plan.inert
        assert plan.kernel_outcome("gpu", "r0").clean

    def test_batch_bit_identical_to_scalar(self):
        plan = FaultPlan.from_spec("fail:gpu:p=0.3,code=13; spike:gpu:p=0.2,x=6", seed=9)
        context = ("x50.0", "busy2")
        rep_keys = [(f"r{i}", "a0") for i in range(50)]
        failed, factors, code = plan.kernel_outcomes_batch("gpu", context, rep_keys)
        assert code == 13
        for i, key in enumerate(rep_keys):
            walked = oracle.kernel_outcome(plan, "gpu", *context, *key)
            assert plan.kernel_outcome("gpu", *context, *key) == walked
            assert bool(failed[i]) == walked.failed
            assert float(factors[i]) == walked.spike_factor
        assert failed.any() and (factors > 1.0).any()
        # spikes never land on failed entries (the walk short-circuits)
        assert not np.any(failed & (factors > 1.0))

    def test_drops_sorted_by_time(self):
        plan = FaultPlan.from_spec("drop:b:t=2; drop:a:t=1", seed=1)
        assert plan.device_drops() == (
            DeviceDrop(time_s=1.0, device="a"),
            DeviceDrop(time_s=2.0, device="b"),
        )


class TestKernelFaultError:
    def test_message_carries_device_code_context(self):
        err = KernelFaultError("gpu0", 13, ("x50.0", "r2", "a1"))
        assert "gpu0" in str(err)
        assert "error code 13" in str(err)
        assert "x50.0/r2/a1" in str(err)
        assert err.device == "gpu0"
        assert err.code == 13

    def test_pickle_round_trip(self):
        # pooled orchestrator workers send this exception across a
        # ProcessPoolExecutor; a lossy reduce would break the whole pool
        err = KernelFaultError("gpu0", 13, ("x50.0", "r2", "a1"))
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, KernelFaultError)
        assert (clone.device, clone.code, clone.context) == (
            err.device,
            err.code,
            err.context,
        )
        assert str(clone) == str(err)


class TestFaultSpecEquality:
    def test_specs_are_value_objects(self):
        assert FaultSpec() == parse_fault_spec("")
        assert parse_fault_spec("fail:g:p=0.1") == parse_fault_spec("fail:g:p=0.1")

    def test_text_and_parsed_spec_build_the_same_plan(self):
        a = FaultPlan.from_spec("fail:g:p=0.1", seed=4)
        b = FaultPlan.from_spec(parse_fault_spec("fail:g:p=0.1"), seed=4)
        assert a.spec == b.spec
        assert (a.rng.seed, a.rng.path) == (b.rng.seed, b.rng.path)
