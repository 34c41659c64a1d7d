"""Scatter-gather executor: concurrency, timeouts, partial-failure policies."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster.executor import (
    ClusterError,
    DEGRADED,
    FAIL_FAST,
    ScatterGatherExecutor,
    ShardFailedError,
    ShardOutcome,
    ShardTimeoutError,
    resolve_outcomes,
)


@pytest.fixture
def executor():
    return ScatterGatherExecutor()


class TestScatter:
    def test_results_keep_scatter_order(self, executor):
        calls = [(f"s{i}", (lambda v: lambda: v)(i)) for i in range(4)]
        outcomes = executor.scatter(calls)
        assert [o.shard_id for o in outcomes] == ["s0", "s1", "s2", "s3"]
        assert [o.value for o in outcomes] == [0, 1, 2, 3]
        assert all(o.ok for o in outcomes)

    def test_thunks_run_inline_on_the_callers_thread(self, executor):
        caller = threading.current_thread()
        outcomes = executor.scatter(
            [(f"s{i}", lambda: threading.current_thread()) for i in range(3)]
        )
        assert all(o.value is caller for o in outcomes)

    def test_exceptions_become_outcomes(self, executor):
        def boom():
            raise RuntimeError("shard exploded")

        outcomes = executor.scatter([("ok", lambda: 1), ("bad", boom)])
        assert outcomes[0].ok and outcomes[0].value == 1
        assert not outcomes[1].ok
        assert "shard exploded" in str(outcomes[1].error)

    def test_per_shard_timeout(self):
        # A thunk cannot be interrupted; one that overran its budget is
        # still reported as timed out and its result discarded.
        executor = ScatterGatherExecutor(timeout=0.05)
        outcomes = executor.scatter(
            [("fast", lambda: "x"), ("slow", lambda: time.sleep(0.2))]
        )
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, ShardTimeoutError)
        assert outcomes[1].value is None

    def test_each_slow_shard_gets_its_full_budget(self):
        # Regression: the timeout used to be one shared deadline burned from
        # scatter start, so with several slow-but-in-budget shards the later
        # ones inherited ~0s and were misreported as timed out.  Two inline
        # thunks each take 0.3s against a 0.45s per-shard budget: both must
        # succeed even though the second finishes 0.6s after scatter start.
        executor = ScatterGatherExecutor(timeout=0.45)

        def slow():
            time.sleep(0.3)
            return "done"

        outcomes = executor.scatter([("s1", slow), ("s2", slow)])
        assert [o.ok for o in outcomes] == [True, True], [
            (o.shard_id, o.error) for o in outcomes
        ]

    def test_scatter_on_loop_is_the_one_scatter(self):
        assert ScatterGatherExecutor.scatter_on_loop is ScatterGatherExecutor.scatter


class TestPolicies:
    def _outcomes(self, *oks):
        return [
            ShardOutcome(shard_id=f"s{i}", value=i)
            if ok
            else ShardOutcome(shard_id=f"s{i}", error=RuntimeError(f"down {i}"))
            for i, ok in enumerate(oks)
        ]

    def test_all_ok_passes_both_policies(self):
        for policy in (FAIL_FAST, DEGRADED):
            result = resolve_outcomes("op", self._outcomes(True, True), policy=policy)
            assert result.values == (0, 1)
            assert not result.degraded

    def test_fail_fast_raises_on_any_failure(self):
        with pytest.raises(ShardFailedError) as excinfo:
            resolve_outcomes("op", self._outcomes(True, False), policy=FAIL_FAST)
        assert excinfo.value.failed_shard_ids == ("s1",)
        assert "down 1" in str(excinfo.value)

    def test_degraded_serves_the_survivors(self):
        result = resolve_outcomes(
            "op", self._outcomes(True, False, True), policy=DEGRADED
        )
        assert result.values == (0, 2)
        assert result.degraded
        assert result.missing_shard_ids == ("s1",)

    def test_degraded_still_fails_when_no_shard_answered(self):
        with pytest.raises(ShardFailedError):
            resolve_outcomes("op", self._outcomes(False, False), policy=DEGRADED)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ClusterError):
            resolve_outcomes("op", self._outcomes(True), policy="optimistic")

    def test_gather_combines_scatter_and_policy(self, executor):
        with pytest.raises(ShardFailedError):
            executor.gather(
                "op",
                [("ok", lambda: 1), ("bad", lambda: 1 / 0)],
                policy=FAIL_FAST,
            )
        result = executor.gather(
            "op",
            [("ok", lambda: 1), ("bad", lambda: 1 / 0)],
            policy=DEGRADED,
        )
        assert result.values == (1,)
        assert result.missing_shard_ids == ("bad",)
