"""Chaos tests: deterministic fault injection against the batch layer.

Every test installs a :class:`~repro.faults.FaultPlan` in-process
(fork-started pool workers inherit it) and asserts the robustness
contract the plan attacks: a SIGKILLed worker never hangs the batch,
deadline exhaustion produces byte-deterministic error rows, and an
armed but quiescent plan costs nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    arm_from_env,
    current_plan,
    inject,
    install_plan,
)
from repro.flows import BatchConfig, run_batch


@pytest.fixture(autouse=True)
def _disarm():
    """Every test starts disarmed and never leaks its plan."""
    previous = install_plan(None)
    yield
    install_plan(previous)


def _plan(*rules: dict) -> FaultPlan:
    return FaultPlan.from_json(json.dumps({"seed": 7, "faults": list(rules)}))


class TestPlanParsing:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            _plan({"site": "batch.wrker", "action": "kill"})

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault action"):
            _plan({"site": "batch.worker", "action": "explode"})

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault rule field"):
            _plan({"site": "batch.worker", "action": "kill", "when": "now"})

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_non_object_plan_rejected(self):
        with pytest.raises(FaultPlanError, match="JSON object"):
            FaultPlan.from_json("[]")

    def test_roundtrip_preserves_rules(self):
        plan = _plan(
            {"site": "batch.worker", "action": "kill", "match": "c432:1"},
            {"site": "journal.append", "action": "error", "after": 3, "times": 0},
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_json() == plan.to_json()
        assert again.seed == 7

    def test_arm_from_env_installs_and_empty_env_does_not(self):
        assert arm_from_env({}) is None
        assert current_plan() is None
        plan_json = _plan({"site": "batch.worker", "action": "stall"}).to_json()
        installed = arm_from_env({ENV_VAR: plan_json})
        assert installed is not None
        assert current_plan() is installed

    def test_arm_from_env_fails_loudly_on_malformed_plan(self):
        with pytest.raises(FaultPlanError):
            arm_from_env({ENV_VAR: '{"faults": [{"site": "bogus"}]}'})


class TestFiringDiscipline:
    def test_match_after_and_times_gate_the_action(self):
        install_plan(
            _plan(
                {
                    "site": "batch.worker",
                    "action": "error",
                    "match": "f51m:",
                    "after": 1,
                    "times": 1,
                }
            )
        )
        inject("batch.worker", "alu2:1")  # wrong key: never matches
        inject("batch.worker", "f51m:1")  # hit 0 < after: passes
        with pytest.raises(FaultInjected):
            inject("batch.worker", "f51m:2")  # hit 1: fires
        inject("batch.worker", "f51m:3")  # times budget spent: passes
        assert current_plan().stats() == {"rules": 1, "hits": 3, "fired": 1}

    def test_probability_draws_are_seeded_deterministic(self):
        rule = {
            "site": "batch.stage",
            "action": "error",
            "probability": 0.5,
            "times": 0,
        }

        def pattern() -> list[bool]:
            fired = []
            install_plan(_plan(rule))
            for hit in range(32):
                try:
                    inject("batch.stage", f"c432:stage{hit}")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        first, second = pattern(), pattern()
        assert first == second
        assert True in first and False in first  # the coin actually flips


class TestWorkerKill:
    def test_sigkilled_worker_never_hangs_the_batch(self):
        """A plan that SIGKILLs the worker running f51m's first attempt:
        the batch must detect the death, retry, and finish with every
        circuit ok — the exact hang the flight dispatcher exists for."""
        install_plan(
            _plan({"site": "batch.worker", "action": "kill", "match": "f51m:1"})
        )
        report = run_batch(
            ["alu2", "f51m"],
            BatchConfig(workers=2, max_retries=2, retry_backoff=0.01),
        )
        assert [c.benchmark for c in report.circuits] == ["alu2", "f51m"]
        assert all(c.ok for c in report.circuits)
        assert report.worker_deaths >= 1
        assert report.retries >= 1

    def test_error_action_becomes_an_isolated_error_row(self):
        install_plan(
            _plan(
                {"site": "batch.worker", "action": "error", "match": "f51m:1"}
            )
        )
        report = run_batch(["alu2", "f51m"], BatchConfig(workers=1))
        alu2, f51m = report.circuits
        assert alu2.ok
        assert f51m.status == "error"
        assert f51m.error == (
            "FaultInjected: injected fault at batch.worker (f51m:1)"
        )


STALL_F51M = {
    "site": "batch.worker",
    "action": "stall",
    "match": "f51m:",
    "seconds": 0.8,
    "times": 0,
}


class TestDeadlineExhaustion:
    def test_exhausted_circuit_reports_deterministic_timeout_row(self):
        install_plan(_plan(STALL_F51M))
        config = BatchConfig(
            workers=1, circuit_timeout=0.5, max_retries=1, retry_backoff=0.01
        )
        report = run_batch(["f51m"], config)
        (row,) = report.circuits
        assert row.status == "error"
        assert row.reason == "timeout"
        assert row.error == (
            "TimeoutError: exceeded circuit_timeout=0.5s on 2 attempt(s)"
        )
        assert report.timeouts == 2
        assert report.retries == 1

    def test_serial_and_parallel_exhaustion_rows_byte_identical(self):
        """With f51m stalled past the deadline on every attempt, the
        serial (post-hoc) and parallel (preemptive) deadline paths must
        exhaust into the same report bytes."""
        stall = dict(STALL_F51M, seconds=1.5)
        config = dict(circuit_timeout=1.0, max_retries=1, retry_backoff=0.01)
        install_plan(_plan(stall))
        serial = run_batch(["alu2", "f51m"], BatchConfig(workers=1, **config))
        install_plan(_plan(stall))  # fresh counters for the pool run
        parallel = run_batch(["alu2", "f51m"], BatchConfig(workers=2, **config))
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        alu2, f51m = serial.circuits
        assert alu2.ok  # a healthy circuit is untouched by the deadline
        assert f51m.reason == "timeout"
        assert f51m.error == (
            "TimeoutError: exceeded circuit_timeout=1s on 2 attempt(s)"
        )


class TestQuiescentPlan:
    def test_armed_but_quiescent_plan_preserves_byte_identity(self):
        """The golden contract with the fault layer armed: a plan whose
        rules never match must not perturb report bytes for any worker
        count."""
        quiescent = _plan(
            {"site": "batch.worker", "action": "kill", "match": "no-such-bench:"}
        )
        install_plan(quiescent)
        serial = run_batch(["alu2", "f51m"], BatchConfig(workers=1))
        install_plan(quiescent)
        parallel = run_batch(["alu2", "f51m"], BatchConfig(workers=4))
        assert serial.to_json() == parallel.to_json()
        assert all(c.ok for c in serial.circuits)

