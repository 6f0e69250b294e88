"""Unit tests for the serve wire format (submission validation and
status payloads)."""

from __future__ import annotations

import json

import pytest

from repro.api import InputItem
from repro.serve import Job, JobRequest, WireError, job_payload, parse_submission


def _body(**payload) -> bytes:
    return json.dumps(payload).encode()


class TestParseSubmission:
    def test_minimal_submission_gets_defaults(self):
        request = parse_submission(_body(circuits=["alu2"]))
        assert request == JobRequest(circuits=("alu2",))
        assert request.flow == "bds-maj"
        assert request.workers == 1
        assert request.priority == 0

    def test_single_string_circuit_is_accepted(self):
        assert parse_submission(_body(circuits="alu2")).circuits == ("alu2",)

    def test_all_fields(self):
        request = parse_submission(
            _body(
                circuits=["alu2", "f51m"],
                flow="dc",
                workers=4,
                verify=True,
                priority=-5,
            )
        )
        assert request.flow == "dc"
        assert request.workers == 4
        assert request.verify is True
        assert request.priority == -5

    def test_rejects_non_json(self):
        with pytest.raises(WireError, match="not valid JSON"):
            parse_submission(b"circuits=alu2")

    def test_rejects_non_object(self):
        with pytest.raises(WireError, match="JSON object"):
            parse_submission(b"[1, 2]")

    def test_rejects_unknown_fields(self):
        with pytest.raises(WireError, match="unknown submission fields: flows"):
            parse_submission(_body(circuits=["alu2"], flows="bds-maj"))

    @pytest.mark.parametrize("circuits", [None, [], [""], [1], ""])
    def test_rejects_bad_circuits(self, circuits):
        with pytest.raises(WireError, match="circuits"):
            parse_submission(_body(circuits=circuits))

    def test_rejects_unknown_flow(self):
        with pytest.raises(WireError, match="unknown batch flow"):
            parse_submission(_body(circuits=["alu2"], flow="mig"))

    def test_rejects_non_string_flow(self):
        with pytest.raises(WireError, match="'flow' must be a string"):
            parse_submission(_body(circuits=["alu2"], flow=7))

    def test_rejects_unknown_cache_policy(self):
        """The op cache has one eviction rule, so a body still naming a
        policy is a client error, not a silently ignored knob."""
        with pytest.raises(WireError) as excinfo:
            parse_submission(_body(circuits=["alu2"], cache_policy="fifo"))
        assert excinfo.value.status == 400
        assert str(excinfo.value) == (
            "unknown submission fields: cache_policy "
            "(known: circuits, flow, priority, verify, workers)"
        )

    def test_rejects_reorder_field(self):
        """One sift per supernode is the only reordering, so a body
        still naming a policy is a client error too."""
        with pytest.raises(WireError) as excinfo:
            parse_submission(_body(circuits=["alu2"], reorder="once"))
        assert excinfo.value.status == 400
        assert str(excinfo.value) == (
            "unknown submission fields: reorder "
            "(known: circuits, flow, priority, verify, workers)"
        )

    @pytest.mark.parametrize("workers", [0, -2, "4", 1.5, True])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(WireError, match="workers"):
            parse_submission(_body(circuits=["alu2"], workers=workers))

    @pytest.mark.parametrize("capacity", [0, -1, "big", False, 4096])
    def test_rejects_bad_cache_capacity(self, capacity):
        """The op-cache size is a constant of the BDD package, so a
        body still naming a capacity is a client error, whether or not
        the value used to be valid."""
        with pytest.raises(WireError) as excinfo:
            parse_submission(_body(circuits=["alu2"], cache_capacity=capacity))
        assert excinfo.value.status == 400
        assert str(excinfo.value) == (
            "unknown submission fields: cache_capacity "
            "(known: circuits, flow, priority, verify, workers)"
        )

    def test_rejects_non_integer_priority(self):
        with pytest.raises(WireError, match="priority"):
            parse_submission(_body(circuits=["alu2"], priority="high"))

    def test_rejects_non_boolean_verify(self):
        with pytest.raises(WireError, match="verify"):
            parse_submission(_body(circuits=["alu2"], verify="yes"))


class TestJobPayload:
    def test_payload_shape(self):
        request = JobRequest(circuits=("alu2",), priority=3)
        job = Job("job-000007", request, [InputItem(name="alu2")])
        payload = job_payload(job)
        assert payload["id"] == "job-000007"
        assert payload["status"] == "queued"
        assert payload["circuits"] == ["alu2"]
        assert payload["priority"] == 3
        assert payload["error"] is None
        assert payload["result_ready"] is False
        assert payload["cancel_requested"] is False
        assert payload["events"] == 1  # the "queued" state event
