"""Reorder-policy threading: config → flow → batch → CLI → serve wire.

The policy surface is one string (``none|once|converge|dynamic``)
validated at every entry point; ``once`` is the published default whose
outputs the golden test pins byte-identical.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main as cli_main
from repro.flows import REORDER_POLICIES, BatchConfig, run_batch
from repro.flows.bds import BdsFlowConfig, normalize_reorder_policy
from repro.serve import JobRequest, WireError, parse_submission


class TestNormalization:
    def test_policies(self):
        assert REORDER_POLICIES == ("none", "once", "converge", "dynamic")
        for policy in REORDER_POLICIES:
            assert normalize_reorder_policy(policy) == policy

    def test_rejects_unknown(self):
        # Booleans and None included: the policy is only ever a name.
        for value in ("sometimes", True, False, None):
            with pytest.raises(ValueError):
                normalize_reorder_policy(value)
            with pytest.raises(ValueError):
                BdsFlowConfig(reorder=value)
            with pytest.raises(ValueError):
                BatchConfig(reorder=value)


class TestBatchPolicies:
    @pytest.mark.parametrize("policy", REORDER_POLICIES)
    def test_every_policy_synthesizes_cleanly(self, policy):
        report = run_batch(["alu2"], BatchConfig(reorder=policy, verify=True))
        circuit = report.circuits[0]
        assert circuit.ok
        assert circuit.verified is True

    def test_converge_never_worse_than_once(self):
        once = run_batch(["alu2"], BatchConfig(reorder="once"))
        converge = run_batch(["alu2"], BatchConfig(reorder="converge"))
        assert converge.circuits[0].total_nodes <= once.circuits[0].total_nodes

    def test_none_differs_from_default_but_default_is_once(self):
        default = run_batch(["alu2"], BatchConfig())
        once = run_batch(["alu2"], BatchConfig(reorder="once"))
        none = run_batch(["alu2"], BatchConfig(reorder="none"))
        assert default.to_json() == once.to_json()
        assert none.circuits[0].steps["sifted"] == 0
        assert default.circuits[0].steps["sifted"] > 0


class TestCli:
    def test_batch_reorder_flag(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        assert (
            cli_main(
                [
                    "batch",
                    "--benchmarks",
                    "alu2",
                    "--reorder",
                    "converge",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        payload = json.loads(output.read_text())
        assert payload["summary"]["failed"] == 0

    def test_batch_rejects_unknown_reorder(self):
        with pytest.raises(SystemExit):
            cli_main(["batch", "--benchmarks", "alu2", "--reorder", "sometimes"])


class TestServeWire:
    def test_reorder_field_round_trips(self):
        request = parse_submission(
            json.dumps({"circuits": ["alu2"], "reorder": "dynamic"}).encode()
        )
        assert request.reorder == "dynamic"
        assert request.batch_config().reorder == "dynamic"

    def test_default_is_once(self):
        request = parse_submission(json.dumps({"circuits": ["alu2"]}).encode())
        assert request.reorder == "once"

    def test_rejects_bad_reorder_values(self):
        with pytest.raises(WireError):
            parse_submission(
                json.dumps({"circuits": ["alu2"], "reorder": "sometimes"}).encode()
            )
        with pytest.raises(WireError):
            parse_submission(
                json.dumps({"circuits": ["alu2"], "reorder": 3}).encode()
            )
        with pytest.raises(ValueError):
            JobRequest(circuits=("alu2",), reorder="sometimes").batch_config()
