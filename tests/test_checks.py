"""Acceptance checks as records: one verdict rule, NaN fails wherever it sits,
and the manifest carries each check's value, operator and limit."""

import itertools
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from dfsqc import scenarios
from dfsqc.config import OPS, ScenarioConfig
from dfsqc.scenarios import Check, emit_report, run_scenario

ROOT = Path(__file__).resolve().parents[1]


class TestCheckRecord:
    def test_passed_is_derived_not_stored(self):
        assert "passed" not in {f.name for f in fields(Check)}

    @pytest.mark.parametrize("op, value, limit, passed", [
        ("<=", 0.01, 0.01, True), ("<=", 0.011, 0.01, False),
        ("<", 1e-10, 1e-10, False), ("<", 0.0, 1e-10, True),
        (">=", 1.0, 1.0, True), (">", 1.0, 1.0, False)])
    def test_verdict_is_the_shared_operator(self, op, value, limit, passed):
        assert Check("c", value, op, limit, "v").passed is passed
        assert OPS[op](value, limit) is passed

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_non_finite_value_fails_every_operator(self, value, op):
        assert not Check("c", value, op, 0.0, "v").passed

    def test_detail_writes_value_and_limit_once(self):
        detail = Check("c", 0.00574, "<=", 0.01, "|F - 0.99|").detail
        assert detail == "|F - 0.99|: 0.00574 (limit <= 0.01)"


def nan_on_call(monkeypatch, name, k):
    """Call ``k`` (from 0) of ``dfsqc.scenarios.<name>`` returns its result
    times NaN, or for ``k = (call, i)`` that call's array with NaN at entry
    i; ``k = None`` leaves every call alone."""
    real = getattr(scenarios, name)
    calls = itertools.count()
    call, entry = k if isinstance(k, tuple) else (k, None)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        if next(calls) != call:
            return out
        if entry is None:
            return out * math.nan
        out = out.copy()
        out[entry] = math.nan
        return out

    monkeypatch.setattr(scenarios, name, patched)


G_SWEEP = "kind: g-sweep\nsweep: {points: 3}\n"
FID_SWEEP = "kind: fidelity-sweep\nsweep: {points: 3}\n"
DECOUPLING = ("kind: decoupling\nrealizations: 100\n"
              "echo: {dt_cutoff_product: [0.01, 0.03, 0.1]}\n")
TELEPORT = "kind: protocol-run\nprotocol: teleported-cnot\ntrials: 3\n"
# (check, config, patched function, its calls: first, middle, last)
NAN_CASES = [
    ("fidelity_stability", G_SWEEP, "cz_gate_fidelity", (0, 1, 2)),
    # photon_loss: three rows, then the nine points of the eta scan
    ("eta_scaling", G_SWEEP, "photon_loss", (3, 7, 11)),
    # one call for the scenario: entry 2i is point i's echo variance
    ("mc_matches_analytic", DECOUPLING, "phase_variances", ((0, 0), (0, 2), (0, 4))),
    ("transport_suppression", "kind: transport-noise\n", "suppression_factor", (0, 2, 4)),
    ("cnot_fidelity", TELEPORT, "fidelity", (0, 1, 2)),
    ("branch_independence", TELEPORT, "trace_distance", (0, 1, 2)),
    ("hadamard_fidelity", "kind: protocol-run\nprotocol: hadamard\ntrials: 3\n",
     "fidelity", (0, 1, 2)),
    ("bsm_identification", "kind: protocol-run\nprotocol: bsm\ntrials: 3\n",
     "fidelity", (0, 1, 2)),
    # call 0 is the reference fidelity, calls 1-3 the grid
    ("sweep_monotone", FID_SWEEP, "cz_gate_fidelity", (1, 2, 3)),
    ("fidelity_at_alpha", FID_SWEEP, "cz_gate_fidelity", (0,)),
    # only the five clean inputs score a fidelity; the leak rows' nan is by design
    ("leakage_conclusive", "kind: leakage-demo\nrandom_inputs: 1\n", "fidelity", (0, 2, 4)),
]


def nan_params():
    for check, text, name, calls in NAN_CASES:
        yield pytest.param(check, text, name, None, id=f"{check}-no-nan")
        for where, k in zip(("first", "middle", "last"), calls):
            yield pytest.param(check, text, name, k, id=f"{check}-{where}")


@pytest.mark.parametrize("check, text, name, k", list(nan_params()))
def test_nan_fails_its_check_wherever_it_sits(monkeypatch, check, text, name, k):
    nan_on_call(monkeypatch, name, k)
    cfg = ScenarioConfig.from_yaml(text)
    result = scenarios.RUNNERS[cfg.kind](cfg)
    verdict = {c.name: c.passed for c in result.checks}[check]
    assert verdict is (k is None)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_manifest_check_reads_back_as_its_verdict(tmp_path, path):
    cfg = ScenarioConfig.from_file(path)
    result, paths = run_scenario(cfg, tmp_path)
    checks = json.loads(paths["manifest"].read_text())["checks"]
    assert [c["name"] for c in checks] == [c.name for c in result.checks]
    for c in checks:
        assert math.isfinite(c["value"]) and c["op"] in OPS
        assert c["passed"] is OPS[c["op"]](c["value"], c["limit"])
        assert c["detail"].endswith(f"(limit {c['op']} {c['limit']:g})")


def test_nan_fed_check_reads_back_as_fail(tmp_path, monkeypatch):
    nan_on_call(monkeypatch, "cz_gate_fidelity", 1)
    cfg = ScenarioConfig.from_yaml(G_SWEEP)
    _, paths = run_scenario(cfg, tmp_path)
    check = {c["name"]: c for c in json.loads(paths["manifest"].read_text())["checks"]}
    assert math.isnan(check["fidelity_stability"]["value"])
    assert check["fidelity_stability"]["passed"] is False
    report = emit_report(tmp_path)
    assert "  fidelity_stability: |dF| over the g grid: nan (limit <= 0.02): FAIL" in report
    assert report.endswith("overall: FAIL")
