"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first, block = generate(workload, 7, 20)
    again, _ = generate(workload, 7, 20)
    other, _ = generate(workload, 8, 20)
    assert first == again
    assert first != other
    assert len(first) % block == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_validate(workload):
    from dfsqc.config import ScenarioConfig

    configs, _ = generate(workload, 3, 20)
    for raw in configs:
        ScenarioConfig.from_dict(raw)
    assert len({c["name"] for c in configs}) == len(configs)


def test_cavity_scenarios_share_no_pulse():
    configs, _ = generate("cavity-sweeps", 5, 20)
    pulses = {c["pulse"]["duration_over_kappa"] for c in configs}
    assert len(pulses) == len(configs)


def test_tail_is_highest_order_statistic_with_ten_beyond():
    samples = [float(v) for v in range(30, 0, -1)]  # 1..30, unsorted
    value, pct = run.tail_percentile(samples)
    assert value == 20.0
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail_percentile([5.0] * 10 + [1.0]) == (1.0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_self_time_subtracts_nested_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def _write(tmp_path, cfg):
    path = tmp_path / f"{cfg['name']}.yaml"
    path.write_text(json.dumps(cfg), encoding="utf-8")  # JSON is valid YAML
    return str(path)


def test_failed_frac_counts_failed_check_and_nonzero_exit(tmp_path):
    good = _write(tmp_path, {"kind": "protocol-run", "name": "good", "seed": 1,
                             "protocol": "bsm", "trials": 4})
    # A Lorentzian spectrum fails the suppression_slope check (exit 4).
    failed_check = _write(tmp_path, {
        "kind": "decoupling", "name": "lorentzian", "seed": 1,
        "noise": {"model": "lorentzian"}, "realizations": 200,
        "echo": {"dt_cutoff_product": [0.01, 0.1]}})
    # An unknown noise model is an invalid config (exit 2).
    bad_exit = _write(tmp_path, {"kind": "decoupling", "name": "bad", "seed": 1,
                                 "noise": {"model": "pink"}})
    out = str(tmp_path / "out")
    records = [child.simulate(p, out) for p in (good, failed_check, bad_exit)]
    assert [r["rc"] for r in records] == [0, 4, 2]
    assert [r["ok"] for r in records] == [True, False, False]
    assert records[0]["rows"] == 4 and len(records[0]["sha256"]) == 64
    records = records * 4  # the tail rule needs eleven samples or more
    assert run.failed_count(records) == 8
    metrics = run.end_to_end(records, [1.0], 1024)
    assert metrics["ok_frac"] == pytest.approx(1.0 - 8 / 12)
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_traced_run_matches_untraced_and_benchmark_json(tmp_path):
    import dfsqc.protocols
    import dfsqc.register

    orig = dfsqc.register.measure
    path = _write(tmp_path, {"kind": "protocol-run", "name": "t", "seed": 2,
                             "protocol": "teleported-cnot", "trials": 2})
    plain = child.simulate(path, str(tmp_path / "plain"))
    tracer = Tracer()
    tracer.install()
    try:
        assert dfsqc.protocols.measure is dfsqc.register.measure is not orig
        traced = child.simulate(path, str(tmp_path / "traced"), tracer)
    finally:
        tracer.uninstall()
    assert dfsqc.protocols.measure is dfsqc.register.measure is orig
    assert plain["ok"] and traced["ok"]
    assert plain["sha256"] == traced["sha256"]

    metrics, consistent = summarize(tracer.spans, [traced["wall"]], tracer)
    assert consistent
    assert metrics["share.cavity"] == 0.0
    assert metrics["register.measure.calls"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(names) == set(metrics) | {"trace.overhead_s"}
    assert all(run.layer_unit(n) == u for n, u in names.items())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
