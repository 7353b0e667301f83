"""Configuration handling, artifact reproducibility, exit codes, reports."""

import concurrent.futures
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import dfsqc
from dfsqc.cavity import CavityParams
from dfsqc.cli import main
from dfsqc.config import (
    ROWS,
    SCHEMA,
    SEED,
    Bound,
    ConfigError,
    ScenarioConfig,
    default_of,
    rate_to_internal,
    rate_to_mhz,
)
from dfsqc.noise import NoiseSpectrum
from dfsqc.scenarios import emit_report, run_decoupling, run_scenario

ROOT = Path(__file__).resolve().parents[1]

FID_CFG = """\
kind: fidelity-sweep
name: czfid
seed: 777
physics:
  g_mhz: 27.0
  kappa_mhz: 2.4
  gamma_mhz: 2.6
pulse:
  duration_over_kappa: 200.0
  alpha: 1.26
  kind: odd_cat
sweep:
  start: 0.4
  stop: 2.4
  points: 6
"""

LEAK_CFG = """\
kind: leakage-demo
name: leakcheck
seed: 31
random_inputs: 5
"""

TRANSPORT_BAD_CFG = """\
kind: transport-noise
name: toofast
seed: 1
sweep:
  start: 2.0
  stop: 3.0
  points: 2
"""

G_SWEEP_CFG = """\
kind: g-sweep
name: gsweep
seed: 3
sweep:
  points: 3
"""

DECOUPLING_CFG = """\
kind: decoupling
name: echo
seed: 9
realizations: 300
echo:
  dt_cutoff_product: [0.02, 0.05, 0.1]
"""

# one small config per scenario kind, every protocol included
SMALL_CFGS = [FID_CFG, LEAK_CFG, TRANSPORT_BAD_CFG, G_SWEEP_CFG, DECOUPLING_CFG] + [
    f"kind: protocol-run\nname: {protocol}\nseed: 5\n"
    f"protocol: {protocol}\ntrials: {trials}\n"
    for protocol, trials in (("hadamard", 120), ("bsm", 8), ("teleported-cnot", 4))]

# every key of each kind set to its default (table_path applies to the table
# noise model only)
_CAVITY_DEFAULTS = {
    "physics": {"g_mhz": 27.0, "kappa_mhz": 2.4, "gamma_mhz": 2.6},
    "pulse": {"duration_over_kappa": 200.0, "alpha": 1.26, "kind": "odd_cat"},
}
_NOISE_DEFAULTS = {"model": "band-limited-white", "tau_co_ms": 1.0, "cutoff_hz": 100.0}
EXPLICIT_DEFAULTS = {
    "fidelity-sweep": {**_CAVITY_DEFAULTS,
                       "sweep": {"start": 0.1, "stop": 4.0, "points": 20}},
    "g-sweep": {**_CAVITY_DEFAULTS, "sweep": {"start": 0.5, "stop": 1.0, "points": 11}},
    "decoupling": {"noise": _NOISE_DEFAULTS, "realizations": 10000,
                   "echo": {"dt_cutoff_product": np.geomspace(0.01, 0.1, 5).tolist(),
                            "n_cycles": 1}},
    "transport-noise": {"transport": {"tau_t_us": 100.0, "d_um": 10.0},
                        "sweep": {"start": 0.02, "stop": 0.2, "points": 5}},
    "protocol-run": {"protocol": "teleported-cnot", "trials": 100},
    "leakage-demo": {"random_inputs": 50},
}
_CAVITY_EXPECTED = (
    CavityParams(rate_to_internal(27.0), rate_to_internal(2.4), rate_to_internal(2.6)),
    200.0, 1.26, "odd_cat")
_NOISE_EXPECTED = NoiseSpectrum.band_limited_white(tau_co=1e-3, cutoff=2 * math.pi * 100.0)
EXPECTED_DEFAULTS = {
    "fidelity-sweep": (*_CAVITY_EXPECTED, np.linspace(0.1, 4.0, 20).tolist()),
    "g-sweep": (*_CAVITY_EXPECTED, np.linspace(0.5, 1.0, 11).tolist()),
    "decoupling": (_NOISE_EXPECTED, np.geomspace(0.01, 0.1, 5).tolist(), 1, 10000),
    "transport-noise": (100.0 * 1e-6, np.geomspace(0.02, 0.2, 5).tolist()),
    "protocol-run": ("teleported-cnot", 100),
    "leakage-demo": (50,),
}


def non_finite_cases():
    """(config text, key) with a NaN or an infinity in each float, complex
    and list key of SCHEMA."""
    for kind, rows in ROWS.items():
        for name, rule in rows.items():
            value = default_of(rule)
            if not isinstance(value, (float, complex, list)):
                continue
            key, _, sub = name.partition(".")
            for bad in (".nan", ".inf"):
                text = f"[0.05, {bad}]" if isinstance(value, list) else bad
                entry = f"{key}: {{{sub}: {text}}}" if sub else f"{key}: {text}"
                yield pytest.param(f"kind: {kind}\n{entry}\n", name,
                                   id=f"{kind}-{name}-{bad[1:]}")


def bound_cases():
    """(kind, key, bound) of each number SCHEMA bounds, seed included."""
    for kind, rows in ROWS.items():
        for name, rule in {**rows, "seed": SEED}.items():
            if isinstance(rule, Bound) and rule.op in (">", ">="):
                yield pytest.param(kind, name, rule, id=f"{kind}-{name}")


def config_setting(kind, name, rule, value):
    """Config text of ``kind`` that sets the dotted key ``name`` to ``value``,
    typed like the default of ``rule``; a list entry goes before the defaults."""
    if isinstance(rule.default, list):
        value = [float(value), *rule.default]
    elif isinstance(rule.default, float):
        value = float(value)
    key, _, sub = name.partition(".")
    return yaml.safe_dump({"kind": kind, key: {sub: value} if sub else value})


def read_defaults(cfg):
    """What each kind's runner reads from its config, in comparable form."""
    if cfg.kind in ("fidelity-sweep", "g-sweep"):
        params = cfg.physics()
        pulse = cfg.pulse(params)
        return (params, round(pulse.T * params.kappa, 9), pulse.alpha,
                cfg.get("pulse", "kind"), cfg.sweep_grid().tolist())
    if cfg.kind == "decoupling":
        return (cfg.noise_spectrum(), *cfg.echo(), cfg.get("realizations"))
    if cfg.kind == "transport-noise":
        return cfg.transport(), cfg.sweep_grid().tolist()
    if cfg.kind == "protocol-run":
        return cfg.get("protocol"), cfg.get("trials")
    return (cfg.get("random_inputs"),)


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


# strings a config may carry as given: as a table path, the one free string
AWKWARD = ["/data/long path with spaces/" * 6 + "table.txt", "naïve/日本/Ωμέγα.txt",
           "noise: table", "*alias", "&anchor", "line1\nline2", "yes", "1e3", "0x1F",
           "~", "- dash", "#hash", "'quoted'", '"double"', "tab\there",
           "é" * 100 + " " + "x" * 90, "C:\\noise\\table.txt"]


def emitted_configs():
    """Every shipped and golden config, 50 generated per benchmark workload,
    and the awkward strings as table paths."""
    for path in sorted((ROOT / "configs").glob("*.yaml")) + sorted(
            (ROOT / "tests" / "golden").glob("*.yaml")):
        yield ScenarioConfig.from_file(path)
    workloads = benchmark_workloads()
    for name in workloads.WORKLOADS:
        configs, _ = workloads.generate(name, 5, 20)
        yield from (ScenarioConfig.from_dict({"name": f"{name}-{k}", **raw})
                    for k, raw in enumerate(configs[:50]))
    for k, path in enumerate(AWKWARD):
        data = {"noise": {"model": "table", "table_path": path}}
        yield ScenarioConfig("decoupling", f"awkward-{k}", 1, data, {})


class TestConfig:
    def test_round_trip_lossless(self):
        cfg = ScenarioConfig.from_yaml(FID_CFG)
        again = ScenarioConfig.from_yaml(cfg.to_yaml())
        assert cfg.to_dict() == again.to_dict()
        assert cfg.config_hash() == again.config_hash()

    def test_unit_conversion_round_trip(self):
        # kappa entered as 2.4 MHz -> 2*pi*2.4e6 rad/s -> printed back 2.4
        internal = rate_to_internal(2.4)
        assert internal == pytest.approx(2 * math.pi * 2.4e6)
        assert rate_to_mhz(internal) == pytest.approx(2.4)
        params = ScenarioConfig.from_yaml(FID_CFG).physics()
        assert rate_to_mhz(params.kappa) == pytest.approx(2.4)

    def test_pulse_duration_in_kappa_units(self):
        cfg = ScenarioConfig.from_yaml(FID_CFG)
        params = cfg.physics()
        pulse = cfg.pulse(params)
        assert pulse.T * params.kappa == pytest.approx(200.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ScenarioConfig.from_yaml("kind: nonsense\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_yaml(
                "kind: fidelity-sweep\nphysics: {g_mhz: -3}\n")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_yaml(
                "kind: fidelity-sweep\nsweep: {points: 0}\n")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_yaml("kind: protocol-run\nprotocol: frobnicate\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'trails'"):
            ScenarioConfig.from_yaml("kind: protocol-run\ntrails: 5\n")
        with pytest.raises(ConfigError, match="kapa_mhz"):
            ScenarioConfig.from_yaml(FID_CFG.replace("kappa_mhz", "kapa_mhz"))
        # a key that belongs to another kind is unknown here
        with pytest.raises(ConfigError, match="unknown key 'realizations'"):
            ScenarioConfig.from_yaml(LEAK_CFG + "realizations: 300\n")
        with pytest.raises(ConfigError, match="mapping"):
            ScenarioConfig.from_yaml("kind: decoupling\necho: 3\n")

    def test_benchmark_configs_validate(self):
        # the shipped configs are loaded by tests/test_golden.py
        workloads = benchmark_workloads()
        for name in workloads.WORKLOADS:
            configs, _ = workloads.generate(name, 1, 20)
            for raw in configs:
                ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("cfg", list(emitted_configs()), ids=lambda cfg: cfg.name[:40])
    def test_config_text_is_the_python_emitters(self, cfg):
        # the text, and so config_hash, is the pure-Python emitter's; libyaml's
        # alone gives it too wherever the text holds no backslash
        want = yaml.safe_dump(cfg.to_dict(), sort_keys=True)
        assert cfg.to_yaml() == want
        if hasattr(yaml, "CSafeDumper"):
            text = yaml.dump(cfg.to_dict(), Dumper=yaml.CSafeDumper, sort_keys=True)
            assert text == want or "\\" in text

    @pytest.mark.parametrize("text, key", [
        ("kind: fidelity-sweep\nphysics: {g_mhz: }\n", "physics.g_mhz"),
        ("kind: fidelity-sweep\npulse: {alpha: [1]}\n", "pulse.alpha"),
        ("kind: fidelity-sweep\npulse: {kind: coherent}\n", "pulse.kind"),
        ("kind: g-sweep\nsweep: {points: 2.5}\n", "sweep.points"),
        ("kind: decoupling\nnoise: {model: pink}\n", "noise.model"),
        ("kind: decoupling\nnoise: {model: table, table_path: 5}\n", "noise.table_path"),
        ("kind: protocol-run\ntrials: .inf\n", "trials"),
        ("kind: leakage-demo\nseed: 1.7\n", "seed"),
    ])
    def test_malformed_value_names_its_key(self, text, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ScenarioConfig.from_yaml(text)

    @pytest.mark.parametrize("kind, key, rule", list(bound_cases()))
    def test_value_at_bound(self, kind, key, rule):
        # a >= bound takes its limit, a > bound does not
        text = config_setting(kind, key, rule, rule.limit)
        if rule.op == ">=":
            ScenarioConfig.from_yaml(text)
        else:
            with pytest.raises(ConfigError, match=re.escape(f"'{key}' must be > {rule.limit},")):
                ScenarioConfig.from_yaml(text)

    def test_integral_float_counts_accepted(self):
        cfg = ScenarioConfig.from_yaml("kind: protocol-run\nseed: 7.0\ntrials: 40.0\n")
        assert (cfg.seed, cfg.get("trials")) == (7, 40)
        assert type(cfg.seed) is int and type(cfg.get("trials")) is int

    @pytest.mark.parametrize("kind", sorted(EXPLICIT_DEFAULTS))
    def test_defaults_pinned(self, kind):
        explicit = EXPLICIT_DEFAULTS[kind]
        # the explicit config sets every key the kind accepts
        assert explicit.keys() == SCHEMA[kind].keys()
        for key, sub in explicit.items():
            if isinstance(sub, dict):
                assert set(sub) == set(SCHEMA[kind][key]) - {"table_path"}
            # each explicit value is its SCHEMA row's default, bounded or not
            for name, value in sub.items() if isinstance(sub, dict) else [(None, sub)]:
                assert value == default_of(ROWS[kind][key if name is None else f"{key}.{name}"])
        bare = read_defaults(ScenarioConfig.from_dict({"kind": kind}))
        assert bare == read_defaults(ScenarioConfig.from_dict({"kind": kind, **explicit}))
        assert bare == EXPECTED_DEFAULTS[kind]

    def test_invalid_yaml_rejected(self):
        with pytest.raises(ConfigError, match="YAML"):
            ScenarioConfig.from_yaml("kind: [unclosed\n")

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml"))
                             + sorted((ROOT / "tests" / "golden").glob("*.yaml")),
                             ids=lambda path: path.name)
    def test_libyaml_and_python_loaders_agree(self, path):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)


class TestArtifacts:
    def test_byte_identical_reruns(self, tmp_path):
        # two runs of one config and seed write the same CSV bytes
        for text in SMALL_CFGS:
            cfg = ScenarioConfig.from_yaml(text)
            run_scenario(cfg, tmp_path / "a")
            run_scenario(cfg, tmp_path / "b")
            name = f"{cfg.name}.csv"
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), cfg.name

    def test_seed_changes_protocol_artifact(self, tmp_path):
        base = ScenarioConfig.from_yaml(LEAK_CFG)
        other = ScenarioConfig.from_dict({**base.to_dict(), "seed": 32})
        run_scenario(base, tmp_path / "a")
        run_scenario(other, tmp_path / "b")
        a = (tmp_path / "a" / "leakcheck.csv").read_text()
        b = (tmp_path / "b" / "leakcheck.csv").read_text()
        assert a != b  # seed is recorded and the sampled inputs differ

    def test_csv_metadata_header(self, tmp_path):
        cfg = ScenarioConfig.from_yaml(FID_CFG)
        run_scenario(cfg, tmp_path)
        lines = (tmp_path / "czfid.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("config_hash" in l for l in meta)
        assert any("seed: 777" in l for l in meta)
        assert any("units" in l for l in meta)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "nbar,fidelity"

    def test_manifest_contents(self, tmp_path):
        cfg = ScenarioConfig.from_yaml(LEAK_CFG)
        run_scenario(cfg, tmp_path)
        manifest = json.loads((tmp_path / "leakcheck.manifest.json").read_text())
        assert manifest["kind"] == "leakage-demo"
        assert manifest["seed"] == 31
        assert manifest["config_hash"] == cfg.config_hash()
        assert all(c["passed"] for c in manifest["checks"])

    def test_gnuplot_stub_written(self, tmp_path):
        cfg = ScenarioConfig.from_yaml(LEAK_CFG)
        run_scenario(cfg, tmp_path)
        assert (tmp_path / "leakcheck.gp").exists()

    def test_protocol_run_emits_outcome_log(self, tmp_path):
        cfg = ScenarioConfig.from_yaml(
            "kind: protocol-run\nname: tele\nseed: 4\n"
            "protocol: teleported-cnot\ntrials: 2\n")
        run_scenario(cfg, tmp_path)
        log = (tmp_path / "tele.outcomes.log").read_text().splitlines()
        assert all(line.startswith("seq=") for line in log)
        assert any("op=full_bsm" in line for line in log)
        assert any("op=measure_p34" in line and "p=" in line for line in log)

    def test_threads_do_not_change_output(self, tmp_path, monkeypatch):
        # the CLI's --threads is still parsed for old command lines: no run
        # enters a pool, and any thread count writes the run_scenario bytes
        pools = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_pool)
        for i, text in enumerate(SMALL_CFGS):
            cfg = ScenarioConfig.from_yaml(text)
            run_scenario(cfg, tmp_path / "a")
            path = tmp_path / f"cfg{i}.yaml"
            path.write_text(text)
            name = f"{cfg.name}.csv"
            want = (tmp_path / "a" / name).read_bytes()
            for threads in ("1", "3"):
                out = tmp_path / f"t{threads}"
                main(["simulate", str(path), "--threads", threads, "--out", str(out)])
                assert (out / name).read_bytes() == want, (cfg.name, threads)
        assert pools == []


def decoupling_checks(model, products, realizations=100, seed=9, n_cycles=1):
    cfg = ScenarioConfig.from_yaml(
        f"kind: decoupling\nname: echo\nseed: {seed}\nrealizations: {realizations}\n"
        f"noise: {{model: {model}}}\n"
        f"echo: {{dt_cutoff_product: {products}, n_cycles: {n_cycles}}}\n")
    return {c.name: c for c in run_decoupling(cfg).checks}


class TestDecouplingChecks:
    def test_lorentzian_shipped_grid_passes(self, tmp_path):
        # dt*band = 200*dt*cutoff reaches 20: suppression is not quadratic there,
        # and the Monte Carlo's own slope (1.08) matches the analytic one
        text = (ROOT / "configs" / "decoupling.yaml").read_text().replace(
            "band-limited-white", "lorentzian")
        path = tmp_path / "lorentzian.yaml"
        path.write_text(text)
        assert main(["simulate", str(path), "--check", "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("model, top, applies", [
        ("band-limited-white", 0.99, True), ("band-limited-white", 1.01, False),
        ("lorentzian", 0.99 / 200, True), ("lorentzian", 1.01 / 200, False)])
    def test_suppression_slope_applies_up_to_dt_band_one(self, model, top, applies):
        # inside, the slow-noise premise holds and the slope is 2
        check = decoupling_checks(model, [top / 10, top])["suppression_slope"]
        assert check.passed
        assert check.detail.startswith("not applicable") != applies
        assert ("target 2.0" in check.detail) == applies
        assert ("max dt*band = 1.01 > 1" in check.detail) != applies

    def test_mc_slope_fails_when_the_monte_carlo_scales_wrongly(self, monkeypatch):
        real = dfsqc.scenarios.monte_carlo_dephasing

        def steeper(seqs, *args):
            stats = real(seqs, *args)
            return stats._replace(var=stats.var * [[q.dt * 1e4, 1.0] for q in seqs])

        products = [0.01, 0.02, 0.05, 0.1]
        assert decoupling_checks("lorentzian", products, 2000)["mc_suppression_slope"].passed
        monkeypatch.setattr(dfsqc.scenarios, "monte_carlo_dephasing", steeper)
        assert not decoupling_checks("lorentzian", products, 2000)["mc_suppression_slope"].passed

    def test_one_monte_carlo_pass_per_scenario(self, monkeypatch):
        # every grid point reads the same realizations
        real = dfsqc.scenarios.monte_carlo_dephasing
        calls = []

        def counting(seqs, *args):
            calls.append(len(seqs))
            return real(seqs, *args)

        monkeypatch.setattr(dfsqc.scenarios, "monte_carlo_dephasing", counting)
        decoupling_checks("band-limited-white", [0.01, 0.02, 0.05, 0.1])
        assert calls == [4]

    @pytest.mark.parametrize("model, products, n_cycles", [
        ("band-limited-white", [0.01, 0.1], 1),
        ("band-limited-white", [0.01, 0.03, 0.1], 2),
        ("lorentzian", [0.01, 0.1, 1.0], 1)])
    def test_mc_slope_pulls_have_unit_spread(self, model, products, n_cycles):
        # the slope's standard error comes from the exact covariance of the
        # shared draws: over 60 seeds its pulls spread by about one, which an
        # independent-point error (about 10x too large) would not give
        pulls = [decoupling_checks(model, products, 1000, seed, n_cycles)
                 ["mc_suppression_slope"].value for seed in range(60)]
        assert 0.8 <= math.sqrt(np.mean(np.square(pulls))) <= 1.25


class TestCliEntry:
    def write(self, tmp_path, text, name="cfg.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_simulate_and_report(self, tmp_path, capsys):
        path = self.write(tmp_path, LEAK_CFG)
        out = str(tmp_path / "out")
        assert main(["simulate", path, "--check", "--out", out]) == 0
        assert main(["report", out]) == 0
        text = capsys.readouterr().out
        assert "leakage_conclusive" in text and "PASS" in text

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        # sweep and echo values must be checked by validation, not first
        # by the running scenario (exit 3, or a TypeError for the scalar)
        for text in ("kind: bogus\n",
                     "kind: transport-noise\nsweep: {points: 0}\n",
                     "kind: decoupling\necho: {n_cycles: 0}\n",
                     "kind: decoupling\necho: {dt_cutoff_product: [0.0, 0.1]}\n",
                     "kind: decoupling\necho: {dt_cutoff_product: 0.05}\n",
                     # one product, or one repeated, leaves no slope to fit
                     "kind: decoupling\necho: {dt_cutoff_product: [0.05]}\n",
                     "kind: decoupling\necho: {dt_cutoff_product: [0.05, 0.05]}\n",
                     # an empty or list value cannot become a count
                     "kind: protocol-run\ntrials:\n",
                     "kind: decoupling\nrealizations: [1000]\n",
                     "kind: fidelity-sweep\nphysics: {g_mhz: }\n",
                     "kind: g-sweep\nsweep: {points: [3]}\n",
                     "kind: decoupling\necho: {n_cycles: }\n",
                     "kind: fidelity-sweep\npulse: {alpha: }\n",
                     "kind: decoupling\nnoise: {cutoff_hz: [1]}\n",
                     "kind: transport-noise\ntransport: {tau_t_us: }\n",
                     "kind: leakage-demo\nseed: [1]\n",
                     "kind: leakage-demo\nseed:\n",
                     # a value outside the key's allowed set
                     "kind: fidelity-sweep\npulse: {kind: coherent}\n",
                     # a fractional count is not truncated
                     "kind: protocol-run\ntrials: 2.5\n",
                     "kind: leakage-demo\nseed: 1.7\n"):
            assert main(["simulate", self.write(tmp_path, text), "--out", out]) == 2
        assert not Path(out).exists()

    @pytest.mark.parametrize("text, key", list(non_finite_cases()))
    def test_non_finite_values_exit_2(self, tmp_path, capsys, text, key):
        # transport-noise with sweep.stop .inf used to pass --check and write
        # inf,nan,inf,nan rows, because max() skips the NaN ratios
        out = str(tmp_path / "out")
        assert main(["simulate", self.write(tmp_path, text), "--check", "--out", out]) == 2
        assert f"'{key}' must be finite" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("key", ["g_mhz", "kappa_mhz", "gamma_mhz"])
    def test_rate_overflowing_rad_per_s_exits_2(self, tmp_path, capsys, key):
        # 1e308 MHz passes the finite and > 0 checks but is inf in rad/s,
        # which used to write nan fidelities and exit 0
        out = str(tmp_path / "out")
        text = f"kind: fidelity-sweep\nphysics: {{{key}: 1.0e+308}}\n"
        assert main(["simulate", self.write(tmp_path, text), "--out", out]) == 2
        assert f"'physics.{key}' must be finite in rad/s" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("text, keys", [
        ("kind: fidelity-sweep\nphysics: {kappa_mhz: 1.0e-320}\n",
         ["pulse.duration_over_kappa", "physics.kappa_mhz"]),
        ("kind: g-sweep\nsweep: {stop: 1.0e+300}\n", ["physics.g_mhz", "sweep.stop"]),
        ("kind: fidelity-sweep\nphysics: {g_mhz: 1.0e+160}\n", ["physics.g_mhz"]),
        ("kind: fidelity-sweep\nphysics: {kappa_mhz: 1.0e-200, gamma_mhz: 1.0e-200}\n",
         ["physics.kappa_mhz", "physics.gamma_mhz"]),
        # T = 6.6e-308 s is finite, but its largest quadrature node is not
        ("kind: fidelity-sweep\npulse: {duration_over_kappa: 1.0e-300}\n",
         ["pulse.duration_over_kappa", "physics.kappa_mhz"])],
        ids=["pulse-length-inf", "scaled-g2-inf", "g2-inf", "kappa-gamma-zero",
             "node-scale-inf"])
    def test_derived_value_out_of_range_exits_2(self, tmp_path, capsys, text, keys):
        # each key passes its bound, but a product of them overflows or
        # underflows: these used to exit 4 (nan fidelities), 0 (nan rows that
        # passed) and 3 (OverflowError, ZeroDivisionError)
        out = str(tmp_path / "out")
        assert main(["simulate", self.write(tmp_path, text), "--check", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "must be finite and nonzero" in err
        assert all(f"'{key}'" in err for key in keys)
        assert not Path(out).exists()

    @pytest.mark.parametrize("text, name, keys", [
        ("kind: decoupling\nnoise: {tau_co_ms: 1.0e+200}\n", "1/tau_co^2",
         ["noise.tau_co_ms"]),
        ("kind: decoupling\nnoise: {tau_co_ms: 1.0e-200}\n", "1/tau_co^2",
         ["noise.tau_co_ms"]),
        ("kind: decoupling\nnoise: {cutoff_hz: 1.0e+308}\n", "dt",
         ["echo.dt_cutoff_product", "noise.cutoff_hz"]),
        ("kind: decoupling\nnoise: {model: table, table_path: TABLE}\n"
         "echo: {dt_cutoff_product: [1.0e+10, 2.0e+10]}\n", "dt",
         ["echo.dt_cutoff_product", "noise.table_path"]),
        ("kind: transport-noise\ntransport: {tau_t_us: 1.0e-300}\n", "(omega0/50)^2",
         ["transport.tau_t_us", "sweep.start"]),
        ("kind: transport-noise\ntransport: {tau_t_us: 8.0e-151}\n", "(8 omega0/50)^2",
         ["transport.tau_t_us", "sweep.stop"]),
        # tau_T = 5e-324 us is 0 s: a division by it raised ZeroDivisionError
        ("kind: transport-noise\ntransport: {tau_t_us: 5.0e-324}\n", "omega0",
         ["transport.tau_t_us", "sweep.start"]),
        ("kind: fidelity-sweep\nphysics: {gamma_mhz: 5.0e-324}\n", "g^2/(kappa*gamma)",
         ["physics.g_mhz", "physics.kappa_mhz", "physics.gamma_mhz"])],
        ids=["power-zero", "power-inf", "dt-zero", "table-dt-inf", "width-squared-inf",
             "table-span-inf", "tau-t-zero", "cooperativity-inf"])
    def test_noise_and_cooperativity_out_of_range_exit_2(self, tmp_path, capsys, text,
                                                         name, keys):
        # each used to exit 3 (OverflowError, ZeroDivisionError, a failed fit or
        # a non-finite line table) or to write nan rows or "cooperativity: inf"
        # and exit 0 or 4
        table = tmp_path / "tiny.txt"
        table.write_text("0 1\n1.0e-300 1\n")
        out = str(tmp_path / "out")
        path = self.write(tmp_path, text.replace("TABLE", str(table)))
        assert main(["simulate", path, "--check", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"invalid config: {name} from " in err and "must be finite and nonzero" in err
        assert all(f"'{key}'" in err for key in keys)
        assert not Path(out).exists()

    @pytest.mark.parametrize("text, key", [
        ("kind: fidelity-sweep\npulse: {alpha: 1.0e+155}\n", "pulse.alpha"),
        ("kind: fidelity-sweep\npulse: {alpha: 1.0e+154}\n", "pulse.alpha"),
        ("kind: g-sweep\npulse: {alpha: 1.0e+154}\n", "pulse.alpha"),
        ("kind: fidelity-sweep\nsweep: {stop: 1.0e+308}\n", "sweep.stop")],
        ids=["alpha-squared-inf", "cat-exponent-inf", "g-sweep-alpha", "nbar-grid-end"])
    def test_cat_exponent_out_of_range_exits_2(self, tmp_path, capsys, text, key):
        # |alpha|^2 = 1e310 used to raise OverflowError (exit 3); 2|alpha|^2
        # past the float range wrote nan fidelities (exit 4)
        out = str(tmp_path / "out")
        assert main(["simulate", self.write(tmp_path, text), "--check", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"from '{key}' must be finite, not inf" in err
        assert not Path(out).exists()

    def test_zero_alpha_is_valid(self):
        # the cat exponents may vanish: only the nonzero products reject zero
        cfg = ScenarioConfig.from_yaml("kind: fidelity-sweep\npulse: {alpha: 0}\n")
        assert cfg.get("pulse", "alpha") == 0

    @pytest.mark.parametrize("kind, key, rule", list(bound_cases()))
    def test_value_past_bound_exits_2(self, tmp_path, capsys, kind, key, rule):
        past = (rule.limit - 1 if isinstance(rule.default, int)
                else math.nextafter(rule.limit, -math.inf))
        out = str(tmp_path / "out")
        text = config_setting(kind, key, rule, past)
        assert main(["simulate", self.write(tmp_path, text), "--out", out]) == 2
        assert f"'{key}' must be {rule.op} {rule.limit}, not" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("text", [
        "kind: fidelity-sweep\nsweep: {start: 0, stop: 0, points: 1}\n",
        "kind: leakage-demo\nrandom_inputs: 0\n",
        "kind: g-sweep\npulse: {alpha: 0}\n"], ids=["one-point-vacuum", "no-inputs", "alpha-0"])
    def test_values_at_bounds_run(self, tmp_path, text):
        assert main(["simulate", self.write(tmp_path, text), "--check",
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("name", ["../../escape", "nl\nx", "q'x", "", ["a", "b"]],
                             ids=["parent-dir", "newline", "quote", "empty", "list"])
    def test_name_not_a_file_stem_exits_2(self, tmp_path, capsys, name):
        # the name becomes the artifacts' file names, a CSV metadata line and
        # a quoted gnuplot title
        text = yaml.safe_dump({"kind": "leakage-demo", "name": name})
        out = tmp_path / "x" / "a" / "b"
        assert main(["simulate", self.write(tmp_path, text), "--out", str(out)]) == 2
        assert "invalid config: 'name' must be" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("table", ["1\n2\n3\n", "10 1\n", "0 1\n10 nan\n20 1\n",
                                       "-50 1\n0 1\n100 1\n", "100 0\n200 0\n"],
                             ids=["one-column", "one-row", "nan-value", "negative-omega",
                                  "all-zero"])
    def test_malformed_noise_table_exits_2(self, tmp_path, capsys, table):
        (tmp_path / "table.txt").write_text(table)
        text = (f"kind: decoupling\nnoise: {{model: table, "
                f"table_path: {tmp_path / 'table.txt'}}}\n")
        out = str(tmp_path / "out")
        assert main(["simulate", self.write(tmp_path, text), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and f"noise table {tmp_path / 'table.txt'}:" in err
        assert not Path(out).exists()

    @pytest.mark.parametrize("model, key, value", [
        ("table", "tau_co_ms", 5.0), ("table", "cutoff_hz", 5.0),
        ("band-limited-white", "table_path", "TABLE"), ("lorentzian", "table_path", "TABLE")])
    def test_noise_key_of_another_model_exits_2(self, tmp_path, capsys, model, key, value):
        # such a key would be read by no spectrum, so it would change no number
        table = tmp_path / "table.txt"
        table.write_text("0 1\n10 1\n20 0\n")
        noise = {"model": model, key: str(table) if value == "TABLE" else value}
        if model == "table":
            noise["table_path"] = str(table)
        text = yaml.safe_dump({"kind": "decoupling", "noise": noise})
        out = str(tmp_path / "out")
        assert main(["simulate", self.write(tmp_path, text), "--out", out]) == 2
        assert f"'noise.{key}' does not apply to noise model '{model}'" in \
            capsys.readouterr().err
        assert not Path(out).exists()
        del noise[key]
        ScenarioConfig.from_yaml(yaml.safe_dump({"kind": "decoupling", "noise": noise}))

    def test_transport_noise_section_exits_2(self, tmp_path, capsys):
        # the kind builds its own noise line, so it takes no noise section
        text = "kind: transport-noise\nnoise: {model: lorentzian}\n"
        out = str(tmp_path / "out")
        assert main(["simulate", self.write(tmp_path, text), "--out", out]) == 2
        assert "unknown key 'noise'" in capsys.readouterr().err

    def test_misspelt_keys_exit_2(self, tmp_path):
        out = str(tmp_path / "out")
        for text in ("kind: protocol-run\nname: typo\nprotocol: bsm\ntrails: 5\n",
                     DECOUPLING_CFG.replace("echo:\n", "echo:\n  n_cylces: 2\n")):
            assert main(["simulate", self.write(tmp_path, text), "--out", out]) == 2
        assert not Path(out).exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.yaml")]) == 2

    def test_check_violation_exits_4(self, tmp_path):
        # omega0 * tau_T of order 1: the quadratic law no longer holds
        path = self.write(tmp_path, TRANSPORT_BAD_CFG)
        out = str(tmp_path / "out")
        assert main(["simulate", path, "--out", out]) == 0
        assert main(["simulate", path, "--check", "--out", out]) == 4

    @pytest.mark.parametrize("kind", ["fidelity-sweep", "g-sweep"])
    def test_short_pulse_warns_adiabatic(self, tmp_path, kind):
        # T*kappa = 5 distorts the reflection (F ~ 0.53); the run says so
        path = self.write(tmp_path, f"kind: {kind}\npulse: {{duration_over_kappa: 5}}\n")
        with pytest.warns(UserWarning, match="adiabatic"):
            assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_shipped_configs_do_not_warn(self, tmp_path, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(path), "--check", "--out", str(tmp_path)]) == 0

    def test_seed_override(self, tmp_path):
        path = self.write(tmp_path, LEAK_CFG)
        assert main(["simulate", path, "--seed", "99",
                     "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "leakcheck.manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_report_missing_dir_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "empty")]) == 2

    def test_cli_loads_no_scipy(self, tmp_path):
        # scipy.integrate alone takes longer to import than numpy, PyYAML and
        # dfsqc together; neither start-up nor any scenario kind may load scipy
        src = str(Path(dfsqc.__file__).resolve().parents[1])
        paths = [self.write(tmp_path, text, f"cfg{i}.yaml")
                 for i, text in enumerate(SMALL_CFGS)]
        code = (
            "import json, sys, dfsqc.cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "at_import = scipy_modules()\n"
            "out = sys.argv[1]\n"
            "codes = [dfsqc.cli.main(['simulate', p, '--check', '--out', out])\n"
            "         for p in sys.argv[2:]]\n"
            "codes.append(dfsqc.cli.main(['report', out]))\n"
            "print(json.dumps([at_import, codes, scipy_modules()]))\n")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), *paths],
                             check=True, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        at_import, codes, after_runs = json.loads(out.stdout.splitlines()[-1])
        assert at_import == []
        # every config ran (only the transport one breaks its quadratic law),
        # then the report
        assert codes == [0, 0, 4, 0, 0, 0, 0, 0] + [0]
        assert after_runs == []


class TestReport:
    def test_emit_report_summary_lines(self, tmp_path):
        cfg = ScenarioConfig.from_yaml(FID_CFG)
        run_scenario(cfg, tmp_path)
        text = emit_report(tmp_path)
        assert "fidelity_at_alpha: |F - 0.99| at F(nbar=1.59) = 0.9957: " in text
        assert "(limit <= 0.01): PASS" in text
        assert text.strip().endswith("PASS")

    def test_emit_report_requires_artifacts(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_report(tmp_path)
