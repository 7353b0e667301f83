"""Scenario configuration: YAML schema, validation, units, hashing.

One YAML file per scenario.  Rates are entered in MHz as plain frequencies
nu and converted internally to angular frequencies w = 2*pi*nu*1e6 rad/s;
times are entered in microseconds.  Reports convert back, so a kappa
entered as 2.4 stays 2.4 MHz on the way out.

Schema (defaults in parentheses); every kind also takes ``kind``, ``name``
and ``seed``, and a key the kind does not list is rejected:

    kind: fidelity-sweep | g-sweep | decoupling | transport-noise |
          protocol-run | leakage-demo
    name: artifact base name (kind)
    seed: integer (12345)
    physics:            # fidelity-sweep, g-sweep
      g_mhz (27.0), kappa_mhz (2.4), gamma_mhz (2.6)
    pulse:              # fidelity-sweep, g-sweep
      duration_over_kappa (200.0), alpha (1.26), kind (odd_cat)
    sweep:              # fidelity-sweep, g-sweep, transport-noise
      start, stop, points        # grid, scenario-specific meaning
    noise:              # decoupling, transport-noise
      model (band-limited-white), tau_co_ms (1.0), cutoff_hz (100.0),
      table_path (table model only)
    echo:               # decoupling
      dt_cutoff_product ([0.01 .. 0.1]; two or more distinct), n_cycles (1)
    realizations (10000)         # decoupling
    transport:          # transport-noise
      tau_t_us (100.0), d_um (10.0)
    protocol:           # protocol-run
      teleported-cnot | bsm | hadamard
    trials (100)                 # protocol-run
    random_inputs (50)           # leakage-demo
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

MHZ = 2.0 * math.pi * 1e6
US = 1e-6

_SWEEP = {"start", "stop", "points"}
_NOISE = {"model", "tau_co_ms", "cutoff_hz", "table_path"}
_CAVITY = {
    "physics": {"g_mhz", "kappa_mhz", "gamma_mhz"},
    "pulse": {"duration_over_kappa", "alpha", "kind"},
    "sweep": _SWEEP,
}
# kind -> allowed top-level keys besides kind/name/seed, each mapped to the
# keys its section allows, or to None for a plain value
SCHEMA = {
    "fidelity-sweep": _CAVITY,
    "g-sweep": _CAVITY,
    "decoupling": {"noise": _NOISE, "echo": {"dt_cutoff_product", "n_cycles"},
                   "realizations": None},
    "transport-noise": {"noise": _NOISE, "transport": {"tau_t_us", "d_um"},
                        "sweep": _SWEEP},
    "protocol-run": {"protocol": None, "trials": None},
    "leakage-demo": {"random_inputs": None},
}
KINDS = tuple(SCHEMA)
# kind -> default sweep grid (start, stop, points, log-spaced)
GRID_DEFAULTS = {
    "fidelity-sweep": (0.1, 4.0, 20, False),
    "g-sweep": (0.5, 1.0, 11, False),
    "transport-noise": (0.02, 0.2, 5, True),
}
# plain top-level value -> default; ScenarioConfig.value converts to its type
VALUE_DEFAULTS = {
    "realizations": 10000,
    "protocol": "teleported-cnot",
    "trials": 100,
    "random_inputs": 50,
}


class ConfigError(ValueError):
    pass


def rate_to_internal(nu_mhz: float) -> float:
    """MHz entry -> rad/s."""
    return nu_mhz * MHZ


def rate_to_mhz(omega: float) -> float:
    """rad/s -> MHz for display."""
    return omega / MHZ


@dataclass
class ScenarioConfig:
    kind: str
    name: str
    seed: int
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        out = {"kind": self.kind, "name": self.name, "seed": self.seed}
        out.update(self.data)
        return out

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a mapping")
        if "kind" not in raw:
            raise ConfigError("config is missing the 'kind' field")
        raw = dict(raw)
        kind = raw.pop("kind")
        name = raw.pop("name", kind)
        seed = raw.pop("seed", 12345)
        cfg = cls(kind=kind, name=str(name), seed=int(seed), data=raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_yaml(fh.read())

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_yaml().encode()).hexdigest()[:16]

    # -- section accessors with defaults ---------------------------------
    def section(self, key: str) -> dict:
        val = self.data.get(key, {})
        if val is None:
            val = {}
        if not isinstance(val, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        return val

    def value(self, key: str):
        """A plain top-level value: the config's entry or VALUE_DEFAULTS."""
        default = VALUE_DEFAULTS[key]
        try:
            return type(default)(self.data.get(key, default))
        except (TypeError, ValueError):
            raise ConfigError(f"{key!r} must be a {type(default).__name__}") from None

    def physics(self):
        from .cavity import CavityParams

        sec = self.section("physics")
        g = float(sec.get("g_mhz", 27.0))
        kappa = float(sec.get("kappa_mhz", 2.4))
        gamma = float(sec.get("gamma_mhz", 2.6))
        if g <= 0 or kappa <= 0 or gamma <= 0:
            raise ConfigError("physics rates must be positive")
        return CavityParams(rate_to_internal(g), rate_to_internal(kappa),
                            rate_to_internal(gamma))

    def pulse(self, params=None):
        from .cavity import PulseSpec

        sec = self.section("pulse")
        params = params if params is not None else self.physics()
        ratio = float(sec.get("duration_over_kappa", 200.0))
        if ratio <= 0:
            raise ConfigError("pulse duration must be positive")
        alpha = complex(sec.get("alpha", 1.26))
        kind = str(sec.get("kind", "odd_cat"))
        return PulseSpec.gaussian(ratio / params.kappa, alpha, kind)

    def sweep_grid(self):
        """The kind's sweep grid: the ``sweep`` section over GRID_DEFAULTS."""
        start, stop, points, log_spaced = GRID_DEFAULTS[self.kind]
        sec = self.section("sweep")
        start = float(sec.get("start", start))
        stop = float(sec.get("stop", stop))
        points = int(sec.get("points", points))
        if points < 1:
            raise ConfigError("sweep grid must not be empty")
        if log_spaced:
            if start <= 0 or stop <= 0:
                raise ConfigError("log grid needs positive bounds")
            return np.geomspace(start, stop, points)
        return np.linspace(start, stop, points)

    def echo(self):
        """``(dt_cutoff_products, n_cycles)`` of a decoupling scenario."""
        sec = self.section("echo")
        n_cycles = int(sec.get("n_cycles", 1))
        if n_cycles < 1:
            raise ConfigError("echo n_cycles must be >= 1")
        products = sec.get("dt_cutoff_product")
        if products is None:
            products = np.geomspace(0.01, 0.1, 5)
        try:
            products = [float(p) for p in products]
        except (TypeError, ValueError):
            raise ConfigError("echo dt_cutoff_product must be a list of numbers") from None
        if not products or min(products) <= 0:
            raise ConfigError("echo dt_cutoff_product values must be positive")
        if len(set(products)) < 2:
            # the suppression slope is a fit over at least two products
            raise ConfigError("echo dt_cutoff_product needs two or more distinct values")
        return products, n_cycles

    def noise_spectrum(self):
        from .noise import NoiseSpectrum

        sec = self.section("noise")
        model = str(sec.get("model", "band-limited-white"))
        tau_co = float(sec.get("tau_co_ms", 1.0)) * 1e-3
        cutoff = 2.0 * math.pi * float(sec.get("cutoff_hz", 100.0))
        if model == "band-limited-white":
            return NoiseSpectrum.band_limited_white(tau_co=tau_co, cutoff=cutoff)
        if model == "lorentzian":
            return NoiseSpectrum.lorentzian(tau_co=tau_co, cutoff=cutoff)
        if model == "table":
            path = sec.get("table_path")
            if not path:
                raise ConfigError("table model needs 'table_path'")
            return NoiseSpectrum.from_table_file(path)
        raise ConfigError(f"unknown noise model {model!r}")

    def transport_noise(self):
        from .noise import TransportNoise

        sec = self.section("transport")
        tau_t = float(sec.get("tau_t_us", 100.0)) * US
        d = float(sec.get("d_um", 10.0)) * 1e-6
        return TransportNoise(d=d, tau_T=tau_t, base=self.noise_spectrum())

    # -- validation ------------------------------------------------------
    def _check_keys(self):
        schema = SCHEMA[self.kind]
        for key in self.data:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} for kind {self.kind!r}")
            if schema[key] is not None:
                unknown = sorted(set(self.section(key)) - schema[key])
                if unknown:
                    raise ConfigError(f"unknown key(s) {unknown} in section {key!r}")

    def validate(self):
        self._check_keys()
        if self.kind in ("fidelity-sweep", "g-sweep"):
            self.physics()
            self.pulse()
            grid = self.sweep_grid()
            if self.kind == "fidelity-sweep" and np.any(grid < 0):
                raise ConfigError("mean photon numbers must be >= 0")
            if self.kind == "g-sweep" and np.any(grid <= 0):
                raise ConfigError("coupling ratios must be positive")
        elif self.kind == "decoupling":
            self.noise_spectrum()
            self.echo()
            if self.value("realizations") < 100:
                raise ConfigError("decoupling needs at least 100 realizations")
        elif self.kind == "transport-noise":
            self.transport_noise()
            self.sweep_grid()
        elif self.kind == "protocol-run":
            protocol = self.value("protocol")
            if protocol not in ("teleported-cnot", "bsm", "hadamard"):
                raise ConfigError(f"unknown protocol {protocol!r}")
            if self.value("trials") < 1:
                raise ConfigError("trials must be >= 1")
        elif self.kind == "leakage-demo":
            if self.value("random_inputs") < 0:
                raise ConfigError("random_inputs must be >= 0")
        return self
