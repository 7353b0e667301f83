"""Scenario configuration: YAML schema, validation, units, hashing.

One YAML file per scenario.  Rates are entered in MHz as plain frequencies
nu and converted internally to angular frequencies w = 2*pi*nu*1e6 rad/s;
times are entered in microseconds.  Reports convert back, so a kappa
entered as 2.4 stays 2.4 MHz on the way out.

``SCHEMA`` lists each kind's keys, each section's sub-keys and their
defaults; every kind also takes ``kind``, ``name`` (default: the kind) and
``seed`` (default 12345), and a key the kind does not list is rejected.
Two rules the table does not show: a ``noise`` key of the other kind of
model (``table_path`` under an analytic model, ``tau_co_ms`` or
``cutoff_hz`` under ``table``) is rejected, and ``echo.dt_cutoff_product``
needs two or more distinct values.  A number, complex number or list
entry must be finite.  The transport-noise kind builds its own narrow
noise line at each grid point; its ``transport.d_um`` is validated but
changes no number, and stays only while the benchmark's generated configs
still set it.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

MHZ = 2.0 * math.pi * 1e6
US = 1e-6

# kind -> its keys besides kind/name/seed; a section maps its sub-keys to
# their defaults.  A value converts to the type of its default; a tuple
# lists the allowed values, the first being the default.
TABLE_MODEL = "table"
_NOISE = {"model": ("band-limited-white", "lorentzian", TABLE_MODEL),
          "tau_co_ms": 1.0, "cutoff_hz": 100.0, "table_path": ""}
_CAVITY = {"physics": {"g_mhz": 27.0, "kappa_mhz": 2.4, "gamma_mhz": 2.6},
           "pulse": {"duration_over_kappa": 200.0, "alpha": 1.26 + 0j,
                     "kind": ("odd_cat",)}}
SCHEMA = {
    "fidelity-sweep": {**_CAVITY, "sweep": {"start": 0.1, "stop": 4.0, "points": 20}},
    "g-sweep": {**_CAVITY, "sweep": {"start": 0.5, "stop": 1.0, "points": 11}},
    "decoupling": {"noise": _NOISE,
                   "echo": {"dt_cutoff_product": np.geomspace(0.01, 0.1, 5).tolist(),
                            "n_cycles": 1},
                   "realizations": 10000},
    "transport-noise": {"transport": {"tau_t_us": 100.0, "d_um": 10.0},
                        "sweep": {"start": 0.02, "stop": 0.2, "points": 5}},
    "protocol-run": {"protocol": ("teleported-cnot", "bsm", "hadamard"), "trials": 100},
    "leakage-demo": {"random_inputs": 50},
}
KINDS = tuple(SCHEMA)


class ConfigError(ValueError):
    pass


_TYPE_NAMES = {float: "a number", int: "an integer", complex: "a complex number",
               str: "a string", list: "a list of numbers"}


def _convert(name: str, val, default):
    """``val`` converted to the type of ``default``, or ConfigError naming ``name``."""
    if isinstance(default, tuple):
        if val in default:
            return val
        raise ConfigError(f"{name!r} must be one of {list(default)}, not {val!r}")
    try:
        if isinstance(default, list):
            # a blank list keeps the default
            out = [float(v) for v in (default if val is None else val)]
        elif isinstance(default, int) and isinstance(val, float) and not val.is_integer():
            raise ValueError
        elif isinstance(default, str) and not isinstance(val, str):
            raise TypeError
        else:
            out = type(default)(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{name!r} must be {_TYPE_NAMES[type(default)]}, not {val!r}") from None
    values = out if isinstance(out, list) else [out]
    if not isinstance(out, str) and not all(cmath.isfinite(v) for v in values):
        raise ConfigError(f"{name!r} must be finite, not {val!r}")
    return out


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
        seed = _convert("seed", raw.pop("seed", 12345), 12345)
        cfg = cls(kind=kind, name=str(name), seed=seed, data=raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            # libyaml's parser when present; same resolver, same dict
            raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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

    def get(self, key: str, sub: str | None = None):
        """Top-level ``key``, or ``sub`` of section ``key``: the given value
        or else SCHEMA's default, converted to the default's type."""
        default, given, name = SCHEMA[self.kind][key], self.data, key
        if sub is not None:
            default, given, name = default[sub], self.section(key), f"{key}.{sub}"
            key = sub
        fallback = default[0] if isinstance(default, tuple) else default
        return _convert(name, given.get(key, fallback), default)

    def physics(self):
        from .cavity import CavityParams

        g, kappa, gamma = (self.get("physics", k)
                           for k in ("g_mhz", "kappa_mhz", "gamma_mhz"))
        if g <= 0 or kappa <= 0 or gamma <= 0:
            raise ConfigError("physics rates must be positive")
        return CavityParams(rate_to_internal(g), rate_to_internal(kappa),
                            rate_to_internal(gamma))

    def pulse(self, params=None):
        from .cavity import PulseSpec

        params = params if params is not None else self.physics()
        ratio = self.get("pulse", "duration_over_kappa")
        if ratio <= 0:
            raise ConfigError("pulse duration must be positive")
        return PulseSpec.gaussian(ratio / params.kappa, self.get("pulse", "alpha"),
                                  self.get("pulse", "kind"))

    def sweep_grid(self):
        """The kind's sweep grid, log-spaced for transport-noise."""
        start, stop, points = (self.get("sweep", k) for k in ("start", "stop", "points"))
        if points < 1:
            raise ConfigError("sweep grid must not be empty")
        if self.kind == "transport-noise":
            if start <= 0 or stop <= 0:
                raise ConfigError("log grid needs positive bounds")
            return np.geomspace(start, stop, points)
        return np.linspace(start, stop, points)

    def echo(self):
        """``(dt_cutoff_products, n_cycles)`` of a decoupling scenario."""
        n_cycles = self.get("echo", "n_cycles")
        if n_cycles < 1:
            raise ConfigError("echo n_cycles must be >= 1")
        products = self.get("echo", "dt_cutoff_product")
        if not products or min(products) <= 0:
            raise ConfigError("echo dt_cutoff_product values must be positive")
        if len(set(products)) < 2:
            # the suppression slope is a fit over at least two products
            raise ConfigError("echo dt_cutoff_product needs two or more distinct values")
        return products, n_cycles

    def noise_spectrum(self):
        from .noise import NoiseSpectrum

        model = self.get("noise", "model")
        # a key of the other kind of model would change no number
        foreign = ("tau_co_ms", "cutoff_hz") if model == TABLE_MODEL else ("table_path",)
        for key in foreign:
            if key in self.section("noise"):
                raise ConfigError(f"'noise.{key}' does not apply to noise model {model!r}")
        if model == TABLE_MODEL:
            path = self.get("noise", "table_path")
            if not path:
                raise ConfigError("table model needs 'table_path'")
            return NoiseSpectrum.from_table_file(path)
        # the analytic models are NoiseSpectrum constructors of the same name
        return getattr(NoiseSpectrum, model.replace("-", "_"))(
            tau_co=self.get("noise", "tau_co_ms") * 1e-3,
            cutoff=2.0 * math.pi * self.get("noise", "cutoff_hz"))

    def transport(self):
        """tau_T of a transport-noise scenario, in s."""
        d_um, tau_t = self.get("transport", "d_um"), self.get("transport", "tau_t_us") * US
        if d_um <= 0 or tau_t <= 0:
            raise ConfigError("transport distance and separation time must be positive")
        return tau_t

    # -- validation ------------------------------------------------------
    def _check_keys(self):
        schema = SCHEMA[self.kind]
        for key in self.data:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} for kind {self.kind!r}")
            if isinstance(schema[key], dict):
                unknown = sorted(set(self.section(key)) - set(schema[key]))
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
            if self.get("realizations") < 100:
                raise ConfigError("decoupling needs at least 100 realizations")
        elif self.kind == "transport-noise":
            self.transport()
            self.sweep_grid()
        elif self.kind == "protocol-run":
            self.get("protocol")  # raises unless SCHEMA allows it
            if self.get("trials") < 1:
                raise ConfigError("trials must be >= 1")
        elif self.kind == "leakage-demo":
            if self.get("random_inputs") < 0:
                raise ConfigError("random_inputs must be >= 0")
        return self
