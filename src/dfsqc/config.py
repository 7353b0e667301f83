"""Scenario configuration: YAML schema, validation, units, hashing.

One YAML file per scenario.  Rates are entered in MHz as plain frequencies
nu and converted internally to angular frequencies w = 2*pi*nu*1e6 rad/s;
times are entered in microseconds.  Reports convert back, so a kappa
entered as 2.4 stays 2.4 MHz on the way out.

``SCHEMA`` lists each kind's keys, each section's sub-keys, their defaults
and their bounds; every kind also takes ``kind``, ``name`` (default: the
kind; a plain file stem, ``NAME``) and ``seed`` (``SEED``), and a key the
kind does not list is rejected.  A number, complex number or list entry
must be finite, and a rate (a ``_mhz`` key) must stay finite in rad/s.
Five rules join a key to other keys or to a file, so the table does not
show them: a ``noise`` key of the other kind of model (``table_path``
under an analytic model, ``tau_co_ms`` or ``cutoff_hz`` under ``table``)
is rejected, the table model needs a ``table_path`` that holds a valid
table, ``echo.dt_cutoff_product`` needs two or more distinct values, a
decoupling config's arrays stay within ``MAX_BYTES``, and the numbers a
kind forms from its keys must be finite, before any numerics run
(:func:`_cavity_products`, :func:`_decoupling_products`, :func:`_transport_products`).
Two keys are validated but change no number, and stay only while the
benchmark's generated configs still set them: the transport-noise kind
builds its own narrow noise line at each grid point, so its
``transport.d_um`` is unused, and ``pulse.kind`` allows only ``odd_cat``,
the one pulse there is (a Gaussian odd cat).
"""

from __future__ import annotations

import cmath
import hashlib
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .cavity import N_NODES, CavityParams, PulseSpec
from .noise import LORENTZIAN_BAND_FACTOR, MC_COMPONENTS, NoiseSpectrum

MHZ = 2.0 * math.pi * 1e6
US = 1e-6
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
MAX_BYTES = 2**30  # the arrays a decoupling scenario may ask for


@dataclass(frozen=True)
class Bound:
    """A SCHEMA default whose value, or each entry of a list, must pass
    ``value <op> limit``."""

    default: object
    op: str
    limit: object


# the comparisons of a SCHEMA bound and of a scenario check, by operator
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
       "matching": lambda value, pattern: re.fullmatch(pattern, value) is not None}

TABLE_MODEL = "table"
# every kind takes a name, the artifacts' file stem (default: the kind), and a seed
NAME = Bound("", "matching", "[A-Za-z0-9][A-Za-z0-9._-]*")
SEED = Bound(12345, ">=", 0)
# kind -> its keys besides kind/name/seed; a section maps its sub-keys to
# their defaults.  A value converts to the type of its default; a tuple
# lists the allowed values, the first being the default; a Bound limits
# the value.
_NOISE = {"model": ("band-limited-white", "lorentzian", TABLE_MODEL),
          "tau_co_ms": Bound(1.0, ">", 0), "cutoff_hz": Bound(100.0, ">", 0),
          "table_path": ""}
_CAVITY = {"physics": {"g_mhz": Bound(27.0, ">", 0), "kappa_mhz": Bound(2.4, ">", 0),
                       "gamma_mhz": Bound(2.6, ">", 0)},
           "pulse": {"duration_over_kappa": Bound(200.0, ">", 0), "alpha": 1.26 + 0j,
                     "kind": ("odd_cat",)}}
SCHEMA = {
    "fidelity-sweep": {**_CAVITY, "sweep": {"start": Bound(0.1, ">=", 0),
                                            "stop": Bound(4.0, ">=", 0),
                                            "points": Bound(20, ">=", 1)}},
    "g-sweep": {**_CAVITY, "sweep": {"start": Bound(0.5, ">", 0),
                                     "stop": Bound(1.0, ">", 0),
                                     "points": Bound(11, ">=", 1)}},
    "decoupling": {"noise": _NOISE,
                   "echo": {"dt_cutoff_product": Bound(np.geomspace(0.01, 0.1, 5).tolist(),
                                                       ">", 0),
                            "n_cycles": Bound(1, ">=", 1)},
                   "realizations": Bound(10000, ">=", 100)},
    "transport-noise": {"transport": {"tau_t_us": Bound(100.0, ">", 0),
                                      "d_um": Bound(10.0, ">", 0)},
                        "sweep": {"start": Bound(0.02, ">", 0), "stop": Bound(0.2, ">", 0),
                                  "points": Bound(5, ">=", 1)}},
    "protocol-run": {"protocol": ("teleported-cnot", "bsm", "hadamard"),
                     "trials": Bound(100, ">=", 1)},
    "leakage-demo": {"random_inputs": Bound(50, ">=", 0)},
}
KINDS = tuple(SCHEMA)


def _rows(keys: dict) -> dict:
    """One kind's SCHEMA rows by dotted key: ``physics.g_mhz``, ``trials``."""
    rows = {}
    for key, row in keys.items():
        subs = row.items() if isinstance(row, dict) else [(None, row)]
        rows.update((key if sub is None else f"{key}.{sub}", rule) for sub, rule in subs)
    return rows


ROWS = {kind: _rows(keys) for kind, keys in SCHEMA.items()}


class ConfigError(ValueError):
    pass


_TYPE_NAMES = {float: "a number", int: "an integer", complex: "a complex number",
               str: "a string", list: "a list of numbers"}


def default_of(rule):
    """The default of a SCHEMA row: a tuple's first value, a Bound's default."""
    if isinstance(rule, tuple):
        return rule[0]
    return rule.default if isinstance(rule, Bound) else rule


def _convert(name: str, val, rule):
    """``val`` converted to the type of ``rule``'s default and checked against
    the row's allowed values or bound, or ConfigError naming ``name``."""
    if isinstance(rule, tuple):
        if val in rule:
            return val
        raise ConfigError(f"{name!r} must be one of {list(rule)}, not {val!r}")
    default = default_of(rule)
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
    if isinstance(rule, Bound) and not all(OPS[rule.op](v, rule.limit) for v in values):
        raise ConfigError(f"{name!r} must be {rule.op} {rule.limit}, not {val!r}")
    return out


def _validate(kind: str, data: dict) -> dict:
    """Every key ``kind`` takes, by dotted name, given in ``data`` or else
    defaulted, converted and checked."""
    schema, given = SCHEMA[kind], {}
    for key, val in data.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for kind {kind!r}")
        if not isinstance(schema[key], dict):
            given[key] = val
            continue
        if not isinstance(val, dict | None):
            raise ConfigError(f"section {key!r} must be a mapping")
        unknown = sorted(set(val or {}) - set(schema[key]))
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown} in section {key!r}")
        given |= {f"{key}.{sub}": v for sub, v in (val or {}).items()}
    values = {name: _convert(name, given.get(name, default_of(rule)), rule)
              for name, rule in ROWS[kind].items()}
    for name, value in values.items():
        if name.endswith("_mhz") and not math.isfinite(rate_to_internal(value)):
            raise ConfigError(f"{name!r} must be finite in rad/s, not {value!r} MHz")
    if "physics.g_mhz" in values:
        _require_finite(_cavity_products(kind, values))
    if kind == "decoupling":
        model = values["noise.model"]
        # a key of the other kind of model would change no number
        for key in ("tau_co_ms", "cutoff_hz") if model == TABLE_MODEL else ("table_path",):
            if f"noise.{key}" in given:
                raise ConfigError(f"'noise.{key}' does not apply to noise model {model!r}")
        table = None
        if model == TABLE_MODEL:
            if not values["noise.table_path"]:
                raise ConfigError("table model needs 'table_path'")
            table = NoiseSpectrum.from_table_file(values["noise.table_path"])
        if len(set(values["echo.dt_cutoff_product"])) < 2:
            # the suppression slope is a fit over at least two products
            raise ConfigError("'echo.dt_cutoff_product' needs two or more distinct values")
        # float64 arrays over P points: 2P x n phases, four 2P x 2P covariance
        # terms, eight 512 x 2P columns and four 512 x 2 n_cycles fold arrays
        cols = 2 * len(values["echo.dt_cutoff_product"])
        cost = 8 * (cols * (values["realizations"] + 4 * cols + 8 * MC_COMPONENTS)
                    + 4 * MC_COMPONENTS * 2 * values["echo.n_cycles"])
        if cost > MAX_BYTES:
            raise ConfigError(f"'realizations', 'echo.n_cycles' and 'echo.dt_cutoff_product' "
                              f"ask for {cost} bytes of arrays, over {MAX_BYTES}")
        _require_finite(_decoupling_products(values, table))
    if kind == "transport-noise":
        _require_finite(_transport_products(values))
    return values


def _cavity_products(kind: str, values: dict) -> list:
    """The numbers the cavity model forms from its keys: g^2 (g2 = g, scaled
    by each end of a g-sweep grid) and the cooperativity g^2/(kappa*gamma)
    with it, kappa*gamma, the pulse length T = duration/kappa and the scale
    of its largest quadrature node, below 5 sqrt(2 (2N + 1))/T for N nodes,
    all nonzero too; and the largest cat exponent 2|alpha|^2 (2 nbar at
    each end of a fidelity-sweep grid)."""
    g, kappa, gamma = (rate_to_internal(values[f"physics.{k}"])
                       for k in ("g_mhz", "kappa_mhz", "gamma_mhz"))
    ends = ("sweep.start", "sweep.stop")
    scaled = ([(("physics.g_mhz", end), g * values[end]) for end in ends]
              if kind == "g-sweep" else [(("physics.g_mhz",), g)])
    rates = ("physics.kappa_mhz", "physics.gamma_mhz")
    pulse = ("pulse.duration_over_kappa", "physics.kappa_mhz")
    duration, alpha = values["pulse.duration_over_kappa"], values["pulse.alpha"]
    amp = math.hypot(alpha.real, alpha.imag)  # abs() of a complex may raise
    node = 5.0 * math.sqrt(2.0 * (2 * N_NODES + 1)) * kappa / duration
    products = [("g^2", keys, x * x, False) for keys, x in scaled] + [
        ("kappa*gamma", rates, kappa * gamma, False),
        ("T", pulse, duration / kappa, False), ("node scale", pulse, node, False),
        ("2|alpha|^2", ("pulse.alpha",), 2.0 * amp * amp, True)]
    products += [("g^2/(kappa*gamma)", keys + rates, x * x / (kappa * gamma), False)
                 for keys, x in scaled if kappa * gamma != 0.0]
    if kind == "fidelity-sweep":
        products += [("2 nbar", (end,), 2.0 * values[end], True) for end in ends]
    return products


def _decoupling_products(values: dict, table) -> list:
    """The numbers a decoupling scenario forms from its keys: the total power
    P = 1/tau_co^2 of an analytic model, and at each grid point dt =
    product/cutoff, dt*band and the squares, which the variances' covariance
    forms, of P T^2 (T = 2 n_cycles dt), which bounds every phase variance,
    and of a slow echo's P T^2 min(1, dt*band)^2, all nonzero too.  A
    ``table`` spectrum brings its own cutoff, band and power."""
    if table is not None:
        cutoff, band, power = table.cutoff, table.band(), table.total_power
        keys, products = ("noise.table_path",), []
    else:
        tau_co = values["noise.tau_co_ms"] * 1e-3
        square = tau_co * tau_co
        power = 1.0 / square if square else math.inf
        products = [("1/tau_co^2", ("noise.tau_co_ms",), power, False)]
        cutoff = 2.0 * math.pi * values["noise.cutoff_hz"]
        band = cutoff * (LORENTZIAN_BAND_FACTOR if values["noise.model"] == "lorentzian"
                         else 1.0)
        keys = ("noise.cutoff_hz",)
    keys = ("echo.dt_cutoff_product",) + keys
    scale_keys = keys + ("echo.n_cycles",) + (() if table is not None else ("noise.tau_co_ms",))
    for product in values["echo.dt_cutoff_product"]:
        dt = product / cutoff
        phase = math.sqrt(power) * 2 * values["echo.n_cycles"] * dt  # sqrt(P) T
        free, slow = phase * phase, min(1.0, dt * band)
        products += [("dt", keys, dt, False), ("dt*band", keys, dt * band, False)]
        products += [(f"({name})^2", scale_keys, x * x, False) for name, x in (
            ("P*T^2", free), ("P*T^2*min(1, dt*band)^2", free * slow * slow))]
    return products


def _transport_products(values: dict) -> list:
    """The numbers the transport-noise kind forms at each end of its grid:
    the line centre omega0 = product/tau_T, its width omega0/50 and the
    width's square, all nonzero too, and the square of the line table's
    half span, 8 widths."""
    tau_t = values["transport.tau_t_us"] * US
    products = []
    for end in ("sweep.start", "sweep.stop"):
        keys = ("transport.tau_t_us", end)
        omega0 = values[end] / tau_t if tau_t else math.inf
        width = omega0 / 50.0
        half_span = 8.0 * width
        products += [("omega0", keys, omega0, False),
                     ("omega0/50", keys, width, False),
                     ("(omega0/50)^2", keys, width * width, False),
                     ("(8 omega0/50)^2", keys, half_span * half_span, False)]
    return products


def _require_finite(products):
    """ConfigError, naming the keys, unless each ``(name, keys, value,
    zero_ok)`` value is finite, and nonzero unless ``zero_ok``.  A key may
    pass its bound while a number formed from it overflows or underflows.
    A square is ``x * x``: a float ``**`` raises OverflowError."""
    for name, keys, value, zero_ok in products:
        if not math.isfinite(value) or (value == 0.0 and not zero_ok):
            raise ConfigError(f"{name} from {' and '.join(map(repr, keys))} must be finite"
                              f"{'' if zero_ok else ' and nonzero'}, not {value!r}")


def rate_to_internal(nu_mhz: float) -> float:
    """MHz entry -> rad/s."""
    return nu_mhz * MHZ


def rate_to_mhz(omega: float) -> float:
    """rad/s -> MHz for display."""
    return omega / MHZ


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    name: str
    seed: int
    data: dict  # the keys besides kind/name/seed, as given
    values: dict = field(repr=False, compare=False)  # every key, as _validate returns

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        out = {"kind": self.kind, "name": self.name, "seed": self.seed}
        out.update(self.data)
        return out

    def to_yaml(self) -> str:
        # libyaml's emitter when present gives PyYAML's text, except that it
        # wraps escaped double-quoted strings at other columns: a text with
        # an escape, or any other backslash, is emitted again by PyYAML
        data = self.to_dict()
        text = yaml.dump(data, Dumper=_DUMPER, sort_keys=True)
        return yaml.safe_dump(data, sort_keys=True) if "\\" in text else text

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a mapping")
        if "kind" not in raw:
            raise ConfigError("config is missing the 'kind' field")
        data = dict(raw)
        kind = _convert("kind", data.pop("kind"), KINDS)
        name = _convert("name", data.pop("name", kind), NAME)
        seed = _convert("seed", data.pop("seed", SEED.default), SEED)
        return cls(kind, name, seed, data, _validate(kind, data))

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

    # -- accessors -------------------------------------------------------
    def get(self, key: str, sub: str | None = None):
        """Top-level ``key``, or ``sub`` of section ``key``."""
        return self.values[key if sub is None else f"{key}.{sub}"]

    def physics(self):
        return CavityParams(*(rate_to_internal(self.get("physics", k))
                              for k in ("g_mhz", "kappa_mhz", "gamma_mhz")))

    def pulse(self, params=None):
        params = params if params is not None else self.physics()
        return PulseSpec(self.get("pulse", "duration_over_kappa") / params.kappa,
                         self.get("pulse", "alpha"))

    def sweep_grid(self):
        """The kind's sweep grid, log-spaced for transport-noise."""
        spacing = np.geomspace if self.kind == "transport-noise" else np.linspace
        return spacing(*(self.get("sweep", k) for k in ("start", "stop", "points")))

    def echo(self):
        """``(dt_cutoff_products, n_cycles)`` of a decoupling scenario."""
        return self.get("echo", "dt_cutoff_product"), self.get("echo", "n_cycles")

    def noise_spectrum(self):
        model = self.get("noise", "model")
        if model == TABLE_MODEL:
            return NoiseSpectrum.from_table_file(self.get("noise", "table_path"))
        # the analytic models are NoiseSpectrum constructors of the same name
        return getattr(NoiseSpectrum, model.replace("-", "_"))(
            tau_co=self.get("noise", "tau_co_ms") * 1e-3,
            cutoff=2.0 * math.pi * self.get("noise", "cutoff_hz"))

    def transport(self):
        """tau_T of a transport-noise scenario, in s."""
        return self.get("transport", "tau_t_us") * US
