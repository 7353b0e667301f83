"""Layer spans measured from outside the program.

The traced run replaces the public functions that mark each layer boundary
with timing wrappers.  A function is replaced in every loaded ``dfsqc``
module that binds it, because ``protocols`` and ``logical`` import
``measure``, ``apply_unitary`` and friends by name.  Spans are kept in
memory as ``[name, start, end, parent]`` (parent is the index of the
enclosing span, -1 for none) and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, metric name, statistics reported per scenario)
TARGETS = [
    ("config", "ScenarioConfig.from_file", "config.from_file", ("s",)),
    ("scenarios", "run_scenario", "scenarios.run_scenario", ("self_s",)),
    ("scenarios", "write_artifacts", "scenarios.write_artifacts", ("s",)),
    ("cavity", "PulseSpec.grids", "cavity.PulseSpec.grids", ("calls", "s")),
    ("cavity", "cz_gate_fidelity", "cavity.cz_gate_fidelity", ("calls", "self_s")),
    ("cavity", "photon_loss", "cavity.photon_loss", ("calls", "self_s")),
    ("noise", "monte_carlo_dephasing", "noise.monte_carlo_dephasing", ("calls", "s")),
    ("noise", "echo_variance_analytic", "noise.echo_variance_analytic", ("s",)),
    ("noise", "free_variance_analytic", "noise.free_variance_analytic", ("s",)),
    ("noise", "suppression_factor", "noise.suppression_factor", ("calls", "s")),
] + [
    (module, name, f"{module}.{name}", ("calls", "self_s"))
    for module, names in (
        ("register", ("apply_unitary", "measure", "reduced_state", "fidelity",
                      "trace_distance")),
        ("logical", ("parity_projectors", "joint_ones_projectors",
                     "apply_pair_unitary", "logical_basis_measurement",
                     "logical_support")),
        ("protocols", ("ProtocolRun.create", "teleported_cnot", "prepare_xi",
                       "full_bsm", "bell_subspace_measurement", "measure_p34",
                       "physical_cz", "transport", "leakage_detect",
                       "logical_hadamard")),
    )
    for name in names
]

LAYERS = ("config", "scenarios", "cavity", "noise", "register", "logical", "protocols")
ROOT = "cli.main"


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.forced = 0
        self.measured = 0
        self.realizations = 0
        self.bytes_written = 0

    # -- recording -------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if name == "register.measure":
                self.measured += 1
                self.forced += _arg(args, kwargs, 3, "force") is not None
            elif name == "noise.monte_carlo_dephasing":
                self.realizations += int(_arg(args, kwargs, 2, "n_realizations"))
            result = self.call(name, fn, args, kwargs)
            if name == "scenarios.write_artifacts":
                self.bytes_written += sum(p.stat().st_size for p in result.values())
            return result
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------
    def install(self):
        """Replace every target in every dfsqc namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dfsqc" or n.startswith("dfsqc.")]
        for module_name, attr, metric, _ in TARGETS:
            module = importlib.import_module(f"dfsqc.{module_name}")
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[member]
                if isinstance(orig, property):
                    new = property(self._wrap(metric, orig.fget))
                elif isinstance(orig, classmethod):
                    new = classmethod(self._wrap(metric, orig.__func__))
                else:
                    raise TypeError(f"cannot trace {attr}")
                self._patches.append((cls, member, orig))
                setattr(cls, member, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(metric, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []


def self_times(spans):
    """Per-span self time: duration minus the union of its children's spans.

    ``spans`` is a list of ``(name, start, end, parent)``.  Children are
    clipped to the parent's interval, and overlapping children are counted
    once, so the result never double-counts.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans, walls, tracer):
    """Per-layer metrics from the spans of ``len(walls)`` traced scenarios.

    ``walls`` are the scenario wall times measured around each traced
    ``cli.main`` call.  Times and calls are per scenario; shares are of the
    summed scenario wall time.
    """
    n = len(walls)
    wall = sum(walls)
    selfs = self_times(spans)
    calls, incl, excl = defaultdict(int), defaultdict(float), defaultdict(float)
    for (name, start, end, _), own in zip(spans, selfs):
        calls[name] += 1
        incl[name] += end - start
        excl[name] += own

    metrics = {}
    for _, _, metric, stats in TARGETS:
        for stat in stats:
            value = {"calls": calls[metric], "s": incl[metric],
                     "self_s": excl[metric]}[stat]
            metrics[f"{metric}.{stat}"] = value / n
    metrics["scenarios.write_artifacts.bytes"] = tracer.bytes_written / n
    mc_s = incl["noise.monte_carlo_dephasing"]
    metrics["noise.realizations_per_s"] = tracer.realizations / mc_s if mc_s else 0.0
    metrics["register.measure.forced_frac"] = (
        tracer.forced / tracer.measured if tracer.measured else 0.0)

    layer_self = defaultdict(float)
    for name, value in excl.items():
        layer_self[name.split(".")[0] if name != ROOT else "glue"] += value
    for layer in LAYERS + ("glue",):
        metrics[f"share.{layer}"] = layer_self[layer] / wall
    projectors = excl["logical.parity_projectors"] + excl["logical.joint_ones_projectors"]
    metrics["share.ProtocolRun.create"] = excl["protocols.ProtocolRun.create"] / wall
    metrics["share.projectors"] = projectors / wall
    metrics["share.write_artifacts"] = incl["scenarios.write_artifacts"] / wall

    # Self times of the layers plus the glue inside cli.main must add up
    # to the root spans, and the root spans to the measured wall time.
    root = sum(end - start for name, start, end, _ in spans if name == ROOT)
    accounted = sum(layer_self.values())
    metrics["trace.accounted_frac"] = accounted / wall
    consistent = (n == calls[ROOT]
                  and abs(accounted - root) <= 1e-9 * max(1, len(spans))
                  and min(selfs, default=0.0) >= -1e-9
                  and root <= wall)
    return metrics, consistent
