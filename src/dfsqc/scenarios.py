"""Scenario execution: compute, write CSV artifacts, evaluate checks.

Every scenario writes three files under the output directory:

    <name>.csv            data rows behind '#'-prefixed metadata lines
    <name>.manifest.json  config hash, seed, code version, check results
    <name>.gp             gnuplot stub for quick plotting

Protocol runs additionally write <name>.outcomes.log, the line-oriented
outcome record of one sample trial.  Each line is one protocol event:

    seq=<int> op=<name> key=value ...

with measurement outcomes (pi labels), branch probabilities ``p=...`` and
applied corrections (``op=correction ... trigger=...``) in order.

A teleported-CNOT trial prepares the resource Xi on its 8 atoms first and
allocates the input after it, as gate teleportation prepares its resource
before the data arrive.  The branch-independence check compares all 16
Bell branches on three fixed inputs: each input is allocated next to a fork
of one seed-0 Xi, each Bell measurement's outcomes are split from one
projection per subspace, and the 120 pairwise trace distances are taken on
the rows and columns some output occupies, which leaves them exact.

A check is a record: a value, an operator of ``config.OPS`` (the table
SCHEMA bounds use) and a limit, and it passes when the value is finite and
``value <op> limit`` holds, so a NaN row fails it.  The manifest lists each
check's ``name``, ``value``, ``op``, ``limit``, ``passed`` and ``detail``,
the one line ``dfsqc report`` prints.

Identical config + seed produce byte-identical CSVs.  A decoupling
scenario's grid points share one Monte Carlo pass from one seeded stream.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import OPS, ScenarioConfig, rate_to_internal, rate_to_mhz
from .cavity import CavityParams, cz_gate_fidelity, photon_loss
from .noise import (
    EchoSequence,
    NoiseSpectrum,
    TransportNoise,
    echo_variance_analytic,
    free_variance_analytic,
    monte_carlo_dephasing,
    suppression_factor,
)
from .register import fidelity, on_support, random_state, reduced_state, trace_distance
from .logical import BELL_LABELS, H2, bell_ket, encode_two, pair_ket
from .protocols import (ProtocolRun, correct_cnot_byproducts, full_bsm, full_bsm_branches,
                        logical_hadamard, prepare_xi, teleported_cnot, leakage_detect)


EXACT = 1e-10  # an infidelity or a trace distance this small counts as exact


@dataclass(frozen=True)
class Check:
    """An acceptance check on ``value``, which ``what`` describes: it passes
    when the value is finite and ``value <op> limit`` holds (``OPS``)."""

    name: str
    value: float
    op: str
    limit: float
    what: str

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and bool(OPS[self.op](self.value, self.limit))

    @property
    def detail(self) -> str:
        return f"{self.what}: {self.value:.3g} (limit {self.op} {self.limit:g})"


@dataclass
class ScenarioResult:
    columns: list
    rows: list
    checks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    extra_files: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


UNITS_NOTE = {
    "fidelity-sweep": "nbar dimensionless; fidelity dimensionless",
    "g-sweep": "g_ratio dimensionless; g_mhz MHz; fidelity, eta dimensionless",
    "decoupling": "dt s; variances rad^2",
    "transport-noise": "omega0_tau dimensionless; suppression dimensionless",
    "protocol-run": "fidelity dimensionless",
    "leakage-demo": "restoration_fidelity dimensionless",
}


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def run_fidelity_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    started = time.monotonic()
    params = cfg.physics()
    pulse = cfg.pulse(params)
    f_ref = cz_gate_fidelity(None, pulse, params)
    rows = [(float(nb), cz_gate_fidelity(None, pulse.with_alpha(math.sqrt(nb)), params))
            for nb in cfg.sweep_grid()]
    elapsed = time.monotonic() - started

    rise = np.max(np.diff([f for _, f in rows]), initial=0.0)
    checks = [
        Check("fidelity_at_alpha", abs(f_ref - 0.99), "<=", 0.01,
              f"|F - 0.99| at F(nbar={pulse.mean_photon_number:.3g}) = {f_ref:.4f}"),
        Check("sweep_monotone", rise, "<=", 1e-12, "largest fidelity rise over the grid"),
        Check("runtime", elapsed, "<", 60.0, "sweep runtime in s"),
    ]
    meta = {"cooperativity": f"{params.cooperativity:.2f}",
            "g_mhz": f"{rate_to_mhz(params.g):g}",
            "kappa_mhz": f"{rate_to_mhz(params.kappa):g}",
            "gamma_mhz": f"{rate_to_mhz(params.gamma):g}"}
    return ScenarioResult(["nbar", "fidelity"], rows, checks, meta)


def run_g_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    params = cfg.physics()
    pulse = cfg.pulse(params)
    rows = []
    for ratio in cfg.sweep_grid():
        scaled = params.scaled_g(ratio)
        rows.append((float(ratio), rate_to_mhz(scaled.g),
                     cz_gate_fidelity(None, pulse, scaled),
                     photon_loss(pulse, scaled, scaled.g**2)))
    delta = np.ptp([r[2] for r in rows])

    # photon-loss scaling probed over the wide coupling range
    etas = []
    for g_mhz in np.linspace(10.0, 50.0, 9):
        scaled = CavityParams(rate_to_internal(g_mhz), params.kappa, params.gamma)
        eta = photon_loss(pulse, scaled, scaled.g**2)
        etas.append(eta * scaled.g**2 / (params.kappa * params.gamma))
    scaling_spread = np.max(etas) / np.min(etas) - 1.0

    checks = [
        Check("fidelity_stability", delta, "<=", 2e-2, "|dF| over the g grid"),
        Check("eta_scaling", scaling_spread, "<=", 0.2,
              "relative spread of eta*g^2/(kappa*gamma) over g/2pi in [10, 50] MHz"),
    ]
    return ScenarioResult(["g_ratio", "g_mhz", "fidelity", "eta_one_atom"],
                          rows, checks)


def run_decoupling(cfg: ScenarioConfig) -> ScenarioResult:
    spectrum = cfg.noise_spectrum()
    n_real = cfg.get("realizations")
    products, n_cycles = cfg.echo()
    dts = [p / spectrum.cutoff for p in products]
    seqs = [EchoSequence(dt, n_cycles) for dt in dts]
    stats = monte_carlo_dephasing(seqs, spectrum, n_real, cfg.seed)
    exact = np.array([(echo_variance_analytic(seq, spectrum),
                       free_variance_analytic(seq.total_time, spectrum)) for seq in seqs])
    (ve, vf), (se_e, se_f), (ve_an, vf_an) = stats.var.T, stats.stderr.T, exact.T
    rows = np.column_stack([dts, ve, se_e, ve_an, vf, se_f, vf_an, ve_an / vf_an]).tolist()

    worst_se = np.max(np.abs(ve - ve_an) / se_e)
    log_dt = np.log(dts)
    slope = float(np.polyfit(log_dt, np.log(ve_an / vf_an), 1)[0])
    mc_slope = float(np.polyfit(log_dt, np.log(ve / vf), 1)[0])
    # the fit is the linear form lin @ log(ve/vf); the points share draws, so
    # its error takes their exact covariance through the gradient at the exact moments
    lin = (log_dt - log_dt.mean()) / np.sum((log_dt - log_dt.mean()) ** 2)
    grad = np.column_stack([lin / ve_an, -lin / vf_an]).ravel()
    pull = abs(mc_slope - slope) / math.sqrt(grad @ stats.cov @ grad)
    # quadratic suppression needs noise slow on the cycle time
    dt_band = max(dts) * spectrum.band()
    applies = dt_band <= 1.0
    checks = [
        Check("mc_matches_analytic", worst_se, "<=", 5.0,
              "worst |mc - analytic| in standard errors"),
        Check("mc_suppression_slope", pull, "<=", 5.0,
              f"Monte Carlo log-log suppression slope {mc_slope:.3f} from the analytic "
              f"{slope:.3f}, in standard errors"),
        Check("suppression_slope", abs(slope - 2.0) if applies else 0.0, "<=", 0.1,
              f"|log-log suppression slope {slope:.3f} - 2| (target 2.0 at max dt*band = "
              f"{dt_band:.3g} <= 1)" if applies else
              f"not applicable: max dt*band = {dt_band:.3g} > 1 (slope {slope:.3f})"),
    ]
    cols = ["dt", "var_echo_mc", "stderr_echo", "var_echo_analytic",
            "var_free_mc", "stderr_free", "var_free_analytic",
            "suppression_analytic"]
    return ScenarioResult(cols, rows, checks,
                          {"realizations": str(n_real), "n_cycles": str(n_cycles)})


def narrow_line_spectrum(omega0: float, width: float, power: float = 1.0) -> NoiseSpectrum:
    """Tabulated Gaussian noise line centered at omega0 (one-sided table)."""
    w = np.linspace(max(omega0 - 8 * width, 0.0), omega0 + 8 * width, 2001)
    s = np.exp(-((w - omega0) ** 2) / (2 * width**2))
    s *= power / (2.0 * np.trapezoid(s, w))
    return NoiseSpectrum.from_table(w, s)


def run_transport_noise(cfg: ScenarioConfig) -> ScenarioResult:
    tau_t = cfg.transport()
    grid = cfg.sweep_grid()

    def point(prod: float):
        omega0 = prod / tau_t
        tn = TransportNoise(tau_t, narrow_line_spectrum(omega0, omega0 / 50.0))
        sup = suppression_factor(tn)
        predicted = (tau_t * omega0) ** 2 / 8.0
        return (float(prod), float(sup), float(predicted),
                float(sup / predicted))

    rows = [point(prod) for prod in grid]
    worst = np.max([abs(r[3] - 1.0) for r in rows])
    checks = [Check("transport_suppression", worst, "<=", 0.2,
                    "worst |suppression/(tau*w0)^2*8 - 1|")]
    return ScenarioResult(["omega0_tau", "suppression", "predicted", "ratio"],
                          rows, checks,
                          {"tau_t_us": f"{tau_t * 1e6:g}"})


# -- protocol runs -----------------------------------------------------------

def cnot_matrix() -> np.ndarray:
    """Logical CNOT on index m + 2n, control m: swaps entries 1 and 3."""
    return np.eye(4, dtype=complex)[[0, 3, 2, 1]]


def xi_run(seed: int):
    """The teleportation resource on its own 8 atoms (a', a, b, b'): a run
    seeded with ``seed`` through ``prepare_xi``, and the prepare_xi branch."""
    run = ProtocolRun.create([("a_prime", "+L"), (("a", "b"), "phi+"), ("b_prime", "0L")],
                             seed=seed)
    xi_branch, _ = prepare_xi(run, "a_prime", "a", "b", "b_prime")
    return run, xi_branch


def _output_state(run: ProtocolRun) -> np.ndarray:
    ap, bp = run.layout["a_prime"], run.layout["b_prime"]
    return reduced_state(run.register, ap.atoms + bp.atoms)


def _teleport_once(i: int, c4: np.ndarray, seed: int):
    """CSV row and outcome record of one sampled teleported-CNOT trial: the
    resource first, then the input ``c4`` allocated on (ctrl, tgt)."""
    run, (l1, l2) = xi_run(seed)
    run.allocate(("ctrl", "tgt"), encode_two(c4))
    (la, lb), _ = teleported_cnot(run, "ctrl", "tgt", ("a", "a_prime", "b", "b_prime"))
    fid = fidelity(encode_two(cnot_matrix() @ c4), _output_state(run))
    return (i, f"{l1}/{l2}", la, lb, fid), run.record


def forced_branch_states(xi: ProtocolRun, c4: np.ndarray) -> np.ndarray:
    """Outputs of the 16 Bell branches ``(la, lb)``, row-major, of the input
    ``c4`` allocated next to a fork of the ideal resource run ``xi``: each
    Bell measurement's branches split from one projection per subspace
    (``full_bsm_branches``), 15 projections in all.
    """
    run = xi.fork()
    run.allocate(("ctrl", "tgt"), encode_two(c4))
    outs = []
    for la, after_a in full_bsm_branches(run, "ctrl", "a").items():
        for lb, branch in full_bsm_branches(after_a, "tgt", "b").items():
            correct_cnot_byproducts(branch, la, lb, "a_prime", "b_prime")
            outs.append(_output_state(branch))
    return np.array(outs)


def run_protocol(cfg: ScenarioConfig) -> ScenarioResult:
    protocol = cfg.get("protocol")
    trials = cfg.get("trials")
    rng = np.random.default_rng(cfg.seed)
    trial_seeds = [int(s.generate_state(1)[0])
                   for s in np.random.SeedSequence(cfg.seed).spawn(trials)]

    if protocol == "teleported-cnot":
        inputs = [random_state(2, rng) for _ in range(trials)]

        results = [_teleport_once(i, inputs[i], trial_seeds[i]) for i in range(trials)]
        rows = [row for row, _ in results]
        infidelity = 1.0 - np.min([r[4] for r in rows])
        # outcome log of the first trial, one line per protocol event
        sample_log = "\n".join(entry.line() for entry in results[0][1]) + "\n"

        # branch independence: all 120 pairwise trace distances, batched, on
        # the outputs' common support; the three probes fork one seed-0 resource
        i, j = np.triu_indices(len(BELL_LABELS) ** 2, 1)
        xi, _ = xi_run(0)
        inputs = [random_state(2, cfg.seed + 7 + probe) for probe in range(3)]
        probes = [on_support(forced_branch_states(xi, c4)) for c4 in inputs]
        max_dist = np.max([trace_distance(outs[i], outs[j]) for outs in probes])
        checks = [
            Check("cnot_fidelity", infidelity, "<=", EXACT,
                  f"max infidelity vs direct CNOT over {trials} trials"),
            Check("branch_independence", max_dist, "<", EXACT,
                  "max pairwise trace distance over 16 branches"),
        ]
        cols = ["trial", "xi_branch", "bell_a", "bell_b", "fidelity"]
        return ScenarioResult(cols, rows, checks,
                              extra_files={"outcomes.log": sample_log})

    if protocol == "bsm":
        def point(i: int):
            label = BELL_LABELS[i % 4]
            run = ProtocolRun.create([(("q1", "q2"), label)], seed=trial_seeds[i])
            found, _ = full_bsm(run, "q1", "q2")
            fid = fidelity(bell_ket(label), run.register.amplitudes)
            return (i, label, found, float(fid))

        rows = [point(i) for i in range(trials)]
        wrong = sum(r[1] != r[2] or not 1.0 - r[3] <= EXACT for r in rows)
        checks = [Check("bsm_identification", wrong, "<=", 0,
                        "trials with a wrong Bell label or an inexact post-measurement "
                        "state")]
        return ScenarioResult(["trial", "prepared", "identified", "fidelity"],
                              rows, checks)

    if protocol == "hadamard":
        inputs = [random_state(1, rng) for _ in range(trials)]

        def point(i: int):
            v = inputs[i]
            run = ProtocolRun.create([("sys", pair_ket((v[0], v[1]))),
                                      ("anc", "+L")], seed=trial_seeds[i])
            branch, out = logical_hadamard(run, "sys", "anc")
            target = H2 @ v
            reduced = reduced_state(run.register, out.atoms)
            fid = fidelity(pair_ket((target[0], target[1])), reduced)
            return (i, branch, float(fid))

        rows = [point(i) for i in range(trials)]
        infidelity = 1.0 - np.min([r[2] for r in rows])
        checks = [Check("hadamard_fidelity", infidelity, "<=", EXACT,
                        "max infidelity vs H_L")]
        return ScenarioResult(["trial", "branch", "fidelity"], rows, checks)


def run_leakage_demo(cfg: ScenarioConfig) -> ScenarioResult:
    n_random = cfg.get("random_inputs")
    rng = np.random.default_rng(cfg.seed)
    cases = [("0L", "clean"), ("1L", "clean"), ("+L", "clean"), ("-L", "clean"),
             ("2L", "leak"), ("3L", "leak")]
    inputs = [(name, pair_ket(name), expect) for name, expect in cases]
    for i in range(n_random):
        v = random_state(1, rng)
        inputs.append((f"random_{i}", pair_ket((v[0], v[1])), "clean"))

    rows, wrong = [], 0
    for name, vec, expect in inputs:
        run = ProtocolRun.create([("sys", vec), ("anc", "+L")],
                                 seed=int(rng.integers(2**32)))
        verdict, _ = leakage_detect(run, "sys", "anc")
        # a leak verdict leaves nothing to restore: its nan fidelity is by design
        fid = (fidelity(vec, reduced_state(run.register, (0, 1))) if verdict == "clean"
               else math.nan)
        wrong += verdict != expect or (verdict == "clean" and not 1.0 - fid <= EXACT)
        rows.append((name, verdict, fid))
    checks = [Check("leakage_conclusive", wrong, "<=", 0,
                    "inputs with a wrong verdict (leak exactly on |00>/|11>), or clean "
                    "with an inexact restoration")]
    return ScenarioResult(["input", "verdict", "restoration_fidelity"], rows, checks)


RUNNERS = {
    "fidelity-sweep": run_fidelity_sweep,
    "g-sweep": run_g_sweep,
    "decoupling": run_decoupling,
    "transport-noise": run_transport_noise,
    "protocol-run": run_protocol,
    "leakage-demo": run_leakage_demo,
}


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_artifacts(cfg: ScenarioConfig, result: ScenarioResult, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{cfg.name}.csv"
    manifest_path = out / f"{cfg.name}.manifest.json"
    plot_path = out / f"{cfg.name}.gp"
    config_hash = cfg.config_hash()

    lines = [
        "# dfsqc scenario artifact",
        f"# kind: {cfg.kind}",
        f"# name: {cfg.name}",
        f"# config_hash: {config_hash}",
        f"# seed: {cfg.seed}",
        f"# version: {__version__}",
        f"# units: {UNITS_NOTE[cfg.kind]}",
    ]
    lines += [f"# {k}: {result.metadata[k]}" for k in sorted(result.metadata)]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest = {
        "kind": cfg.kind,
        "name": cfg.name,
        "config_hash": config_hash,
        "seed": cfg.seed,
        "version": __version__,
        "csv": csv_path.name,
        "columns": result.columns,
        "checks": [{"name": c.name, "value": float(c.value), "op": c.op, "limit": c.limit,
                    "passed": c.passed, "detail": c.detail} for c in result.checks],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")

    plot_path.write_text(
        "# gnuplot stub\n"
        "set datafile separator ','\n"
        f"set title '{cfg.name} ({cfg.kind})'\n"
        f"plot '{csv_path.name}' using 1:2 with linespoints\n",
        encoding="utf-8",
    )
    paths = {"csv": csv_path, "manifest": manifest_path, "plot": plot_path}
    for suffix, text in result.extra_files.items():
        extra = out / f"{cfg.name}.{suffix}"
        extra.write_text(text, encoding="utf-8")
        paths[suffix] = extra
    return paths


def run_scenario(cfg: ScenarioConfig, out_dir):
    """Execute one scenario and write its artifacts.

    Returns (result, paths); callers decide exit codes from
    ``result.all_passed``.
    """
    result = RUNNERS[cfg.kind](cfg)
    paths = write_artifacts(cfg, result, out_dir)
    return result, paths


def emit_report(directory) -> str:
    """Aggregate manifests in a directory into a human-readable summary."""
    directory = Path(directory)
    manifests = sorted(directory.glob("*.manifest.json"))
    if not manifests:
        raise FileNotFoundError(f"no scenario manifests found in {directory}")
    lines = [f"dfsqc report for {directory}", ""]
    all_ok = True
    for path in manifests:
        data = json.loads(path.read_text(encoding="utf-8"))
        lines.append(f"scenario {data['name']} ({data['kind']}), "
                     f"seed {data['seed']}, config {data['config_hash']}")
        for check in data["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            all_ok = all_ok and check["passed"]
            lines.append(f"  {check['name']}: {check['detail']}: {status}")
        lines.append("")
    lines.append("overall: " + ("PASS" if all_ok else "FAIL"))
    return "\n".join(lines)
