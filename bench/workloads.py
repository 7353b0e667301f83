"""Scenario generators for the benchmark workloads (stdlib only).

Each workload turns a seed into a list of scenario config dicts that
``dfsqc simulate`` accepts.  The same (workload, seed) always gives the
same list.  Configs come in blocks: within a block, the sizes that set a
scenario's cost sit at fixed quantiles of the workload's range, moved by a
small seeded jitter and shuffled.  A run stops only at a block boundary, so
every run sees the same cost mix whatever the seed and its medians do not
depend on which sizes a seed happened to draw.  No two scenarios share a
pulse grid or a parameter set, as with separate CLI invocations, so an
in-process cache cannot win a gain that real users would never see.
"""

from __future__ import annotations

import random


def _quantiles(rng: random.Random, lo: float, hi: float, k: int, jitter: float):
    """k sizes at the midpoints of k equal parts of [lo, hi], each moved by
    up to +-jitter, in seeded order."""
    values = [lo + (i + 0.5) * (hi - lo) / k + rng.uniform(-jitter, jitter)
              for i in range(k)]
    rng.shuffle(values)
    return values


def cavity_sweeps(rng: random.Random):
    return [{
        "kind": kind,
        "seed": rng.randrange(2**31),
        "physics": {"g_mhz": round(rng.uniform(26.0, 28.0), 4),
                    "kappa_mhz": round(rng.uniform(2.3, 2.5), 4),
                    "gamma_mhz": round(rng.uniform(2.5, 2.7), 4)},
        "pulse": {"duration_over_kappa": round(rng.uniform(120.0, 250.0), 4),
                  "alpha": 1.26, "kind": "odd_cat"},
    } for kind in ("fidelity-sweep", "g-sweep")]


# Two cycles in two scenarios of three: the median then sits inside one
# cost mode instead of jumping between the n_cycles=1 and =2 modes.
ECHO_CYCLES = (1, 2, 2)
# Fewer than the ~10k of configs/decoupling.yaml, so that a run holds the
# samples the tail rule needs; one 4096-row chunk still sets the peak RSS.
ECHO_REALIZATIONS = 4000


def echo_mc(rng: random.Random):
    cycles = list(ECHO_CYCLES)
    rng.shuffle(cycles)
    return [{
        "kind": "decoupling",
        "seed": rng.randrange(2**31),
        "noise": {"model": "band-limited-white", "tau_co_ms": 1.0,
                  "cutoff_hz": 100.0},
        "echo": {"n_cycles": n,
                 "dt_cutoff_product": [round(rng.uniform(0.01, 0.03), 5),
                                       round(rng.uniform(0.05, 0.1), 5)]},
        "realizations": ECHO_REALIZATIONS,
    } for n in cycles]


def teleport_12(rng: random.Random):
    return [{"kind": "protocol-run", "seed": rng.randrange(2**31),
             "protocol": "teleported-cnot", "trials": round(trials)}
            for trials in _quantiles(rng, 20, 60, 4, 2)]


def short_runs(rng: random.Random):
    block = []
    for protocol in ("bsm", "hadamard"):
        for trials in _quantiles(rng, 20, 200, 8, 4):
            block.append({"kind": "protocol-run", "protocol": protocol,
                          "trials": round(trials)})
    for inputs in _quantiles(rng, 10, 200, 8, 4):
        block.append({"kind": "leakage-demo", "random_inputs": round(inputs)})
    for points in _quantiles(rng, 3, 30, 8, 1):
        start = round(rng.uniform(0.015, 0.03), 5)
        block.append({"kind": "transport-noise",
                      "transport": {"tau_t_us": round(rng.uniform(80.0, 120.0), 3),
                                    "d_um": round(rng.uniform(8.0, 12.0), 3)},
                      "sweep": {"start": start, "stop": round(start * 8.0, 5),
                                "points": round(points)}})
    rng.shuffle(block)
    for cfg in block:
        cfg["seed"] = rng.randrange(2**31)
    return block


# name -> (block generator, shortest expected scenario in seconds)
WORKLOADS = {
    # cavity grid build (_phase_matvec) is ~0.84 of ~0.95 s; no register, noise or protocol work
    "cavity-sweeps": (cavity_sweeps, 0.3),
    # monte_carlo_dephasing is nearly all the time, grows with 2*n_cycles+1 and sets peak RSS
    "echo-mc": (echo_mc, 0.2),
    # 12-atom register: _apply_on_axes and measure, plus 48 forced teleports per scenario
    "teleport-12": (teleport_12, 0.1),
    # 2-6 atoms, 20-200 ms: per-call overhead of the same register/logical/protocol code
    "short-runs": (short_runs, 0.01),
}


def generate(workload: str, seed: int, seconds: float):
    """Scenario configs for one run, enough to fill ``seconds`` and more,
    and the block length a run must stop on."""
    make, shortest = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    configs, block = [], 0
    while len(configs) < max(32, seconds / shortest):
        new = make(rng)
        block = len(new)
        configs += new
    for i, cfg in enumerate(configs):
        cfg["name"] = f"{workload}-{i:05d}"
    return configs, block
