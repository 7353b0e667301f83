"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here and must not be loosened.
"""

import math
import time

import numpy as np

from dfsqc.register import (
    QuantumRegister,
    apply_unitary,
    fidelity,
    random_state,
    reduced_state,
    rz,
    trace_distance,
)
from dfsqc.logical import BELL_LABELS, LogicalQubit, bell_ket, encode_two, pair_ket
from dfsqc.cavity import CavityParams, PulseSpec, cz_gate_fidelity, photon_loss
from dfsqc.noise import (
    EchoSequence,
    NoiseSpectrum,
    TransportNoise,
    echo_variance_analytic,
    free_variance_analytic,
    monte_carlo_dephasing,
    suppression_factor,
)
from dfsqc.config import ScenarioConfig
from dfsqc.protocols import (
    ProtocolRun,
    dfs_transport_advantage,
    full_bsm,
    leakage_detect,
    logical_cz,
    logical_hadamard,
    prepare_xi,
    teleported_cnot,
)
from dfsqc.scenarios import cnot_matrix, narrow_line_spectrum, run_scenario

MHZ = 2 * math.pi * 1e6
REALISTIC = CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ)


def standard_pulse(alpha=1.26):
    return PulseSpec(200 / REALISTIC.kappa, alpha)


def test_criterion_1_fig2a_reproduction():
    started = time.monotonic()
    pulse = standard_pulse()
    f_work = cz_gate_fidelity(None, pulse, REALISTIC)
    fids = [cz_gate_fidelity(None, pulse.with_alpha(math.sqrt(nbar)), REALISTIC)
            for nbar in np.linspace(0.1, 4.0, 20)]
    elapsed = time.monotonic() - started

    assert 0.98 <= f_work <= 1.0, f"working-point fidelity {f_work}"
    assert np.all(np.diff(fids) <= 1e-12), "sweep not monotone"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
    print(f"\n[PASS] criterion 1: F(alpha=1.26) = {f_work:.4f} in [0.98, 1.0]; "
          f"20-point sweep monotone; runtime {elapsed:.2f} s < 60 s")


def test_criterion_2_fig2b_stability():
    pulse = standard_pulse()
    fids = [cz_gate_fidelity(None, pulse, REALISTIC.scaled_g(ratio))
            for ratio in np.linspace(0.5, 1.0, 11)]
    delta = float(max(fids) - min(fids))
    assert delta <= 2e-2, f"|dF| = {delta}"
    print(f"[PASS] criterion 2: |dF| = {delta:.2e} <= 2e-2 for g -> g/2")


def test_criterion_3_photon_loss_scaling():
    pulse = standard_pulse()
    scaled = []
    for g_mhz in np.linspace(10.0, 50.0, 9):
        p = CavityParams(g_mhz * MHZ, REALISTIC.kappa, REALISTIC.gamma)
        scaled.append(photon_loss(pulse, p, p.g**2) * p.g**2
                      / (REALISTIC.kappa * REALISTIC.gamma))
    spread = max(scaled) / min(scaled) - 1.0
    assert spread <= 0.20, f"eta scaling spread {spread:.1%}"
    print(f"[PASS] criterion 3: eta*g^2/(kappa*gamma) constant within "
          f"{spread:.1%} (limit 20%) over g/2pi in [10, 50] MHz")


def test_criterion_4_decoupling_validation():
    spectrum = NoiseSpectrum.band_limited_white(tau_co=1e-3)
    seq = EchoSequence(0.1 / spectrum.cutoff)
    stats = monte_carlo_dephasing([seq], spectrum, 10_000, 20260809)
    analytic = echo_variance_analytic(seq, spectrum)
    pull = abs(stats.var[0, 0] - analytic) / stats.stderr[0, 0]
    assert pull <= 5.0, f"MC vs analytic pull {pull:.2f} SE"

    prods = np.array([0.01, 0.02, 0.05, 0.1])
    seqs = [EchoSequence(p / spectrum.cutoff) for p in prods]
    ratios = [echo_variance_analytic(q, spectrum) / free_variance_analytic(q.total_time, spectrum)
              for q in seqs]
    slope = float(np.polyfit(np.log(prods), np.log(ratios), 1)[0])
    assert abs(slope - 2.0) <= 0.1, f"slope {slope}"

    tau = 100e-6
    worst = 0.0
    for prod in (0.02, 0.05, 0.1):
        w0 = prod / tau
        tn = TransportNoise(tau, narrow_line_spectrum(w0, w0 / 50))
        ratio = suppression_factor(tn) / ((tau * w0) ** 2 / 8)
        worst = max(worst, abs(ratio - 1.0))
    assert worst <= 0.20, f"transport suppression off by {worst:.1%}"
    print(f"[PASS] criterion 4: echo MC within {pull:.2f} SE of analytic at "
          f"1e4 realizations; slope {slope:.3f} = 2 +/- 0.1; transport "
          f"suppression within {worst:.1%} of (tau*w0)^2/8")


def _unit4(k):
    v = np.zeros(4, dtype=complex)
    v[k] = 1.0
    return v


def test_criterion_5_protocol_correctness():
    # logical CZ process matrix
    cols = []
    for k in range(4):
        run = ProtocolRun.create([(("q1", "q2"), encode_two(_unit4(k)))], seed=0)
        logical_cz(run, "q1", "q2")
        cols.append([np.vdot(encode_two(_unit4(j)), run.register.amplitudes)
                     for j in range(4)])
    process = np.array(cols).T
    cz_err = float(np.max(np.abs(process - np.diag([1, 1, 1, -1]))))
    assert cz_err < 1e-10, f"CZ process error {cz_err}"

    # measurement-based Hadamard on 100 random inputs, both branches
    rng = np.random.default_rng(1)
    h2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    worst_h = 1.0
    for _ in range(100):
        v = random_state(1, rng)
        target2 = h2 @ v
        target = pair_ket((target2[0], target2[1]))
        for force in ("x+", "x-"):
            run = ProtocolRun.create(
                [("sys", pair_ket((v[0], v[1]))), ("anc", "+L")], seed=0)
            _, out = logical_hadamard(run, "sys", "anc", force=force)
            red = reduced_state(run.register, [out.atom_a, out.atom_b])
            worst_h = min(worst_h, fidelity(target, red))
    assert worst_h >= 1.0 - 1e-10, f"Hadamard fidelity {worst_h}"

    # full BSM identifies each Bell state with certainty, non-destructively
    for label in BELL_LABELS:
        run = ProtocolRun.create([(("q1", "q2"), label)], seed=0)
        found, _ = full_bsm(run, "q1", "q2")
        assert found == label
        assert fidelity(bell_ket(label), run.register.amplitudes) >= 1 - 1e-12

    # teleported CNOT: 100 random inputs, all 16 Bell branches each
    cnot = cnot_matrix()
    rng = np.random.default_rng(2)
    worst_td = 0.0
    for _ in range(100):
        c4 = random_state(2, rng)
        base = ProtocolRun.create(
            [(("ctrl", "tgt"), encode_two(c4)),
             ("a_prime", "+L"), (("a", "b"), "phi+"), ("b_prime", "0L")],
            seed=0)
        prepare_xi(base, "a_prime", "a", "b", "b_prime")
        ideal = encode_two(cnot @ c4)
        ap, bp = base.layout["a_prime"], base.layout["b_prime"]
        keep = [ap.atom_a, ap.atom_b, bp.atom_a, bp.atom_b]
        for la in BELL_LABELS:
            for lb in BELL_LABELS:
                branch = base.fork(seed=0)
                teleported_cnot(branch, "ctrl", "tgt",
                                ("a", "a_prime", "b", "b_prime"),
                                force=(la, lb))
                red = reduced_state(branch.register, keep)
                worst_td = max(worst_td, trace_distance(ideal, red))
    assert worst_td < 1e-10, f"teleported CNOT trace distance {worst_td}"
    print(f"[PASS] criterion 5: CZ process error {cz_err:.1e} < 1e-10; "
          f"Hadamard fidelity >= {worst_h:.12f} on 100 inputs x 2 branches; "
          f"full BSM certain on all 4 Bell states; teleported CNOT trace "
          f"distance <= {worst_td:.1e} over 100 inputs x 16 branches")


def test_criterion_6_leakage_detection():
    for name in ("2L", "3L"):
        for seed in range(10):
            run = ProtocolRun.create([("sys", name), ("anc", "+L")], seed=seed)
            verdict, _ = leakage_detect(run, "sys", "anc")
            assert verdict == "leak", f"{name} escaped detection"

    rng = np.random.default_rng(3)
    worst = 1.0
    inputs = [pair_ket(n) for n in ("0L", "1L", "+L", "-L")]
    inputs += [pair_ket(tuple(random_state(1, rng))) for _ in range(100)]
    for i, vec in enumerate(inputs):
        run = ProtocolRun.create([("sys", vec), ("anc", "+L")], seed=i)
        verdict, _ = leakage_detect(run, "sys", "anc")
        assert verdict == "clean", "logical input flagged as leak"
        red = reduced_state(run.register, [0, 1])
        worst = min(worst, fidelity(vec, red))
    assert worst >= 1.0 - 1e-10, f"restoration fidelity {worst}"
    print(f"[PASS] criterion 6: leak verdict certain on |00>/|11>; clean "
          f"verdict with restoration fidelity >= {worst:.12f} on 104 "
          f"logical inputs")


def test_criterion_7_dfs_immunity():
    rng = np.random.default_rng(4)
    q = LogicalQubit(0, 1)
    worst = 1.0
    for _ in range(200):
        v = random_state(1, rng)
        psi = pair_ket((v[0], v[1]))
        reg = QuantumRegister(2, psi.copy())
        phi = rng.uniform(-20, 20)
        apply_unitary(reg, rz(phi), [0])
        apply_unitary(reg, rz(phi), [1])
        worst = min(worst, fidelity(psi, reg.amplitudes))
    assert worst >= 1.0 - 1e-12, f"collective-phase fidelity {worst}"

    tn = TransportNoise(100e-6,
                        NoiseSpectrum.band_limited_white(tau_co=1e-3))
    enc, bare = dfs_transport_advantage(tn, 1000, 20260809)
    assert enc > bare, f"encoded {enc} not above bare {bare}"
    print(f"[PASS] criterion 7: collective-phase fidelity >= {worst:.15f}; "
          f"transport MC (1e3 realizations): encoded {enc:.6f} > bare {bare:.6f}")


REPRO_CFG = """\
kind: fidelity-sweep
name: repro
seed: 424242
sweep: {start: 0.5, stop: 2.0, points: 5}
"""

REPRO_PROTO_CFG = """\
kind: protocol-run
name: reproproto
seed: 424242
protocol: teleported-cnot
trials: 5
"""


def test_criterion_8_reproducibility(tmp_path):
    for text, name in ((REPRO_CFG, "repro"), (REPRO_PROTO_CFG, "reproproto")):
        cfg = ScenarioConfig.from_yaml(text)
        run_scenario(cfg, tmp_path / "first")
        run_scenario(cfg, tmp_path / "second")
        a = (tmp_path / "first" / f"{name}.csv").read_bytes()
        b = (tmp_path / "second" / f"{name}.csv").read_bytes()
        assert a == b, f"{name}: double execution differs"
    print("[PASS] criterion 8: identical config + seed produce byte-identical "
          "CSVs (fidelity sweep and protocol run, double execution)")
