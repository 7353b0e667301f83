"""Composite protocol correctness: primitives, Hadamard, BSM, CNOT, leakage."""

import itertools
import math
import sys

import numpy as np
import pytest

from dfsqc import register
from dfsqc.register import (
    fidelity,
    ket,
    kron_all,
    random_state,
    reduced_state,
    trace_distance,
)
from dfsqc.logical import (
    BELL_LABELS,
    H2,
    H_L,
    HS_DAG_L,
    IDX_0L,
    IDX_1L,
    LeakageError,
    apply_pair_unitary,
    bell_ket,
    encode_two,
    logical_basis_measurement,
    logical_pauli,
    pair_ket,
)
from dfsqc.cavity import CavityParams, PulseSpec, cz_diagonal
from dfsqc.noise import NoiseSpectrum, TransportNoise
from dfsqc.protocols import (
    BasisChange,
    PairFrame,
    ProtocolRun,
    SchedulingError,
    TransportStep,
    arbitrary_logical_rotation,
    bell_subspace_branches,
    bell_subspace_measurement,
    correct_cnot_byproducts,
    dfs_transport_advantage,
    full_bsm,
    full_bsm_branches,
    leakage_detect,
    logical_cz,
    logical_hadamard,
    measure_p12,
    measure_p34,
    physical_cz,
    prepare_xi,
    teleported_cnot,
    transport,
)
from dfsqc.config import ScenarioConfig
from dfsqc.scenarios import (_teleport_once, cnot_matrix, forced_branch_states,
                             run_protocol, xi_run)

MHZ = 2 * math.pi * 1e6


def two_pair_run(state, seed=0, **kw) -> ProtocolRun:
    return ProtocolRun.create([(("q1", "q2"), state)], seed=seed, **kw)


def xi_state() -> np.ndarray:
    zero, one = pair_ket("0L"), pair_ket("1L")
    term1 = kron_all([zero, zero, bell_ket("phi+")])
    term2 = kron_all([one, one, bell_ket("psi+")])
    return (term1 + term2) / math.sqrt(2)


def uz2(alpha):
    """Logical z rotation in the 2-dim logical basis (|0_L>, |1_L>)."""
    return np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)])


class TestErrorModels:
    CAVITY = CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ)

    def test_mode_is_not_an_argument(self):
        with pytest.raises(TypeError):
            ProtocolRun.create([("q", "0L")], mode="noisy")

    def test_ideal_without_an_error_model(self):
        run = ProtocolRun.create([("q", "0L")], pulse=PulseSpec(1e-5, 1.0))
        assert run.mode == "ideal" and run.fork().mode == "ideal"

    @pytest.mark.parametrize("model", ["cavity", "transport_noise", "homodyne_error"])
    def test_noisy_with_any_one_error_model(self, model):
        value = {"cavity": self.CAVITY, "homodyne_error": True,
                 "transport_noise": TransportNoise(100e-6, NoiseSpectrum.band_limited_white(
                     total_power=0.0))}[model]
        run = ProtocolRun.create([("q", "0L")], **{model: value})
        assert run.mode == "noisy" and run.fork(seed=3).mode == "noisy"
        with pytest.raises(AttributeError):
            run.mode = "ideal"

    def test_cavity_without_pulse_cannot_make_a_cz(self):
        run = two_pair_run("phi+", cavity=self.CAVITY)
        transport(run, TransportStep((0, 2)))
        with pytest.raises(SchedulingError, match="pulse"):
            physical_cz(run, 0, 2)

    def test_fork_copies_state_and_shares_models(self):
        tn = TransportNoise(100e-6, NoiseSpectrum.band_limited_white(total_power=0.0))
        run = two_pair_run("phi+", seed=4, cavity=self.CAVITY, transport_noise=tn)
        transport(run, TransportStep((0,)))
        n_entries = len(run.record)
        twin, seeded = run.fork(), run.fork(seed=9)
        assert twin.rng is run.rng and seeded.rng is not run.rng
        assert (twin.cavity, twin.transport_noise) == (run.cavity, run.transport_noise)
        twin.layout["extra"] = None
        twin.record.append(None)
        twin.in_cavity.add(3)
        twin.register.amplitudes[:] = 0
        assert "extra" not in run.layout and len(run.record) == n_entries
        assert run.in_cavity == {0} and np.linalg.norm(run.register.amplitudes) > 0


class TestAllocate:
    def test_appends_a_block_as_create_builds_it(self):
        vec = random_state(4, 61)  # two pairs, leaked components included
        run = ProtocolRun.create([("a", "+L")], seed=0)
        assert run.record == []  # create logs nothing
        qubits = run.allocate(("x", "y"), vec)
        want = ProtocolRun.create([("a", "+L"), (("x", "y"), vec)])
        assert np.array_equal(run.register.amplitudes, want.register.amplitudes)
        assert run.layout == want.layout
        assert qubits == (want.layout["x"], want.layout["y"])
        assert run.allocate("z", "0L").atoms == (6, 7)
        assert [e.line() for e in run.record] == [
            "seq=0 op=allocate name=(x,y) atoms=(2,3,4,5) state=vector",
            "seq=1 op=allocate name=z atoms=(6,7) state=0L"]

    @pytest.mark.parametrize("names, state", [
        ("a", "0L"), (("b", "c"), np.ones(4)), (("b", "c", "d"), "phi+")],
        ids=["duplicate", "dimension", "named-three"])
    def test_failed_allocate_leaves_the_run_unchanged(self, names, state):
        run = ProtocolRun.create([("a", "+L")])
        with pytest.raises(ValueError):
            run.allocate(names, state)
        assert list(run.layout) == ["a"] and run.register.n_qubits == 2
        assert run.record == []


class TestPhysicalCz:
    def test_flips_ones(self):
        run = two_pair_run(kron_all([pair_ket("1L"), pair_ket("1L")]))
        transport(run, TransportStep((0, 2)))
        physical_cz(run, 0, 2)
        np.testing.assert_allclose(run.register.amplitudes, -ket("1010"),
                                   atol=1e-14)

    def test_diagonal_on_01(self):
        run = two_pair_run(kron_all([pair_ket("0L"), pair_ket("1L")]))
        transport(run, TransportStep((0, 2)))
        before = run.register.amplitudes.copy()
        physical_cz(run, 0, 2)
        np.testing.assert_allclose(run.register.amplitudes, before, atol=1e-14)

    def test_linearity_on_bell_like_state(self):
        vec = (ket("00") + ket("11")) / math.sqrt(2)
        run = ProtocolRun.create([("q1", "0L")], seed=0)
        run.register.amplitudes = vec.copy()
        transport(run, TransportStep((0, 1)))
        physical_cz(run, 0, 1)
        expected = (ket("00") - ket("11")) / math.sqrt(2)
        np.testing.assert_allclose(run.register.amplitudes, expected, atol=1e-14)

    def test_requires_atoms_inside(self):
        run = two_pair_run(kron_all([pair_ket("1L"), pair_ket("1L")]))
        with pytest.raises(SchedulingError):
            physical_cz(run, 0, 2)

    def test_noisy_map_reduces_to_ideal(self):
        # enormous coupling, little spontaneous decay, narrowband pulse
        p = CavityParams(27e3 * MHZ, 2.4 * MHZ, 2.6e-3 * MHZ)
        pulse = PulseSpec(2e5 / p.kappa, 1.26)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            vec = random_state(2, rng)
            ideal = two_pair_run(encode_two(vec))
            transport(ideal, TransportStep((0, 2)))
            physical_cz(ideal, 0, 2)
            noisy = two_pair_run(encode_two(vec), cavity=p, pulse=pulse)
            transport(noisy, TransportStep((0, 2)))
            physical_cz(noisy, 0, 2)
            worst = max(worst, 1 - fidelity(ideal.register.amplitudes,
                                            noisy.register.amplitudes))
        assert worst < 1e-6

    def test_noisy_map_damps_amplitudes(self):
        p = CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ)
        pulse = PulseSpec(200 / p.kappa, 1.26)
        run = two_pair_run(encode_two(np.ones(4) / 2), cavity=p, pulse=pulse)
        transport(run, TransportStep((0, 2)))
        physical_cz(run, 0, 2)
        amps = run.register.amplitudes
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        # the (1,1) component is reflected losslessly: its weight grows
        c11 = abs(np.vdot(kron_all([pair_ket("1L"), pair_ket("1L")]), amps))
        c00 = abs(np.vdot(kron_all([pair_ket("0L"), pair_ket("0L")]), amps))
        assert c11 > c00

    def test_noisy_cz_leaves_inputs_unmodified(self):
        p = CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ)
        pulse = PulseSpec(200 / p.kappa, 1.26)
        run = two_pair_run(encode_two(np.ones(4) / 2), cavity=p, pulse=pulse)
        transport(run, TransportStep((0, 2)))
        before = run.register.amplitudes
        saved, cz_map = before.copy(), cz_diagonal(run.pulse, run.cavity).copy()
        physical_cz(run, 0, 2)
        assert not np.allclose(run.register.amplitudes, saved)
        np.testing.assert_array_equal(before, saved)
        np.testing.assert_array_equal(cz_diagonal(run.pulse, run.cavity), cz_map)

    def test_cz_map_follows_the_pulse(self):
        # the map read through a pulse's shared moment memo must match one
        # built on fresh grids, even for a pulse that reuses the id() of a
        # pulse dropped earlier
        p = CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ)
        base = PulseSpec(200 / p.kappa, 1.26)

        def fresh_map(pulse):
            return cz_diagonal(PulseSpec(pulse.T, pulse.alpha), p)

        maps = []
        for alpha in (0.5, 2.0):
            pulse = base.with_alpha(alpha)
            maps.append(cz_diagonal(pulse, p))
            del pulse
        assert not np.allclose(maps[0], maps[1])
        for alpha, m in zip((0.5, 2.0), maps):
            np.testing.assert_array_equal(m, fresh_map(base.with_alpha(alpha)))

        # one run whose pulse is replaced: the previous pulse is freed
        # first, so CPython tends to give the new one the same id()
        run = two_pair_run(encode_two(np.ones(4) / 2), cavity=p,
                           pulse=base.with_alpha(0.25))
        for alpha in (0.5, 0.75, 1.0, 1.5, 2.0, 2.5):
            cz_diagonal(run.pulse, run.cavity)
            run.pulse = None
            run.pulse = base.with_alpha(alpha)
            np.testing.assert_array_equal(cz_diagonal(run.pulse, run.cavity),
                                          fresh_map(run.pulse))


class TestProjectiveMeasurements:
    def test_p12_on_ones(self):
        run = ProtocolRun.create([("q", "0L")], seed=0)
        run.register.amplitudes = ket("11")
        label, _ = measure_p12(run, 0, 1)
        assert label == "pi1"

    def test_p12_born_rule(self):
        vec = (ket("01") + ket("11")) / math.sqrt(2)
        for force in ("pi1", "pi2"):
            run = ProtocolRun.create([("q", "0L")], seed=0)
            run.register.amplitudes = vec.copy()
            label, _ = measure_p12(run, 0, 1, force=force)
            assert label == force
            entry = run.record[-1]
            assert entry.detail["p"] == pytest.approx(0.5)

    def test_p12_on_00(self):
        run = ProtocolRun.create([("q", "2L")], seed=0)
        label, _ = measure_p12(run, 0, 1)
        assert label == "pi2"

    def test_p34_outcomes(self):
        for bits, expect in (("00", "pi3"), ("01", "pi4")):
            run = ProtocolRun.create([("q", "0L")], seed=0)
            run.register.amplitudes = ket(bits)
            label, _ = measure_p34(run, 0, 1)
            assert label == expect

    def test_p34_schedule_records_two_transports(self):
        run = ProtocolRun.create([("q", "0L")], seed=0)
        measure_p34(run, 0, 1)
        kinds = [e.op for e in run.record]
        assert kinds.count("transport") == 2
        assert len(run.in_cavity) <= 2

    def test_p34_born_on_superposition(self):
        vec = (ket("00") + ket("01")) / math.sqrt(2)
        for force, post in (("pi3", "00"), ("pi4", "01")):
            run = ProtocolRun.create([("q", "0L")], seed=0)
            run.register.amplitudes = vec.copy()
            label, _ = measure_p34(run, 0, 1, force=force)
            assert label == force
            np.testing.assert_allclose(run.register.amplitudes, ket(post),
                                       atol=1e-12)

    def test_homodyne_error_without_pulse_cannot_measure(self):
        # the flip rate is set by the probe amplitude; there is no default one
        run = ProtocolRun.create([("q", "3L")], seed=0, homodyne_error=True)
        before = run.register.amplitudes.copy()
        with pytest.raises(SchedulingError, match="probe pulse"):
            measure_p12(run, 0, 1)
        np.testing.assert_array_equal(run.register.amplitudes, before)
        assert [e.op for e in run.record] == ["transport"]

    def test_homodyne_label_error_flips_label_only(self):
        run = ProtocolRun.create([("q", "3L")], seed=0,
                                 cavity=CavityParams(27 * MHZ, 2.4 * MHZ, 2.6 * MHZ),
                                 pulse=PulseSpec(1e-5, 0.05),
                                 homodyne_error=True)
        # alpha = 0.05 makes p_err = erfc(sqrt2*0.05)/2 ~ 0.46: flips happen
        labels = set()
        for _ in range(60):
            work = ProtocolRun.create([("q", "3L")], seed=int(run.rng.integers(2**32)),
                                      cavity=run.cavity, pulse=run.pulse,
                                      homodyne_error=True)
            label, _ = measure_p12(work, 0, 1)
            labels.add(label)
            # projection is unchanged regardless of the reported label
            np.testing.assert_allclose(work.register.amplitudes, ket("11"),
                                       atol=1e-12)
        assert labels == {"pi1", "pi2"}


class TestTransportScheduling:
    def test_occupancy_limit(self):
        run = ProtocolRun.create([(("q1", "q2"), "phi+")], seed=0)
        with pytest.raises(SchedulingError, match="max 2"):
            transport(run, TransportStep((0, 1, 2)))

    def test_cannot_remove_absent_atom(self):
        run = ProtocolRun.create([("q", "0L")], seed=0)
        with pytest.raises(SchedulingError, match="not inside"):
            transport(run, TransportStep((), (0,)))

    def test_ideal_transport_preserves_state(self):
        run = two_pair_run("phi+")
        before = run.register.amplitudes.copy()
        transport(run, TransportStep((0,), ()))
        np.testing.assert_allclose(run.register.amplitudes, before, atol=1e-15)

    def test_noisy_transport_with_zero_spectrum(self):
        tn = TransportNoise(100e-6,
                            NoiseSpectrum.band_limited_white(total_power=0.0))
        run = two_pair_run("phi+", transport_noise=tn)
        before = run.register.amplitudes.copy()
        transport(run, TransportStep((0,), ()))
        np.testing.assert_allclose(run.register.amplitudes, before, atol=1e-15)

    def test_noisy_transport_dephases(self):
        tn = TransportNoise(100e-6,
                            NoiseSpectrum.band_limited_white(
                                tau_co=5e-3, cutoff=2 * math.pi * 30))
        run = ProtocolRun.create([("q", "+L")], seed=8, transport_noise=tn)
        transport(run, TransportStep((0,), ()))
        ops = [e.op for e in run.record]
        assert "transport_dephasing" in ops

    def test_every_transport_lasts_tau_T(self):
        # the Hadamard's transports and those inside measure_p34 alike
        tn = TransportNoise(50e-6, NoiseSpectrum.band_limited_white(
            tau_co=5e-3, cutoff=2 * math.pi * 30))
        run = ProtocolRun.create([("sys", "+L"), ("anc", "+L"), ("q", "0L")],
                                 seed=12, transport_noise=tn)
        logical_hadamard(run, "sys", "anc", force="x+")
        n_hadamard = sum(e.op == "transport" for e in run.record)
        measure_p34(run, run.qubit("anc").atom_a, run.qubit("q").atom_a, force="pi3")
        durations = [e.detail["duration"] for e in run.record if e.op == "transport"]
        assert n_hadamard >= 2 and len(durations) == n_hadamard + 2
        assert set(durations) == {5e-05}
        assert "duration=5e-05" in run.record[0].line()
        # forced outcomes draw nothing: every draw is one transport phase
        phis = [e.detail["phi"] for e in run.record if e.op == "transport_dephasing"]
        replay = np.random.default_rng(12)
        std = tn.tau_T * math.sqrt(tn.power)
        assert len(phis) >= 4
        assert phis == [replay.normal(0.0, std) for _ in phis]

    def test_transport_power_is_computed_once(self, monkeypatch):
        from dfsqc import noise

        orig, calls = noise.synthesize, []

        def counting(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(noise, "synthesize", counting)
        tn = TransportNoise(100e-6, NoiseSpectrum.band_limited_white(
            tau_co=5e-3, cutoff=2 * math.pi * 30))
        assert len(calls) == 1
        run = ProtocolRun.create([("q", "+L")], seed=8, transport_noise=tn)
        for _ in range(10):
            transport(run, TransportStep((0,), ()))
            transport(run, TransportStep((), (0,)))
        assert sum(e.op == "transport_dephasing" for e in run.record) == 20
        assert len(calls) == 1


class TestLogicalHadamard:
    def test_zero_maps_to_plus(self):
        run = ProtocolRun.create([("sys", "0L"), ("anc", "+L")], seed=1)
        label, out = logical_hadamard(run, "sys", "anc")
        red = reduced_state(run.register, [out.atom_a, out.atom_b])
        assert fidelity(pair_ket("+L"), red) >= 1 - 1e-12

    def test_minus_maps_to_one(self):
        # oracle: H @ (1,-1)/sqrt2 = (0, 1)
        run = ProtocolRun.create([("sys", "-L"), ("anc", "+L")], seed=1)
        _, out = logical_hadamard(run, "sys", "anc")
        red = reduced_state(run.register, [out.atom_a, out.atom_b])
        assert fidelity(pair_ket("1L"), red) >= 1 - 1e-12

    def test_both_branches_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = random_state(1, rng)
            target2 = H2 @ v
            target = pair_ket((target2[0], target2[1]))
            for force in ("x+", "x-"):
                run = ProtocolRun.create(
                    [("sys", pair_ket((v[0], v[1]))), ("anc", "+L")], seed=0)
                _, out = logical_hadamard(run, "sys", "anc", force=force)
                red = reduced_state(run.register, [out.atom_a, out.atom_b])
                assert fidelity(target, red) >= 1 - 1e-10

    def test_double_hadamard_is_identity(self):
        rng = np.random.default_rng(9)
        v = random_state(1, rng)
        run = ProtocolRun.create([("sys", pair_ket((v[0], v[1]))),
                                  ("anc1", "+L"), ("anc2", "+L")], seed=3)
        _, mid = logical_hadamard(run, "sys", "anc1")
        _, out = logical_hadamard(run, mid, "anc2")
        red = reduced_state(run.register, [out.atom_a, out.atom_b])
        assert fidelity(pair_ket((v[0], v[1])), red) >= 1 - 1e-10

    def test_system_is_consumed(self):
        run = ProtocolRun.create([("sys", "0L"), ("anc", "+L")], seed=2)
        label, _ = logical_hadamard(run, "sys", "anc")
        sysq = run.layout["sys"]
        red = reduced_state(run.register, [sysq.atom_a, sysq.atom_b])
        eigen = pair_ket("+L") if label == "x+" else pair_ket("-L")
        assert fidelity(eigen, red) >= 1 - 1e-10

    def test_homodyne_error_without_pulse_cannot_measure_x(self):
        run = ProtocolRun.create([("sys", "0L"), ("anc", "+L")], seed=2,
                                 homodyne_error=True)
        rng_state = run.rng.bit_generator.state
        with pytest.raises(SchedulingError, match="probe pulse"):
            logical_hadamard(run, "sys", "anc")
        assert "measure_logical_x" not in [e.op for e in run.record]
        assert run.rng.bit_generator.state == rng_state

    def test_homodyne_error_flips_the_x_label(self):
        # alpha = 0.05: p_err = erfc(sqrt2*0.05)/2 ~ 0.47 per measurement
        pulse, n = PulseSpec(1e-5, 0.05), 40
        p_err = 0.5 * math.erfc(math.sqrt(2.0) * 0.05)
        flips = 0
        for seed in range(n):
            run = ProtocolRun.create([("sys", "0L"), ("anc", "+L")], seed=seed,
                                     pulse=pulse, homodyne_error=True)
            label, _ = logical_hadamard(run, "sys", "anc")
            ideal = ProtocolRun.create([("sys", "0L"), ("anc", "+L")], seed=seed)
            measured, _ = logical_hadamard(ideal, "sys", "anc")
            ideal.rng.random()  # the one flip draw
            assert run.rng.bit_generator.state == ideal.rng.bit_generator.state
            entry, = [e for e in run.record if e.op == "measure_logical_x"]
            flipped = bool(entry.detail.get("label_flip"))
            assert entry.detail["outcome"] == label
            assert label == ({"x+": "x-", "x-": "x+"}[measured] if flipped else measured)
            # the correction follows the reported label, not the measured one
            corrections = [e.detail["trigger"] for e in run.record if e.op == "correction"]
            assert corrections == (["x-"] if label == "x-" else [])
            flips += flipped
        assert abs(flips - n * p_err) <= 3 * math.sqrt(n * p_err * (1 - p_err))

    def test_homodyne_error_never_flips_a_leak(self):
        kw = dict(pulse=PulseSpec(1e-5, 0.05), homodyne_error=True)
        for seed in range(10):
            run = ProtocolRun.create([("sys", "2L"), ("anc", "+L")], seed=seed, **kw)
            ideal = ProtocolRun.create([("sys", "2L"), ("anc", "+L")], seed=seed)
            assert logical_hadamard(run, "sys", "anc")[0] == "leak"
            logical_hadamard(ideal, "sys", "anc")
            assert run.rng.bit_generator.state == ideal.rng.bit_generator.state
            assert not any(e.detail.get("label_flip") for e in run.record)

    def test_leaked_input_aborts(self):
        run = ProtocolRun.create([("sys", "2L"), ("anc", "+L")], seed=2)
        label, _ = logical_hadamard(run, "sys", "anc")
        assert label == "leak"
        assert any(e.op == "abort" for e in run.record)


class TestArbitraryRotation:
    def oracle(self, alpha, beta, sigma):
        return uz2(alpha) @ H2 @ uz2(beta) @ H2 @ uz2(sigma)

    def run_rotation(self, v, angles, forces=(None, None)):
        run = ProtocolRun.create([("q", pair_ket((v[0], v[1])))], seed=4)
        status, out = arbitrary_logical_rotation(run, "q", *angles, forces=forces)
        assert status == "ok"
        red = reduced_state(run.register, [out.atom_a, out.atom_b])
        return red

    def test_zero_angles_identity(self):
        rng = np.random.default_rng(10)
        v = random_state(1, rng)
        red = self.run_rotation(v, (0.0, 0.0, 0.0))
        assert fidelity(pair_ket((v[0], v[1])), red) >= 1 - 1e-10

    def test_quarter_x_rotation(self):
        v = np.array([1.0, 0.0])
        target2 = self.oracle(0.0, math.pi / 4, 0.0) @ v
        red = self.run_rotation(v, (0.0, math.pi / 4, 0.0))
        assert fidelity(pair_ket((target2[0], target2[1])),
                        red) >= 1 - 1e-10

    def test_generic_angles_against_matrix_oracle(self):
        rng = np.random.default_rng(13)
        angles = (math.pi / 4, math.pi / 4, math.pi / 4)
        for forces in itertools.product(("x+", "x-"), repeat=2):
            v = random_state(1, rng)
            target2 = self.oracle(*angles) @ v
            red = self.run_rotation(v, angles, forces=forces)
            assert fidelity(pair_ket((target2[0], target2[1])),
                            red) >= 1 - 1e-10


class TestBellMeasurements:
    def test_parity_distinguishes_phi_psi(self):
        for label, expect in (("phi+", "phi"), ("phi-", "phi"),
                              ("psi+", "psi"), ("psi-", "psi")):
            run = two_pair_run(label)
            got, _ = bell_subspace_measurement(run, "q1", "q2", "parity")
            assert got == expect
            assert fidelity(bell_ket(label), run.register.amplitudes) >= 1 - 1e-12

    def test_phase_distinguishes_plus_minus(self):
        for label, expect in (("phi+", "plus"), ("psi+", "plus"),
                              ("phi-", "minus"), ("psi-", "minus")):
            run = two_pair_run(label)
            got, _ = bell_subspace_measurement(run, "q1", "q2", "phase")
            assert got == expect
            assert fidelity(bell_ket(label), run.register.amplitudes) >= 1 - 1e-12

    def test_yy_pairing(self):
        # Y x Y = +1 on {phi-, psi+}, -1 on {phi+, psi-}
        for label, expect in (("phi-", "yy+"), ("psi+", "yy+"),
                              ("phi+", "yy-"), ("psi-", "yy-")):
            run = two_pair_run(label)
            got, _ = bell_subspace_measurement(run, "q1", "q2", "yy")
            assert got == expect
            assert fidelity(bell_ket(label), run.register.amplitudes) >= 1 - 1e-12

    def test_product_state_projects_into_phi(self):
        # |0L 0L> = (phi+ + phi-)/sqrt2: parity gives phi with certainty
        run = two_pair_run(kron_all([pair_ket("0L"), pair_ket("0L")]))
        got, _ = bell_subspace_measurement(run, "q1", "q2", "parity")
        assert got == "phi"
        expected = (bell_ket("phi+") + bell_ket("phi-")) / math.sqrt(2)
        assert fidelity(expected, run.register.amplitudes) >= 1 - 1e-12

    def test_leakage_flagged(self):
        run = two_pair_run(kron_all([ket("00"), pair_ket("0L")]))
        with pytest.raises(LeakageError):
            bell_subspace_measurement(run, "q1", "q2", "parity")
        # the error comes before any state change, log line or draw
        for which in ("parity", "phase", "yy"):
            run = two_pair_run(kron_all([ket("00"), pair_ket("0L")]), seed=4)
            transport(run, TransportStep((2,), ()))
            amps = run.register.amplitudes.copy()
            record, in_cavity = list(run.record), set(run.in_cavity)
            rng_state = run.rng.bit_generator.state
            with pytest.raises(LeakageError):
                bell_subspace_measurement(run, "q1", "q2", which)
            assert np.array_equal(run.register.amplitudes, amps)
            assert run.record == record
            assert run.in_cavity == in_cavity
            assert run.rng.bit_generator.state == rng_state


class TestFullBsm:
    def test_identifies_each_bell_state(self):
        for label in BELL_LABELS:
            run = two_pair_run(label, seed=11)
            got, _ = full_bsm(run, "q1", "q2")
            assert got == label
            assert fidelity(bell_ket(label), run.register.amplitudes) >= 1 - 1e-12

    def test_product_input_collapses_to_phi_branch(self):
        for force in ("phi+", "phi-"):
            run = two_pair_run(kron_all([pair_ket("0L"), pair_ket("0L")]))
            got, _ = full_bsm(run, "q1", "q2", force=force)
            assert got == force
            assert fidelity(bell_ket(force), run.register.amplitudes) >= 1 - 1e-12

    def test_repeated_bsm_is_stable(self):
        run = two_pair_run(kron_all([pair_ket("+L"), pair_ket("0L")]), seed=21)
        first, _ = full_bsm(run, "q1", "q2")
        second, _ = full_bsm(run, "q1", "q2")
        assert first == second


class TestBranchEnumeration:
    """Every branch at once equals the measurement forced to it, bit for bit."""

    LABELS = {"parity": ["phi", "psi"], "phase": ["plus", "minus"], "yy": ["yy+", "yy-"]}

    def make_run(self, seed=60):
        # a spare pair first, so the measured atoms are not the lowest, and
        # one atom already inside the cavity
        run = ProtocolRun.create(
            [("spare", "+L"), (("q1", "q2"), encode_two(random_state(2, seed)))], seed=seed)
        transport(run, TransportStep((0,)))
        return run

    def assert_same(self, branch, forced):
        assert np.array_equal(branch.register.amplitudes, forced.register.amplitudes)
        assert [e.line() for e in branch.record] == [e.line() for e in forced.record]
        assert branch.in_cavity == forced.in_cavity

    @pytest.mark.parametrize("which", sorted(LABELS))
    def test_bell_subspace_branches_equal_forced_measurements(self, which):
        run = self.make_run()
        amps, record = run.register.amplitudes.copy(), list(run.record)
        rng_state = run.rng.bit_generator.state
        branches = bell_subspace_branches(run, "q1", "q2", which)
        assert list(branches) == self.LABELS[which]
        for label, branch in branches.items():
            forced = self.make_run()
            bell_subspace_measurement(forced, "q1", "q2", which, force=label)
            self.assert_same(branch, forced)
        # the enumerated run is left as it was, and nothing drew
        assert np.array_equal(run.register.amplitudes, amps)
        assert run.record == record and run.in_cavity == {0}
        assert run.rng.bit_generator.state == rng_state

    def test_full_bsm_branches_equal_forced_measurements(self):
        branches = full_bsm_branches(self.make_run(), "q1", "q2")
        assert list(branches) == list(BELL_LABELS)
        for label, branch in branches.items():
            forced = self.make_run()
            full_bsm(forced, "q1", "q2", force=label)
            self.assert_same(branch, forced)

    def test_outcome_without_weight_has_no_branch(self):
        run = two_pair_run("psi-")
        assert list(bell_subspace_branches(run, "q1", "q2", "parity")) == ["psi"]
        assert list(full_bsm_branches(run, "q1", "q2")) == ["psi-"]

    def test_noisy_run_is_not_enumerated(self):
        run = two_pair_run("phi+", homodyne_error=True)
        with pytest.raises(ValueError, match="ideal"):
            bell_subspace_branches(run, "q1", "q2")
        assert run.record == []

    def test_leakage_flagged_before_any_change(self):
        run = two_pair_run(kron_all([ket("00"), pair_ket("0L")]))
        with pytest.raises(LeakageError):
            full_bsm_branches(run, "q1", "q2")
        assert run.record == [] and run.in_cavity == set()


class TestLogicalCz:
    def test_process_matrix_is_diag(self):
        # reconstruct the logical-block operator column by column
        cols = []
        for n in (0, 1):
            for m in (0, 1):
                vec = np.zeros(4, dtype=complex)
                vec[m + 2 * n] = 1.0
                run = two_pair_run(encode_two(vec))
                logical_cz(run, "q1", "q2")
                col = [np.vdot(encode_two(_unit(k)), run.register.amplitudes)
                       for k in range(4)]
                cols.append(col)
        op = np.array(cols).T
        np.testing.assert_allclose(op, np.diag([1, 1, 1, -1]), atol=1e-10)

    def test_linearity_on_basis_pairs(self):
        # superposition probes agree with the reconstructed diagonal
        target = np.diag([1, 1, 1, -1]).astype(complex)
        for i in range(4):
            for j in range(4):
                vec = _unit(i) if i == j else (_unit(i) + _unit(j)) / math.sqrt(2)
                run = two_pair_run(encode_two(vec))
                logical_cz(run, "q1", "q2")
                expected = encode_two(target @ vec)
                assert fidelity(expected, run.register.amplitudes) >= 1 - 1e-12

    def test_entangles_plus_plus(self):
        vec = np.ones(4) / 2  # |+L +L>
        run = two_pair_run(encode_two(vec))
        logical_cz(run, "q1", "q2")
        red = reduced_state(run.register, [0, 1])
        purity = float(np.real(np.trace(red @ red)))
        assert purity == pytest.approx(0.5, abs=1e-10)


def _unit(k):
    v = np.zeros(4, dtype=complex)
    v[k] = 1.0
    return v


class TestEncodeTwo:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_four_term_kron_sum(self, seed):
        c4 = random_state(2, seed)
        want = np.zeros(16, dtype=complex)
        for n in (0, 1):
            for m in (0, 1):
                want += c4[m + 2 * n] * np.kron(pair_ket(f"{n}L"), pair_ket(f"{m}L"))
        assert np.array_equal(encode_two(c4), want)


class TestPrepareXi:
    def make_run(self, seed=0):
        return ProtocolRun.create(
            [("a_prime", "+L"), (("a", "b"), "phi+"), ("b_prime", "0L")],
            seed=seed)

    def test_indicated_branch_exact(self):
        run = self.make_run()
        (l1, l2), _ = prepare_xi(run, "a_prime", "a", "b", "b_prime",
                                 force=("phi", "plus"))
        assert (l1, l2) == ("phi", "plus")
        assert fidelity(xi_state(), run.register.amplitudes) >= 1 - 1e-12

    def test_all_branches_corrected(self):
        for f1 in ("phi", "psi"):
            for f2 in ("plus", "minus"):
                run = self.make_run()
                _, _ = prepare_xi(run, "a_prime", "a", "b", "b_prime",
                                  force=(f1, f2))
                assert fidelity(xi_state(), run.register.amplitudes) >= 1 - 1e-12

    def test_branch_probabilities_quarter(self):
        run = self.make_run()
        prepare_xi(run, "a_prime", "a", "b", "b_prime", force=("psi", "minus"))
        ps = [e.detail["p"] for e in run.record if e.op == "measure_p34"]
        assert ps == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_schmidt_rank_two(self):
        # rank 2 across the (A A') | (B B') cut
        run = self.make_run()
        prepare_xi(run, "a_prime", "a", "b", "b_prime", force=("phi", "plus"))
        amps = run.register.amplitudes.reshape([2] * 8)
        # atoms 0..3 = a', a; atoms 4..7 = b, b' (little endian axes reversed)
        mat = np.moveaxis(amps, list(range(8)), list(range(8))[::-1])
        mat = mat.reshape(16, 16)
        svals = np.linalg.svd(mat, compute_uv=False)
        assert np.sum(svals > 1e-10) == 2
        np.testing.assert_allclose(sorted(svals[:2]), [1 / math.sqrt(2)] * 2,
                                   atol=1e-12)

    def test_brute_force_correction_search_matches_table(self):
        """Independent oracle: exhaustive logical-Pauli search per branch."""
        from dfsqc.protocols import _XI_CORRECTIONS

        target = xi_state()
        for f1 in ("phi", "psi"):
            for f2 in ("plus", "minus"):
                run = self.make_run()
                qs = {n: run.layout[n] for n in ("a_prime", "b_prime")}
                bell_subspace_measurement(run, "a", "a_prime", "parity",
                                          force=f1)
                bell_subspace_measurement(run, "b", "b_prime", "phase",
                                          force=f2)
                found = []
                for pa in "IXYZ":
                    for pb in "IXYZ":
                        probe = run.register.copy()
                        if pa != "I":
                            logical_pauli(probe, qs["a_prime"], pa)
                        if pb != "I":
                            logical_pauli(probe, qs["b_prime"], pb)
                        if fidelity(target, probe.amplitudes) >= 1 - 1e-10:
                            found.append((pa, pb))
                table = dict(_XI_CORRECTIONS[(f1, f2)])
                expected = (table.get("a_prime", "I"), table.get("b_prime", "I"))
                assert expected in found


class TestTeleportedCnot:
    def replay(self, c4, seed=0, force=None) -> ProtocolRun:
        """The resource first, then the input on (ctrl, tgt), then the CNOT."""
        run = ProtocolRun.create(
            [("a_prime", "+L"), (("a", "b"), "phi+"), ("b_prime", "0L")], seed=seed)
        prepare_xi(run, "a_prime", "a", "b", "b_prime")
        run.allocate(("ctrl", "tgt"), encode_two(c4))
        teleported_cnot(run, "ctrl", "tgt", ("a", "a_prime", "b", "b_prime"),
                        force=force)
        return run

    def run_once(self, c4, seed=0, force=None):
        run = self.replay(c4, seed, force)
        ap, bp = run.layout["a_prime"], run.layout["b_prime"]
        return reduced_state(run.register, [ap.atom_a, ap.atom_b,
                                            bp.atom_a, bp.atom_b])

    def test_control_one_flips_target(self):
        c4 = _unit(1)  # |1L 0L>
        for la in BELL_LABELS:
            for lb in BELL_LABELS:
                red = self.run_once(c4, force=(la, lb))
                assert fidelity(encode_two(_unit(3)), red) >= 1 - 1e-10

    def test_control_zero_is_identity(self):
        red = self.run_once(_unit(0), seed=5)
        assert fidelity(encode_two(_unit(0)), red) >= 1 - 1e-10

    def test_plus_control_makes_bell_state(self):
        c4 = np.zeros(4, dtype=complex)
        c4[0] = c4[1] = 1 / math.sqrt(2)  # |+L 0L>
        red = self.run_once(c4, seed=6)
        target = (encode_two(_unit(0)) + encode_two(_unit(3))) / math.sqrt(2)
        assert fidelity(target, red) >= 1 - 1e-10

    def test_random_inputs_against_direct_cnot(self):
        rng = np.random.default_rng(30)
        cnot = cnot_matrix()
        for trial in range(25):
            c4 = random_state(2, rng)
            red = self.run_once(c4, seed=trial)
            assert fidelity(encode_two(cnot @ c4), red) >= 1 - 1e-10

    def test_branch_independence(self):
        rng = np.random.default_rng(31)
        c4 = random_state(2, rng)
        outs = [self.run_once(c4, force=(la, lb))
                for la in BELL_LABELS for lb in BELL_LABELS]
        worst = max(trace_distance(outs[0], o) for o in outs[1:])
        assert worst < 1e-10

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_shared_prefix_matches_independent_runs(self, seed):
        c4 = random_state(2, seed)
        shared = forced_branch_states(xi_run(0)[0], c4)
        branches = itertools.product(BELL_LABELS, BELL_LABELS)
        for k, force in enumerate(branches):
            assert np.array_equal(shared[k], self.run_once(c4, force=force))

    @pytest.mark.parametrize("seed", [34, 35])
    def test_enumerated_leaves_equal_forced_replays(self, seed):
        c4 = random_state(2, seed)
        run = xi_run(0)[0]
        run.allocate(("ctrl", "tgt"), encode_two(c4))
        leaves = 0
        for la, after_a in full_bsm_branches(run, "ctrl", "a").items():
            for lb, leaf in full_bsm_branches(after_a, "tgt", "b").items():
                correct_cnot_byproducts(leaf, la, lb, "a_prime", "b_prime")
                forced = self.replay(c4, force=(la, lb))
                assert np.array_equal(leaf.register.amplitudes, forced.register.amplitudes)
                assert [e.line() for e in leaf.record] == [e.line() for e in forced.record]
                assert leaf.in_cavity == forced.in_cavity
                leaves += 1
        assert leaves == 16

    def test_branch_probe_makes_fifteen_projections(self, monkeypatch):
        # per input: one parity and two phase splits per Bell measurement,
        # for (ctrl, a) once and for (tgt, b) on each of its four branches
        xi = xi_run(0)[0]
        real, calls = register._branches, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(register, "_branches", counting)
        forced_branch_states(xi, random_state(2, 36))
        assert len(calls) == 15

    def test_trials_match_the_data_first_block_order(self):
        # the resource used to be built after the input, in one product
        rng = np.random.default_rng(37)
        for trial in range(200):
            c4, seed = random_state(2, rng), int(rng.integers(2**32))
            (_, xi_label, la, lb, fid), _ = _teleport_once(trial, c4, seed)
            old = ProtocolRun.create(
                [(("ctrl", "tgt"), encode_two(c4)),
                 ("a_prime", "+L"), (("a", "b"), "phi+"), ("b_prime", "0L")], seed=seed)
            (l1, l2), _ = prepare_xi(old, "a_prime", "a", "b", "b_prime")
            outcomes, _ = teleported_cnot(old, "ctrl", "tgt",
                                          ("a", "a_prime", "b", "b_prime"))
            ap, bp = old.layout["a_prime"], old.layout["b_prime"]
            want = fidelity(encode_two(cnot_matrix() @ c4),
                            reduced_state(old.register, ap.atoms + bp.atoms))
            assert (xi_label, (la, lb)) == (f"{l1}/{l2}", outcomes)
            assert abs(fid - want) <= 1e-12

    def test_scenario_builds_one_run_per_trial_and_probe(self, monkeypatch):
        create, calls = ProtocolRun.create, []

        def counting_create(*args, **kwargs):
            calls.append(args)
            return create(*args, **kwargs)

        monkeypatch.setattr(ProtocolRun, "create", staticmethod(counting_create))
        trials = 4
        run_protocol(ScenarioConfig.from_yaml(
            "kind: protocol-run\nname: tele\nseed: 4\n"
            f"protocol: teleported-cnot\ntrials: {trials}\n"))
        # one resource run per sampled trial, one shared by the three branch probes
        assert len(calls) == trials + 1

    def test_measured_pairs_left_in_bell_states(self):
        run = ProtocolRun.create(
            [(("ctrl", "tgt"), encode_two(_unit(2))),
             ("a_prime", "+L"), (("a", "b"), "phi+"), ("b_prime", "0L")],
            seed=9)
        prepare_xi(run, "a_prime", "a", "b", "b_prime")
        (la, lb), _ = teleported_cnot(run, "ctrl", "tgt",
                                      ("a", "a_prime", "b", "b_prime"))
        ctrl, a = run.layout["ctrl"], run.layout["a"]
        red = reduced_state(run.register, [ctrl.atom_a, ctrl.atom_b,
                                           a.atom_a, a.atom_b])
        assert fidelity(bell_ket(la), red) >= 1 - 1e-10


class TestLeakageDetect:
    def make_run(self, vec, seed=0):
        return ProtocolRun.create([("sys", vec), ("anc", "+L")], seed=seed)

    def test_pure_leakage_flagged(self):
        for name in ("2L", "3L"):
            for seed in range(8):
                run = self.make_run(name, seed)
                verdict, _ = leakage_detect(run, "sys", "anc")
                assert verdict == "leak"

    def test_logical_inputs_clean_and_restored(self):
        rng = np.random.default_rng(40)
        inputs = [pair_ket(n) for n in ("0L", "1L", "+L", "-L")]
        inputs += [pair_ket(tuple(random_state(1, rng))) for _ in range(100)]
        for i, vec in enumerate(inputs):
            run = self.make_run(vec, seed=i)
            verdict, _ = leakage_detect(run, "sys", "anc")
            assert verdict == "clean"
            red = reduced_state(run.register, [0, 1])
            assert fidelity(vec, red) >= 1 - 1e-10

    def test_superposition_collapses_by_born_rule(self):
        vec = (pair_ket("0L") + pair_ket("2L")) / math.sqrt(2)
        run = self.make_run(vec, seed=1)
        verdict, _ = leakage_detect(run, "sys", "anc", force="clean")
        red = reduced_state(run.register, [0, 1])
        assert fidelity(pair_ket("0L"), red) >= 1 - 1e-10
        run = self.make_run(vec, seed=1)
        verdict, _ = leakage_detect(run, "sys", "anc", force="leak")
        assert verdict == "leak"
        red = reduced_state(run.register, [0, 1])
        assert fidelity(pair_ket("2L"), red) >= 1 - 1e-10

    def test_verdict_statistics(self):
        vec = (pair_ket("0L") + pair_ket("2L")) / math.sqrt(2)
        verdicts = [leakage_detect(self.make_run(vec, seed=s), "sys", "anc")[0]
                    for s in range(200)]
        frac = verdicts.count("leak") / len(verdicts)
        assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / len(verdicts))


class TestNormAndRecord:
    def test_norm_preserved_through_protocol_chain(self):
        rng = np.random.default_rng(50)
        run = ProtocolRun.create(
            [(("ctrl", "tgt"), encode_two(random_state(2, rng))),
             ("a_prime", "+L"), (("a", "b"), "phi+"), ("b_prime", "0L")],
            seed=3)
        prepare_xi(run, "a_prime", "a", "b", "b_prime")
        teleported_cnot(run, "ctrl", "tgt", ("a", "a_prime", "b", "b_prime"))
        assert abs(np.linalg.norm(run.register.amplitudes) - 1.0) < 1e-12

    def test_record_lines_format(self):
        run = ProtocolRun.create([("sys", "0L"), ("anc", "+L")], seed=2)
        logical_hadamard(run, "sys", "anc")
        lines = [entry.line() for entry in run.record]
        assert lines, "record must not be empty"
        assert all(line.startswith("seq=") for line in lines)
        assert any("op=physical_cz" in line for line in lines)
        assert any("op=measure_logical_x" in line for line in lines)

    def test_corrections_logged_with_trigger(self):
        run = ProtocolRun.create([("sys", "0L"), ("anc", "+L")], seed=2)
        logical_hadamard(run, "sys", "anc", force="x-")
        corr = [e for e in run.record if e.op == "correction"]
        assert corr and corr[0].detail["trigger"] == "x-"


class TestDfsAdvantage:
    def test_encoded_beats_bare_qubit(self):
        tn = TransportNoise(100e-6,
                            NoiseSpectrum.band_limited_white(tau_co=1e-3))
        enc, bare = dfs_transport_advantage(tn, 1000, 123)
        assert enc > bare
        assert enc > 0.999


# ---------------------------------------------------------------------------
# Bell-subspace projections in a changed frame against the explicit sequence
# ---------------------------------------------------------------------------

_CHANGE = {"parity": None, "phase": H_L, "yy": HS_DAG_L}
_PI_LABEL = {"parity": {"pi3": "phi", "pi4": "psi"},
             "phase": {"pi3": "plus", "pi4": "minus"},
             "yy": {"pi3": "yy+", "pi4": "yy-"}}


def random_logical_state(n_pairs, rng) -> np.ndarray:
    """Random state on the logical span of ``n_pairs`` consecutive pairs."""
    c = random_state(n_pairs, rng)
    vec = np.zeros(4 ** n_pairs, dtype=complex)
    for m, amp in enumerate(c):
        bits = [(m >> k) & 1 for k in range(n_pairs)]
        vec[sum((IDX_1L if b else IDX_0L) << (2 * k) for k, b in enumerate(bits))] = amp
    return vec


def reference_projection(run, q1, q2, which, force=None):
    """The projection as conjugate, measure_p34, unconjugate on the full register."""
    q1, q2 = run.qubit(q1), run.qubit(q2)
    change = _CHANGE[which]
    if change is not None:
        apply_pair_unitary(run.register, q1, change)
        apply_pair_unitary(run.register, q2, change)
    pi_force = None if force is None else {v: k for k, v in _PI_LABEL[which].items()}[force]
    pi_label, _ = measure_p34(run, q1.atom_a, q2.atom_a, force=pi_force)
    if change is not None:
        apply_pair_unitary(run.register, q1, change.conj().T)
        apply_pair_unitary(run.register, q2, change.conj().T)
    return _PI_LABEL[which][pi_label]


def twin_runs(blocks, seed, **kw):
    return (ProtocolRun.create(blocks, seed=seed, **kw),
            ProtocolRun.create(blocks, seed=seed, **kw))


def without_p(entry):
    return entry.op, {k: v for k, v in entry.detail.items() if k != "p"}


def p_of(run):
    return [e.detail["p"] for e in run.record if e.op == "measure_p34"]


class TestProjectionInChangedFrame:
    PAIRS = (("q4", "q1"), ("q2", "q5"), ("q3", "q0"))

    @pytest.mark.parametrize("which", ["parity", "phase", "yy"])
    def test_ideal_matches_conjugated_sequence(self, which):
        names = tuple(f"q{k}" for k in range(6))
        rng = np.random.default_rng(31)
        for trial in range(6):
            blocks = [(names, random_logical_state(6, rng))]
            q1, q2 = self.PAIRS[trial % len(self.PAIRS)]
            for force in (None, *_PI_LABEL[which].values()):
                fused, ref = twin_runs(blocks, seed=100 + trial)
                got, _ = bell_subspace_measurement(fused, q1, q2, which, force=force)
                want = reference_projection(ref, q1, q2, which, force=force)
                assert got == want
                assert fused.rng.bit_generator.state == ref.rng.bit_generator.state
                assert [without_p(e) for e in fused.record[:-1]] == \
                    [without_p(e) for e in ref.record]
                np.testing.assert_allclose(p_of(fused), p_of(ref), rtol=0, atol=1e-15)
                np.testing.assert_allclose(fused.register.amplitudes,
                                           ref.register.amplitudes, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("which", ["phase", "yy"])
    def test_noisy_transport_dephases_in_the_changed_frame(self, which):
        # the transports inside measure_p34 dephase between the basis change
        # and the projection, so q1's and q2's phases act in the changed frame
        tn = TransportNoise(100e-6, NoiseSpectrum.band_limited_white(
            tau_co=3e-5, cutoff=2 * math.pi * 4e3))
        kw = dict(transport_noise=tn, homodyne_error=True,
                  pulse=PulseSpec(1e-5, 0.3))
        rng = np.random.default_rng(32)
        flips = 0
        for seed in range(8):
            blocks = [(("q1", "q2", "q3"), random_logical_state(3, rng))]
            for force in (None, *_PI_LABEL[which].values()):
                fused, ref = twin_runs(blocks, seed=seed, **kw)
                for run in (fused, ref):  # q2's atom_a waits inside the cavity
                    transport(run, TransportStep((2,), ()))
                got, _ = bell_subspace_measurement(fused, "q3", "q1", which, force=force)
                want = reference_projection(ref, "q3", "q1", which, force=force)
                assert got == want
                assert fused.rng.bit_generator.state == ref.rng.bit_generator.state
                assert [without_p(e) for e in fused.record[:-1]] == \
                    [without_p(e) for e in ref.record]
                np.testing.assert_allclose(p_of(fused), p_of(ref), rtol=0, atol=1e-13)
                np.testing.assert_allclose(fused.register.amplitudes,
                                           ref.register.amplitudes, rtol=0, atol=1e-13)
                ops = [e.op for e in ref.record]
                assert ops.count("transport_dephasing") == 5
                flips += any(e.detail.get("label_flip") for e in ref.record)
        assert flips > 0

    def test_noisy_framed_projections_fill_no_cache(self):
        # a framed dephasing is F^dag D F with a fresh D each time: it must
        # neither take a unitarity verdict nor build a kernel of its own
        from dfsqc import register

        tn = TransportNoise(100e-6, NoiseSpectrum.band_limited_white(
            tau_co=3e-5, cutoff=2 * math.pi * 4e3))
        run = ProtocolRun.create([(("q1", "q2"), random_logical_state(2, 33))],
                                 seed=33, transport_noise=tn)
        caches = (register._check_unitary, register._layout, register._gather,
                  register._involution)
        bell_subspace_measurement(run, "q1", "q2", "phase")
        misses = [c.cache_info().misses for c in caches]
        for _ in range(50):
            bell_subspace_measurement(run, "q1", "q2", "phase")
        assert sum(e.op == "transport_dephasing" for e in run.record) >= 200
        assert [c.cache_info().misses for c in caches] == misses

    def test_changed_frame_makes_no_full_register_apply(self, monkeypatch):
        from dfsqc import register

        orig, calls = register.apply_unitary, []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return orig(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "dfsqc" or name.startswith("dfsqc."):
                for key, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, key, counting)
        run = two_pair_run("psi-", seed=5)
        logical_pauli(run.register, run.qubit("q1"), "X")
        assert len(calls) == 1  # the counter sees applies made through logical
        logical_pauli(run.register, run.qubit("q1"), "X")
        calls.clear()
        bell_subspace_measurement(run, "q1", "q2", "phase")
        full_bsm(run, "q1", "q2")
        logical_basis_measurement(run.register, run.qubit("q2"), "X", run.rng)
        assert calls == []

    def test_frame_must_name_the_measured_atoms(self):
        run = two_pair_run("psi-", seed=5)
        q1, q2 = run.qubit("q1"), run.qubit("q2")
        before = run.register.amplitudes.copy()
        frame = PairFrame(q1, q2, BasisChange.of(H_L))
        with pytest.raises(ValueError, match="frame measures atoms"):
            measure_p34(run, q2.atom_a, q1.atom_a, frame=frame)
        np.testing.assert_array_equal(run.register.amplitudes, before)
        assert run.record == [] and run.in_cavity == set()
