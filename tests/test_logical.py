"""DFS encoding, logical operators, logical measurements."""

import math

import numpy as np
import pytest

from dfsqc.register import (
    SX,
    SZ,
    QuantumRegister,
    RegisterError,
    apply_unitary,
    as_generator,
    fidelity,
    ket,
    kron_all,
    measure,
    random_state,
    rz,
)
from dfsqc.logical import (
    H_L,
    HS_DAG_L,
    S_L,
    X_L,
    Y_L,
    Z_L,
    LogicalQubit,
    bell_ket,
    joint_ones_projectors,
    logical_basis_measurement,
    logical_pauli,
    logical_support,
    logical_z_rotation,
    pair_ket,
)
from dfsqc.logical import IDX_0L, IDX_1L

Q = LogicalQubit(0, 1)


def reg_of(vec) -> QuantumRegister:
    return QuantumRegister(2, np.array(vec, dtype=complex))


def uz2(alpha):
    """Logical z rotation in the 2-dim logical basis (|0_L>, |1_L>)."""
    return np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)])


def logical_block(op4):
    """Restrict a pair operator to the (|0_L>, |1_L>) block."""
    idx = [IDX_0L, IDX_1L]
    return op4[np.ix_(idx, idx)]


def random_logical(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return pair_ket((v[0], v[1])), v


class TestEncoding:
    def test_basis_kets(self):
        np.testing.assert_allclose(pair_ket("0L"), ket("01"), atol=1e-15)
        np.testing.assert_allclose(pair_ket("1L"), ket("10"), atol=1e-15)
        np.testing.assert_allclose(pair_ket("2L"), ket("00"), atol=1e-15)
        np.testing.assert_allclose(pair_ket("3L"), ket("11"), atol=1e-15)

    def test_bell_kets(self):
        # phi+ = (|0101> + |1010>)/sqrt2 in atom-string order
        expected = (ket("0101") + ket("1010")) / math.sqrt(2)
        np.testing.assert_allclose(bell_ket("phi+"), expected, atol=1e-15)
        expected = (ket("0110") - ket("1001")) / math.sqrt(2)
        np.testing.assert_allclose(bell_ket("psi-"), expected, atol=1e-15)
        for name in ("phi+", "phi-", "psi+", "psi-"):
            assert np.linalg.norm(bell_ket(name)) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["phi+", "phi-", "psi+", "psi-"])
    def test_bell_ket_matches_kron_sum_bytes(self, name):
        # (a + sign*b)/sqrt2 from products of pair kets, the first pair low
        zero, one = pair_ket("0L"), pair_ket("1L")
        a, b = ((zero, zero), (one, one)) if name.startswith("phi") else ((zero, one), (one, zero))
        sign = 1 if name.endswith("+") else -1
        want = (kron_all(list(a)) + sign * kron_all(list(b))) * (1.0 / math.sqrt(2.0))
        assert bell_ket(name).tobytes() == want.tobytes()

    def test_distinct_atoms_required(self):
        with pytest.raises(ValueError):
            LogicalQubit(3, 3)


class TestZRotation:
    def test_phase_on_logical_states(self):
        alpha = 0.37
        reg = reg_of(pair_ket("0L"))
        logical_z_rotation(reg, Q, alpha)
        np.testing.assert_allclose(
            reg.amplitudes, np.exp(-1j * alpha) * pair_ket("0L"), atol=1e-14
        )
        reg = reg_of(pair_ket("1L"))
        logical_z_rotation(reg, Q, alpha)
        np.testing.assert_allclose(
            reg.amplitudes, np.exp(1j * alpha) * pair_ket("1L"), atol=1e-14
        )

    def test_zero_angle_is_identity(self):
        psi = random_state(2, 5)
        reg = reg_of(psi)
        logical_z_rotation(reg, Q, 0.0)
        np.testing.assert_allclose(reg.amplitudes, psi, atol=1e-15)

    def test_quarter_turn_on_plus(self):
        # oracle: 2x2 matrix diag(e^{-i pi/2}, e^{i pi/2}) on (1,1)/sqrt2
        expected2 = uz2(math.pi / 2) @ (np.array([1, 1]) / math.sqrt(2))
        reg = reg_of(pair_ket("+L"))
        logical_z_rotation(reg, Q, math.pi / 2)
        expected = pair_ket("0L") * expected2[0] + pair_ket("1L") * expected2[1]
        np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-14)
        # equals -i (|0_L> - |1_L>)/sqrt2
        np.testing.assert_allclose(
            reg.amplitudes, -1j * pair_ket("-L"), atol=1e-14
        )

    def test_additivity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, 2)
            psi, _ = random_logical(rng)
            r1 = reg_of(psi)
            logical_z_rotation(r1, Q, a)
            logical_z_rotation(r1, Q, b)
            r2 = reg_of(psi)
            logical_z_rotation(r2, Q, a + b)
            np.testing.assert_allclose(r1.amplitudes, r2.amplitudes, atol=1e-12)


class TestPaulis:
    def test_x_swaps_logical_states(self):
        reg = reg_of(pair_ket("0L"))
        logical_pauli(reg, Q, "X")
        np.testing.assert_allclose(reg.amplitudes, pair_ket("1L"), atol=1e-14)

    def test_x_fixes_leakage(self):
        reg = reg_of(ket("00"))
        logical_pauli(reg, Q, "X")
        np.testing.assert_allclose(reg.amplitudes, ket("00"), atol=1e-14)

    def test_z_flips_plus(self):
        reg = reg_of(pair_ket("+L"))
        logical_pauli(reg, Q, "Z")
        np.testing.assert_allclose(reg.amplitudes, pair_ket("-L"), atol=1e-14)

    def test_pauli_algebra_on_logical_block(self):
        x, z = logical_block(X_L), logical_block(Z_L)
        np.testing.assert_allclose(x @ x, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(z @ z, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(x @ z, -(z @ x), atol=1e-14)
        y = logical_block(Y_L)
        np.testing.assert_allclose(y, 1j * x @ z, atol=1e-14)

    def test_s_gate_block(self):
        np.testing.assert_allclose(logical_block(S_L), np.diag([1, 1j]), atol=1e-14)

    def test_hadamard_block(self):
        h = logical_block(H_L)
        np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2),
                                   atol=1e-15)

    def test_z_is_uz_with_phase_fix(self):
        # Z_L = i * U_z(pi/2) as a physical two-atom operator
        uz = np.kron(np.eye(2), rz(math.pi / 2))
        np.testing.assert_allclose(Z_L, 1j * uz, atol=1e-14)

    def test_atom_a_operators_are_kron_products_bit_for_bit(self):
        # tobytes also compares the signed zeros off the diagonal
        assert Z_L.tobytes() == np.kron(np.eye(2), SZ).tobytes()
        s_l = np.exp(1j * math.pi / 4) * np.kron(np.eye(2), rz(math.pi / 4))
        assert S_L.tobytes() == s_l.tobytes()


class TestDfsImmunity:
    def test_collective_phase_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            psi, _ = random_logical(rng)
            reg = reg_of(psi)
            phi = rng.uniform(-10, 10)
            apply_unitary(reg, rz(phi), [0])
            apply_unitary(reg, rz(phi), [1])
            assert fidelity(psi, reg.amplitudes) >= 1.0 - 1e-12


class TestZMeasurement:
    def test_logical_zero(self):
        res = logical_basis_measurement(reg_of(pair_ket("0L")), Q, "Z", 1)
        assert res.label == "z+" and res.outcomes == ("pi1", "pi2")
        assert res.probability == pytest.approx(1.0)
        np.testing.assert_allclose(res.register.amplitudes, pair_ket("0L"),
                                   atol=1e-13)

    def test_logical_one(self):
        res = logical_basis_measurement(reg_of(pair_ket("1L")), Q, "Z", 1)
        assert res.label == "z-" and res.outcomes == ("pi2", "pi1")
        np.testing.assert_allclose(res.register.amplitudes, pair_ket("1L"),
                                   atol=1e-13)

    def test_leakage_00(self):
        # brute-force expectation: |00> survives the 5-step sequence unchanged
        res = logical_basis_measurement(reg_of(ket("00")), Q, "Z", 1)
        assert res.label == "leak" and res.outcomes == ("pi2", "pi2")
        np.testing.assert_allclose(res.register.amplitudes, ket("00"), atol=1e-13)

    def test_leakage_11(self):
        res = logical_basis_measurement(reg_of(ket("11")), Q, "Z", 1)
        assert res.label == "leak"
        np.testing.assert_allclose(res.register.amplitudes, ket("11"), atol=1e-13)

    def test_projective_on_superpositions(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi, v = random_logical(rng)
            for force, target in (("z+", pair_ket("0L")), ("z-", pair_ket("1L"))):
                res = logical_basis_measurement(reg_of(psi), Q, "Z", rng, force=force)
                idx = 0 if force == "z+" else 1
                assert res.probability == pytest.approx(abs(v[idx]) ** 2, abs=1e-12)
                assert fidelity(target, res.register.amplitudes) >= 1.0 - 1e-12

    def test_matches_the_sigma_x_sequence(self):
        # the physical sequence sigma_x; {P1,P2}; sigma_x sigma_x; {P1,P2};
        # sigma_x, written out on a non-adjacent, reversed pair of 5 atoms
        q = LogicalQubit(4, 1)
        ps = joint_ones_projectors(q)
        for seed in range(4):
            psi = random_state(5, 40 + seed)
            for force, pair in (("z+", ("pi1", "pi2")), ("z-", ("pi2", "pi1")),
                                ("leak", ("pi2", "pi2"))):
                ref = QuantumRegister(5, psi.copy())
                apply_unitary(ref, SX, [q.atom_a])
                _, p1, _ = measure(ref, ps, None, force=pair[0])
                apply_unitary(ref, SX, [q.atom_a])
                apply_unitary(ref, SX, [q.atom_b])
                _, p2, _ = measure(ref, ps, None, force=pair[1])
                apply_unitary(ref, SX, [q.atom_b])
                res = logical_basis_measurement(QuantumRegister(5, psi.copy()), q, "Z",
                                                None, force=force)
                assert res.outcomes == pair
                assert res.probability == pytest.approx(p1 * p2, abs=1e-15)
                np.testing.assert_allclose(res.register.amplitudes,
                                           ref.amplitudes, rtol=0, atol=1e-15)

    def test_leak_branch_keeps_coherence(self):
        vec = (ket("00") + 1j * ket("11")) / math.sqrt(2)
        res = logical_basis_measurement(reg_of(vec), Q, "Z", 1)
        assert res.label == "leak"
        assert fidelity(vec, res.register.amplitudes) >= 1.0 - 1e-12


class TestBasisMeasurement:
    def test_x_on_plus(self):
        res = logical_basis_measurement(reg_of(pair_ket("+L")), Q, "X", 1)
        assert res.label == "x+" and res.probability == pytest.approx(1.0)
        assert fidelity(pair_ket("+L"), res.register.amplitudes) >= 1.0 - 1e-12

    def test_x_on_zero_is_unbiased(self):
        for force in ("x+", "x-"):
            res = logical_basis_measurement(reg_of(pair_ket("0L")), Q, "X", 1,
                                            force=force)
            assert res.probability == pytest.approx(0.5, abs=1e-12)
            target = pair_ket("+L") if force == "x+" else pair_ket("-L")
            assert fidelity(target, res.register.amplitudes) >= 1.0 - 1e-12

    def test_y_eigenstate(self):
        psi = pair_ket((1.0, 1j))
        res = logical_basis_measurement(reg_of(psi), Q, "Y", 1)
        assert res.label == "y+" and res.probability == pytest.approx(1.0)
        assert fidelity(psi, res.register.amplitudes) >= 1.0 - 1e-12

    def test_z_on_logical_leak_superposition(self):
        # (|0_L> + |00>)/sqrt2: z+ and leak each with probability 1/2
        vec = (pair_ket("0L") + ket("00")) / math.sqrt(2)
        res = logical_basis_measurement(reg_of(vec), Q, "Z", 1, force="z+")
        assert res.probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(pair_ket("0L"), res.register.amplitudes) >= 1.0 - 1e-12
        res = logical_basis_measurement(reg_of(vec), Q, "Z", 1, force="leak")
        assert res.probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(ket("00"), res.register.amplitudes) >= 1.0 - 1e-12

    def test_born_statistics_on_plus_in_z(self):
        rng = np.random.default_rng(17)
        n, plus = 4000, pair_ket("+L")
        hits = sum(
            logical_basis_measurement(reg_of(plus), Q, "Z", rng).label == "z+"
            for _ in range(n)
        )
        assert abs(hits / n - 0.5) < 5 * math.sqrt(0.25 / n)

    def test_invalid_basis(self):
        with pytest.raises(ValueError):
            logical_basis_measurement(reg_of(pair_ket("0L")), Q, "W", 1)

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_matches_conjugated_z_sequence(self, basis):
        # reference: the basis change, the sigma_x / {P1, P2} sequence of the
        # Z measurement and the inverse change as full-register applies and
        # measurements; the pair is out of order inside 5 atoms
        change = {"X": H_L, "Y": HS_DAG_L, "Z": np.eye(4)}[basis]
        labels = {"z+": f"{basis.lower()}+", "z-": f"{basis.lower()}-", "leak": "leak"}
        pairs = {"z+": ("pi1", "pi2"), "z-": ("pi2", "pi1"), "leak": ("pi2", "pi2")}
        q = LogicalQubit(3, 1)
        p12 = joint_ones_projectors(q.atoms)
        rng = np.random.default_rng(41)
        for trial in range(8):
            psi = random_state(5, rng)
            for force in (None, *labels.values()):
                z_force = None if force is None else {v: k for k, v in labels.items()}[force]
                forced = pairs[z_force] if z_force is not None else (None, None)
                got_rng, ref_rng = as_generator(trial), as_generator(trial)
                got = logical_basis_measurement(QuantumRegister(5, psi.copy()), q, basis,
                                                got_rng, force=force)
                ref = apply_unitary(QuantumRegister(5, psi.copy()), change, q.atoms)
                apply_unitary(ref, SX, [q.atom_a])
                first, p1, _ = measure(ref, p12, ref_rng, force=forced[0])
                apply_unitary(ref, np.kron(SX, SX), q.atoms)
                second, p2, _ = measure(ref, p12, ref_rng, force=forced[1])
                apply_unitary(ref, SX, [q.atom_b])
                apply_unitary(ref, change.conj().T, q.atoms)
                pair = (first, second)
                z_label = {v: k for k, v in pairs.items()}[pair]
                assert got.label == labels[z_label]
                assert got.outcomes == pair
                assert got.probability == pytest.approx(p1 * p2, rel=0, abs=1e-15)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state
                np.testing.assert_allclose(got.register.amplitudes, ref.amplitudes,
                                           rtol=0, atol=1e-14)


class TestLogicalSupport:
    def test_support_values(self):
        assert logical_support(reg_of(pair_ket("+L")), [Q]) == pytest.approx(1.0)
        assert logical_support(reg_of(ket("00")), [Q]) == pytest.approx(0.0)
        mixed = (pair_ket("0L") + ket("11")) / math.sqrt(2)
        assert logical_support(reg_of(mixed), [Q]) == pytest.approx(0.5)

    def test_pi1_pi1_is_impossible(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = random_state(2, rng)
            res = logical_basis_measurement(reg_of(psi), Q, "Z", rng)
            assert res.outcomes != ("pi1", "pi1")

    def test_forcing_impossible_pair_raises(self):
        with pytest.raises(RegisterError):
            logical_basis_measurement(reg_of(pair_ket("0L")), Q, "Z", 1, force="leak")
