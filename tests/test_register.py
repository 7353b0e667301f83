"""State-engine contracts: unitaries, Born-rule measurement, reduced states."""

import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from dfsqc.register import (
    CZ2,
    SX,
    ProjectorSet,
    QuantumRegister,
    RegisterError,
    apply_diagonal,
    apply_unitary,
    basis_index,
    fidelity,
    ket,
    kron_all,
    measure,
    on_support,
    random_state,
    reduced_state,
    row_table,
    rz,
    split,
    tensor,
    trace_distance,
)
from dfsqc import register
from dfsqc.logical import (
    HS_DAG_L,
    H_L,
    S_L,
    X_L,
    Y_L,
    Z_L,
    LogicalQubit,
    _z_sequence,
    atom_a_parity_projectors,
    joint_ones_projectors,
    logical_support,
    low_high,
    pair_ket,
    parity_projectors,
)


def bell_pair():
    return (ket("00") + ket("11")) / math.sqrt(2)


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        psi = random_state(3, 7)
        reg = QuantumRegister(3, psi.copy())
        apply_unitary(reg, np.eye(8), [0, 1, 2])
        np.testing.assert_allclose(reg.amplitudes, psi, atol=1e-14)

    def test_bit_flip_on_qubit_zero(self):
        reg = QuantumRegister(2, ket("01"))
        apply_unitary(reg, SX, [0])
        np.testing.assert_allclose(reg.amplitudes, ket("11"), atol=1e-14)

    def test_phase_gate_involution(self):
        # exp(i*pi|11><11|) applied twice is the identity
        psi = random_state(2, 3)
        reg = QuantumRegister(2, psi.copy())
        apply_unitary(reg, CZ2, [0, 1])
        apply_unitary(reg, CZ2, [0, 1])
        np.testing.assert_allclose(reg.amplitudes, psi, atol=1e-14)

    def test_rejects_non_unitary(self):
        reg = QuantumRegister(1, ket("0"))
        with pytest.raises(RegisterError, match="unitary"):
            apply_unitary(reg, np.array([[1, 0], [0, 2]]), [0])

    def test_non_unitary_rejected_on_every_call(self):
        # verdicts are cached by content, and only passing ones
        reg = QuantumRegister(1, ket("0"))
        for _ in range(3):
            with pytest.raises(RegisterError, match="unitary"):
                apply_unitary(reg, np.array([[1, 0], [0, 3]]), [0])
        np.testing.assert_array_equal(reg.amplitudes, ket("0"))

    def test_matrix_mutated_in_place_is_checked_again(self):
        u = SX.copy()
        reg = QuantumRegister(1, ket("0"))
        apply_unitary(reg, u, [0])
        u[1, 0] = 2.0
        with pytest.raises(RegisterError, match="unitary"):
            apply_unitary(reg, u, [0])
        u[1, 0] = 1.0
        apply_unitary(reg, u, [0])
        np.testing.assert_allclose(reg.amplitudes, ket("0"), atol=1e-14)

    def test_rejects_bad_targets(self):
        reg = QuantumRegister(2, ket("00"))
        with pytest.raises(RegisterError):
            apply_unitary(reg, SX, [5])
        with pytest.raises(RegisterError):
            apply_unitary(reg, np.eye(4), [0, 0])

    def test_norm_preserved_for_many_random_unitaries(self):
        rng = np.random.default_rng(11)
        reg = QuantumRegister(3, random_state(3, rng))
        for _ in range(1000):
            k = rng.integers(1, 4)
            targets = list(rng.choice(3, size=k, replace=False))
            apply_unitary(reg, unitary_group.rvs(2**k, random_state=rng), targets)
            assert abs(np.linalg.norm(reg.amplitudes) - 1.0) < 1e-12

    def test_disjoint_targets_commute(self):
        rng = np.random.default_rng(13)
        ua, ub = unitary_group.rvs(2, size=2, random_state=rng)
        psi = random_state(2, rng)
        r1 = QuantumRegister(2, psi.copy())
        apply_unitary(r1, ua, [0])
        apply_unitary(r1, ub, [1])
        r2 = QuantumRegister(2, psi.copy())
        apply_unitary(r2, ub, [1])
        apply_unitary(r2, ua, [0])
        np.testing.assert_allclose(r1.amplitudes, r2.amplitudes, atol=1e-12)

    def test_pure_and_mixed_agree(self):
        # psi -> U psi on targets [2, 0] against rho -> U rho U+ with U
        # embedded densely: targets[0] = qubit 2 is the low bit of U's index
        rng = np.random.default_rng(14)
        psi = random_state(3, rng)
        u = unitary_group.rvs(4, random_state=rng)
        pure = QuantumRegister(3, psi.copy())
        apply_unitary(pure, u, [2, 0])
        bits = [(np.arange(8) >> q) & 1 for q in range(3)]
        sub = bits[2] + 2 * bits[0]
        full = np.where(bits[1][:, None] == bits[1][None, :],
                        u[sub[:, None], sub[None, :]], 0)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(
            np.outer(pure.amplitudes, pure.amplitudes.conj()),
            full @ rho @ full.conj().T, atol=1e-12
        )


class TestMeasure:
    def test_joint_ones_on_11(self):
        reg = QuantumRegister(2, ket("11"))
        label, p, _ = measure(reg, joint_ones_projectors((0, 1)), 1)
        assert label == "pi1" and abs(p - 1.0) < 1e-12
        np.testing.assert_allclose(reg.amplitudes, ket("11"), atol=1e-14)

    def test_joint_ones_on_01(self):
        reg = QuantumRegister(2, ket("01"))
        label, p, _ = measure(reg, joint_ones_projectors((0, 1)), 1)
        assert label == "pi2" and abs(p - 1.0) < 1e-12

    def test_parity_born_rule_on_superposition(self):
        # (|00> + |01>)/sqrt2: even parity keeps |00>, odd keeps |01>
        for force, post in (("pi3", "00"), ("pi4", "01")):
            reg = QuantumRegister(2, (ket("00") + ket("01")) / math.sqrt(2))
            label, p, _ = measure(reg, parity_projectors((0, 1)), 1, force=force)
            assert label == force
            assert abs(p - 0.5) < 1e-12
            np.testing.assert_allclose(reg.amplitudes, ket(post), atol=1e-12)

    def test_invalid_state_rejected(self):
        reg = QuantumRegister(2, np.zeros(4, dtype=complex) + 0j)
        reg.amplitudes[0] = 1e-9
        with pytest.raises(RegisterError, match="1e-14"):
            measure(reg, parity_projectors((0, 1)), 1)

    def test_forced_zero_probability_rejected(self):
        reg = QuantumRegister(2, ket("01"))
        with pytest.raises(RegisterError, match="forced"):
            measure(reg, joint_ones_projectors((0, 1)), 1, force="pi1")

    def test_idempotence(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            reg = QuantumRegister(2, random_state(2, rng))
            ps = parity_projectors((0, 1))
            label, _, _ = measure(reg, ps, rng)
            again, p, _ = measure(reg, ps, rng)
            assert again == label and abs(p - 1.0) < 1e-12

    def test_outcome_frequencies_match_born(self):
        # amplitudes give p(pi3) = 0.3; check 1e5 seeded samples within 5 SE
        psi = math.sqrt(0.3) * ket("00") + math.sqrt(0.7) * ket("01")
        ps = parity_projectors((0, 1))
        rng = np.random.default_rng(42)
        n = 100_000
        hits = 0
        for _ in range(n):
            reg = QuantumRegister(2, psi.copy())
            label, _, _ = measure(reg, ps, rng)
            hits += label == "pi3"
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) < 5 * se

    def test_same_seed_same_outcomes(self):
        def sequence(seed):
            rng = np.random.default_rng(seed)
            out = []
            reg = QuantumRegister(2, (ket("00") + ket("11")) / math.sqrt(2))
            for _ in range(20):
                work = reg.copy()
                label, _, _ = measure(work, joint_ones_projectors((0, 1)), rng)
                out.append(label)
            return out

        assert sequence(123) == sequence(123)
        assert sequence(123) != sequence(124)


class TestSplit:
    """Both outcomes of one projection, each as measure forced to it leaves it."""

    CASES = {
        "parity": (parity_projectors((3, 1)), None),
        "joint_ones": (joint_ones_projectors((4, 0)), None),
        "phase": (atom_a_parity_projectors(LogicalQubit(0, 1), LogicalQubit(2, 3)),
                  low_high(H_L, H_L)),
        "yy": (atom_a_parity_projectors(LogicalQubit(0, 1), LogicalQubit(2, 3)),
               low_high(HS_DAG_L, HS_DAG_L)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_outcome_equals_forced_measure(self, case):
        ps, frame = self.CASES[case]
        psi = random_state(5, 80)
        reg = QuantumRegister(5, psi.copy())
        branches = split(reg, ps, frame)
        assert list(branches) == list(ps.outcome_labels)
        for label, (p, branch) in branches.items():
            forced = QuantumRegister(5, psi.copy())
            _, want, _ = measure(forced, ps, None, force=label, frame=frame)
            assert p == want
            assert np.array_equal(branch.amplitudes, forced.amplitudes)
        assert np.array_equal(reg.amplitudes, psi)

    def test_outcome_below_threshold_dropped(self):
        ps = joint_ones_projectors((0, 1))
        for psi in (ket("01"), ket("01") + 1e-8 * ket("11")):  # p(pi1) = 0, 1e-16
            branches = split(QuantumRegister(2, psi / np.linalg.norm(psi)), ps)
            assert list(branches) == ["pi2"] and branches["pi2"][0] == 1.0

    def test_invalid_state_rejected(self):
        with pytest.raises(RegisterError, match="1e-14"):
            split(QuantumRegister(2, 1e-9 * ket("00")), parity_projectors((0, 1)))


class TestProjectorSet:
    def test_rejects_wrong_table_length(self):
        with pytest.raises(RegisterError, match="one entry per basis state"):
            ProjectorSet((0, 1, 1), ("a", "b"), (0, 1))
        with pytest.raises(RegisterError, match="one entry per basis state"):
            ProjectorSet((0, 1, 1, 0), ("a", "b"), (0,))

    def test_rejects_empty_or_unknown_label(self):
        with pytest.raises(RegisterError, match="label"):
            ProjectorSet((0, 0, 0, 0), ("a", "b"), (0, 1))  # "b" owns no state
        with pytest.raises(RegisterError, match="label"):
            ProjectorSet((0, 1, 2, 0), ("a", "b"), (0, 1))  # 2 names no label

    def test_rejects_any_but_two_outcomes(self):
        with pytest.raises(RegisterError, match="two outcomes"):
            ProjectorSet((0, 1, 2, 2), ("a", "b", "c"), (0, 1))
        with pytest.raises(RegisterError, match="two outcomes"):
            ProjectorSet((0, 0), ("a",), (0,))


def _bits(n, q):
    """Value of qubit q in every basis state of n qubits."""
    return (np.arange(2**n) >> q) & 1


def _dense_projectors(n, kind, a, b):
    """Full-register diagonal projectors, written out from their definitions."""
    ba, bb = _bits(n, a), _bits(n, b)
    if kind == "ordered":  # a: all but a=1 and b=0, which is b
        masks = [(ba == 0) | (bb == 1)]
    elif kind == "joint_ones":  # P1 = |11><11|
        masks = [(ba == 1) & (bb == 1)]
    else:  # P3 = |00><00| + |11><11|
        masks = [ba == bb]
    projs = [np.diag(m.astype(float)) for m in masks]
    if len(projs) == 1:
        projs.append(np.eye(2**n) - projs[0])
    return projs


class TestMeasureAgainstDenseProjectors:
    N = 5
    TARGETS = [(3, 1), (0, 4), (4, 2), (1, 0)]
    # "ordered" is not symmetric in its two targets, so it pins targets[0]
    # as the lowest bit of the outcome table
    SETS = {"joint_ones": joint_ones_projectors, "parity": parity_projectors,
            "ordered": lambda ab: ProjectorSet((0, 1, 0, 0), ("a", "b"), ab)}

    @pytest.mark.parametrize("kind", ["joint_ones", "parity", "ordered"])
    def test_every_forced_outcome(self, kind):
        for seed, (a, b) in enumerate(self.TARGETS):
            psi = random_state(self.N, 100 + 10 * seed)
            ps = self.SETS[kind]((a, b))
            for label, proj in zip(ps.outcome_labels,
                                   _dense_projectors(self.N, kind, a, b)):
                p_ref = np.real(np.vdot(psi, proj @ psi))
                post_ref = proj @ psi / math.sqrt(p_ref)
                reg = QuantumRegister(self.N, psi.copy())
                got, p, _ = measure(reg, ps, None, force=label)
                assert got == label
                assert abs(p - p_ref) < 1e-14
                np.testing.assert_allclose(reg.amplitudes, post_ref, rtol=0, atol=1e-14)

    def test_sampled_outcome_uses_one_draw_in_label_order(self):
        for seed, (a, b) in enumerate(self.TARGETS):
            psi = random_state(self.N, 200 + 10 * seed)
            for kind, make in self.SETS.items():
                projs = _dense_projectors(self.N, kind, a, b)
                probs = [np.real(np.vdot(psi, p @ psi)) for p in projs]
                rng, follow = np.random.default_rng(seed), np.random.default_rng(seed)
                draw = follow.random() * sum(probs)
                expected = int(np.sum(np.cumsum(probs) <= draw))
                ps = make((a, b))
                label, p, _ = measure(QuantumRegister(self.N, psi.copy()), ps, rng)
                assert label == ps.outcome_labels[expected]
                assert abs(p - probs[expected] / sum(probs)) < 1e-14
                assert rng.random() == follow.random()  # exactly one draw consumed

    def test_logical_support(self):
        pairs = [LogicalQubit(3, 0), LogicalQubit(1, 4)]
        for seed in range(4):
            psi = random_state(self.N, 300 + 10 * seed)
            proj = np.eye(2**self.N)
            for q in pairs:
                proj = proj @ np.diag(
                    (_bits(self.N, q.atom_a) != _bits(self.N, q.atom_b)).astype(float))
            ref = np.real(np.vdot(psi, proj @ psi))
            assert abs(logical_support(QuantumRegister(self.N, psi), pairs) - ref) < 1e-14


class TestRowTable:
    N = 5
    TARGETS = [(0,), (4,), (0, 1), (1, 0), (4, 2), (3, 0, 2), (2, 4, 0, 3),
               (4, 3, 2, 1, 0)]

    @pytest.mark.parametrize("targets", TARGETS, ids=str)
    def test_rows_group_basis_states_by_target_sub_state(self, targets):
        rows = row_table(self.N, targets)
        k = len(targets)
        assert rows.shape == (2**k, 2 ** (self.N - k))
        assert sorted(rows.ravel()) == list(range(2**self.N))  # a permutation
        sub = sum(_bits(self.N, q) << m for m, q in enumerate(targets))
        assert (sub[rows] == np.arange(2**k)[:, None]).all()  # row s: sub-state s
        rest = np.arange(2**self.N) & ~sum(1 << q for q in targets)
        assert (rest[rows] == rest[rows[0]]).all()  # a column shares the rest bits

    def test_cached_and_read_only(self):
        rows = row_table(self.N, [4, 2])
        assert row_table(self.N, (4, 2)) is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1

    def test_apply_diagonal_matches_dense(self):
        rng = np.random.default_rng(17)
        psi = random_state(self.N, rng)
        diag = rng.normal(size=4) + 1j * rng.normal(size=4)
        sub = _bits(self.N, 3) + 2 * _bits(self.N, 0)
        reg = apply_diagonal(QuantumRegister(self.N, psi.copy()), diag, [3, 0])
        np.testing.assert_allclose(reg.amplitudes, diag[sub] * psi, rtol=0, atol=1e-15)
        with pytest.raises(RegisterError, match="diagonal"):
            apply_diagonal(reg, np.ones(2), [3, 0])

    def test_operations_leave_inputs_and_table_unmodified(self):
        psi = random_state(self.N, 9)
        targets = (3, 1)
        table = row_table(self.N, targets).copy()
        u = unitary_group.rvs(4, random_state=1)
        for op in (lambda r: apply_unitary(r, u, targets),
                   lambda r: apply_diagonal(r, [1, 0.5, 0.5j, -1], targets),
                   lambda r: measure(r, parity_projectors(targets), 2),
                   lambda r: reduced_state(r, targets)):
            given = psi.copy()
            reg = QuantumRegister(self.N, given)
            assert reg.amplitudes is given  # shared, so a write into it shows
            op(reg)
            np.testing.assert_array_equal(given, psi)
            np.testing.assert_array_equal(row_table(self.N, targets), table)


def _kron_apply(psi, u, targets, n):
    """U on ``targets`` as the Kronecker product I (x) U in a basis whose low
    bits are the targets (``targets[0]`` lowest), mapped back afterwards.

    Up to 6 qubits I (x) U is formed with ``np.kron``; beyond, it is applied
    through the same identity, ``(I (x) U) x = (x.reshape(-1, 2**k) @ U.T).ravel()``.
    """
    k = len(targets)
    order = list(targets) + [q for q in range(n) if q not in targets]
    moved = sum(_bits(n, q) << m for m, q in enumerate(order))
    x = np.empty_like(psi)
    x[moved] = psi
    if n <= 6:
        x = np.kron(np.eye(2 ** (n - k)), u) @ x
    else:
        x = (x.reshape(-1, 2**k) @ u.T).ravel()
    return x[moved]


def _kernel_matrix(n, gather, phase):
    """The dense operator psi -> phase * psi.take(gather) on n qubits."""
    m = np.zeros((2**n, 2**n), dtype=complex)
    cols = np.arange(2**n) if gather is None else gather
    m[np.arange(2**n), cols] = phase
    return m


class TestMonomialKernel:
    """Paulis, CZ, phases and every projection take psi -> phase * psi.take(perm)."""

    # "cycle" is no involution, so it pins the direction of the permutation
    GATES = {"X_L": X_L, "Y_L": Y_L, "Z_L": Z_L, "SX": SX, "CZ2": CZ2, "S_L": S_L,
             "rz": rz(0.37), "cycle": np.roll(np.eye(4), 1, axis=1) @ np.diag(
                 np.exp(1j * np.arange(4)))}
    ORDERS = {5: [(0, 1), (1, 0), (4, 2), (3, 0)], 12: [(0, 1), (11, 3), (5, 10), (7, 2)]}

    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_matches_kron_embedding(self, n, name):
        u = self.GATES[name]
        assert register._check_unitary(u.shape, u.tobytes()) is not None  # monomial
        for seed, order in enumerate(self.ORDERS[n]):
            targets = order[: u.shape[0].bit_length() - 1]
            psi = random_state(n, 40 + seed)
            reg = apply_unitary(QuantumRegister(n, psi.copy()), u, targets)
            np.testing.assert_allclose(reg.amplitudes, _kron_apply(psi, u, targets, n),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [5, 12])
    def test_dense_unitary_matches_kron_embedding(self, n):
        u = unitary_group.rvs(4, random_state=n)
        assert register._check_unitary(u.shape, u.tobytes()) is None  # row table
        for seed, targets in enumerate(self.ORDERS[n]):
            psi = random_state(n, 50 + seed)
            reg = apply_unitary(QuantumRegister(n, psi.copy()), u, targets)
            np.testing.assert_allclose(reg.amplitudes, _kron_apply(psi, u, targets, n),
                                       rtol=0, atol=1e-14)

    def test_framed_diagonal_matches_kron_embedding(self):
        d = np.exp(1j * np.array([0.0, 0.3, -0.3, 0.0]))
        psi = random_state(5, 60)
        reg = apply_diagonal(QuantumRegister(5, psi.copy()), d, (4, 2), frame=H_L)
        want = _kron_apply(psi, H_L.conj().T @ np.diag(d) @ H_L, (4, 2), 5)
        np.testing.assert_allclose(reg.amplitudes, want, rtol=0, atol=1e-15)

    # every (table, frame) pair the protocols measure
    PRODUCTION = [
        ("joint_ones", joint_ones_projectors((0, 1)), None),
        ("parity", parity_projectors((0, 1)), None),
        *[(f"z_sequence[{i}]/{f}", ps, frame)
          for f, frame in (("Z", None), ("X", H_L), ("Y", HS_DAG_L))
          for i, ps in enumerate(_z_sequence(LogicalQubit(0, 1)))],
        *[(f"atom_a_parity/{f}", atom_a_parity_projectors(LogicalQubit(0, 1),
                                                          LogicalQubit(2, 3)),
           low_high(frame, frame))
          for f, frame in (("phase", H_L), ("yy", HS_DAG_L))],
    ]

    @pytest.mark.parametrize("ps, frame", [p[1:] for p in PRODUCTION],
                             ids=[p[0] for p in PRODUCTION])
    def test_production_projection_is_monomial_involution(self, ps, frame):
        n = len(ps.targets)
        key = None if frame is None else frame.tobytes()
        o = _kernel_matrix(n, *register._involution(n, ps.targets, ps.outcome_of, key))
        np.testing.assert_array_equal(o @ o, np.eye(2**n))
        f = np.eye(2**n) if frame is None else frame
        sigma = 1.0 - 2.0 * np.array(ps.outcome_of)
        np.testing.assert_allclose(o, f.conj().T @ np.diag(sigma) @ f, rtol=0, atol=1e-15)
        assert set(o[o != 0].tolist()) <= {1, -1, 1j, -1j}  # snapped exactly

    def test_frame_without_monomial_projection_rejected(self):
        psi = random_state(3, 70)
        reg = QuantumRegister(3, psi.copy())
        frame = unitary_group.rvs(4, random_state=70)
        with pytest.raises(RegisterError, match="monomial"):
            measure(reg, parity_projectors((2, 0)), None, force="pi3", frame=frame)
        np.testing.assert_array_equal(reg.amplitudes, psi)

    def test_frame_must_be_unitary_on_the_targets(self):
        reg = QuantumRegister(3, random_state(3, 71))
        with pytest.raises(RegisterError, match="shape"):
            measure(reg, parity_projectors((2, 0)), None, frame=np.eye(2))
        with pytest.raises(RegisterError, match="unitary"):
            measure(reg, parity_projectors((2, 0)), None, frame=2 * np.eye(4))

    def test_kernels_are_cached_by_structure_not_phase(self):
        reg = QuantumRegister(5, random_state(5, 72))
        apply_unitary(reg, rz(0.1), (3,))
        apply_unitary(reg, X_L, (4, 1))
        caches = (register._gather, register._layout)
        misses = [c.cache_info().misses for c in caches]
        rng = np.random.default_rng(72)
        for alpha in rng.normal(size=20):
            apply_unitary(reg, rz(alpha), (3,))
            apply_unitary(reg, X_L @ Z_L * np.exp(1j * alpha), (4, 1))
        assert [c.cache_info().misses for c in caches] == misses
        assert abs(np.linalg.norm(reg.amplitudes) - 1.0) < 1e-14


def _dense_partial_trace(psi, n, keep):
    """Partial trace of |psi><psi| summed element by element over the rest."""
    rest = [q for q in range(n) if q not in keep]
    dim = 2 ** len(keep)
    out = np.zeros((dim, dim), dtype=complex)
    rho = np.outer(psi, psi.conj())
    for i in range(2**n):
        for j in range(2**n):
            if all((i >> q) & 1 == (j >> q) & 1 for q in rest):
                r = sum(((i >> q) & 1) << m for m, q in enumerate(keep))
                c = sum(((j >> q) & 1) << m for m, q in enumerate(keep))
                out[r, c] += rho[i, j]
    return out


class TestPartialTrace:
    """``reduced_state`` is the partial trace of a pure register."""

    def test_product_state(self):
        red = reduced_state(QuantumRegister(2, ket("01")), [0])
        np.testing.assert_allclose(red, np.diag([1.0, 0.0]), atol=1e-14)

    def test_bell_state_is_maximally_mixed(self):
        reg = QuantumRegister(2, bell_pair())
        for q in (0, 1):
            np.testing.assert_allclose(reduced_state(reg, [q]), np.eye(2) / 2,
                                       atol=1e-13)

    def test_logical_blocks(self):
        # trace out atoms 2,3 of |0_L><0_L| x |+_L><+_L| leaves |01><01|
        reg = QuantumRegister(4, kron_all([pair_ket("0L"), pair_ket("+L")]))
        np.testing.assert_allclose(
            reduced_state(reg, [0, 1]), np.outer(ket("01"), ket("01").conj()),
            atol=1e-13
        )

    def test_rejects_empty_or_bad_keep(self):
        reg = QuantumRegister(2, ket("00"))
        with pytest.raises(RegisterError, match="empty"):
            reduced_state(reg, [])
        with pytest.raises(RegisterError, match="duplicate"):
            reduced_state(reg, [1, 1])

    def test_reduced_state_matches_partial_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            psi = random_state(4, rng)
            reg = QuantumRegister(4, psi)
            for keep in ([0], [2, 1], [1, 2], [3, 0, 2], [0, 2, 3], [2, 3, 0]):
                np.testing.assert_allclose(reduced_state(reg, keep),
                                           _dense_partial_trace(psi, 4, keep),
                                           atol=1e-13)


def _complex_block(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class TestHelpers:
    def test_ket_convention(self):
        # leftmost char is qubit 0 = least significant bit
        assert basis_index("10") == 1
        assert basis_index("01") == 2
        assert np.argmax(np.abs(ket("0111"))) == 0b1110

    def test_tensor_keeps_low_qubits(self):
        a = QuantumRegister(1, ket("1"))
        b = QuantumRegister(1, ket("0"))
        joined = tensor(a, b)
        assert np.argmax(np.abs(joined.amplitudes)) == basis_index("10")

    def test_rejects_density_matrix(self):
        # the register holds one pure state; a 2-D array is not one
        with pytest.raises(RegisterError, match="shape"):
            QuantumRegister(2, np.eye(4) / 4)

    def test_rz_convention(self):
        # full-angle convention: exp(-i a sigma_z)
        m = rz(0.3)
        np.testing.assert_allclose(m[0, 0], np.exp(-0.3j), atol=1e-15)
        np.testing.assert_allclose(m[1, 1], np.exp(0.3j), atol=1e-15)

    def test_fidelity_and_trace_distance(self):
        psi, phi = ket("00"), ket("11")
        assert fidelity(psi, psi) == pytest.approx(1.0)
        assert fidelity(psi, phi) == pytest.approx(0.0)
        assert trace_distance(psi, phi) == pytest.approx(1.0)
        # a density-matrix second argument gives <psi|rho|psi>
        assert fidelity(psi, np.outer(psi, psi.conj())) == pytest.approx(1.0)
        assert fidelity(psi, np.eye(4) / 4) == pytest.approx(0.25)

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_trace_distance_of_stacks_is_per_pair(self, dim):
        rng = np.random.default_rng(dim)
        a = _complex_block(rng, (6, dim, dim))
        b = _complex_block(rng, (6, dim, dim))
        a, b = a @ a.conj().transpose(0, 2, 1), b @ b.conj().transpose(0, 2, 1)
        want = [trace_distance(x, y) for x, y in zip(a, b)]
        assert np.array_equal(trace_distance(a, b), want)

    def test_distances_on_support_equal_full_distances(self):
        rng = np.random.default_rng(81)
        i, j = np.triu_indices(16, 1)
        for size in (1, 4, 9, 16):
            # mixed states on a random index subset: the rest are zero rows and columns
            support = rng.choice(16, size=size, replace=False)
            x = np.zeros((16, 16, 3), dtype=complex)
            x[:, support] = _complex_block(rng, (16, size, 3))
            rhos = x @ x.conj().transpose(0, 2, 1)
            rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
            small = on_support(rhos)
            assert small.shape == (16, size, size)
            np.testing.assert_allclose(trace_distance(small[i], small[j]),
                                       trace_distance(rhos[i], rhos[j]), rtol=0, atol=1e-15)

    def test_support_keeps_an_index_nonzero_in_any_member(self):
        rhos = np.zeros((2, 3, 3))
        rhos[0, 0, 0] = rhos[1, 2, 2] = 1.0
        assert np.array_equal(on_support(rhos), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def test_global_phase_ignored(self):
        psi = random_state(2, 5)
        assert fidelity(psi, np.exp(0.7j) * psi) == pytest.approx(1.0)


class TestProductStatesMatchKron:
    """Product states are the same products as chained ``np.kron``, bit for bit."""

    @pytest.mark.parametrize("sizes", [(2, 4, 16), (16, 2, 4, 2), (4, 16)])
    def test_kron_all(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        blocks = [_complex_block(rng, n) for n in sizes]
        want = blocks[0]
        for b in blocks[1:]:
            want = np.kron(b, want)
        assert np.array_equal(kron_all(blocks), want)

    @pytest.mark.parametrize("sizes", [(2, 4), (16, 2), (4, 16)])
    def test_tensor(self, sizes):
        rng = np.random.default_rng(7 * sum(sizes))
        a, b = (_complex_block(rng, n) for n in sizes)
        joined = tensor(QuantumRegister(a.size.bit_length() - 1, a),
                        QuantumRegister(b.size.bit_length() - 1, b))
        assert np.array_equal(joined.amplitudes, np.kron(b, a))
