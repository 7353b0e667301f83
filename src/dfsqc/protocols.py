"""Composite protocols: pulse-mediated primitives and measurement-based gates.

A :class:`ProtocolRun` owns one register, a layout of named logical qubits,
its random stream, a cavity-occupancy schedule (never more than two atoms
inside), an append-only outcome record and the error models it holds.  A
run is noisy exactly when it holds one, and each model acts on its own:
with a cavity (and its probe pulse) the physical CZ is the lossy
reflection map ``cavity.cz_diagonal``, with transport noise every
transport lasts the model's tau_T and dephases the qubits it moves, and
with the homodyne error a reported label may flip.  A run that holds
none has the exact CZ and pure Born-rule projections.

Measurement-based gates follow the standard pattern: entangle with a
prepared ancilla through one physical CZ, measure, correct.  The +L
ancilla preparation is a primitive (direct state injection).  All
measurement helpers accept a ``force`` label so every outcome branch can
be enumerated deterministically in tests and reports; forced branches are
post-selected projections and consume no randomness.  On an ideal run,
:func:`bell_subspace_branches` and :func:`full_bsm_branches` give every
branch at once, each projection split once (``register.split``) rather
than replayed per forced label, with the same registers and log lines.
Every random draw comes from the run's own stream ``run.rng``.

A projection in a changed frame (the phase and yy Bell-subspace kinds, the
logical X and Y measurements) is never conjugate, measure, unconjugate on
the full register: it is (1 +- O)/2 with O = F^dag S F, a permutation with
phases of the measured atoms' basis states (the ``frame`` of
``register.measure`` and ``register.measure_sequence``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .register import (
    CZ2,
    SX,
    QuantumRegister,
    apply_diagonal,
    apply_unitary,
    as_generator,
    fidelity,
    kron_all,
    measure,
    split,
    tensor,
)
from .logical import (
    H_L,
    HS_DAG_L,
    LeakageError,
    LogicalQubit,
    apply_dephasing_channel,
    apply_pair_unitary,
    atom_a_parity_projectors,
    bell_ket,
    logical_basis_measurement,
    logical_pauli,
    logical_support,
    logical_z_rotation,
    low_high,
    pair_ket,
    parity_projectors,
    joint_ones_projectors,
)
from .cavity import CavityParams, PulseSpec, cz_diagonal
from .noise import TransportNoise, transport_phase_std


class SchedulingError(RuntimeError):
    """Cavity occupancy or sequencing constraint violated."""


DEFAULT_TRANSPORT_TIME = 100e-6  # seconds, logged for a run without transport noise


@dataclass(frozen=True)
class TransportStep:
    """One shuttling event: atoms moved into / out of the cavity."""

    atoms_in: tuple = ()
    atoms_out: tuple = ()


class BasisChange(NamedTuple):
    """A basis change ``one`` on a pair and ``both``, the same change on two pairs."""

    one: np.ndarray
    both: np.ndarray

    @classmethod
    def of(cls, change: np.ndarray) -> "BasisChange":
        return cls(change, low_high(change, change))


class PairFrame(NamedTuple):
    """A :class:`BasisChange` on each of two logical qubits while their atom_a pair
    is measured; ``change.both`` acts on q1.atoms + q2.atoms."""

    q1: LogicalQubit
    q2: LogicalQubit
    change: BasisChange

    def change_of(self, q: LogicalQubit):
        return self.change.one if q in (self.q1, self.q2) else None


@dataclass
class LogEntry:
    seq: int
    op: str
    detail: dict

    def line(self) -> str:
        parts = [f"seq={self.seq}", f"op={self.op}"]
        parts += [f"{k}={_fmt(v)}" for k, v in self.detail.items()]
        return " ".join(parts)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(str(x) for x in v) + ")"
    return str(v)


@dataclass
class ProtocolRun:
    """Mutable protocol state: register, layout, rng, schedule, outcome log and
    the optional error models (``cavity`` with its ``pulse``,
    ``transport_noise``, ``homodyne_error``)."""

    register: QuantumRegister
    layout: dict
    rng: np.random.Generator
    cavity: CavityParams | None = None
    pulse: PulseSpec | None = None
    transport_noise: TransportNoise | None = None
    homodyne_error: bool = False
    record: list = field(default_factory=list)
    in_cavity: set = field(default_factory=set)

    @property
    def mode(self) -> str:
        """"noisy" when the run holds an error model, else "ideal"."""
        noisy = (self.cavity is not None or self.transport_noise is not None
                 or self.homodyne_error)
        return "noisy" if noisy else "ideal"

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, blocks, seed=0, **error_models):
        """Build a run from product blocks.

        ``blocks`` is a sequence of ``(names, state)``: names one logical
        qubit name or a tuple of names, state a pair label ("0L", "+L",
        "2L", ...), a Bell label for two pairs ("phi+", ...), or an
        explicit complex vector of dimension 4**n_pairs.  ``error_models``
        are the run's ``cavity``, ``pulse``, ``transport_noise`` and
        ``homodyne_error``.
        """
        layout, vecs = {}, []
        for names, state in blocks:
            vecs.append(_block(layout, names, state, 2 * len(layout))[1])
        reg = QuantumRegister(2 * len(layout), kron_all(vecs))
        return cls(reg, layout, np.random.default_rng(seed), **error_models)

    def qubit(self, q) -> LogicalQubit:
        if isinstance(q, LogicalQubit):
            return q
        return self.layout[q]

    def fork(self, seed=None, register=None) -> "ProtocolRun":
        """Independent copy for branch enumeration (fresh rng when seeded),
        holding ``register`` instead of a copy of its own when given."""
        register = self.register.copy() if register is None else register
        return replace(self, register=register, layout=dict(self.layout),
                       rng=self.rng if seed is None else np.random.default_rng(seed),
                       record=list(self.record), in_cavity=set(self.in_cavity))

    def allocate(self, names, state="+L"):
        """Append one ``(names, state)`` block, as :meth:`create` takes it, to
        the register (direct injection).  Returns the block's LogicalQubit, or
        a tuple of them when ``names`` is a tuple."""
        layout = dict(self.layout)
        block, vec = _block(layout, names, state, self.register.n_qubits)
        self.register = tensor(self.register, QuantumRegister(2 * len(block), vec))
        self.layout = layout
        qubits = tuple(layout[nm] for nm in block)
        self.log("allocate", name=names, atoms=tuple(a for q in qubits for a in q.atoms),
                 state=state if isinstance(state, str) else "vector")
        return qubits[0] if isinstance(names, str) else qubits

    # -- bookkeeping ------------------------------------------------------
    def log(self, op: str, **detail):
        entry = LogEntry(len(self.record), op, detail)
        self.record.append(entry)
        return entry


def _block(layout: dict, names, state, atom: int):
    """One ``(names, state)`` block of :meth:`ProtocolRun.create`: adds each
    name to ``layout`` as the next pair from ``atom`` on and returns the
    names as a tuple with the block's state vector."""
    names = (names,) if isinstance(names, str) else tuple(names)
    for nm in names:
        if nm in layout:
            raise ValueError(f"duplicate logical qubit name {nm!r}")
        layout[nm] = LogicalQubit(atom, atom + 1)
        atom += 2
    if isinstance(state, str):
        if len(names) == 1:
            return names, pair_ket(state)
        if len(names) == 2:
            return names, bell_ket(state)
        raise ValueError("named states cover at most two pairs")
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (4 ** len(names),):
        raise ValueError("state vector dimension mismatch")
    return names, vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# transport and scheduling
# ---------------------------------------------------------------------------

def transport(run: ProtocolRun, step: TransportStep, frame=None):
    """Move atoms; with transport noise each touched logical qubit dephases.

    A transport lasts the noise model's tau_T (``DEFAULT_TRANSPORT_TIME``
    without one).  The differential phase per qubit is Gaussian with
    variance tau_T^2 * int S_tT(w) dw (slow-noise phase accumulation over
    the shuttling window).  One normal draw per touched qubit, in layout order.
    Inside a projection in a :class:`PairFrame`, its two qubits' phases act
    in its changed basis.
    """
    occupied = (run.in_cavity - set(step.atoms_out)) | set(step.atoms_in)
    if len(occupied) > 2:
        raise SchedulingError(
            f"transport would leave {sorted(occupied)} inside the cavity (max 2)"
        )
    missing = set(step.atoms_out) - run.in_cavity
    if missing:
        raise SchedulingError(f"atoms {sorted(missing)} are not inside the cavity")
    run.in_cavity = occupied
    tn = run.transport_noise
    run.log("transport", moved_in=step.atoms_in, moved_out=step.atoms_out,
            duration=DEFAULT_TRANSPORT_TIME if tn is None else tn.tau_T)
    if tn is None:
        return run
    moved = set(step.atoms_in) | set(step.atoms_out)
    std = transport_phase_std(tn)
    for name in run.layout:
        q = run.layout[name]
        if moved & set(q.atoms):
            phi = run.rng.normal(0.0, std) if std > 0 else 0.0
            apply_dephasing_channel(run.register, q, phi,
                                    None if frame is None else frame.change_of(q))
            run.log("transport_dephasing", qubit=name, phi=phi)
    return run


def _ensure_in_cavity(run: ProtocolRun, atoms):
    atoms = set(atoms)
    if atoms <= run.in_cavity:
        return
    out = tuple(sorted(run.in_cavity - atoms))
    into = tuple(sorted(atoms - run.in_cavity))
    transport(run, TransportStep(into, out))


# ---------------------------------------------------------------------------
# pulse-mediated primitives
# ---------------------------------------------------------------------------

def physical_cz(run: ProtocolRun, atom_i: int, atom_j: int):
    """Conditional phase flip exp(i*pi|11><11|) on two atoms in the cavity.

    A run that holds a cavity applies its lossy reflection map
    :func:`cavity.cz_diagonal` instead and renormalizes the register.
    """
    if not {atom_i, atom_j} <= run.in_cavity:
        raise SchedulingError(
            f"atoms ({atom_i}, {atom_j}) must be inside the cavity for a CZ"
        )
    if run.cavity is None:
        apply_unitary(run.register, CZ2, (atom_i, atom_j))
    elif run.pulse is None:
        raise SchedulingError("a cavity CZ needs the probe pulse")
    else:
        apply_diagonal(run.register, cz_diagonal(run.pulse, run.cavity), (atom_i, atom_j))
        amps = run.register.amplitudes
        run.register.amplitudes = amps / np.linalg.norm(amps)
    run.log("physical_cz", atoms=(atom_i, atom_j), mode=run.mode)
    return run


def _require_probe(run: ProtocolRun):
    """A run with the homodyne error cannot measure without the probe pulse
    that sets its flip rate."""
    if run.homodyne_error and run.pulse is None:
        raise SchedulingError("a homodyne label error needs the probe pulse")


def _report_label(run: ProtocolRun, op: str, atoms, label, p, labels):
    """Log and return the reported ``label`` of a measurement with outcome
    ``labels`` (a pair).

    With ``homodyne_error`` the reported label (never the state) is flipped
    to the other one of ``labels`` with the homodyne discrimination error
    probability of the probe pulse, one draw per measurement.  A label
    outside ``labels`` (a leak) draws nothing and is never flipped.
    """
    flipped = False
    if run.homodyne_error and label in labels:
        p_err = 0.5 * math.erfc(math.sqrt(2.0) * abs(run.pulse.alpha))
        if run.rng.random() < p_err:
            label = labels[labels.index(label) ^ 1]
            flipped = True
    run.log(op, atoms=atoms, outcome=label, p=p,
            **({"label_flip": True} if flipped else {}))
    return label


def _measure_pair(run: ProtocolRun, op: str, atoms, ps, force, frame=None):
    """Measure ``ps`` (in ``frame``) on the register, report the label and log it."""
    _require_probe(run)
    label, p, _ = measure(run.register, ps, run.rng, force=force, frame=frame)
    return _report_label(run, op, atoms, label, p, ps.outcome_labels), run


def measure_p12(run: ProtocolRun, atom_i: int, atom_j: int, force=None):
    """Joint projection {|11><11|, rest} with both atoms in the cavity."""
    _ensure_in_cavity(run, (atom_i, atom_j))
    ps = joint_ones_projectors((atom_i, atom_j))
    return _measure_pair(run, "measure_p12", (atom_i, atom_j), ps, force)


def measure_p34(run: ProtocolRun, atom_i: int, atom_j: int, force=None, frame=None):
    """Parity projection via two sequential single-atom reflections.

    Schedule: atom_i alone in the cavity, reflect; swap with atom_j,
    reflect again.  Net projection {P3 = |00><00| + |11><11|, P4 = rest}.

    With a :class:`PairFrame`, whose atom_a pair must be (atom_i, atom_j),
    the parity is measured in its changed basis, where the transports also
    dephase its two qubits.
    """
    ps, unitary = _p34_schedule(run, atom_i, atom_j, frame)
    return _measure_pair(run, "measure_p34", (atom_i, atom_j), ps, force, unitary)


def _p34_schedule(run: ProtocolRun, atom_i: int, atom_j: int, frame):
    """The two transports of :func:`measure_p34`, then its projector set and
    the frame's unitary on the measured atoms (None without a frame)."""
    if frame is not None and (atom_i, atom_j) != (frame.q1.atom_a, frame.q2.atom_a):
        raise ValueError(f"frame measures atoms {(frame.q1.atom_a, frame.q2.atom_a)}, "
                         f"not {(atom_i, atom_j)}")
    others = tuple(sorted(run.in_cavity - {atom_i}))
    transport(run, TransportStep((atom_i,) if atom_i not in run.in_cavity else (),
                                 others), frame)
    transport(run, TransportStep((atom_j,), (atom_i,)), frame)
    if frame is None:
        return parity_projectors((atom_i, atom_j)), None
    return atom_a_parity_projectors(frame.q1, frame.q2), frame.change.both


# ---------------------------------------------------------------------------
# logical single-qubit protocols
# ---------------------------------------------------------------------------

def logical_hadamard(run: ProtocolRun, sys_a, ancilla_b, force=None):
    """Measurement-based Hadamard: output appears on the ancilla.

    The ancilla must be prepared in |+_L>.  One physical CZ couples atom 1
    of the system to atom 1 of the ancilla; the system is then measured in
    the logical x basis and consumed.  Outcome x-: apply sigma_x sigma_x on
    the ancilla pair.  Returns (outcome_label, ancilla qubit).
    """
    qa, qb = run.qubit(sys_a), run.qubit(ancilla_b)
    _ensure_in_cavity(run, (qa.atom_a, qb.atom_a))
    physical_cz(run, qa.atom_a, qb.atom_a)
    _ensure_in_cavity(run, qa.atoms)  # the x measurement reflects off both atoms
    _require_probe(run)
    res = logical_basis_measurement(run.register, qa, "X", run.rng, force=force)
    label = _report_label(run, "measure_logical_x", qa.atoms, res.label,
                          res.probability, ("x+", "x-"))
    if label == "leak":
        run.log("abort", reason="leak during Hadamard input measurement")
        return "leak", qb
    if label == "x-":
        apply_unitary(run.register, SX, (qb.atom_a,))
        apply_unitary(run.register, SX, (qb.atom_b,))
        run.log("correction", target=qb.atoms, which="sx.sx", trigger="x-")
    return label, qb


def arbitrary_logical_rotation(run: ProtocolRun, q, alpha: float, beta: float,
                               sigma: float, forces=(None, None)):
    """U_z(alpha) H_L U_z(beta) H_L U_z(sigma) via two ancilla rounds.

    Allocates two fresh +L ancillas; the returned LogicalQubit holds the
    rotated state (measurement-based Hadamards migrate the data).
    """
    q = run.qubit(q)
    logical_z_rotation(run.register, q, sigma)
    anc1 = run.allocate(_fresh_name(run, "rot_anc1"), "+L")
    label1, _ = logical_hadamard(run, q, anc1, force=forces[0])
    if label1 == "leak":
        return "leak", anc1
    logical_z_rotation(run.register, anc1, beta)
    anc2 = run.allocate(_fresh_name(run, "rot_anc2"), "+L")
    label2, _ = logical_hadamard(run, anc1, anc2, force=forces[1])
    if label2 == "leak":
        return "leak", anc2
    logical_z_rotation(run.register, anc2, alpha)
    run.log("rotation", angles=(alpha, beta, sigma), output=anc2.atoms)
    return "ok", anc2


def _fresh_name(run: ProtocolRun, base: str) -> str:
    name, k = base, 0
    while name in run.layout:
        k += 1
        name = f"{base}_{k}"
    return name


# ---------------------------------------------------------------------------
# Bell-subspace measurements
# ---------------------------------------------------------------------------

_BELL_KINDS = {
    # kind: (per-qubit basis change, {pi3 label, pi4 label})
    "parity": (None, {"pi3": "phi", "pi4": "psi"}),
    "phase": (BasisChange.of(H_L), {"pi3": "plus", "pi4": "minus"}),
    "yy": (BasisChange.of(HS_DAG_L), {"pi3": "yy+", "pi4": "yy-"}),
}


def bell_subspace_measurement(run: ProtocolRun, q1, q2, which="parity", force=None):
    """Non-destructive projection onto a two-dimensional Bell subspace.

    parity: {phi+, phi-} vs {psi+, psi-} via the parity projection on the
    first atoms of the two pairs.  phase: the same parity in the frame
    H_L x H_L, giving {phi+, psi+} vs {phi-, psi-}.  yy: in the frame
    (H_L S_L+) on each pair, giving the remaining pairing.  Raises
    LeakageError, before any state change, log line or draw, if the state
    has left the logical x logical space.
    """
    q1, q2, labels, frame = _bell_subspace(run, q1, q2, which)
    pi_force = None if force is None else {v: k for k, v in labels.items()}[force]
    pi_label, _ = measure_p34(run, q1.atom_a, q2.atom_a, force=pi_force, frame=frame)
    label = labels[pi_label]
    run.log("bell_subspace", kind=which, qubits=(q1.atoms, q2.atoms), outcome=label)
    return label, run


def bell_subspace_branches(run: ProtocolRun, q1, q2, which="parity") -> dict:
    """Every outcome of :func:`bell_subspace_measurement` at once, split from
    one projection (``register.split``): ``{label: run}``, each run a fork
    whose register, record and schedule are those the measurement forced to
    that label leaves, bit for bit.  An outcome below 1e-14 has no branch;
    ``run`` is unchanged.  Only an ideal run is enumerated (transport noise
    and the homodyne error draw per branch): a run holding any error model
    raises ValueError.
    """
    if run.mode != "ideal":
        raise ValueError("only an ideal run's branches can be enumerated")
    q1, q2, labels, frame = _bell_subspace(run, q1, q2, which)
    # the transports move a copy that shares the register: ideal ones never touch it
    moved = run.fork(register=run.register)
    ps, unitary = _p34_schedule(moved, q1.atom_a, q2.atom_a, frame)
    branches = {}
    for pi_label, (p, reg) in split(moved.register, ps, unitary).items():
        branch = moved.fork(register=reg)
        branch.log("measure_p34", atoms=(q1.atom_a, q2.atom_a), outcome=pi_label, p=p)
        label = labels[pi_label]
        branch.log("bell_subspace", kind=which, qubits=(q1.atoms, q2.atoms), outcome=label)
        branches[label] = branch
    return branches


def _bell_subspace(run: ProtocolRun, q1, q2, which: str):
    """The qubits, the pi-label map and the :class:`PairFrame` (None for
    parity) of a Bell-subspace projection; LeakageError, before any state
    change, log line or draw, if the state has left the logical x logical
    space."""
    q1, q2 = run.qubit(q1), run.qubit(q2)
    if which not in _BELL_KINDS:
        raise ValueError(f"unknown Bell-subspace kind {which!r}")
    support = logical_support(run.register, [q1, q2])
    if support < 1.0 - 1e-9:
        raise LeakageError(
            f"state outside the logical Bell space (support {support:.6f})"
        )
    change, labels = _BELL_KINDS[which]
    return q1, q2, labels, None if change is None else PairFrame(q1, q2, change)


_BSM_LABEL = {("phi", "plus"): "phi+", ("phi", "minus"): "phi-",
              ("psi", "plus"): "psi+", ("psi", "minus"): "psi-"}


def full_bsm(run: ProtocolRun, q1, q2, force=None):
    """Full logical Bell-state measurement: parity then phase projection.

    The two subspace projections commute, so each logical Bell state is
    identified with certainty and left intact.  ``force`` takes one of
    phi+/phi-/psi+/psi-.
    """
    f1 = f2 = None
    if force is not None:
        key = force.lower()
        f1 = "phi" if key.startswith("phi") else "psi"
        f2 = "plus" if key.endswith("+") else "minus"
    l1, _ = bell_subspace_measurement(run, q1, q2, "parity", force=f1)
    l2, _ = bell_subspace_measurement(run, q1, q2, "phase", force=f2)
    return _log_full_bsm(run, q1, q2, _BSM_LABEL[(l1, l2)]), run


def full_bsm_branches(run: ProtocolRun, q1, q2) -> dict:
    """Every outcome of :func:`full_bsm` at once, from three splits:
    ``{Bell label: run}`` in ``BELL_LABELS`` order, each run as ``full_bsm``
    forced to that label leaves it (:func:`bell_subspace_branches`)."""
    out = {}
    for l1, parity in bell_subspace_branches(run, q1, q2, "parity").items():
        for l2, branch in bell_subspace_branches(parity, q1, q2, "phase").items():
            out[_log_full_bsm(branch, q1, q2, _BSM_LABEL[(l1, l2)])] = branch
    return out


def _log_full_bsm(run: ProtocolRun, q1, q2, label: str) -> str:
    run.log("full_bsm", qubits=(run.qubit(q1).atoms, run.qubit(q2).atoms),
            outcome=label)
    return label


# ---------------------------------------------------------------------------
# two-qubit gates
# ---------------------------------------------------------------------------

def logical_cz(run: ProtocolRun, q1, q2):
    """diag(1,1,1,-1) in the logical basis: one physical CZ on atoms 1 and 3."""
    q1, q2 = run.qubit(q1), run.qubit(q2)
    _ensure_in_cavity(run, (q1.atom_a, q2.atom_a))
    physical_cz(run, q1.atom_a, q2.atom_a)
    run.log("logical_cz", qubits=(q1.atoms, q2.atoms))
    return run


# corrections mapping each (parity, phase) outcome pair onto the resource
# state; validated exhaustively by the brute-force search in the test suite
_XI_CORRECTIONS = {
    ("phi", "plus"): (),
    ("psi", "plus"): (("a_prime", "X"),),
    ("phi", "minus"): (("b_prime", "Z"),),
    ("psi", "minus"): (("a_prime", "X"), ("b_prime", "Z")),
}


def prepare_xi(run: ProtocolRun, a_prime, a, b, b_prime, force=None):
    """Project the seed state onto the teleported-CNOT resource.

    Expects |+_L> on A', |phi+> on (A, B) and |0_L> on B'.  The parity
    projection on (A, A') and the phase projection on (B, B') leave
    (|0_L 0_L>|phi+> + |1_L 1_L>|psi+>)/sqrt2 on (A, A', B, B'); the
    non-indicated outcomes are fixed by hard-coded logical Pauli
    corrections on A' and B'.  ``force`` is a (parity, phase) label pair.
    """
    qs = {"a_prime": run.qubit(a_prime), "a": run.qubit(a),
          "b": run.qubit(b), "b_prime": run.qubit(b_prime)}
    f1, f2 = force if force is not None else (None, None)
    l1, _ = bell_subspace_measurement(run, qs["a"], qs["a_prime"], "parity", force=f1)
    l2, _ = bell_subspace_measurement(run, qs["b"], qs["b_prime"], "phase", force=f2)
    for target, which in _XI_CORRECTIONS[(l1, l2)]:
        logical_pauli(run.register, qs[target], which)
        run.log("correction", target=qs[target].atoms, which=which,
                trigger=f"{l1}/{l2}")
    run.log("prepare_xi", outcome=(l1, l2))
    return (l1, l2), run


_BYPRODUCT = {"phi+": (0, 0), "psi+": (1, 0), "phi-": (0, 1), "psi-": (1, 1)}


def _cnot_conjugated(pa, pb):
    """Push (X^x Z^z) byproducts through CNOT(control, target)."""
    xa, za = pa
    xb, zb = pb
    return (xa, za ^ zb), (xa ^ xb, zb)


def teleported_cnot(run: ProtocolRun, control, target, resource, force=None):
    """Deterministic logical CNOT by gate teleportation.

    ``resource`` names four logical qubits (A, A', B, B') holding the
    prepared resource state; ``control``/``target`` hold the input.  Bell
    measurements on (control, A) and (target, B) teleport the input onto
    (A', B') up to Pauli byproducts, which are corrected after pushing
    them through the CNOT.  ``force`` is an optional pair of Bell labels.
    """
    a, a_prime, b, b_prime = (run.qubit(x) for x in resource)
    fa, fb = force if force is not None else (None, None)
    la, _ = full_bsm(run, control, a, force=fa)
    lb, _ = full_bsm(run, target, b, force=fb)
    return correct_cnot_byproducts(run, la, lb, a_prime, b_prime)


def correct_cnot_byproducts(run: ProtocolRun, la, lb, a_prime, b_prime):
    """Undo the Bell outcomes' byproducts, pushed through the CNOT, on A' and B'."""
    a_prime, b_prime = run.qubit(a_prime), run.qubit(b_prime)
    corr_a, corr_b = _cnot_conjugated(_BYPRODUCT[la], _BYPRODUCT[lb])
    for q, (x, z) in ((a_prime, corr_a), (b_prime, corr_b)):
        if z:
            logical_pauli(run.register, q, "Z")
        if x:
            logical_pauli(run.register, q, "X")
        if x or z:
            run.log("correction", target=q.atoms,
                    which=("X" * x + "Z" * z), trigger=f"{la}/{lb}")
    run.log("teleported_cnot", outcomes=(la, lb),
            output=(a_prime.atoms, b_prime.atoms))
    return (la, lb), run


# ---------------------------------------------------------------------------
# leakage detection
# ---------------------------------------------------------------------------

def leakage_detect(run: ProtocolRun, sys_a, ancilla_b, force=None):
    """Conclusive leakage check that never disturbs the logical component.

    Parity measurements on atoms (2, 4) and then (1, 4): equal outcomes
    flag leakage; unequal outcomes are followed by a logical CNOT from the
    system onto the ancilla, which restores the system state exactly.
    ``force`` may be "leak" or "clean" (post-selects the second parity).
    """
    qa, qb = run.qubit(sys_a), run.qubit(ancilla_b)
    l1, _ = measure_p34(run, qa.atom_b, qb.atom_b)
    f2 = None
    if force == "leak":
        f2 = l1
    elif force == "clean":
        f2 = "pi4" if l1 == "pi3" else "pi3"
    elif force is not None:
        raise ValueError("force must be 'leak' or 'clean'")
    l2, _ = measure_p34(run, qa.atom_a, qb.atom_b, force=f2)
    if l1 == l2:
        run.log("leakage_detect", outcome=(l1, l2), verdict="leak")
        return "leak", run
    # disentangle: CNOT with the system as control, ancilla as target
    apply_pair_unitary(run.register, qb, H_L)
    _ensure_in_cavity(run, (qa.atom_a, qb.atom_a))
    physical_cz(run, qa.atom_a, qb.atom_a)
    apply_pair_unitary(run.register, qb, H_L)
    run.log("leakage_detect", outcome=(l1, l2), verdict="clean")
    return "clean", run


# ---------------------------------------------------------------------------
# transport-noise comparison (the reason for the encoding)
# ---------------------------------------------------------------------------

def dfs_transport_advantage(tn: TransportNoise, n_realizations: int, rng):
    """Monte Carlo fidelity of an encoded vs a bare qubit under transport.

    The encoded pair starts in |+_L> and receives the differential phase
    channel; the bare atom starts in |+> and accumulates the full noise
    phase over the same window.  Returns (mean encoded fidelity, mean bare
    fidelity).
    """
    gen = as_generator(rng)
    std_enc = transport_phase_std(tn)
    std_bare = tn.tau_T * math.sqrt(tn.base.total_power)
    plus_l = pair_ket("+L")
    enc_total = bare_total = 0.0
    for _ in range(n_realizations):
        phi = gen.normal(0.0, std_enc)
        reg = QuantumRegister(2, plus_l.copy())
        apply_dephasing_channel(reg, LogicalQubit(0, 1), phi)
        enc_total += fidelity(plus_l, reg.amplitudes)
        psi = gen.normal(0.0, std_bare)
        bare = np.array([1.0, np.exp(2j * psi)]) / math.sqrt(2)
        bare_total += fidelity(np.array([1.0, 1.0]) / math.sqrt(2), bare)
    return enc_total / n_realizations, bare_total / n_realizations
