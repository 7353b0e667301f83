"""Two-atom decoherence-free encoding and logical-level operations.

One logical qubit lives on an ordered pair of atoms ``(atom_a, atom_b)``:

    |0_L> = |01>   (atom_a in 0, atom_b in 1)
    |1_L> = |10>

The orthogonal complement span{|00>, |11>} is the leakage space, labeled
|2_L> = |00> and |3_L> = |11>.  Collective phases (the same z phase on both
atoms) act trivially on the logical span, which is the whole point of the
encoding.

Pair operators below are 4x4 matrices indexed with atom_a as the least
significant bit (apply with ``targets=[atom_a, atom_b]``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .register import (
    LAYOUTS,
    SZ,
    ProjectorSet,
    QuantumRegister,
    RegisterError,
    apply_diagonal,
    apply_unitary,
    measure_sequence,
    row_table,
    rz,
)


class LeakageError(RuntimeError):
    """Population found outside the logical subspace where none is allowed."""


@dataclass(frozen=True)
class LogicalQubit:
    """Ordered pair of physical atom indices hosting one logical qubit."""

    atom_a: int
    atom_b: int

    def __post_init__(self):
        if self.atom_a == self.atom_b:
            raise ValueError("logical qubit needs two distinct atoms")

    @property
    def atoms(self):
        return (self.atom_a, self.atom_b)


# ---------------------------------------------------------------------------
# pair-basis kets and operators (index = bit_a + 2*bit_b)
# ---------------------------------------------------------------------------

def _pair_index(bit_a: int, bit_b: int) -> int:
    return bit_a + 2 * bit_b


IDX_00 = _pair_index(0, 0)  # |2_L>
IDX_1L = _pair_index(1, 0)  # |1_L>
IDX_0L = _pair_index(0, 1)  # |0_L>
IDX_11 = _pair_index(1, 1)  # |3_L>

_SQ2 = 1.0 / math.sqrt(2.0)


def pair_ket(name) -> np.ndarray:
    """4-dim ket on one atom pair.

    Accepts "0L", "1L", "+L", "-L", the leakage labels "2L"/"3L", or a pair
    of logical amplitudes (c0, c1).
    """
    vec = np.zeros(4, dtype=complex)
    if isinstance(name, str):
        key = name.upper()
        if key == "0L":
            vec[IDX_0L] = 1.0
        elif key == "1L":
            vec[IDX_1L] = 1.0
        elif key == "+L":
            vec[IDX_0L] = vec[IDX_1L] = _SQ2
        elif key == "-L":
            vec[IDX_0L], vec[IDX_1L] = _SQ2, -_SQ2
        elif key == "2L":
            vec[IDX_00] = 1.0
        elif key == "3L":
            vec[IDX_11] = 1.0
        else:
            raise ValueError(f"unknown pair state {name!r}")
        return vec
    c0, c1 = name
    vec[IDX_0L], vec[IDX_1L] = c0, c1
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("zero logical amplitudes")
    return vec / norm


# four-atom basis index of |m_L>|n_L>, listed at m + 2n
_TWO_PAIR_INDEX = [i + 4 * j for j in (IDX_0L, IDX_1L) for i in (IDX_0L, IDX_1L)]


def encode_two(c4: np.ndarray) -> np.ndarray:
    """Four-atom encoding of two logical qubits; index m + 2n, first pair low."""
    out = np.zeros(16, dtype=complex)
    out[_TWO_PAIR_INDEX] = c4
    return out


# logical amplitudes of each Bell state at m + 2n, before the 1/sqrt2
_BELL_AMPLITUDES = {"phi+": (1, 0, 0, 1), "phi-": (1, 0, 0, -1),
                    "psi+": (0, 1, 1, 0), "psi-": (0, -1, 1, 0)}


def bell_ket(name: str) -> np.ndarray:
    """16-dim logical Bell ket on two consecutive pairs (atoms 0..3).

    phi+/- = (|0L 0L> +/- |1L 1L>)/sqrt2, psi+/- = (|0L 1L> +/- |1L 0L>)/sqrt2.
    """
    key = name.lower().replace("_", "")
    if key not in _BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell label {name!r}")
    return encode_two(np.array(_BELL_AMPLITUDES[key]) * _SQ2)


BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def _pair_op(entries) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for (r, c), val in entries.items():
        m[r, c] = val
    return m


def low_high(low, high) -> np.ndarray:
    """``high (x) low``: ``low`` on the low bits of the index (atom_a, or a first pair)."""
    n = low.shape[0] * high.shape[0]
    return np.multiply.outer(high, low).swapaxes(1, 2).reshape(n, n)


# X_L: swap the two atoms (leakage states are fixed points)
X_L = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# Z_L realized as U_z(pi/2) times a global phase i, which is sigma_z on atom_a
Z_L = low_high(SZ, np.eye(2))  # diag over (bit_b, bit_a): [1,-1,1,-1]
Y_L = 1j * X_L @ Z_L
# S_L = diag(1, i) on the logical span: U_z(pi/4) times global phase e^{i pi/4}
S_L = np.exp(1j * math.pi / 4) * low_high(rz(math.pi / 4), np.eye(2))
# Hadamard on the logical span, identity on the leakage span
H_L = _pair_op(
    {
        (IDX_00, IDX_00): 1,
        (IDX_11, IDX_11): 1,
        (IDX_0L, IDX_0L): _SQ2,
        (IDX_0L, IDX_1L): _SQ2,
        (IDX_1L, IDX_0L): _SQ2,
        (IDX_1L, IDX_1L): -_SQ2,
    }
)

# basis change taking the logical y eigenstates to the z eigenstates
HS_DAG_L = H_L @ S_L.conj().T

PAULI_L = {"I": np.eye(4, dtype=complex), "X": X_L, "Y": Y_L, "Z": Z_L}

# 2x2 logical-basis matrices for oracle comparisons
H2 = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2


# ---------------------------------------------------------------------------
# operations on registers
# ---------------------------------------------------------------------------

def logical_z_rotation(reg: QuantumRegister, q: LogicalQubit, alpha: float):
    """U_z(alpha): exp(-i alpha sigma_z) on atom_a only.

    Acts as |0_L> -> e^{-i alpha}|0_L>, |1_L> -> e^{+i alpha}|1_L>.
    """
    return apply_unitary(reg, rz(alpha), (q.atom_a,))


def logical_pauli(reg: QuantumRegister, q: LogicalQubit, which: str):
    try:
        op = PAULI_L[which.upper()]
    except KeyError:
        raise ValueError(f"which must be X, Y or Z, got {which!r}") from None
    return apply_unitary(reg, op, q.atoms)


def apply_pair_unitary(reg: QuantumRegister, q: LogicalQubit, op4: np.ndarray):
    return apply_unitary(reg, op4, q.atoms)


def apply_dephasing_channel(reg: QuantumRegister, q: LogicalQubit, phi: float,
                            frame=None):
    """Differential phase phi between |0_L> and |1_L>.

    Unitary exp(-i (phi/4) (sigma_z^a - sigma_z^b)): |0_L> picks up
    e^{-i phi/2}, |1_L> picks up e^{+i phi/2}, and the leakage states |00>,
    |11> are untouched, so the channel never mixes the subspaces.  phi = pi
    maps |+_L> to |-_L> (up to global phase).  A collective phase (equal z
    rotation of both atoms) leaves every logical state invariant.

    It is one diagonal D on the pair.  ``frame`` is a 4x4 basis change the
    pair is held in while the register keeps it unchanged: the phases then
    act as frame^dag D frame.
    """
    # D over the pair index atom_a + 2*atom_b: |1_L> = 1, |0_L> = 2
    d = np.exp(0.5j * phi * np.array([0.0, 1.0, -1.0, 0.0]))
    return apply_diagonal(reg, d, q.atoms, frame)


def _atoms(q_or_atoms) -> tuple:
    return q_or_atoms.atoms if isinstance(q_or_atoms, LogicalQubit) else tuple(q_or_atoms)


def joint_ones_projectors(q_or_atoms) -> ProjectorSet:
    """{P1, P2} with P1 = |11><11| on the two atoms, labels pi1/pi2."""
    return ProjectorSet((1, 1, 1, 0), ("pi1", "pi2"), _atoms(q_or_atoms))


def parity_projectors(q_or_atoms) -> ProjectorSet:
    """{P3, P4} with P3 = |00><00| + |11><11| on the two atoms, labels pi3/pi4."""
    return ProjectorSet((0, 1, 1, 0), ("pi3", "pi4"), _atoms(q_or_atoms))


# outcome of {P3, P4} on the atom_a bits (0 and 2) of a two-pair sub-state
_ATOM_A_PARITY = tuple((s ^ (s >> 2)) & 1 for s in range(16))


def atom_a_parity_projectors(q1: LogicalQubit, q2: LogicalQubit) -> ProjectorSet:
    """{P3, P4} on (q1.atom_a, q2.atom_a), as a table over all four atoms of the pairs."""
    return ProjectorSet(_ATOM_A_PARITY, ("pi3", "pi4"), q1.atoms + q2.atoms)


class LogicalMeasurement(NamedTuple):
    label: str
    register: QuantumRegister
    outcomes: tuple
    probability: float


# A sigma_x before and after {P1, P2} only relabels its outcome table:
# on atom_a P1 becomes |0_L><0_L|, on atom_b it becomes |1_L><1_L|.
def _z_sequence(q: LogicalQubit):
    return (ProjectorSet((1, 1, 0, 1), ("pi1", "pi2"), q.atoms),
            ProjectorSet((1, 0, 1, 1), ("pi1", "pi2"), q.atoms))


_Z_FORCES = {None: (None, None), "z+": ("pi1", "pi2"), "z-": ("pi2", "pi1"),
             "leak": ("pi2", "pi2")}
_Z_LABELS = {pair: label for label, pair in _Z_FORCES.items() if label is not None}


_BASIS_CHANGE = {
    "Z": None,
    "X": H_L,
    "Y": HS_DAG_L,
}
_BASIS_LABELS = {
    "Z": {"z+": "z+", "z-": "z-", "leak": "leak"},
    "X": {"z+": "x+", "z-": "x-", "leak": "leak"},
    "Y": {"z+": "y+", "z-": "y-", "leak": "leak"},
}


def logical_basis_measurement(reg: QuantumRegister, q: LogicalQubit, basis: str,
                              rng, force=None):
    """Non-destructive measurement of a logical Pauli observable.

    Z is the sequence sigma_x on atom_a; {P1,P2}; sigma_x on both; {P1,P2};
    sigma_x on atom_b.  Outcome pair (pi1,pi2) -> z+, (pi2,pi1) -> z-,
    (pi2,pi2) -> leak; (pi1,pi1) cannot occur on a valid state.  X and Y
    run the same sequence in a changed frame, H_L and H_L S_L^dag: each
    measurement, with its own draw, projects through F^dag P F directly,
    which leaves the post-measurement eigenstate in the register's own
    basis.  Leak outcomes propagate unchanged.

    ``force`` may be one of the basis's labels ("z+", "x-", "leak", ...) to
    post-select the branch.
    """
    key = basis.upper()
    if key not in _BASIS_CHANGE:
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    labels = _BASIS_LABELS[key]
    z_force = None if force is None else {v: k for k, v in labels.items()}[force]
    (first, p1), (second, p2) = measure_sequence(reg, _z_sequence(q), rng,
                                                 _Z_FORCES[z_force], _BASIS_CHANGE[key])
    pair = (first, second)
    if pair not in _Z_LABELS:
        raise RegisterError("outcome pair (pi1, pi1) observed: inconsistent state")
    return LogicalMeasurement(labels[_Z_LABELS[pair]], reg, pair, p1 * p2)


@functools.lru_cache(maxsize=LAYOUTS)
def _logical_rows(n_qubits: int, atoms: tuple) -> np.ndarray:
    """Basis states inside the logical span of every pair of ``atoms``."""
    n_pairs = len(atoms) // 2
    rows = row_table(n_qubits, atoms).reshape((4,) * n_pairs + (-1,))
    # one axis per pair; its indices IDX_1L = 1 and IDX_0L = 2 span the logical space
    inside = rows[(slice(IDX_1L, IDX_0L + 1),) * n_pairs].ravel()
    inside.flags.writeable = False
    return inside


def logical_support(reg: QuantumRegister, qubits) -> float:
    """Probability weight of the state inside the logical span of every pair."""
    atoms = tuple(a for q in qubits for a in q.atoms)
    inside = reg.amplitudes.take(_logical_rows(reg.n_qubits, atoms))
    return float(np.vdot(inside, inside).real)
