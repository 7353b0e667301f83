"""Dense state-vector engine for small registers of two-level atoms.

A register is one pure state: every protocol follows a single measurement
trajectory (sampled or forced Born-rule outcomes, sampled dephasing phases,
renormalized lossy gates), so no density matrix is ever evolved.  Only
:func:`reduced_state` returns one, as a plain array.

Conventions (fixed once, inherited by every other module):

* Qubit ``k`` is stored in bit ``k`` of the basis index (little endian),
  i.e. basis state ``i`` assigns qubit ``k`` the value ``(i >> k) & 1``.
* ``ket("0101")`` reads the string left to right as qubit 0, 1, 2, ...
  so the leftmost character is the *lowest* qubit.  This matches the
  atom-numbering used throughout: atom 1 of a protocol diagram is qubit 0.
* A matrix applied to ``targets=[q0, q1, ...]`` is indexed with
  ``targets[0]`` as the least significant bit of its row/column index.
* Registers are value-like: operations never write into an amplitude
  array, they replace ``amplitudes`` and return the same object; use
  :meth:`QuantumRegister.copy` to branch.
* Targets are addressed through one cached layout per ``(n_qubits,
  targets)``: the :func:`row_table`, its inverse permutation and the target
  sub-state of every basis state.

Operators: every gate and projection the protocols use is monomial (one
unit-modulus entry per row and column: the logical Paulis, ``SX``, ``CZ2``,
``rz``, the dephasing and every Bell/logical projection), so one kernel
applies them, ``psi -> phase * psi.take(perm)``, with ``perm`` cached by
structure, never by phase.  Any other unitary (``H_L``) takes the row table.
A two-outcome :class:`ProjectorSet` in a frame F measures (1 +- O)/2 with
O = F^dag diag(1 - 2*outcome) F, so p+- = |(psi +- O psi)/2|^2;
:func:`measure` keeps one of the two states (psi +- O psi)/2 and
:func:`split` keeps both, so enumerating a projection's branches costs one
O psi, not one per branch.

Randomness: every sampled measurement consumes exactly one ``rng.random()``
draw (outcomes ordered as in the ProjectorSet), so a fixed seed and a fixed
call sequence replay identically.  Forced measurements and splits consume
no draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ATOL_UNITARY = 1e-10
MIN_PROBABILITY = 1e-14
MAX_QUBITS = 16  # dense amplitudes only; protocols never need more than 12

# Single-qubit constants
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# exp(i*pi |11><11|) on two atoms
CZ2 = np.diag([1, 1, 1, -1]).astype(complex)


def rz(alpha: float) -> np.ndarray:
    """Physical z rotation exp(-i*alpha*sigma_z) (full angle convention)."""
    return np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)])


class RegisterError(ValueError):
    """Raised for contract violations on register operations."""


def as_generator(rng) -> np.random.Generator:
    """Accept an int seed or a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build rng stream from {type(rng).__name__}")


@dataclass
class QuantumRegister:
    """Pure state of ``n_qubits`` two-level atoms as a dense amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_qubits > MAX_QUBITS:
            raise RegisterError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.dim,):
            raise RegisterError(
                f"amplitudes shape {self.amplitudes.shape} does not match "
                f"{self.n_qubits} qubits"
            )

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def copy(self) -> "QuantumRegister":
        return QuantumRegister(self.n_qubits, self.amplitudes.copy())


@dataclass(frozen=True)
class ProjectorSet:
    """Two-outcome projective measurement diagonal in the computational basis.

    Stored as an outcome table: ``outcome_of[i]`` is the index, 0 or 1, into
    ``outcome_labels`` of basis state ``i`` of ``targets`` (``targets[0]``
    is its least significant bit).  Outcome ``k`` projects onto the basis
    states with ``outcome_of[i] == k``, so the projectors are orthogonal
    and complete by construction.
    """

    outcome_of: tuple
    outcome_labels: tuple
    targets: tuple

    def __post_init__(self):
        if len(self.outcome_of) != 2 ** len(self.targets):
            raise RegisterError("outcome table needs one entry per basis state of targets")
        if len(self.outcome_labels) != 2:
            raise RegisterError("a projector set has exactly two outcomes")
        if sorted(set(self.outcome_of)) != [0, 1]:
            raise RegisterError("every outcome index must name a label and every "
                                "label must own a basis state")

    def index_of(self, label) -> int:
        return self.outcome_labels.index(label)


# ---------------------------------------------------------------------------
# basis construction helpers
# ---------------------------------------------------------------------------

def basis_index(bits) -> int:
    """Index of the basis state assigning ``bits[k]`` to qubit k."""
    return sum(int(b) << k for k, b in enumerate(bits))


def ket(bits: str) -> np.ndarray:
    """Basis ket from a bit string; leftmost character is qubit 0."""
    n = len(bits)
    vec = np.zeros(2**n, dtype=complex)
    vec[basis_index(bits)] = 1.0
    return vec


def kron_all(blocks) -> np.ndarray:
    """Product state over blocks listed in increasing-qubit order.

    ``blocks[0]`` occupies the lowest qubits, so each later block becomes
    the high index of an outer product; the entries are the same products
    a Kronecker product forms, bit for bit.
    """
    out = np.asarray(blocks[0], dtype=complex)
    for b in blocks[1:]:
        out = np.multiply.outer(np.asarray(b, dtype=complex), out).ravel()
    return out


def tensor(a: QuantumRegister, b: QuantumRegister) -> QuantumRegister:
    """Combine registers; ``a`` keeps its qubit indices, ``b`` is shifted up."""
    amps = kron_all([a.amplitudes, b.amplitudes])
    return QuantumRegister(a.n_qubits + b.n_qubits, amps)


def random_state(n_qubits: int, rng) -> np.ndarray:
    rng = as_generator(rng)
    vec = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# targeted operations: monomial kernel and row table
# ---------------------------------------------------------------------------

LAYOUTS = 64  # cached (n_qubits, targets) layouts; shipped + golden configs use 18
KERNELS = 64  # full-length gathers, and projection involutions; they use 12 of each
UNITARY_VERDICTS = 256  # matrices by content: the constant gates plus recent rz


class _Layout(NamedTuple):
    """The basis states of a register grouped by the sub-state of its targets."""

    rows: np.ndarray  # (2**k, 2**(n-k)); row s lists the states of sub-state s
    inverse: np.ndarray  # position of each basis state in rows.ravel()
    sub: np.ndarray  # target sub-state of each basis state


@functools.lru_cache(maxsize=LAYOUTS)
def _layout(n_qubits: int, targets: tuple) -> _Layout:
    if len(set(targets)) != len(targets):
        raise RegisterError(f"duplicate targets {list(targets)}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise RegisterError(f"target {q} out of range for {n_qubits} qubits")
    idx = np.arange(2**n_qubits)
    sub = np.zeros_like(idx)
    for m, q in enumerate(targets):
        sub |= ((idx >> q) & 1) << m
    rows = np.argsort(sub, kind="stable")
    inverse = np.empty_like(rows)
    inverse[rows] = idx
    layout = _Layout(rows.reshape(2 ** len(targets), -1), inverse, sub)
    for table in layout:
        table.flags.writeable = False
    return layout


def row_table(n_qubits: int, targets) -> np.ndarray:
    """Read-only ``(2**k, 2**(n-k))`` table of basis states by targets sub-state.

    Row ``s`` lists, in increasing order, the basis states whose ``targets``
    sub-state (``targets[0]`` lowest) is ``s``, so ``amps[rows]`` is the
    state as a ``2**k``-row matrix on the targets.
    """
    return _layout(n_qubits, tuple(targets)).rows


@functools.lru_cache(maxsize=KERNELS)
def _gather(n_qubits: int, targets: tuple, perm: tuple):
    """Full-length gather of the target-space permutation ``perm``; None if identity.

    Entry ``i`` is basis state ``i`` with its target sub-state ``s`` replaced
    by ``perm[s]``.
    """
    if perm == tuple(range(len(perm))):
        return None
    layout = _layout(n_qubits, targets)
    table = layout.rows[list(perm)].ravel().take(layout.inverse)
    table.flags.writeable = False
    return table


def _monomial(m: np.ndarray, atol: float):
    """``(perm, phase)`` with ``m[r, perm[r]] = phase[r]``, or None when another
    entry of some row is farther than ``atol`` from zero."""
    r = np.arange(len(m))
    perm = np.abs(m).argmax(axis=1)
    rest = m.copy()
    rest[r, perm] = 0
    if np.abs(rest).max() > atol:
        return None
    return tuple(perm.tolist()), m[r, perm]


def _apply_monomial(reg: QuantumRegister, targets: tuple, perm: tuple, phase):
    """psi -> phase * psi.take(perm): row ``s`` of the operator holds ``phase[s]``
    in column ``perm[s]`` (``phase`` None: all ones).  The gather is cached by
    structure; the phases are spread on every call."""
    gather = _gather(reg.n_qubits, targets, perm)
    amps = reg.amplitudes if gather is None else reg.amplitudes.take(gather)
    if phase is not None:
        amps = phase.take(_layout(reg.n_qubits, targets).sub) * amps
    reg.amplitudes = amps
    return reg


def _apply_dense(reg: QuantumRegister, targets: tuple, matrix: np.ndarray):
    """psi -> M psi: gather the row table, multiply, scatter through its inverse."""
    layout = _layout(reg.n_qubits, targets)
    values = matrix @ reg.amplitudes[layout.rows]
    reg.amplitudes = values.ravel().take(layout.inverse)
    return reg


@functools.lru_cache(maxsize=UNITARY_VERDICTS)
def _check_unitary(shape: tuple, data: bytes):
    """Raise unless the matrix is unitary.  Return ``(perm, phase)`` if it is
    monomial with exact zeros elsewhere (``phase`` None when all ones), else
    None.  Only passing verdicts are cached, by content."""
    u = np.frombuffer(data, dtype=complex).reshape(shape)
    if np.max(np.abs(u.conj().T @ u - np.eye(shape[0]))) > ATOL_UNITARY:
        raise RegisterError("matrix is not unitary within 1e-10")
    parts = _monomial(u, 0.0)
    if parts is None:
        return None
    perm, phase = parts
    return perm, None if (phase == 1).all() else phase


def _checked_unitary(unitary, dim: int):
    """The matrix as a complex array, and its :func:`_check_unitary` structure."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (dim, dim):
        raise RegisterError(f"unitary shape {unitary.shape} != ({dim}, {dim})")
    return unitary, _check_unitary(unitary.shape, unitary.tobytes())


def apply_unitary(reg: QuantumRegister, unitary: np.ndarray, targets) -> QuantumRegister:
    """Apply a unitary on the listed qubits: psi -> U psi.

    A monomial U takes the kernel, any other U the row table.
    """
    targets = tuple(targets)
    dim = _layout(reg.n_qubits, targets).rows.shape[0]
    unitary, monomial = _checked_unitary(unitary, dim)
    if monomial is None:
        return _apply_dense(reg, targets, unitary)
    return _apply_monomial(reg, targets, *monomial)


def apply_diagonal(reg: QuantumRegister, diagonal: np.ndarray, targets,
                   frame=None) -> QuantumRegister:
    """psi -> D psi, D = diag(``diagonal``) on ``targets``; not renormalized.

    ``frame``, a unitary F on ``targets``, applies F^dag D F instead, as a
    dense product on the row table.  F gets the cached unitarity check; the
    product, which changes with D, gets none and enters no cache.
    """
    targets = tuple(targets)
    dim = _layout(reg.n_qubits, targets).rows.shape[0]
    diagonal = np.asarray(diagonal, dtype=complex)
    if diagonal.shape != (dim,):
        raise RegisterError(f"diagonal shape {diagonal.shape} != ({dim},)")
    if frame is None:
        return _apply_monomial(reg, targets, tuple(range(dim)), diagonal)
    frame, _ = _checked_unitary(frame, dim)
    return _apply_dense(reg, targets, frame.conj().T @ (diagonal[:, None] * frame))


@functools.lru_cache(maxsize=KERNELS)
def _involution(n_qubits: int, targets: tuple, outcome_of: tuple, frame):
    """Full-length ``(gather, phase)`` of O = F^dag diag(sigma) F, sigma = 1 - 2*outcome_of.

    ``frame`` is the bytes of a checked unitary F, or None for the identity.
    O is Hermitian and unitary, so an involution; raises RegisterError
    unless it is monomial.
    """
    sigma = 1.0 - 2.0 * np.array(outcome_of)
    if frame is None:
        perm, phase = tuple(range(sigma.size)), sigma.astype(complex)
    else:
        f = np.frombuffer(frame, dtype=complex).reshape(sigma.size, sigma.size)
        parts = _monomial(f.conj().T @ (sigma[:, None] * f), ATOL_UNITARY)
        if parts is None:
            raise RegisterError("projection is not monomial in this frame")
        perm, phase = parts
        # snap to exact unit phases: 1, -1, i or -i where within 1e-10 of one
        exact = np.round(phase.real) + 1j * np.round(phase.imag)
        phase = np.where(np.abs(phase - exact) < ATOL_UNITARY, exact, phase / np.abs(phase))
    gather = _gather(n_qubits, targets, perm)
    phase = phase.take(_layout(n_qubits, targets).sub)
    phase.flags.writeable = False
    return gather, phase


def measure(reg: QuantumRegister, ps: ProjectorSet, rng, force=None, frame=None):
    """Projective measurement by the Born rule on a two-outcome ProjectorSet.

    With S = diag(1 - 2*outcome_of) the outcomes project onto (1 + S)/2 and
    (1 - S)/2.  Returns ``(label, probability, register)``; the register is
    updated to the renormalized post-measurement state (non-destructive).
    ``force`` selects a specific outcome label (post-selection); it errors
    when that outcome has probability below 1e-14 and consumes no rng draw.

    ``frame``, a unitary F on ``ps.targets``, measures F^dag P_k F instead,
    through O = F^dag S F, which must be monomial: p = |(psi +- O psi)/2|^2,
    and the kept state is (psi +- O psi)/(2 sqrt(p)).
    """
    ((label, p),) = measure_sequence(reg, (ps,), rng, (force,), frame)
    return label, p, reg


def measure_sequence(reg: QuantumRegister, sets, rng, forces, frame=None):
    """:func:`measure` of each of ``sets`` (one set of targets) in turn, each
    with its own draw or ``forces`` entry, all in ``frame``.

    Returns one ``(label, probability)`` per set.
    """
    key = _frame_key(frame, len(sets[0].outcome_of))
    return [_project(reg, ps, key, rng, force) for ps, force in zip(sets, forces)]


def split(reg: QuantumRegister, ps: ProjectorSet, frame=None) -> dict:
    """Both outcomes of :func:`measure` at once, from one O psi.

    Returns ``{label: (probability, register)}`` in outcome order, each
    register the state :func:`measure` with ``force=label`` would leave, bit
    for bit; an outcome below 1e-14 is left out.  ``reg`` is unchanged and
    no draw is consumed.
    """
    key = _frame_key(frame, len(ps.outcome_of))
    branches, probs, total = _branches(reg, ps, key)
    return {ps.outcome_labels[k]: (float(probs[k] / total),
                                   QuantumRegister(reg.n_qubits, _kept(branch, probs[k])))
            for k, branch in enumerate(branches) if probs[k] >= MIN_PROBABILITY}


def _frame_key(frame, dim: int):
    """The bytes of a checked unitary ``frame`` (the :func:`_involution` key), or None."""
    return None if frame is None else _checked_unitary(frame, dim)[0].tobytes()


def _branches(reg: QuantumRegister, ps: ProjectorSet, frame):
    """``2 P_k psi`` for both outcomes of ``ps`` in the frame given as bytes, from
    one O psi, with their probabilities and the probabilities' total."""
    gather, phase = _involution(reg.n_qubits, ps.targets, ps.outcome_of, frame)
    psi = reg.amplitudes
    o = phase * (psi if gather is None else psi.take(gather))
    branches = (psi + o, np.subtract(psi, o, out=o))
    probs = [np.vdot(b, b).real / 4 for b in branches]
    total = probs[0] + probs[1]
    if total < MIN_PROBABILITY:
        raise RegisterError("all outcome probabilities below 1e-14: invalid state")
    return branches, probs, total


def _kept(branch: np.ndarray, prob: float) -> np.ndarray:
    """The normalized state ``2 P psi / (2 sqrt(p))``, scaled in place."""
    branch *= 0.5 / math.sqrt(prob)
    return branch


def _project(reg: QuantumRegister, ps: ProjectorSet, frame, rng, force):
    """Born-rule outcome of ``ps`` in the frame given as bytes, and the collapse."""
    branches, probs, total = _branches(reg, ps, frame)
    if force is not None:
        k = ps.index_of(force)
        if probs[k] < MIN_PROBABILITY:
            raise RegisterError(f"forced outcome {force!r} has zero probability")
    else:
        k = int(as_generator(rng).random() * total >= probs[0])
    reg.amplitudes = _kept(branches[k], probs[k])
    return ps.outcome_labels[k], float(probs[k] / total)


def reduced_state(reg: QuantumRegister, keep) -> np.ndarray:
    """Reduced density matrix over ``keep`` (``keep[0]`` lowest bit).

    The amplitudes are contracted directly; the full density matrix of the
    register is never formed.
    """
    if len(keep) == 0:
        raise RegisterError("keep set must not be empty")
    x = reg.amplitudes[row_table(reg.n_qubits, keep)]
    return x @ x.conj().T


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def fidelity(psi, b) -> float:
    """Fidelity of the pure state ``psi`` with ``b``, ignoring global phase.

    ``b`` is a state vector, giving |<psi|b>|^2, or a density matrix,
    giving <psi|b|psi>.
    """
    psi, b = np.asarray(psi), np.asarray(b)
    if b.ndim == 1:
        return float(abs(np.vdot(psi, b)) ** 2)
    return float(np.real(np.vdot(psi, b @ psi)))


def on_support(rhos) -> np.ndarray:
    """A stack of square matrices restricted to the indices whose row or
    column is nonzero in some member.

    Every difference of members is then zero in the dropped rows and
    columns, which add only zero eigenvalues, so pairwise trace distances
    are unchanged.
    """
    rhos = np.asarray(rhos)
    nonzero = rhos != 0
    keep = np.flatnonzero(nonzero.any(axis=(0, 1)) | nonzero.any(axis=(0, 2)))
    return rhos[:, keep[:, None], keep]


def trace_distance(a, b):
    """0.5 * tr|a - b| for density matrices (vectors promoted); per pair for stacks."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1:
        a = np.outer(a, a.conj())
    if b.ndim == 1:
        b = np.outer(b, b.conj())
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
