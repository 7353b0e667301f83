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
* Registers are value-like: operations replace ``amplitudes`` by a new
  array and return the same object; use :meth:`QuantumRegister.copy` to branch.
* Targets are addressed through one cached :func:`row_table`: an operation
  gathers ``amps[rows]`` and, if it changes the state, scatters a new array.

Measurements: every projector the protocols measure is diagonal in the
computational basis or in a frame F (a unitary on the targets), so a
:class:`ProjectorSet` is an outcome table over the basis states of its
targets, and ``measure`` sums the weights of the target sub-states (of
``F @ rows`` in a frame) per outcome and keeps the rows of the chosen one.

Randomness: every sampled measurement consumes exactly one ``rng.random()``
draw (outcomes ordered as in the ProjectorSet), so a fixed seed and a fixed
call sequence replay identically.  Forced measurements consume no draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    """Projective measurement diagonal in the computational basis.

    Stored as an outcome table: ``outcome_of[i]`` is the index into
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
        if sorted(set(self.outcome_of)) != list(range(len(self.outcome_labels))):
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
# targeted operations through a cached row table
# ---------------------------------------------------------------------------

ROW_TABLES = 64  # cached (n_qubits, targets) tables; shipped + golden configs use 23
UNITARY_VERDICTS = 256  # matrices by content: the constant gates plus recent rz


def row_table(n_qubits: int, targets) -> np.ndarray:
    """Read-only ``(2**k, 2**(n-k))`` table of basis states by targets sub-state.

    Row ``s`` lists, in increasing order, the basis states whose ``targets``
    sub-state (``targets[0]`` lowest) is ``s``, so ``amps[rows]`` is the
    state as a ``2**k``-row matrix on the targets.
    """
    return _row_table(n_qubits, tuple(int(q) for q in targets))


@functools.lru_cache(maxsize=ROW_TABLES)
def _row_table(n_qubits: int, targets: tuple) -> np.ndarray:
    if len(set(targets)) != len(targets):
        raise RegisterError(f"duplicate targets {list(targets)}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise RegisterError(f"target {q} out of range for {n_qubits} qubits")
    idx = np.arange(2**n_qubits)
    sub = np.zeros_like(idx)
    for m, q in enumerate(targets):
        sub |= ((idx >> q) & 1) << m
    rows = np.argsort(sub, kind="stable").reshape(2 ** len(targets), -1)
    rows.flags.writeable = False
    return rows


def _scatter(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.empty(rows.size, dtype=complex)
    out[rows] = values
    return out


@functools.lru_cache(maxsize=UNITARY_VERDICTS)
def _check_unitary(shape: tuple, data: bytes) -> None:
    """Raise unless the matrix is unitary; only passing verdicts are cached."""
    u = np.frombuffer(data, dtype=complex).reshape(shape)
    if np.max(np.abs(u.conj().T @ u - np.eye(shape[0]))) > ATOL_UNITARY:
        raise RegisterError("matrix is not unitary within 1e-10")


def _checked_unitary(unitary, dim: int) -> np.ndarray:
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (dim, dim):
        raise RegisterError(f"unitary shape {unitary.shape} != ({dim}, {dim})")
    _check_unitary(unitary.shape, unitary.tobytes())
    return unitary


def apply_unitary(reg: QuantumRegister, unitary: np.ndarray, targets) -> QuantumRegister:
    """Apply a unitary on the listed qubits: psi -> U psi."""
    rows = row_table(reg.n_qubits, targets)
    unitary = _checked_unitary(unitary, rows.shape[0])
    reg.amplitudes = _scatter(rows, unitary @ reg.amplitudes[rows])
    return reg


def apply_diagonal(reg: QuantumRegister, diagonal: np.ndarray, targets) -> QuantumRegister:
    """psi -> D psi, D = diag(``diagonal``) on ``targets``; not renormalized."""
    rows = row_table(reg.n_qubits, targets)
    diagonal = np.asarray(diagonal, dtype=complex)
    if diagonal.shape != (rows.shape[0],):
        raise RegisterError(f"diagonal shape {diagonal.shape} != ({rows.shape[0]},)")
    reg.amplitudes = _scatter(rows, diagonal[:, None] * reg.amplitudes[rows])
    return reg


def measure(reg: QuantumRegister, ps: ProjectorSet, rng, force=None, frame=None):
    """Projective measurement by the Born rule on a diagonal ProjectorSet.

    The outcome probabilities are the target sub-state weights summed per
    outcome of the table; the collapse zeroes every basis state of the
    other outcomes.  Returns ``(label, probability, register)``; the
    register is updated to the renormalized post-measurement
    state (non-destructive).  ``force`` selects a specific outcome label
    (post-selection); it errors when that outcome has probability below
    1e-14 and consumes no rng draw.

    ``frame``, a unitary F on ``ps.targets``, measures F^dag P_k F instead:
    the gathered rows are multiplied by F, collapsed and multiplied by
    F^dag, so a changed basis still costs one gather and one scatter.
    """
    ((label, p),) = measure_sequence(reg, (ps,), rng, (force,), frame)
    return label, p, reg


def measure_sequence(reg: QuantumRegister, sets, rng, forces, frame=None):
    """:func:`measure` of each of ``sets`` (one set of targets) in turn, each
    with its own draw or ``forces`` entry, on one gather in ``frame``.

    Returns one ``(label, probability)`` per set.
    """
    rows = row_table(reg.n_qubits, sets[0].targets)
    x = reg.amplitudes[rows]
    if frame is not None:
        frame = _checked_unitary(frame, rows.shape[0])
        x = frame @ x
    results, scale = [], None
    for ps, force in zip(sets, forces):
        if scale is not None:
            x = x * scale[:, None]
        label, p, scale = _collapse(x, ps, rng, force)
        results.append((label, p))
    if frame is None:
        x = x * scale[:, None]
    else:  # the last collapse rides on the way back: F^dag diag(scale)
        x = (frame.conj().T * scale) @ x
    reg.amplitudes = _scatter(rows, x)
    return results


def _collapse(x: np.ndarray, ps: ProjectorSet, rng, force):
    """Born-rule outcome of ``ps`` on the gathered rows ``x``, with its row scale."""
    weights = (np.abs(x) ** 2).sum(axis=1)
    probs = np.bincount(ps.outcome_of, weights=weights,
                        minlength=len(ps.outcome_labels)).clip(0.0, None)
    total = probs.sum()
    if total < MIN_PROBABILITY:
        raise RegisterError("all outcome probabilities below 1e-14: invalid state")

    if force is not None:
        k = ps.index_of(force)
        if probs[k] < MIN_PROBABILITY:
            raise RegisterError(f"forced outcome {force!r} has zero probability")
    else:
        draw = as_generator(rng).random() * total
        k = int(np.searchsorted(np.cumsum(probs), draw, side="right"))
        k = min(k, len(probs) - 1)

    p_k = probs[k]
    # rows of outcome k scaled by 1/sqrt(p_k), all others zeroed; numpy
    # divides a complex by a real through this same reciprocal
    scale = np.where(np.asarray(ps.outcome_of) == k, 1.0 / math.sqrt(p_k), 0.0)
    return ps.outcome_labels[k], float(p_k / total), scale


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


def trace_distance(a, b):
    """0.5 * tr|a - b| for density matrices (vectors promoted); per pair for stacks."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1:
        a = np.outer(a, a.conj())
    if b.ndim == 1:
        b = np.outer(b, b.conj())
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
