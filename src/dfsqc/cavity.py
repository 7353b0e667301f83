"""Pulse-level model of the atom-cavity interface.

A single-sided cavity (decay rate kappa) couples the |0> -> |e> transition
of the atoms inside it (coupling g per atom, excited-state decay gamma).
In the low-saturation regime the intracavity field and the atomic
polarization form a linear system driven by the input pulse, so a
reflected pulse is fully described by the frequency-dependent reflection
coefficient

    r(w) = 1 - kappa / (kappa/2 - i w + G^2 / (gamma/2 - i w)),

with G^2 the summed squared coupling of the atoms currently in |0> (atoms
in |1> are dark).  With no coupled atom this reduces to the bare-cavity
response, r(0) = -1: a resonant pulse is reflected with a flipped phase.
That conditional phase is what turns one reflection into a physical CZ
gate on the two addressed atoms: logical component (m, n) sees
G^2 = [m = 0] g^2 + [n = 0] g2^2, where ``g2`` couples the second atom and
defaults to ``g``.

Every probe pulse is the odd cat N_-(|alpha> - |-alpha>) in one Gaussian
mode f(t) ~ exp(-(t - T/2)^2/(T/5)^2), whose spectral weight
|F(w)|^2 ~ exp(-w^2 T^2/50) is Gaussian.  So its spectral moments
<f, r f> and <rf, rf> are Gauss-Hermite sums of r and |r|^2 at the
64 nodes w_j = 5 sqrt(2) x_j / T.  They are memoized in the pulse's grids,
keyed on the exact floats (kappa, gamma, G^2) that fix r(w); they do not
depend on the amplitude alpha, so every ``with_alpha`` copy shares them,
and a sweep evaluates r once per distinct coupling.  That evaluation is
where a pulse meets a cavity, so it warns when T*kappa < 10 puts the pulse
outside the adiabatic regime.  A reflection is nothing but these moments:
:func:`cz_output_state` gives the pair (O, E) of each logical CZ
component, the conditional phase is arg O and the photon loss 1 - E.  The
CZ fidelity follows the conditional-state convention: branch amplitudes
keep the photon-loss conditioning factors and the global output state is
normalized at the end.  :func:`cz_diagonal` is the same reflection as a
diagonal map on the two addressed atoms, the lossy CZ a protocol run
applies; its only cache is the pulse's moment memo.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

N_NODES = 64

COMPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class CavityModelError(ValueError):
    pass


@dataclass
class CavityParams:
    """Atom-cavity rates in rad/s: ``g`` couples the first addressed atom,
    ``g2`` the second (default ``g``)."""

    g: float
    kappa: float
    gamma: float
    g2: float | None = None

    def __post_init__(self):
        if self.g2 is None:
            self.g2 = self.g
        if min(self.g, self.g2, self.kappa, self.gamma) <= 0:
            raise CavityModelError("rates must be positive")

    @property
    def cooperativity(self) -> float:
        """Strong-coupling figure of merit C = g^2/(kappa*gamma)."""
        return self.g**2 / (self.kappa * self.gamma)

    def scaled_g(self, ratio: float) -> "CavityParams":
        return CavityParams(self.g * ratio, self.kappa, self.gamma, self.g2 * ratio)


def reflection_coefficient(omega, p: CavityParams, G2: float) -> complex | np.ndarray:
    """Amplitude reflection r(omega) for detuning omega from cavity resonance,
    with G2 the summed squared coupling of the atoms in |0>."""
    iw = 1j * np.asarray(omega, dtype=float)
    r = 1.0 - p.kappa / (p.kappa / 2 - iw + G2 / (p.gamma / 2 - iw))
    return complex(r) if r.ndim == 0 else r


# ---------------------------------------------------------------------------
# pulses
# ---------------------------------------------------------------------------

@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes x_j for the weight exp(-x^2), with their weights
    normalized to sum 1.  Loaded on first use: ``numpy.polynomial`` costs
    milliseconds to import, which every run would pay."""
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(N_NODES)
    return x, w / w.sum()


@dataclass(eq=False)
class PulseSpec:
    """Probe pulse of duration T and amplitude alpha: the odd cat
    N_-(|alpha> - |-alpha>), N_- = 1/sqrt(2(1 - e^{-2|alpha|^2})), in the
    normalized Gaussian mode f(t) ~ exp(-(t - T/2)^2/(T/5)^2).
    """

    T: float
    alpha: complex = 1.0

    def __post_init__(self):
        if self.T <= 0:
            raise CavityModelError("pulse duration must be positive")
        self._grids = None

    @property
    def mean_photon_number(self) -> float:
        return abs(self.alpha) ** 2

    def with_alpha(self, alpha: complex) -> "PulseSpec":
        """The same pulse with amplitude ``alpha``; shares the cached grids."""
        spec = replace(self, alpha=alpha)
        spec._grids = self.grids
        return spec

    @property
    def grids(self) -> dict:
        """The quadrature nodes ``w`` (rad/s), their normalized ``weight`` and
        the ``moments`` memo, built on first use."""
        if self._grids is None:
            x, weight = _hermite_rule()
            self._grids = {"w": 5 * math.sqrt(2) / self.T * x, "weight": weight,
                           "moments": {}}
        return self._grids


# ---------------------------------------------------------------------------
# reflection moments
# ---------------------------------------------------------------------------

def _spectral_moments(ps: PulseSpec, p: CavityParams, G2: float):
    """Matched-filter overlap O = <f, r f> and energy ratio E = <rf, rf>.

    Memoized in the pulse grids on (kappa, gamma, G2), every input of r(w)
    besides the nodes.  A miss is where a pulse first meets a cavity, so it
    warns there when T*kappa < 10 puts the pulse outside the adiabatic regime.
    """
    g = ps.grids
    memo = g["moments"]
    key = (p.kappa, p.gamma, G2)
    if key not in memo:
        if ps.T * p.kappa < 10:
            warnings.warn(
                f"pulse duration T*kappa = {ps.T * p.kappa:.2f} < 10: outside the "
                "adiabatic regime, reflection is strongly distorted",
                stacklevel=2,
            )
        r = reflection_coefficient(g["w"], p, G2)
        memo[key] = complex(g["weight"] @ r), float(g["weight"] @ (r.real**2 + r.imag**2))
    return memo[key]


def photon_loss(ps: PulseSpec, p: CavityParams, G2: float) -> float:
    """eta = 1 - |alpha'/alpha|^2 of a reflection that sees the summed squared
    coupling G2."""
    _, E = _spectral_moments(ps, p, G2)
    return min(max(1.0 - E, 0.0), 1.0)


# ---------------------------------------------------------------------------
# logical CZ through one reflection
# ---------------------------------------------------------------------------

def _as_weights(eps) -> dict:
    """|eps|^2 of each logical component, uniform for ``eps=None``."""
    if eps is None:
        return {c: 0.25 for c in COMPONENTS}
    amp = np.asarray(eps, dtype=complex).reshape(4)
    weights = {c: abs(a) ** 2 for c, a in zip(COMPONENTS, amp)}
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-10:
        raise CavityModelError(f"sum |eps|^2 = {total:.6g}, expected 1")
    return weights


def cz_output_state(ps: PulseSpec, p: CavityParams) -> dict:
    """The moments (O, E) of each logical component (m, n) of the CZ input.

    The first atom couples (g) when m = 0 and the second (g2) when n = 0,
    through their |0> level, so the component sees
    G^2 = [m = 0] g^2 + [n = 0] g2^2, and (1, 1) the bare cavity.  Its
    conditional phase is arg O.  The moments do not depend on the atomic
    amplitudes, which only weight the components.
    """
    return {(m, n): _spectral_moments(ps, p, (m == 0) * p.g**2 + (n == 0) * p.g2**2)
            for (m, n) in COMPONENTS}


def _branch_overlap(x: float, otil: complex) -> complex:
    """<ideal cat | reflected cat> including the no-loss conditioning.

    Equals sinh(x*Otilde)/sinh(x) written in overflow-safe form; the
    photon-loss factor e^{-x eta/2} cancels exactly against the coherent
    overlap terms because eta = 1 - E.
    """
    if x < 1e-12:
        return otil
    return -np.exp(x * (otil - 1.0)) * np.expm1(-2.0 * x * otil) / (
        -math.expm1(-2.0 * x)
    )


def _branch_norm_sq(x: float, E: float) -> float:
    """Squared norm of a reflected cat branch conditioned on no loss."""
    if x < 1e-12:
        return E
    return math.exp(x * (E - 1.0)) * math.expm1(-2.0 * x * E) / math.expm1(-2.0 * x)


def cz_diagonal(ps: PulseSpec, p: CavityParams) -> np.ndarray:
    """Diagonal of the lossy CZ on two addressed atoms, entry m + 2n for atom
    values (m, n).

    Magnitude is the cat-branch norm conditioned on no spontaneous emission,
    phase the conditional reflection phase arg O.  Tends to the exact CZ as
    g -> inf, gamma -> 0.
    """
    x = ps.mean_photon_number
    out = np.zeros(4, dtype=complex)
    for (m, n), (O, E) in cz_output_state(ps, p).items():
        out[m + 2 * n] = math.sqrt(_branch_norm_sq(x, E)) * np.exp(1j * cmath.phase(O))
    return out


def cz_gate_fidelity(eps, ps: PulseSpec, p: CavityParams) -> float:
    """Fidelity of one reflection against the ideal CZ output.

    F = |<Psi_ideal|Psi_out>|^2 with the output state conditioned on no
    spontaneous-emission loss and globally renormalized.  The ideal output
    carries the input cat with mode -f_in on the (1,1) component and +f_in
    elsewhere, so its overlap with the reflected mode is -O there and O
    elsewhere.  Multimode coherent overlaps reduce the four +/- cat cross
    terms to sinh ratios per component.
    """
    weights = _as_weights(eps)
    comps = cz_output_state(ps, p)
    x = ps.mean_photon_number
    num = 0.0 + 0j
    den = 0.0
    for c, w in weights.items():
        O, E = comps[c]
        num += w * _branch_overlap(x, -O if c == (1, 1) else O)
        den += w * _branch_norm_sq(x, E)
    if den <= 0:
        return 0.0
    fid = float(abs(num) ** 2 / den)
    if fid > 1.0 + 1e-9:
        raise CavityModelError(f"fidelity {fid} exceeds 1: numerical breakdown")
    return min(fid, 1.0)
