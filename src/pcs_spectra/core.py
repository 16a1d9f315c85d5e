"""Closed-form algebra for a complexified hyperbolic Scarf well.

The potential under study is

    V(x) = -V1 sech^2(alpha x) - i V2 sech(alpha x) tanh(alpha x)

in hbar = 2m = 1 units. Its supersymmetric factorizations use
superpotentials built from the same hyperbolic basis,

    W(x) = lam tanh(alpha x) + i mu sech(alpha x),

with lam, mu complex in general. Everything in this module is exact
coefficient algebra on the (sech^2, sech tanh, const) representation of
such potentials; no discretization happens here.

All types are immutable values and all operations are pure functions,
so the module is safe to call from any number of workers concurrently.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoRealFactorization

__all__ = [
    "TOL_CONSTRAINT",
    "PcsPhysicalParams",
    "SusyParams",
    "BranchSign",
    "ComplexSusyParams",
    "Superpotential",
    "PotentialCoefficients",
    "PtConstraintReport",
    "complexify",
    "partner_potentials",
    "pcs_partner_coefficients",
    "pt_constraint_check",
    "exchange_map",
    "dual_superpotentials",
    "physical_to_susy",
    "susy_to_physical",
]

log = logging.getLogger(__name__)

# Absolute tolerance for the PT constraint. Parameters are exact
# user-supplied reals, so this only has to absorb float noise.
TOL_CONSTRAINT = 1e-10


def _require_finite(**fields):
    for name, value in fields.items():
        ok = cmath.isfinite(value) if isinstance(value, complex) else math.isfinite(value)
        if not ok:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive_alpha(alpha):
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")


@dataclass(frozen=True)
class PcsPhysicalParams:
    """Couplings of the physical well -V1 sech^2 - i V2 sech tanh."""

    V1: float
    V2: float
    alpha: float

    def __post_init__(self):
        _require_finite(V1=self.V1, V2=self.V2, alpha=self.alpha)
        _require_positive_alpha(self.alpha)


@dataclass(frozen=True)
class SusyParams:
    """Real parameters (A, B, C) of the two-branch superpotential ansatz

        W(x) = (A +/- i C) tanh(alpha x) + (+/- C + i B) sech(alpha x).

    C measures the departure from the PT-antisymmetric family: C = 0
    keeps W PT-antisymmetric and the spectrum real, C != 0 breaks that
    and splits the levels into complex-conjugate pairs.
    """

    A: float
    B: float
    C: float
    alpha: float

    def __post_init__(self):
        _require_finite(A=self.A, B=self.B, C=self.C, alpha=self.alpha)
        _require_positive_alpha(self.alpha)


class BranchSign(Enum):
    """Sign choice selecting one of the two branches of the ansatz."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def sign(self) -> float:
        return 1.0 if self is BranchSign.PLUS else -1.0

    @classmethod
    def from_string(cls, text: str) -> "BranchSign":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"branch must be 'plus' or 'minus', got {text!r}") from None


@dataclass(frozen=True)
class ComplexSusyParams:
    """Complexified parameter pair (calA, calB).

    For a real parameter set with branch sign s this is
    calA = A + i s C and calB = B - i s C; the sech coupling of the
    superpotential is then i*calB, mirroring the real-case i*B.
    """

    calA: complex
    calB: complex
    alpha: float

    def __post_init__(self):
        _require_finite(calA=complex(self.calA), calB=complex(self.calB), alpha=self.alpha)
        _require_positive_alpha(self.alpha)


@dataclass(frozen=True)
class Superpotential:
    """W(x) = lam tanh(alpha x) + i mu sech(alpha x).

    W is PT-antisymmetric, W(-x)* = -W(x), exactly when lam and mu are
    both real. factorization_energy is the constant subtracted from
    W^2 - W' so that the resulting operator annihilates the zero mode;
    for this family it equals -lam^2.
    """

    lam: complex
    mu: complex
    alpha: float
    factorization_energy: complex

    def __post_init__(self):
        _require_finite(
            lam=complex(self.lam),
            mu=complex(self.mu),
            alpha=self.alpha,
            factorization_energy=complex(self.factorization_energy),
        )
        _require_positive_alpha(self.alpha)

    def evaluate(self, x):
        """W at the given points (scalar or array)."""
        ax = self.alpha * np.asarray(x, dtype=float)
        return self.lam * np.tanh(ax) + 1j * self.mu / np.cosh(ax)

    def evaluate_derivative(self, x):
        """dW/dx at the given points."""
        ax = self.alpha * np.asarray(x, dtype=float)
        sech = 1.0 / np.cosh(ax)
        return self.alpha * (self.lam * sech * sech - 1j * self.mu * sech * np.tanh(ax))


@dataclass(frozen=True)
class PotentialCoefficients:
    """A potential t2 sech^2(alpha x) + st sech(alpha x) tanh(alpha x) + e0.

    e0 is the |x| -> infinity limit and is kept explicit; bound-state
    energies are always quoted relative to it, so they come out
    negative for states decaying at both ends.
    """

    t2: complex
    st: complex
    e0: complex
    alpha: float

    def __post_init__(self):
        _require_finite(
            t2=complex(self.t2), st=complex(self.st), e0=complex(self.e0), alpha=self.alpha
        )
        _require_positive_alpha(self.alpha)

    def evaluate(self, x, include_offset: bool = True):
        """Potential values at the given points (scalar or array)."""
        ax = self.alpha * np.asarray(x, dtype=float)
        # cosh overflows to inf past |alpha x| ~ 710, where sech is
        # rightly 0.0: nothing to warn about
        with np.errstate(over="ignore"):
            sech = 1.0 / np.cosh(ax)
        out = self.t2 * sech * sech + self.st * sech * np.tanh(ax)
        if include_offset:
            out = out + self.e0
        return out

    def is_pt_symmetric(self, tol: float = TOL_CONSTRAINT) -> bool:
        """PT symmetry of the x-dependent profile: Im t2 = Re st = 0.

        The constant e0 is deliberately not examined. It is the
        factorization offset, not part of the physical well (whose
        asymptotic value is zero), and on the degenerate family
        A = B - alpha/2 with C != 0 it goes complex even though the
        profile stays PT-symmetric.
        """
        return abs(self.t2.imag) <= tol and abs(self.st.real) <= tol

    def pt_image(self) -> "PotentialCoefficients":
        """Coefficients of V(-x)*, the PT image of this potential."""
        return PotentialCoefficients(
            t2=self.t2.conjugate(),
            st=-self.st.conjugate(),
            e0=self.e0.conjugate(),
            alpha=self.alpha,
        )


@dataclass(frozen=True)
class PtConstraintReport:
    pt_symmetric: bool
    constraint_residual: float
    degenerate_branch: bool


def _pt_defect(p: SusyParams) -> float:
    # Shared by pt_constraint_check and the coefficient construction so
    # the two PT tests are the same float expression, not two roundings.
    return (2.0 * (p.A - p.B) + p.alpha) * p.C


def complexify(p: SusyParams, branch: BranchSign) -> ComplexSusyParams:
    """Package one branch of the ansatz as a complexified pair."""
    s = branch.sign
    return ComplexSusyParams(
        calA=complex(p.A, s * p.C),
        calB=complex(p.B, -s * p.C),
        alpha=p.alpha,
    )


def partner_potentials(w: Superpotential):
    """Partner potentials (V_minus, V_plus) = W^2 -/+ dW/dx.

    Expanding over the hyperbolic basis with tanh' = alpha sech^2 and
    sech' = -alpha sech tanh closes on (sech^2, sech tanh, const):

        V_-/+ = -[lam(lam +/- alpha) + mu^2] sech^2
                + i mu (2 lam +/- alpha) sech tanh + lam^2

    The pointwise agreement of these coefficients with W(x)^2 +/- W'(x)
    is property-tested rather than assumed.
    """
    lam, mu, a = w.lam, w.mu, w.alpha
    vminus = PotentialCoefficients(
        t2=-(lam * (lam + a) + mu * mu),
        st=1j * mu * (2.0 * lam + a),
        e0=lam * lam,
        alpha=a,
    )
    vplus = PotentialCoefficients(
        t2=-(lam * (lam - a) + mu * mu),
        st=1j * mu * (2.0 * lam - a),
        e0=lam * lam,
        alpha=a,
    )
    return vminus, vplus


def pcs_partner_coefficients(p: SusyParams, branch: BranchSign) -> PotentialCoefficients:
    """Coefficients of V_minus for one branch, split into real and
    imaginary parts of each coupling:

        t2 = -[A^2 + B^2 - 2 C^2 + alpha A  + i s (2A - 2B + alpha) C]
        st = s (2A - 2B + alpha) C + i [2AB + 2 C^2 + alpha B]
        e0 = (A + i s C)^2

    with s the branch sign. The PT-breaking defect (2(A-B)+alpha) C
    enters through exactly the float expression pt_constraint_check
    measures, so the parameter-level and coefficient-level PT tests can
    never disagree. Swapping the branch conjugates t2 and e0 and maps
    st -> -conj(st); the two branches are PT images of each other.
    """
    s = branch.sign
    defect = _pt_defect(p)
    re_t2 = p.A * p.A + p.B * p.B - 2.0 * p.C * p.C + p.alpha * p.A
    im_st = 2.0 * p.A * p.B + 2.0 * p.C * p.C + p.alpha * p.B
    return PotentialCoefficients(
        t2=complex(-re_t2, -s * defect),
        st=complex(s * defect, im_st),
        e0=complex(p.A * p.A - p.C * p.C, 2.0 * s * p.A * p.C),
        alpha=p.alpha,
    )


def pt_constraint_check(p: SusyParams, tol: float = TOL_CONSTRAINT) -> PtConstraintReport:
    """Decide whether the parameters give a PT-symmetric V_minus.

    The potential is PT-symmetric iff C (2(A-B) + alpha) = 0. Only
    C = 0 is generic; the alternative A = B - alpha/2 with C != 0 ties
    the two couplings together and is flagged but not developed here.
    """
    residual = abs(_pt_defect(p))
    degenerate = p.C != 0.0 and abs(2.0 * (p.A - p.B) + p.alpha) <= tol
    return PtConstraintReport(
        pt_symmetric=residual <= tol,
        constraint_residual=residual,
        degenerate_branch=degenerate,
    )


def exchange_map(p):
    """Swap the roles of the two tower parameters.

    (A, B) -> (B - alpha/2, A + alpha/2), with C and alpha unchanged;
    the same map acts on a complexified pair. V_minus keeps its shape
    coefficients (t2, st) under this map and only the constant offset
    moves, which is the algebraic reason the well carries two towers of
    levels. The map is an involution; in float arithmetic that holds
    bit-exactly whenever the half-step additions round cleanly (dyadic
    parameters), and to a rounding error otherwise.
    """
    if isinstance(p, SusyParams):
        half = 0.5 * p.alpha
        return SusyParams(A=p.B - half, B=p.A + half, C=p.C, alpha=p.alpha)
    if isinstance(p, ComplexSusyParams):
        half = 0.5 * p.alpha
        return ComplexSusyParams(calA=p.calB - half, calB=p.calA + half, alpha=p.alpha)
    raise TypeError(f"exchange_map expects SusyParams or ComplexSusyParams, got {type(p)!r}")


def dual_superpotentials(p, branch: BranchSign = BranchSign.PLUS):
    """The two superpotentials that factorize the same V_minus.

    Returns (w, w_exchanged). w has (lam, mu) = (calA, calB) and
    factorization energy -calA^2; the second uses the exchanged pair
    (calB - alpha/2, calA + alpha/2) with energy -(calB - alpha/2)^2.
    Both produce identical (t2, st) for V_minus and differ only in the
    constant offset, i.e. in where the factorization energy sits.

    Accepts real parameters (complexified according to branch) or an
    already complexified pair (branch is then irrelevant).
    """
    cp = complexify(p, branch) if isinstance(p, SusyParams) else p
    if not isinstance(cp, ComplexSusyParams):
        raise TypeError(f"expected SusyParams or ComplexSusyParams, got {type(p)!r}")
    half = 0.5 * cp.alpha
    lam1, mu1 = cp.calA, cp.calB
    lam2, mu2 = cp.calB - half, cp.calA + half
    w = Superpotential(
        lam=lam1, mu=mu1, alpha=cp.alpha, factorization_energy=-(lam1 * lam1)
    )
    w_exchanged = Superpotential(
        lam=lam2, mu=mu2, alpha=cp.alpha, factorization_energy=-(lam2 * lam2)
    )
    return w, w_exchanged


def susy_to_physical(p: SusyParams) -> PcsPhysicalParams:
    """Physical couplings of the C = 0 well: V1 = A(A+alpha) + B^2 and
    V2 = -B(2A+alpha). Only defined on the PT-symmetric family."""
    if p.C != 0.0:
        raise ValueError("physical couplings (V1, V2) are real only for C = 0")
    return PcsPhysicalParams(
        V1=p.A * (p.A + p.alpha) + p.B * p.B,
        V2=-p.B * (2.0 * p.A + p.alpha),
        alpha=p.alpha,
    )


def physical_to_susy(phys: PcsPhysicalParams) -> list[SusyParams]:
    """All real C = 0 parameter sets reproducing the physical couplings.

    With a = A + alpha/2, the system A(A+alpha) + B^2 = V1 and
    B(2A+alpha) = -V2 makes a^2 and B^2 the two roots of

        t^2 - (V1 + alpha^2/4) t + V2^2/4 = 0,

    and the two ways of assigning the roots are exactly the
    exchange_map pair. Roots that are complex or negative admit no real
    factorization.

    Returns:
        Candidates sorted by (A, B). The square root a >= 0 is taken;
        the mirrored family (-A - alpha, B) describes the same well and
        is not listed separately.

    Raises:
        NoRealFactorization: if the quadratic has complex roots or a
            negative root.
    """
    a4 = phys.alpha * phys.alpha / 4.0
    s = phys.V1 + a4
    prod = phys.V2 * phys.V2 / 4.0
    disc = s * s - 4.0 * prod
    if disc < 0.0:
        raise NoRealFactorization(
            f"quadratic discriminant {disc} < 0: no real superpotential parameters"
        )
    sq = math.sqrt(disc)
    r_hi = 0.5 * (s + sq)
    # product form for the small root avoids cancellation
    r_lo = prod / r_hi if r_hi != 0.0 else 0.5 * (s - sq)
    roots = sorted((r_lo, r_hi))
    # absorb float dust around an exact zero root
    roots = [0.0 if abs(r) <= 1e-12 * max(1.0, abs(s)) else r for r in roots]
    if any(r < 0.0 for r in roots):
        log.debug("discarding negative quadratic roots %s for %s", roots, phys)
        raise NoRealFactorization(
            f"quadratic roots {roots} are not both nonnegative: "
            "no real superpotential parameters"
        )

    half = 0.5 * phys.alpha
    candidates: list[SusyParams] = []
    assignments = [(roots[0], roots[1])]
    if roots[0] != roots[1]:
        assignments.append((roots[1], roots[0]))
    for t_a, t_b in assignments:
        a = math.sqrt(t_a)
        if a > 0.0:
            big_a = a - half
            big_b = -phys.V2 / (2.0 * a)
            candidates.append(SusyParams(A=big_a, B=big_b, C=0.0, alpha=phys.alpha))
        elif phys.V2 == 0.0:
            # a = 0 forces V2 = 0 and leaves the sign of B free
            for big_b in sorted({math.sqrt(t_b), -math.sqrt(t_b)}):
                candidates.append(SusyParams(A=-half, B=big_b, C=0.0, alpha=phys.alpha))
        else:
            log.debug("root assignment a=0 incompatible with V2=%s", phys.V2)
    if not candidates:
        raise NoRealFactorization(f"no real parameter assignment reproduces {phys}")
    candidates.sort(key=lambda q: (q.A, q.B))
    return candidates
