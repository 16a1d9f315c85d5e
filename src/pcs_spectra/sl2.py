"""Potential-algebra view of the same wells.

A one-parameter family of operators built from sl(2) generators
J_z = -i d/dphi and J_+/- = e^{+/-i phi} (...) produces, on each fixed
J_z eigenspace <m>, a Schrodinger operator whose potential has exactly
the sech^2 / sech tanh profile produced by the supersymmetric
construction. Matching the two coefficient pairs links the algebraic
labels (m, b) to the superpotential data and turns the discrete
spectrum into a statement about unitary representations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import BranchSign, PotentialCoefficients, SusyParams, pcs_partner_coefficients
from .core import _require_finite, _require_positive_alpha
from .errors import DegenerateB

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Sl2Params",
    "build_sl2_potential",
    "correspondence_residuals",
    "solve_m_given_b",
    "m_square_identities",
    "solve_correspondence",
]


@dataclass(frozen=True)
class Sl2Params:
    """Algebraic labels (m, b): J_z eigenvalue and realization constant."""

    m: complex
    b: complex
    alpha: float = 1.0

    def __post_init__(self):
        _require_finite(m=complex(self.m), b=complex(self.b), alpha=self.alpha)
        _require_positive_alpha(self.alpha)


def build_sl2_potential(s: Sl2Params) -> PotentialCoefficients:
    """Potential carried by the m-eigenspace of the algebraic family.

    t2 = b^2 + alpha^2 (1/4 - m^2), st = -2 alpha m b, with no constant
    offset: the algebraic route fixes energies relative to zero.
    """
    m, b, a = s.m, s.b, s.alpha
    return PotentialCoefficients(
        t2=b * b + a * a * (0.25 - m * m), st=-2.0 * a * m * b, e0=0j, alpha=a
    )


def correspondence_residuals(
    s: Sl2Params, p: SusyParams, branch: BranchSign = BranchSign.PLUS
) -> np.ndarray:
    """[Re dt2, Im dt2, Re dst, Im dst] between the two constructions.

    The supersymmetric side contributes only its x-dependent profile;
    its constant offset e0 is the factorization energy, which the
    algebraic side does not carry.
    """
    import numpy as np

    return np.array(_correspondence_residuals(s, p, branch))


def _correspondence_residuals(
    s: Sl2Params, p: SusyParams, branch: BranchSign
) -> tuple[float, float, float, float]:
    # the same four floats as a tuple, so the sl2 CLI needs no numpy
    alg = build_sl2_potential(s)
    sus = pcs_partner_coefficients(p, branch)
    dt2 = alg.t2 - sus.t2
    dst = alg.st - sus.st
    return (dt2.real, dt2.imag, dst.real, dst.imag)


def solve_m_given_b(
    b: complex, p: SusyParams, branch: BranchSign = BranchSign.PLUS
) -> complex:
    """The unique m matching the sech tanh strength for a given b.

    Writing P = (A - B + alpha/2) C and Q = AB + C^2 + (alpha/2) B, the
    strength condition -2 alpha m b = st splits into real equations
    linear in (Re m, Im m) with determinant alpha^2 |b|^2, so the
    solution is closed-form:

        Re m = (-s b_R P - b_I Q) / (alpha |b|^2)
        Im m = ( s b_I P - b_R Q) / (alpha |b|^2)

    with s the branch sign. Raises DegenerateB at b = 0, where the
    strength condition degenerates and m drops out entirely.
    """
    b = complex(b)
    _require_finite(b=b)
    if b == 0:
        raise DegenerateB("m is undetermined at b = 0: the sech tanh term vanishes")
    sgn = float(branch.sign)
    a = p.alpha
    P = (p.A - p.B + 0.5 * a) * p.C
    Q = p.A * p.B + p.C * p.C + 0.5 * a * p.B
    bb = b.real * b.real + b.imag * b.imag
    re_m = (-sgn * b.real * P - b.imag * Q) / (a * bb)
    im_m = (sgn * b.imag * P - b.real * Q) / (a * bb)
    return complex(re_m, im_m)


def m_square_identities(
    b: complex, p: SusyParams, branch: BranchSign = BranchSign.PLUS
) -> tuple[float, float]:
    """Closed forms for Re(m^2) and (1/2) Im(m^2) of the matched m.

    Eliminating m between the two matching conditions leaves b-dependent
    expressions built only from the well parameters:

        Re m^2 = 1/4 + (b_R^2 - b_I^2 - Re t2) / alpha^2
        (1/2) Im m^2 = (b_R b_I - (1/2) Im t2) / alpha^2

    Useful as an independent check on any (m, b) candidate: both must
    agree with m from solve_m_given_b squared.
    """
    b = complex(b)
    _require_finite(b=b)
    t2 = pcs_partner_coefficients(p, branch).t2
    a2 = p.alpha * p.alpha
    re_m2 = 0.25 + (b.real * b.real - b.imag * b.imag - t2.real) / a2
    half_im_m2 = (b.real * b.imag - 0.5 * t2.imag) / a2
    return re_m2, half_im_m2


def _quartic_roots_y(t2: complex, st: complex, alpha: float) -> list[complex]:
    # y = b^2 satisfies y^2 - (t2 - alpha^2/4) y - st^2 / 4 = 0 after m
    # is eliminated. Solve with the product trick so the small root is
    # not lost to cancellation.
    p1 = t2 - 0.25 * alpha * alpha
    q = -st * st / 4.0
    disc = cmath.sqrt(p1 * p1 - 4.0 * q)
    # pick the sign that adds rather than cancels
    if (p1.conjugate() * disc).real >= 0.0:
        y1 = 0.5 * (p1 + disc)
    else:
        y1 = 0.5 * (p1 - disc)
    roots = []
    if y1 != 0:
        roots.append(y1)
        y2 = q / y1
        if y2 != 0 and abs(y2 - y1) > 1e-14 * abs(y1):
            roots.append(y2)
    return roots


def _ldexp(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def solve_correspondence(
    p: SusyParams,
    branch: BranchSign = BranchSign.PLUS,
) -> list[tuple[complex, complex]]:
    """All algebraic labels (m, b) realizing the given well.

    Eliminating m reduces the matching to a quadratic in b^2, so the
    labels are closed-form algebra with no iterative step: each root
    y gives b = sqrt(y) and m = -st / (2 alpha b). The pairs (m, b) and
    (-m, -b) realize the same well, so each of the up to two orbits is
    returned once, with b on the side of the principal square root,
    ordered by b^2.

    Raises:
        DegenerateB: the only matching roots have b = 0 (then m is
            undetermined and no labeling exists).
    """
    v = pcs_partner_coefficients(p, branch)
    # solve in units of alpha rounded to a power of two, 2^k, exactly:
    # m is unchanged, b scales by 2^k, and no square over- or underflows
    k = math.frexp(p.alpha)[1]
    t2, st, a = _ldexp(v.t2, -2 * k), _ldexp(v.st, -2 * k), math.ldexp(p.alpha, -k)
    pairs: list[tuple[complex, complex]] = []
    for y in _quartic_roots_y(t2, st, a):
        b = cmath.sqrt(y)
        # clamp rounding dust before picking the orbit member, so the
        # true sign of b decides, not a 1e-17 real part on a purely
        # imaginary root
        scale = abs(b)
        br = 0.0 if abs(b.real) <= 1e-12 * scale else b.real
        bi = 0.0 if abs(b.imag) <= 1e-12 * scale else b.imag
        if (br, bi) < (0.0, 0.0):
            b = -b
        pairs.append((-st / (2.0 * a * b), _ldexp(b, k)))
    if not pairs:
        raise DegenerateB(
            "every matching root has b = 0; the correspondence degenerates here"
        )
    pairs.sort(key=lambda pr: (
        (pr[1] * pr[1]).real,
        (pr[1] * pr[1]).imag,
        pr[1].real,
        pr[1].imag,
    ))
    return pairs
