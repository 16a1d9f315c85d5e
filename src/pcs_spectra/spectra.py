"""Analytic level towers and the PT-breaking bifurcation.

The shape-invariance of the hyperbolic well turns the partner
construction into a ladder: V_plus of one superpotential equals V_minus
of the same superpotential with lam lowered by alpha, up to a constant.
Iterating gives a tower of energies -lam_n^2 with lam_n = lam - n alpha,
one tower per factorization, hence two towers for this well.

A sweep of the PT-breaking coupling C walks the ladders once per C, on
the plus branch (_sweep). The minus branch is the PT image of the plus
branch, and its towers are the plus towers conjugated, exactly: the
conjugates are the numbers its own ladder walk would give, to the bit.
bifurcation_scan packs that sweep into the public SpectrumSeries and
BifurcationPoint types, and the CLI's bifurcation report reads the same
sweep directly, so the two hold the same numbers to the bit.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace

from .core import (
    BranchSign,
    Superpotential,
    SusyParams,
    _branch_pair,
    _factorizations,
    dual_superpotentials,
)
from .errors import LadderExhausted, TowerTooLong

__all__ = [
    "SpectrumSeries",
    "BifurcationPoint",
    "shape_invariance_step",
    "two_series_spectrum",
    "broken_spectrum",
    "bifurcation_scan",
    "energy_sort_key",
]


def energy_sort_key(e: complex):
    """Deterministic ordering of complex energies: real part, then imaginary."""
    return (e.real, e.imag)


# energy_sort_key's order as a key computed in C, for sorting many level sets
_ENERGY_ORDER = operator.attrgetter("real", "imag")


def _branch_energies(series1, series2) -> tuple[complex, ...]:
    # one branch's level set: its two towers' energies merged and sorted
    return tuple(sorted(series1 + series2, key=_ENERGY_ORDER))


@dataclass(frozen=True)
class SpectrumSeries:
    """One tower of levels generated by a single superpotential.

    energies[n] = -lam_n^2 with lam_n = lam_0 - n alpha, one per rung
    with Re(lam_n) > 0. factorization_energy is -lam_0^2 whether or not
    the tower is empty.
    """

    label: str
    energies: tuple[complex, ...]
    factorization_energy: complex

    @property
    def is_empty(self) -> bool:
        return not self.energies


@dataclass(frozen=True)
class BifurcationPoint:
    """Both-branch tower pairs at one value of the PT-breaking coupling.

    At C = 0 the branches coincide, and plus and minus hold the same
    (plus-branch) towers. Elsewhere each minus tower is the conjugate of
    the plus tower of its label, level by level and to the bit.
    energies_plus and energies_minus merge each pair into one sorted
    level set.
    """

    C: float
    plus: tuple[SpectrumSeries, SpectrumSeries]
    minus: tuple[SpectrumSeries, SpectrumSeries]

    @property
    def energies_plus(self) -> tuple[complex, ...]:
        return _branch_energies(self.plus[0].energies, self.plus[1].energies)

    @property
    def energies_minus(self) -> tuple[complex, ...]:
        return _branch_energies(self.minus[0].energies, self.minus[1].energies)


def shape_invariance_step(w: Superpotential):
    """Step the ladder down one rung.

    Returns (w_next, energy_shift) with lam -> lam - alpha, mu fixed,
    and energy_shift = lam^2 - (lam - alpha)^2. V_plus of w and V_minus
    of w_next are the same function up to this constant, which is what
    makes the tower solvable level by level.

    Raises:
        LadderExhausted: when Re(lam) < alpha, i.e. the rung below has
            no normalizable zero mode and the tower ends here.
    """
    if w.lam.real < w.alpha:
        raise LadderExhausted(
            f"Re(lam) = {w.lam.real} < alpha = {w.alpha}: no bound state below this rung"
        )
    lam_next = w.lam - w.alpha
    shift = w.lam * w.lam - lam_next * lam_next
    w_next = Superpotential(
        lam=lam_next,
        mu=w.mu,
        alpha=w.alpha,
        factorization_energy=-(lam_next * lam_next),
    )
    return w_next, shift


# Levels one tower may hold. Criterion 5's box needs at most 8 and the
# deep well (50, 55, 1) needs 55; a longer tower is an absurd input, and
# past Re(lam)/alpha = 2^53 the step lam - alpha no longer moves lam.
_MAX_TOWER_LEVELS = 10_000


def _walk_ladder(lam: complex, alpha: float, label: str) -> tuple[complex, ...]:
    # The energies of the tower of the superpotential with this lam,
    # whose numbers the caller has checked. Emit -lam_n^2 while
    # Re(lam_n) > 0; the strict inequality is the normalizability
    # condition for the rung's zero mode, validated against the
    # numerical solver rather than postulated. The rungs are the numbers
    # of shape_invariance_step, with its float expressions: Re(lam) only
    # shrinks and Im(lam) is fixed, so a finite first rung makes every
    # rung finite.
    levels = lam.real / alpha
    if levels > _MAX_TOWER_LEVELS:
        count = math.ceil(levels) if math.isfinite(levels) else levels
        raise TowerTooLong(
            f"{label} would hold {count} levels (Re(lam) = {lam.real}, alpha = {alpha}), "
            f"over the level budget of {_MAX_TOWER_LEVELS}"
        )
    energies: list[complex] = []
    while lam.real > 0.0:
        energies.append(-(lam * lam))
        if lam.real < alpha:
            break
        lam = lam - alpha
    return tuple(energies)


def two_series_spectrum(p, branch: BranchSign = BranchSign.PLUS):
    """The two level towers of V_minus.

    For real parameters with C = 0 the towers are

        series1: -(A - n alpha)^2          for 0 <= n < A / alpha
        series2: -(B - alpha/2 - n alpha)^2 for 0 <= n < (B - alpha/2) / alpha

    and both are real by construction. A complexified pair follows the
    same formulas with (calA, calB); a tower is empty when its starting
    Re(lam) is not positive. Energies are relative to the constant tail
    of the potential, so genuinely bound levels have negative real part
    in the unbroken phase.

    Raises:
        TowerTooLong: when a tower would hold more than 10,000 levels,
            i.e. Re(lam_0) / alpha exceeds that level budget.
    """
    w, w_x = dual_superpotentials(p, branch)
    return tuple(
        SpectrumSeries(label, _walk_ladder(s.lam, s.alpha, label), s.factorization_energy)
        for label, s in (("series1", w), ("series2", w_x))
    )


def broken_spectrum(p: SusyParams) -> BifurcationPoint:
    """Both-branch towers for C != 0, as the scan's point at p.C.

    The two branches are PT images of each other, so the minus-branch
    energies are the complex conjugates of the plus-branch energies
    level by level. The sweep walks only the plus ladders and takes the
    minus towers by conjugation, which gives two_series_spectrum's
    minus branch to the bit (_sweep says why).
    """
    if p.C == 0.0:
        raise ValueError("broken_spectrum requires C != 0; use two_series_spectrum")
    return bifurcation_scan(p, [p.C])[0]


def bifurcation_scan(p0: SusyParams, c_grid) -> list[BifurcationPoint]:
    """Level sets along a sweep of the PT-breaking coupling.

    Each grid value C replaces p0.C with everything else fixed. At
    C = 0 the two branches coincide and all energies are real; away
    from zero they split into conjugate pairs. Output order equals
    input order.

    Each point is two_series_spectrum(replace(p0, C=C), branch) on both
    branches, bit for bit, and an input that path rejects raises the
    same error. The points are the private sweep's towers, packed into
    SpectrumSeries; the CLI's bifurcation report reads the same sweep,
    so it prints these numbers.

    Raises:
        ValueError: when a grid value is not finite, or a factorization
            energy or the exchanged pair overflows.
        TowerTooLong: as two_series_spectrum.
    """
    points: list[BifurcationPoint] = []
    for c, towers_plus, towers_minus in _sweep(p0, c_grid):
        plus = tuple(SpectrumSeries(*tower) for tower in towers_plus)
        if towers_minus is towers_plus:
            minus = plus
        else:
            minus = tuple(SpectrumSeries(*tower) for tower in towers_minus)
        points.append(BifurcationPoint(C=c, plus=plus, minus=minus))
    return points


def _sweep(p0: SusyParams, c_grid):
    """Yield (C, plus, minus) for each grid value, in order.

    plus and minus are each branch's two towers as (label, energies,
    factorization_energy) tuples, series1 first, with the numbers of
    two_series_spectrum(replace(p0, C=C), branch). At C = 0, where the
    branches coincide, minus is plus. The sweep builds no parameter or
    superpotential objects on the way: it checks p0 once, then computes
    the plus branch's (lam, mu), the exchanged pair and both
    factorization energies with the float operations of complexify and
    dual_superpotentials, and walks the ladders on those numbers. An
    input the object path rejects raises its error, at the same point.

    The ladders are walked once per C, on the plus branch; at C != 0
    the minus towers are its energies and factorization energies
    conjugated. That is two_series_spectrum's minus branch to the bit,
    not just closely. _branch_pair negates C, so the minus branch starts
    from the conjugates of the plus (calA, calB), and each float
    operation of the ladder commutes with conjugation under IEEE
    round-to-nearest, signed zeros included:

    - complex minus float (calB - alpha/2, lam - alpha) subtracts 0.0
      from Im, which leaves every Im, either zero included, as it is;
    - the square of a + ib has Re a*a - b*b, blind to the sign of b,
      and Im a*b + b*a, the sum of two equal products, so its rounding,
      an underflow and the sign of a zero all follow the sign of b;
    - unary minus negates both parts exactly.

    Re lam is the same on both branches, so both walk the same rungs and
    fail the same way, and the plus branch raises first, as on the
    object path.
    """
    A, B, alpha = p0.A, p0.B, p0.alpha
    checked = False
    for c in c_grid:
        c = float(c)
        if not checked:
            # p0 is a valid well at every C once it is at one
            replace(p0, C=c)
            checked = True
        calA, calB = _branch_pair(A, B, c, 1.0)
        (lam, _, energy), (lam_x, _, energy_x) = _factorizations(calA, calB, alpha)
        # Every number the object path checks is finite when both energies
        # are: a non-finite c makes Re(calA^2) infinite or NaN, and
        # calB - alpha/2 or calA + alpha/2 overflows only past |B| or |A| of
        # half the float range, where the square overflows too.
        if cmath.isfinite(energy) and cmath.isfinite(energy_x):
            series1 = _walk_ladder(lam, alpha, "series1")
            series2 = _walk_ladder(lam_x, alpha, "series2")
        else:
            # raises the object path's error for the first bad number
            series1, series2 = (s.energies for s in two_series_spectrum(replace(p0, C=c)))
        plus = (("series1", series1, energy), ("series2", series2, energy_x))
        if c == 0.0:
            # minus would differ only in the signs of zero Im parts
            yield c, plus, plus
            continue
        minus = (
            ("series1", tuple(map(complex.conjugate, series1)), energy.conjugate()),
            ("series2", tuple(map(complex.conjugate, series2)), energy_x.conjugate()),
        )
        yield c, plus, minus
