"""Independent numerical oracle for the analytic level towers.

The Schrodinger operator -d^2/dx^2 + V(x) - e0 (hbar = 2m = 1) is
discretized on the box (-L, L), on nodes x = a sinh(xi/a) with xi
uniform and a = 4/alpha: nearly uniform over the well and spread out
geometrically along the tails, so the point count needed for a box
grows like log L rather than L (Boyd, Chebyshev and Fourier Spectral
Methods, 2001, ch. 17). Nothing here trusts the closed-form towers: the
analytic levels set only the box and the limits of the search, and
every state is found without being predicted.

verify_spectrum reads its states off two dense sinc-collocation
eigensolves on that node map (Lund and Bowers, Sinc Methods, 1992), at
xi steps h and h/1.25. Sinc converges exponentially in 1/h, so a level
is certified when its energies at the two steps agree within half of
tol_match, judged on the cluster mean of a multiple level, whose
members split on the square-root scale while their mean does not. The
two solves do not depend on each other and run side by side: the one
at h, which takes eigenvectors for the leak gate, on the one thread of
a concurrent.futures pool, because numpy's eig releases the GIL for
its LAPACK call, while eigvals, the solve at h/1.25, releases it only
for matrices of more than 500 rows and holds it for its whole call
below that (numpy 2.4.6). Their values, and so every report, are the same as one after
the other.

bound_spectrum, the blind scan, polishes on the finite-difference
operator: the three-point Laplacian scaled by the square roots of the
node weights into a complex symmetric tridiagonal matrix. Its shifts
are a census, every eigenvalue of the sinc operator on the same box at
1.25 times verify's coarser step, the next rung of verify's ladder,
and from each it runs shifted inverse iteration with tridiagonal LU,
every state certified by its residual, the matvec's rounding floor,
and its boundary leak. The census and verify's two solves are one
path: one point budget (_sinc_grid), one cache of PT-pair solves
(_sinc_spectrum) and one edge-leak rule (_edge_leak), which eigen_near
reads too.
refine_eigenvalue pairs a state on N points with one solve on 2N+1
(xi step exactly halved) for Richardson extrapolation.

A PT-symmetric well (V(-x) = V(x)*) gives an operator H with J H J =
conj(H), J the flip; the unitary Q = e^{-i pi/4} (I + i J) / sqrt(2)
then makes Q^H H Q = Re H - (Im H) J real (Bender and Boettcher, PRL
80, 5243, 1998; Mostafazadeh, J. Math. Phys. 43, 3944, 2002). For such
a mirror-exact operator the dense solves take the eigenvalues of that
real matrix, at about a third of the cost of the complex one, and its
values are real with Im exactly 0 or come in exact conjugate pairs.
The PT image V(-x)* of a well gives the operator J conj(H) J, whose
eigenvalues are exactly the conjugates of H's, so a well and its image
share their dense solves by one rule (_solved_member). The two
branches at C are PT images of each other, and a well's report depends
neither on which command verified it nor on what ran before.

The dense sinc solves, verify's and the census, call numpy.linalg.
scipy, which is about two thirds of this package's import time, loads
only for the tridiagonal LU of eigen_near: on its first solve, or the
first read of zgttrf or zgttrs from this module, so neither the
closed-form half nor verify pays for it. numpy, about 0.1 s of a fresh
interpreter's start on a 2-vCPU VM, is imported inside the functions
that build or read arrays, so it loads with the first discretize,
solve or census: importing this module loads neither library.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .core import BranchSign, PotentialCoefficients, SusyParams, pcs_partner_coefficients
from .errors import DomainTooSmall, NoConvergence, SingularShift
from .spectra import energy_sort_key, two_series_spectrum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_TOL_MATCH",
    "Grid",
    "DiscretizedOperator",
    "EigenResult",
    "AnalyticLevel",
    "MatchedLevel",
    "VerificationReport",
    "default_grid",
    "discretize",
    "eigen_near",
    "refine_eigenvalue",
    "bound_spectrum",
    "verify_spectrum",
]

log = logging.getLogger(__name__)

_SCIPY_NAMES = frozenset({"zgttrf", "zgttrs"})


def _bind_scipy() -> None:
    # Bind scipy's zgttrf and zgttrs as module globals, keeping any
    # already set: a replacement installed with setattr before the first
    # solve (a call counter, say) is the one the solves then call.
    g = globals()
    if _SCIPY_NAMES <= g.keys():
        return
    from scipy.linalg.lapack import zgttrf, zgttrs

    for name, fn in (("zgttrf", zgttrf), ("zgttrs", zgttrs)):
        g.setdefault(name, fn)


def __getattr__(name: str):
    # PEP 562: runs only for names not yet in the module, so reading
    # either one binds both
    if name in _SCIPY_NAMES:
        _bind_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_TOL_MATCH = 1e-6
DEFAULT_POINTS = 4000
# half-width in units of 1/alpha; sech^2(12) ~ 7e-11 of the depth
DEFAULT_HALF_WIDTH = 12.0
# accepted bound states must have at most this much relative amplitude
# on the outer five percent of the box, |x| >= 0.95 L
DEFAULT_MAX_LEAK = 1e-8
_EDGE_FRACTION = 0.95
# grid nodes are x = a sinh(xi / a) with a = _STRETCH / alpha: nearly
# uniform while sech^2(alpha x) is still above ~1e-3 of its depth
_STRETCH = 4.0
# enlarge the box until kappa * 0.95 L >= 21 * 0.95, i.e. predicted
# edge amplitude ~ 2e-9, safely under DEFAULT_MAX_LEAK
_LEAK_HALF_WIDTH_FACTOR = 21.0
# two converged runs reporting the same state can differ by roughly
# residual times the eigenvalue condition number, and at a defective
# (exceptional) point that conditioning reaches 1e4; bound_spectrum
# takes states within this many certified_tol of each other as one, and
# verify takes values within this many rounding errors of the threshold
# as at it
_MAX_CONDITION = 1e4
# census values above the threshold that decay slower than this many
# e-folds over the half-width are box continuum: they could only polish
# into states the leak gate drops
_CENSUS_MIN_DECAY_FOLDS = 10.0
# largest dense matrix of any sinc solve (see _sinc_grid). A complex
# eigensolve at this size takes about 5 s on one core of a 2-vCPU VM
# (10 s with eigenvectors); deep wells and absurd boxes past it fail
# loudly, before the matrix is built. The census, a rung coarser,
# reaches it on a wider box than verify does
_MAX_CENSUS_POINTS = 1_500
# verify's coarser sinc step, in radians a node at the fastest local
# oscillation over the well, and the factor its finer step is smaller;
# the census steps this factor coarser
_SINC_STEP = 0.6
_SINC_REFINE = 1.25
# a matched level is certified only when its energies at the two sinc
# steps agree within this fraction of tol_match
_AGREEMENT_FRACTION = 0.5
# sweeps before eigen_near raises NoConvergence; the solves of a blind
# scan converge in two to five
_MAX_ITER = 60


@dataclass(frozen=True)
class Grid:
    """Dirichlet box (-L, L) with N interior nodes.

    The operator places the nodes uniformly in xi = a asinh(x/a), with
    a = 4/alpha set by the well (see discretize), so they are nearly
    uniform over the well and sparse along the tails. h = 2L/(N+1) is
    the spacing N uniform nodes would have on the box; N -> 2N + 1
    halves both h and the xi step exactly.
    """

    L: float
    N: int

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L!r}")
        if self.N < 3:
            raise ValueError(f"N must be at least 3, got {self.N!r}")
        h2 = self.h * self.h
        if not math.isfinite(h2):
            raise ValueError(
                f"grid spacing {self.h!r} is too large: h^2 is not a finite float"
            )
        if not (h2 > 0.0 and math.isfinite(2.0 / h2)):
            raise ValueError(
                f"grid spacing {self.h!r} is too small: 2/h^2 is not a finite float"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N + 1)


def default_grid(alpha: float = 1.0) -> Grid:
    return Grid(L=DEFAULT_HALF_WIDTH / alpha, N=DEFAULT_POINTS)


def _xi_max(L: float, alpha: float) -> float:
    # the wall at x = L in xi = a asinh(x / a)
    a = _STRETCH / alpha
    return a * math.asinh(L / a)


def _xi_step(grid: Grid, alpha: float) -> float:
    return 2.0 * _xi_max(grid.L, alpha) / (grid.N + 1)


def _points(L: float, alpha: float, dxi: float) -> int:
    # interior nodes of the box (-L, L) at xi step at most dxi
    return int(math.ceil(2.0 * _xi_max(L, alpha) / dxi)) - 1


def _verify_box(L: float, alpha: float) -> Grid:
    # every verify box, given or grown, at default_grid's xi step: the
    # box moves the walls, never the resolution
    dxi = _xi_step(default_grid(alpha), alpha)
    return Grid(L=L, N=max(3, _points(L, alpha, dxi)))


@dataclass(frozen=True)
class DiscretizedOperator:
    """Complex symmetric tridiagonal form of -d^2/dx^2 + V - e0.

    nodes are the x positions of the rows and weights their quadrature
    weights w; an eigenvector y holds sqrt(w) times the wavefunction.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    grid: Grid
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for array in (self.diag, self.offdiag, self.nodes, self.weights):
            array.setflags(write=False)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = self.diag * v
        w[1:] += self.offdiag * v[:-1]
        w[:-1] += self.offdiag * v[1:]
        return w

    @functools.cached_property
    def certified_tol(self) -> float:
        """Residual tolerance of every eigen_near solve on this operator.

        The rounding level of ||Hv - theta v|| for a unit vector: the
        matvec works with entries of size 2/dxi^2 over the well, so the
        residual of even an exact eigenpair cannot drop below about
        eps * ||H||. It scales with the operator, so a well rescaled by
        x -> x/s has its tolerance scaled by s^2. Computed once per
        operator.
        """
        import numpy as np

        eps = float(np.finfo(np.float64).eps)
        off = float(np.abs(self.offdiag).max())
        return 8.0 * eps * (2.0 * off + float(np.abs(self.diag).max()))

    @functools.cached_property
    def mirror_exact(self) -> bool:
        """Whether J H J = conj(H) to the bit, J the flip.

        Then the spectrum is closed under conjugation exactly, and
        J conj(v) is an eigenvector for conj(E) whenever v is one for E.
        A PT-symmetric well (C = 0, or the degenerate family 2(A - B) +
        alpha = 0) gives such an operator; the test reads the matrix,
        not (A, B, C), so couplings that round off PT symmetry fail it.
        """
        import numpy as np

        return bool(
            np.array_equal(self.diag[::-1], self.diag.conj())
            and np.array_equal(self.offdiag[::-1], self.offdiag)
        )


@dataclass(frozen=True)
class EigenResult:
    """One certified eigenpair summary.

    residual is ||H psi - E psi|| for the normalized eigenvector, the
    value the stopping test read. boundary_leak is the largest
    wavefunction amplitude on the outer five percent of the box
    (|x| >= 0.95 L) over its global maximum; a genuinely bound,
    well-contained state leaves essentially nothing there. iterations
    counts the tridiagonal solves, the one that reads the leak
    included.
    """

    energy: complex
    residual: float
    boundary_leak: float
    iterations: int


def discretize(v: PotentialCoefficients, grid: Grid) -> DiscretizedOperator:
    """Second-order finite-difference operator with Dirichlet walls.

    The grid's N nodes are uniform in xi = a asinh(x/a), a = 4/alpha,
    between the walls at -L and L. The potential is evaluated exactly
    from (t2, st) at the nodes and the constant tail e0 is subtracted,
    so bound states sit at negative real part and the continuum
    threshold is at zero.
    """
    import numpy as np

    # Three-point Laplacian on the nodes x_j = a sinh(xi_j / a), with
    # spacings h_i = x_{i+1} - x_i from wall to wall and weights
    # w_i = (h_{i-1} + h_i) / 2. Scaling row and column i by sqrt(w_i)
    # makes it complex symmetric: 2/(h_{i-1} h_i) on the diagonal and
    # -1/(h_i sqrt(w_i w_{i+1})) beside it. xi_j = (j - (N-1)/2) dxi is
    # exactly antisymmetric in floats and every entry is a commutative
    # product of mirror spacings, so a parity-symmetric well gives a
    # mirror-symmetric matrix to the bit.
    a = _STRETCH / v.alpha
    xi = (np.arange(grid.N) - 0.5 * (grid.N - 1)) * _xi_step(grid, v.alpha)
    x = a * np.sinh(xi / a)
    step = np.diff(x, prepend=-grid.L, append=grid.L)
    lo, hi = step[:-1], step[1:]
    weights = 0.5 * (lo + hi)
    # Grid checks h, but the nodes over the well sit closer than h
    with np.errstate(over="ignore", divide="ignore"):
        laplacian = 2.0 / (lo * hi)
        offdiag = -1.0 / (hi[:-1] * np.sqrt(weights[:-1] * weights[1:]))
    if not (np.isfinite(laplacian).all() and np.isfinite(offdiag).all()):
        raise ValueError(f"node spacing {float(step.min())!r} is too small: 2/h^2 overflows")
    diag = (laplacian + v.evaluate(x, include_offset=False)).astype(np.complex128)
    return DiscretizedOperator(diag=diag, offdiag=offdiag, grid=grid, nodes=x, weights=weights)


def _edge_leak(nodes: np.ndarray, L: float, amplitude: np.ndarray):
    # the largest wavefunction amplitude on |x| >= 0.95 L over its global
    # maximum, of one vector or of each column; the outermost node at
    # each end counts even on a grid too coarse to reach 0.95 L
    import numpy as np

    edge = np.abs(nodes) >= _EDGE_FRACTION * L
    edge[[0, -1]] = True
    return amplitude[edge].max(axis=0) / amplitude.max(axis=0)


def eigen_near(op: DiscretizedOperator, shift: complex) -> EigenResult:
    """Eigenpair nearest the shift via complex shifted inverse iteration.

    Starts from a normalized linear ramp (deterministic, and with both
    parity components so symmetric wells cannot hide their odd levels
    from the iteration), solves tridiagonal systems with partially
    pivoted LU, and switches to Rayleigh-quotient updates after three
    sweeps. The Rayleigh estimate theta = v^H H v minimizes the
    residual ||Hv - theta v|| for the current vector; the iteration
    stops, and returns that residual, once it is within
    tol = op.certified_tol. A vector whose residual is within tol can
    still hold components of order tol / gap along its nearest
    neighbours, which for a level near the threshold are box continuum
    reaching the walls; boundary_leak is therefore read from one more
    sweep on the same factorization, which damps them, so it measures
    the state rather than the stopping point.

    Raises:
        NoConvergence: residual stayed above tol for _MAX_ITER (60) sweeps.
        SingularShift: the (possibly updated) shift hit an exact zero
            pivot twice even after perturbing it by tol.
    """
    import numpy as np

    _bind_scipy()
    tol = op.certified_tol
    d = op.diag
    n = d.size
    off = op.offdiag

    def factor(sigma: complex):
        for trial in (sigma, sigma + tol, sigma + 1j * tol):
            dl, dd, du, du2, ipiv, info = zgttrf(off, d - trial, off)
            if info == 0:
                return (dl, dd, du, du2, ipiv)
            if info < 0:
                raise ValueError(f"illegal argument {-info} to tridiagonal factorization")
        raise SingularShift(
            f"shift {sigma} is numerically an eigenvalue of the discretization"
        )

    lu = factor(complex(shift))
    # ramp, not ones: the discretization commutes with parity when the
    # well is symmetric, so a purely even start would never converge to
    # an odd eigenfunction
    v = (1.0 + np.arange(n) / (n - 1)).astype(np.complex128)
    v /= np.linalg.norm(v)
    theta = complex(shift)
    residual = math.inf

    def sweep(v: np.ndarray) -> np.ndarray:
        y, info = zgttrs(*lu, v)
        if info != 0:
            raise SingularShift(f"tridiagonal solve failed near shift {theta}")
        norm = float(np.linalg.norm(y))
        if not math.isfinite(norm) or norm == 0.0:
            raise SingularShift(f"inverse iteration overflowed near shift {theta}")
        return y / norm

    for it in range(1, _MAX_ITER + 1):
        v = sweep(v)
        hv = op.matvec(v)
        theta = complex(np.vdot(v, hv))
        residual = float(np.linalg.norm(hv - theta * v))
        if residual <= tol:
            # the amplitude of the wavefunction is |y| / sqrt(w)
            amplitude = np.abs(sweep(v)) / np.sqrt(op.weights)
            return EigenResult(
                energy=theta,
                residual=residual,
                boundary_leak=float(_edge_leak(op.nodes, op.grid.L, amplitude)),
                iterations=it + 1,
            )
        if it >= 3:
            lu = factor(theta)
    raise NoConvergence(shift, _MAX_ITER, residual)


def refine_eigenvalue(coarse: EigenResult, fine_op: DiscretizedOperator) -> EigenResult:
    """Richardson-extrapolated eigenvalue from the (h, h/2) grid pair.

    coarse is a state converged on some grid of N points, and fine_op
    must be the operator on the same box with 2N+1 points, at exactly
    half the xi step. One solve on fine_op from coarse.energy gives
    E_fine, and (4 E_fine - E_coarse) / 3 removes the h^2 term. Like
    every eigen_near solve, it runs to fine_op.certified_tol.
    """
    fine = eigen_near(fine_op, coarse.energy)
    energy = (4.0 * fine.energy - coarse.energy) / 3.0
    return EigenResult(
        energy=energy,
        residual=fine.residual,
        boundary_leak=fine.boundary_leak,
        iterations=coarse.iterations + fine.iterations,
    )


def _solved_member(v: PotentialCoefficients) -> tuple[PotentialCoefficients, bool]:
    """The member of v's PT pair whose operator is solved, and whether it is v's image.

    v's PT image V(-x)* has the operator J conj(H) J, whose eigenvalues
    are exactly the conjugates of H's, with J conj(y) the eigenvector
    for conj(E). Of the two, the member with the larger (Im t2, Re st)
    is solved, and v takes its values or their conjugates, so a well
    and its image share one solve whichever comes first. On a
    PT-symmetric well the keys tie and v is solved itself.
    """
    image = v.pt_image()
    if (image.t2.imag, image.st.real) > (v.t2.imag, v.st.real):
        return image, True
    return v, False


def _conj(z: complex) -> complex:
    # a real value keeps Im +0.0, as v's own solve would give it
    return complex(z.real, -z.imag or 0.0)


def _wave_squared(v: PotentialCoefficients) -> float:
    # the square of the fastest local oscillation sqrt(|V| + alpha^2)
    # that a bound state can have, with |V| <= |t2| + |st| / 2
    return abs(v.t2) + 0.5 * abs(v.st) + v.alpha * v.alpha


def _conjugate(res: EigenResult) -> EigenResult:
    # the state J conj(y) of a mirror-exact operator, for res's y: its
    # leak equals res's exactly, since the edge nodes mirror, and its
    # residual up to the matvec's summation order
    return replace(res, energy=res.energy.conjugate())


def bound_spectrum(
    v: PotentialCoefficients,
    grid: Grid,
    *,
    seeds=(),
    re_limit: float = 0.0,
    max_leak: float = DEFAULT_MAX_LEAK,
) -> list[EigenResult]:
    """All certified eigenvalues with Re(E) below the threshold.

    Shifts come from a census: every eigenvalue of the sinc operator on
    the same box at 1.25 times verify's coarser step, one rung coarser
    on its ladder, with real part below re_limit, less those above zero
    real part that decay too slowly across the box to pass the leak
    gate. Each shift is polished by inverse iteration
    on the given grid, to the operator's certified_tol, and eigenvalues
    closer than _MAX_CONDITION times that tolerance, the merge radius,
    are taken as the same state. On a mirror-exact operator (J H J =
    conj(H) to the bit) the conjugate of a state is a state too, taken
    by exact conjugation in place of a solve of its own. It carries the
    member's leak, which is exactly equal because the edge nodes mirror,
    and its residual, which is equal up to the matvec's summation order.
    The census pairs each value below Im 0 with its exact conjugate: the
    first is polished, and when its state lies off the real axis by more
    than the merge radius the partner takes the conjugate state. A
    member that polishes onto the axis leaves its partner to be
    polished, so two close real states are both still found. A real
    census value with another after it is polished from below the axis,
    offset by the gap to the next value or by the merge radius,
    whichever is smaller, since a real start is equidistant from the two
    states of a conjugate pair. When its state lies off the axis by more
    than the merge radius, the value owes the conjugate state to the
    next census value if that value lies nearer than the state does: the
    census split one defective level along the axis. Otherwise the
    conjugate is kept at once. The census is a sinc solve sized,
    budgeted and cached as verify's are (see _sinc_spectrum), so a well
    and its PT image share one census: a well whose image is the member
    censused starts from the conjugates of that census; the polish, the
    gates and the result are its own, and none of them depends on what
    was censused before. seeds are optional extra shifts, polished first. Runs
    converging to Re(E) >= re_limit are discarded; re_limit = 0 is the
    continuum threshold of the e0-subtracted operator, and callers may
    raise it to chase normalizable states whose energy has crept past
    zero real part in the broken phase.

    Raises:
        DomainTooSmall: a converged state still has boundary amplitude
            above max_leak, so the box is clipping it and its eigenvalue
            cannot be trusted. Only a leaky state that the census filter
            would have dropped, at positive real part and decaying by
            fewer than 10 e-folds over the half-width, is taken as box
            continuum and dropped instead. Also raised, naming the size
            it would need, when the census needs more than
            _MAX_CENSUS_POINTS points, before the box operator is built.
    """
    # the census steps one rung coarser than verify's coarser step,
    # without its cap for complex tails, since the census is blind; its
    # values only start the polish, and at that step they still lie
    # within rounding of the levels. It never takes more points than grid
    dxi = _SINC_STEP * _SINC_REFINE / math.sqrt(_wave_squared(v))
    sinc = _sinc_grid(v, grid.L, dxi, grid.N)
    op = discretize(v, grid)
    merge = _MAX_CONDITION * op.certified_tol
    accepted: list[EigenResult] = []

    def solve(shift: complex) -> EigenResult | None:
        try:
            return eigen_near(op, shift)
        except (NoConvergence, SingularShift) as exc:
            log.debug("shift %s: %s", shift, exc)
            return None

    def keep(res: EigenResult | None) -> None:
        if res is None or res.energy.real >= re_limit:
            return
        if res.boundary_leak > max_leak:
            if _box_continuum(res.energy, grid.L):
                return
            raise DomainTooSmall(
                f"state at E = {res.energy} leaks {res.boundary_leak:.3e} "
                f"through the box edge at L = {grid.L}; enlarge the domain"
            )
        for k, kept in enumerate(accepted):
            if abs(kept.energy - res.energy) < merge:
                if res.residual < kept.residual:
                    accepted[k] = res
                return
        accepted.append(res)

    for s in seeds:
        keep(solve(complex(s)))
    census = [z for z, _ in _sinc_spectrum(v, sinc, False) if _kept(z, re_limit, grid.L)]
    # census value -> the conjugate state it is owed in place of a solve
    owed: dict[complex, EigenResult] = {}
    for i, z in enumerate(census):
        res = owed.pop(z, None)
        if res is not None:
            keep(res)
            continue
        following = census[i + 1] if i + 1 < len(census) else None
        real = op.mirror_exact and z.imag == 0.0
        start = z
        if real and following is not None:
            # a real start is equidistant from the two states of a
            # conjugate pair, and inverse iteration crawls until rounding
            # picks one
            start = complex(z.real, -min(abs(following - z), merge))
        res = solve(start)
        keep(res)
        if res is None or not op.mirror_exact or abs(res.energy.imag) <= merge:
            continue
        if not real:
            # conj(z) comes after z in the sorted census
            owed[z.conjugate()] = _conjugate(res)
        elif following is not None and abs(following - z) < abs(res.energy - z):
            # the coarse step split one pair of states along the axis
            owed[following] = _conjugate(res)
        else:
            keep(_conjugate(res))
    accepted.sort(key=lambda r: energy_sort_key(r.energy))
    return accepted


@dataclass(frozen=True)
class AnalyticLevel:
    """A closed-form level: which tower, which rung, what energy.

    multiplicity > 1 marks a level predicted by more than one tower.
    On the exchange-degenerate family A + alpha/2 = B the two towers
    share their wavefunctions as well, so the operator holds the level
    once but with algebraic multiplicity two (a defective,
    exceptional-point eigenvalue). It also happens where the towers
    cross, when A + alpha/2 - B is a nonzero multiple of alpha: one
    rung of each tower lands on the same energy.
    """

    series: str
    n: int
    energy: complex
    multiplicity: int = 1


@dataclass(frozen=True)
class MatchedLevel:
    analytic: AnalyticLevel
    numeric: complex
    residual: float
    boundary_leak: float
    abs_err: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of pairing the analytic towers with the numeric spectrum.

    passed is true exactly when every analytic level found a numeric
    partner, nothing numeric was left over, and the worst pairing error
    stayed within tol_match, which is always DEFAULT_TOL_MATCH.
    """

    passed: bool
    params: SusyParams
    branch: BranchSign
    base_grid: Grid
    grid: Grid
    re_limit: float
    tol_match: float
    matches: tuple[MatchedLevel, ...]
    unmatched_analytic: tuple[AnalyticLevel, ...]
    unmatched_numeric: tuple[EigenResult, ...]
    max_abs_err: float


def _analytic_levels(p: SusyParams, branch: BranchSign) -> list[AnalyticLevel]:
    s1, s2 = two_series_spectrum(p, branch)
    levels = [
        AnalyticLevel(series=series.label, n=n, energy=e)
        for series in (s1, s2)
        for n, e in enumerate(series.energies)
    ]
    levels.sort(key=lambda lv: energy_sort_key(lv.energy))
    # the exchange-degenerate well predicts the same energy from both
    # towers; keep one level and record the doubled multiplicity
    merged: list[AnalyticLevel] = []
    for lv in levels:
        if merged and abs(merged[-1].energy - lv.energy) <= 1e-9 * p.alpha**2:
            prev = merged[-1]
            merged[-1] = AnalyticLevel(
                series=f"{prev.series}+{lv.series}",
                n=prev.n,
                energy=prev.energy,
                multiplicity=prev.multiplicity + lv.multiplicity,
            )
        else:
            merged.append(lv)
    return merged


def _decay_rate(e: complex) -> float:
    # A tail e^{-kappa |x|} has kappa = Re sqrt(-E); normalizable
    # states keep this positive even when Re(E) itself is not negative.
    return cmath.sqrt(-e).real


def _box_continuum(z: complex, L: float, floor: float = 0.0) -> bool:
    # above the threshold, widened by floor, and decaying by fewer than
    # _CENSUS_MIN_DECAY_FOLDS e-folds over the half-width L
    return z.real > -floor and _decay_rate(z) < _CENSUS_MIN_DECAY_FOLDS / L


def _kept(z: complex, limit: float, L: float, floor: float = 0.0) -> bool:
    # a sinc value that is a state: below limit, not box continuum on L
    return z.real < limit and not _box_continuum(z, L, floor)


def _auto_grid(base: Grid, levels, alpha: float) -> Grid:
    kappas = [_decay_rate(lv.energy) for lv in levels]
    kappa_min = min(kappas)
    if kappa_min <= 0.0:
        raise DomainTooSmall(
            "a predicted level sits on the continuum threshold; no finite box contains it"
        )
    need = _LEAK_HALF_WIDTH_FACTOR / kappa_min
    if need <= base.L:
        return base
    # N grows like log(need), not like need
    return _verify_box(need, alpha)


def _sinc_grid(v: PotentialCoefficients, L: float, dxi: float, most: float = math.inf) -> Grid:
    # the sinc grid on the box (-L, L) at xi step at most dxi, of at most
    # most points. Raises DomainTooSmall past _MAX_CENSUS_POINTS, before
    # any array is built
    n = min(most, max(3, _points(L, v.alpha, dxi)))
    if n > _MAX_CENSUS_POINTS:
        raise DomainTooSmall(
            f"the sinc solves of this well on L = {L} need n = {n} points, "
            f"above the budget of {_MAX_CENSUS_POINTS}; the well is too deep "
            f"or the box too wide"
        )
    return Grid(L=L, N=n)


def _sinc_grids(v: PotentialCoefficients, levels, L: float) -> tuple[Grid, Grid]:
    # verify's two sinc grids on the box (-L, L), at xi steps at most h
    # and h / _SINC_REFINE. h takes _SINC_STEP radians a node at the
    # fastest local oscillation a bound state can have over the well,
    # and at most pi, two nodes a wavelength, at the walls, where a
    # level's tail oscillates with wavenumber |Im sqrt(-E)| and the map
    # spreads the nodes by cosh(xi_max / a)
    h = _SINC_STEP / math.sqrt(_wave_squared(v))
    wave = max((abs(cmath.sqrt(-lv.energy).imag) for lv in levels), default=0.0)
    if wave > 0.0:
        h = min(h, math.pi / (wave * math.hypot(1.0, L * v.alpha / _STRETCH)))
    return _sinc_grid(v, L, h), _sinc_grid(v, L, h / _SINC_REFINE)


def _sinc_eigen(v: PotentialCoefficients, grid: Grid, leaks: bool):
    # Every eigenvalue of v's sinc operator on grid's nodes, sorted, each
    # paired with the boundary leak of its eigenvector when leaks is set
    # (else with None). On the nodes x = a sinh(xi / a) the operator is
    # H = C^-1 (-D2 + diag(q + c^2 V)) C^-1 with c = cosh(xi / a),
    # C = diag(c), q = 3/4 tanh^2(xi / a) / a^2 - 1 / (2 a^2) and D2 the
    # sinc second derivative (Lund and Bowers, Sinc Methods, 1992): it is
    # complex symmetric, and an eigenvector y holds sqrt(c) times the
    # wavefunction.
    import numpy as np

    n = grid.N
    a = _STRETCH / v.alpha
    dxi = _xi_step(grid, v.alpha)
    xi = (np.arange(n) - 0.5 * (n - 1)) * dxi
    x = a * np.sinh(xi / a)
    c = np.cosh(xi / a)
    t = np.tanh(xi / a)
    k = np.arange(n)
    # -D2 is Toeplitz: pi^2/3 on the diagonal, 2 (-1)^m / m^2 at offset m
    band = np.empty(n)
    band[0] = math.pi**2 / 3.0
    band[1:] = 2.0 * (-1.0) ** k[1:] / (k[1:] * k[1:])
    band /= dxi * dxi
    mat = band[np.abs(k[:, None] - k)] / np.outer(c, c)
    q = (0.75 * t * t - 0.5) / (a * a)
    diag = (band[0] + q + c * c * v.evaluate(x, include_offset=False)) / (c * c)
    # the nodes mirror to the bit, so the operator is mirror-exact when
    # its diagonal is: then it takes the real form Re H - (Im H) J
    real = bool(np.array_equal(diag[::-1], diag.conj()))
    if real:
        mat.flat[:: n + 1] = diag.real
        mat[k, k[::-1]] -= diag.imag
    else:
        mat = mat.astype(np.complex128)
        mat.flat[:: n + 1] = diag
    if not leaks:
        values = np.linalg.eigvals(mat)
        return sorted(((complex(z), None) for z in values), key=lambda p: energy_sort_key(p[0]))
    values, vectors = np.linalg.eig(mat)
    if real:
        # back from the real form: y = Q w with Q ~ I + iJ
        vectors = vectors + 1j * vectors[::-1]
    leak = _edge_leak(x, grid.L, np.abs(vectors) / np.sqrt(c)[:, None])
    return sorted(
        ((complex(z), float(r)) for z, r in zip(values, leak)), key=lambda p: energy_sort_key(p[0])
    )


@functools.lru_cache(maxsize=2)
def _canonical_sinc(t2: complex, st: complex, alpha: float, grid: Grid, leaks: bool):
    # _sinc_eigen of (t2, st), keyed on the operator alone, not e0, so a
    # well's PT image hits the entry its pair left; two entries hold
    # verify's pair of solves, and a hit returns what the call computes
    v = PotentialCoefficients(t2=t2, st=st, e0=0.0, alpha=alpha)
    return tuple(_sinc_eigen(v, grid, leaks))


def _sinc_spectrum(v: PotentialCoefficients, grid: Grid, leaks: bool):
    # v's (value, leak) pairs on grid, solved on one member of its PT
    # pair (see _solved_member): the image takes the conjugate values and
    # its member's leaks, since J conj(y) mirrors y's amplitude and the
    # edge nodes mirror
    member, image = _solved_member(v)
    pairs = _canonical_sinc(member.t2, member.st, v.alpha, grid, leaks)
    if not image:
        return pairs
    return sorted(((_conj(z), leak) for z, leak in pairs), key=lambda p: energy_sort_key(p[0]))


def _greedy_match(levels, numeric):
    # nearest-pair assignment of the complex energies numeric to levels,
    # with per-level capacity: a level of multiplicity k absorbs up to k
    # of them. A simple level captures within 1e-3, a thousand times
    # DEFAULT_TOL_MATCH. A defective level is split by the h^2
    # perturbation into a cluster on the sqrt scale, far wider than a
    # simple level's matching error, so its capture radius opens up to
    # 1e-2. Taking the pairs in (distance,
    # level, state) order is the repeated nearest-pair scan: a pair whose
    # level filled up or whose state was taken never becomes valid again.
    assigned: list[list[int]] = [[] for _ in levels]
    free = set(range(len(numeric)))
    radii = [1e-3 if lv.multiplicity == 1 else 1e-2 for lv in levels]
    pairs = sorted(
        (dist, i, j)
        for i, lv in enumerate(levels)
        for j, z in enumerate(numeric)
        if (dist := abs(lv.energy - z)) <= radii[i]
    )
    for _, i, j in pairs:
        if j in free and len(assigned[i]) < levels[i].multiplicity:
            assigned[i].append(j)
            free.remove(j)
    left = [i for i in range(len(levels)) if not assigned[i]]
    return assigned, left, sorted(free)


def verify_spectrum(
    p: SusyParams,
    *,
    L: float | None = None,
    branch: BranchSign = BranchSign.PLUS,
    auto_domain: bool = True,
) -> VerificationReport:
    """Certify the analytic towers against the numerical solver.

    The analytic prediction fixes only the box, the sinc steps and
    re_limit; the states come from two dense sinc eigensolves alone. The
    base grid is default_grid(p.alpha), or the box (-L, L) at its xi
    step when L is given: L moves only the walls, and the resolution is
    not the caller's to set. With auto_domain the half-width grows (same
    xi step, so N grows like log L) until the slowest-decaying predicted
    state fits with boundary leak under DEFAULT_MAX_LEAK. The report's
    grid is that box; the sinc solves put their own nodes in it, at
    steps h and h/1.25 set by the well (see _sinc_grids). The two solves
    overlap: the one at h, numpy's eig with eigenvectors, runs on a
    worker thread, since eig releases the GIL for its LAPACK call; the
    one at h/1.25, numpy's eigvals, runs on the calling thread, since
    it holds the GIL for its whole call on matrices of at most 500 rows
    (numpy 2.4.6), so two eigvals could not overlap on most wells. The
    worker is a one-thread ThreadPoolExecutor, joined before the call
    returns or raises: an error from the calling thread's solve is
    raised after the join, and otherwise one from the worker's.

    The numeric states are the eigenvalues at h/1.25 below re_limit, and
    below the energies the step resolves, less the census's box
    continuum. Each eigenvector at h is held to the leak gate. Matching
    is greedy nearest-pair with capacity equal to the predicted
    multiplicity: a doubly-predicted (defective) level absorbs the
    conjugate pair the discretization splits it into, and is reported
    once, at the cluster mean, where the splitting cancels. Each matched
    level is matched at h as well, and its residual is the distance
    between its means at the two steps; an unmatched state's residual
    is its distance to the nearest value at h. The report PASSes only
    if every analytic level took at least one numeric partner, no
    numeric state is left over, and the worst pairing error is within
    DEFAULT_TOL_MATCH.

    Raises:
        DomainTooSmall: a state's eigenvector leaks through the box
            edge, with auto_domain=False (this is also how a
            deliberately small box fails loudly rather than returning
            polluted numbers), or when a narrow box is refused before
            any solve; a sinc solve needs more than _MAX_CENSUS_POINTS
            points, or a predicted level lies within the rounding floor
            of the threshold, both before any solve; or a matched level's
            means at the two steps differ by more than
            _AGREEMENT_FRACTION of DEFAULT_TOL_MATCH, so the arithmetic
            cannot certify it.
    """
    base = default_grid(p.alpha) if L is None else _verify_box(L, p.alpha)
    levels = _analytic_levels(p, branch)
    v = pcs_partner_coefficients(p, branch)
    geff = _auto_grid(base, levels, p.alpha) if auto_domain and levels else base
    # a box whose edge the most tightly bound level reaches above the
    # leak gate, e^(-kappa_max 0.95 L) > DEFAULT_MAX_LEAK, clips every
    # state: refuse it here, or a squeezed state can land above the
    # threshold as box continuum and the well FAIL with levels unmatched.
    # A grown box is 21/kappa_min wide
    kappas = [_decay_rate(lv.energy) for lv in levels]
    kappa_max = max(kappas, default=0.0)
    need = 0.0
    if kappa_max > 0.0:
        need = math.log(1.0 / DEFAULT_MAX_LEAK) / (_EDGE_FRACTION * kappa_max)
    if geff.L < need:
        raise DomainTooSmall(
            f"the box half-width L = {geff.L} is too narrow for the decay length "
            f"1/kappa = {1.0 / kappa_max} of the most tightly bound level: its tail "
            f"stays above the leak gate out to L = {need}, so every state leaks "
            f"through the box edge; enlarge the domain"
        )
    re_limit = max([0.0] + [lv.energy.real + 0.1 for lv in levels])
    coarse_grid, fine_grid = _sinc_grids(v, levels, geff.L)
    # the finer solve rounds its values by about eps (pi / dxi)^2, the
    # scale of its largest entries; closer to the threshold than
    # _MAX_CONDITION times that, a level cannot be told from the box
    # continuum, so it is refused before any solve
    floor = _MAX_CONDITION * math.ulp(1.0) * (math.pi / _xi_step(fine_grid, p.alpha)) ** 2
    if min(kappas, default=math.inf) ** 2 <= floor:
        raise DomainTooSmall(
            f"the slowest-decaying level lies within {floor:.3e} of the continuum "
            f"threshold, the rounding level of the sinc solves on this well, and "
            f"cannot be told from the box continuum"
        )
    # the eig solve on a worker, the eigvals solve here (see above)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="verify-coarse-solve") as pool:
        job = pool.submit(_sinc_spectrum, v, coarse_grid, True)
        fine = _sinc_spectrum(v, fine_grid, False)
    coarse = job.result()
    # below re_limit and below the energies the step resolves, less the
    # box continuum: the census's rule, with the threshold widened by
    # the rounding floor
    limit = min(re_limit, _wave_squared(v))
    states = [(z, leak) for z, leak in coarse if _kept(z, limit, geff.L, floor)]
    for z, leak in states:
        if leak > DEFAULT_MAX_LEAK:
            raise DomainTooSmall(
                f"state at E = {z} leaks {leak:.3e} through the box edge at "
                f"L = {geff.L}; enlarge the domain"
            )
    found = [z for z, _ in fine if _kept(z, limit, geff.L, floor)]

    assigned, left, right = _greedy_match(levels, found)
    partners, _, _ = _greedy_match(levels, [z for z, _ in states])
    matches = []
    for lv, js, ks in zip(levels, assigned, partners):
        if not js:
            continue
        # a defective level's conjugate-pair splitting cancels in the
        # cluster mean, which is the second-order-accurate estimate of
        # the eigenvalue itself; so the level is judged by its mean at
        # each step, not by its members
        mean = sum(found[j] for j in js) / len(js)
        agreement = math.inf
        if len(ks) == len(js):
            agreement = abs(mean - sum(states[k][0] for k in ks) / len(ks))
        if not agreement <= _AGREEMENT_FRACTION * DEFAULT_TOL_MATCH:
            raise DomainTooSmall(
                f"{lv.series} level {lv.n} at E = {lv.energy}: the sinc solves at xi "
                f"steps {_xi_step(coarse_grid, p.alpha):.4g} and "
                f"{_xi_step(fine_grid, p.alpha):.4g} agree on it only within "
                f"{agreement:.3e}, above {_AGREEMENT_FRACTION} of tol_match; the "
                f"discretization cannot certify this well"
            )
        matches.append(
            MatchedLevel(
                analytic=lv,
                numeric=mean,
                residual=agreement,
                boundary_leak=max(states[k][1] for k in ks),
                abs_err=abs(mean - lv.energy),
            )
        )
    max_err = max((m.abs_err for m in matches), default=0.0)
    passed = not left and not right and max_err <= DEFAULT_TOL_MATCH

    def leftover(z: complex) -> EigenResult:
        # a state of the finer solve, with the distance to and the leak of
        # the nearest value of the coarser
        near, leak = min(coarse, key=lambda value: abs(value[0] - z))
        return EigenResult(energy=z, residual=abs(z - near), boundary_leak=leak, iterations=0)

    return VerificationReport(
        passed=passed,
        params=p,
        branch=branch,
        base_grid=base,
        grid=geff,
        re_limit=re_limit,
        tol_match=DEFAULT_TOL_MATCH,
        matches=tuple(matches),
        unmatched_analytic=tuple(levels[i] for i in left),
        unmatched_numeric=tuple(leftover(found[j]) for j in right),
        max_abs_err=max_err,
    )
