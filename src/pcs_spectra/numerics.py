"""Independent numerical oracle for the analytic level towers.

The Schrodinger operator -d^2/dx^2 + V(x) - e0 (hbar = 2m = 1) is
discretized on [-L, L] with Dirichlet walls, on nodes x = a sinh(xi/a)
with xi uniform and a = 4/alpha: nearly uniform over the well and
spread out geometrically along the tails, so the point count needed for
a box grows like log L rather than L (Boyd, Chebyshev and Fourier
Spectral Methods, 2001, ch. 17). The three-point non-uniform Laplacian
is scaled by the square roots of the node weights, so the matrix is
complex symmetric tridiagonal, not Hermitian, and eigenpairs are found
by shifted inverse iteration with unsymmetric tridiagonal LU (partial
pivoting) rather than by anything that assumes a real spectrum. The
mapping is smooth, so eigenvalues carry a clean error term in the xi
step squared, which refine_eigenvalue removes by pairing a state
converged on N interior points with one solve on 2N+1 (xi step exactly
halved) and Richardson extrapolation.

Nothing here trusts the closed-form towers. bound_spectrum takes a
census of every eigenvalue of a small dense operator from the same
builder on the same box at a coarse xi step, polishes the seeds and
each census value below the threshold by inverse iteration on the fine
grid, and certifies every result by its own residual and its boundary
leak, so states the formulas do not predict are found too.
verify_spectrum discretizes each grid once: the box grid inside
bound_spectrum, whose polished states are the coarse Richardson
members, and the h/2 grid for the one refining solve per state.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals
from scipy.linalg.lapack import zgttrf, zgttrs

from .core import BranchSign, PotentialCoefficients, SusyParams, pcs_partner_coefficients
from .errors import DomainTooSmall, NoConvergence, SingularShift
from .spectra import energy_sort_key, two_series_spectrum

__all__ = [
    "DEFAULT_TOL",
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

DEFAULT_TOL = 1e-10
DEFAULT_TOL_MATCH = 1e-6
# matching looks within max(1e-3, 10 tol_match) of each level, so a
# larger tol_match would let one level capture states of its neighbours
MAX_TOL_MATCH = 1e-3
DEFAULT_POINTS = 4000
# half-width in units of 1/alpha; sech^2(12) ~ 7e-11, below DEFAULT_TOL
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
# (exceptional) point that conditioning reaches 1e4; physical level
# spacings here are many orders larger, so 1e-6 separates states safely
_DEDUPE_TOL = 1e-6
# census values above the threshold that decay slower than this many
# e-folds over the half-width are box continuum: they could only polish
# into states the leak gate drops
_CENSUS_MIN_DECAY_FOLDS = 10.0


@dataclass(frozen=True)
class Grid:
    """Dirichlet box (-L, L) with N interior nodes.

    The operator places the nodes uniformly in xi = a asinh(x/a), with
    a = 4/alpha set by the well (see discretize), so they are nearly
    uniform over the well and sparse along the tails. h = 2L/(N+1) is
    the spacing of N uniform points on the box, and refined() halves
    both h and the xi step exactly.
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

    def points(self) -> np.ndarray:
        """N uniform points on (-L, L), spacing h."""
        # x_j = (j - (N-1)/2) h is algebraically -L + (j+1) h but is
        # exactly antisymmetric in floats, so parity tests on the grid
        # hold to the bit.
        return (np.arange(self.N) - 0.5 * (self.N - 1)) * self.h

    def refined(self) -> "Grid":
        """Grid with h exactly halved (N -> 2N + 1)."""
        return Grid(L=self.L, N=2 * self.N + 1)


def default_grid(alpha: float = 1.0) -> Grid:
    return Grid(L=DEFAULT_HALF_WIDTH / alpha, N=DEFAULT_POINTS)


def _xi_grid(grid: Grid, alpha: float) -> Grid:
    # the uniform grid in xi whose image under x = a sinh(xi / a) holds
    # grid's nodes; its h is the xi step
    a = _STRETCH / alpha
    return Grid(L=a * math.asinh(grid.L / a), N=grid.N)


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

    def certified_tol(self) -> float:
        """Residual tolerance of every certified solve on this operator.

        DEFAULT_TOL, floored at the rounding level of ||Hv - theta v||
        for a unit vector: the matvec works with entries of size
        2/dxi^2 over the well, so the residual of even an exact
        eigenpair cannot drop below about eps * ||H||. The floor is
        above DEFAULT_TOL on every default grid.
        """
        eps = float(np.finfo(np.float64).eps)
        off = float(np.abs(self.offdiag).max())
        floor = 8.0 * eps * (2.0 * off + float(np.abs(self.diag).max()))
        return max(DEFAULT_TOL, floor)


@dataclass(frozen=True)
class EigenResult:
    """One certified eigenpair summary.

    residual is ||H psi - E psi|| for the normalized eigenvector,
    recomputed after convergence. boundary_leak is the largest
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


def _mapped_operator(v: PotentialCoefficients, grid: Grid) -> DiscretizedOperator:
    # Three-point Laplacian on the nodes x_j = a sinh(xi_j / a), with
    # spacings h_i = x_{i+1} - x_i from wall to wall and weights
    # w_i = (h_{i-1} + h_i) / 2. Scaling row and column i by sqrt(w_i)
    # makes it complex symmetric: 2/(h_{i-1} h_i) on the diagonal and
    # -1/(h_i sqrt(w_i w_{i+1})) beside it. The xi nodes are exactly
    # antisymmetric and every entry is a commutative product of mirror
    # spacings, so a parity-symmetric well gives a mirror-symmetric
    # matrix to the bit.
    a = _STRETCH / v.alpha
    x = a * np.sinh(_xi_grid(grid, v.alpha).points() / a)
    step = np.diff(x, prepend=-grid.L, append=grid.L)
    lo, hi = step[:-1], step[1:]
    weights = 0.5 * (lo + hi)
    potential = v.evaluate(x, include_offset=False)
    diag = (2.0 / (lo * hi) + potential).astype(np.complex128)
    offdiag = -1.0 / (hi[:-1] * np.sqrt(weights[:-1] * weights[1:]))
    return DiscretizedOperator(diag=diag, offdiag=offdiag, grid=grid, nodes=x, weights=weights)


def discretize(v: PotentialCoefficients, grid: Grid) -> DiscretizedOperator:
    """Second-order finite-difference operator with Dirichlet walls.

    The grid's N nodes are uniform in xi = a asinh(x/a), a = 4/alpha,
    between the walls at -L and L. The potential is evaluated exactly
    from (t2, st) at the nodes and the constant tail e0 is subtracted,
    so bound states sit at negative real part and the continuum
    threshold is at zero.
    """
    # the census builds its coarse operator with _mapped_operator too,
    # so this name counts only the certified grids
    return _mapped_operator(v, grid)


def _boundary_leak(op: DiscretizedOperator, y: np.ndarray) -> float:
    # wavefunction amplitude |y| / sqrt(w); the outermost node at each
    # end counts even on a grid too coarse to reach 0.95 L
    amplitude = np.abs(y) / np.sqrt(op.weights)
    edge = np.abs(op.nodes) >= _EDGE_FRACTION * op.grid.L
    edge[[0, -1]] = True
    return float(amplitude[edge].max()) / float(amplitude.max())


def eigen_near(
    op: DiscretizedOperator,
    shift: complex,
    tol: float = DEFAULT_TOL,
    max_iter: int = 60,
) -> EigenResult:
    """Eigenpair nearest the shift via complex shifted inverse iteration.

    Starts from a normalized linear ramp (deterministic, and with both
    parity components so symmetric wells cannot hide their odd levels
    from the iteration), solves tridiagonal systems with partially
    pivoted LU, and switches to Rayleigh-quotient updates after three
    sweeps. The Rayleigh estimate theta = v^H H v minimizes the
    residual for the current vector, and the returned residual is
    recomputed independently after the loop. A vector whose residual
    is within tol can still hold components of order tol / gap along
    its nearest neighbours, which for a level near the threshold are
    box continuum reaching the walls; boundary_leak is therefore read
    from one more sweep on the same factorization, which damps them,
    so it measures the state rather than the stopping point.

    Raises:
        NoConvergence: residual stayed above tol for max_iter sweeps.
        SingularShift: the (possibly updated) shift hit an exact zero
            pivot twice even after perturbing it by tol.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
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

    for it in range(1, max_iter + 1):
        v = sweep(v)
        hv = op.matvec(v)
        theta = complex(np.vdot(v, hv))
        residual = float(np.linalg.norm(hv - theta * v))
        if residual <= tol:
            return EigenResult(
                energy=theta,
                residual=residual,
                boundary_leak=_boundary_leak(op, sweep(v)),
                iterations=it + 1,
            )
        if it >= 3:
            lu = factor(theta)
    raise NoConvergence(shift, max_iter, residual)


def refine_eigenvalue(coarse: EigenResult, fine_op: DiscretizedOperator) -> EigenResult:
    """Richardson-extrapolated eigenvalue from the (h, h/2) grid pair.

    coarse is a state converged on some grid, and fine_op must be the
    operator on that grid's refined() grid. One solve on fine_op from
    coarse.energy gives E_fine, and (4 E_fine - E_coarse) / 3 removes
    the h^2 term. The solve runs to fine_op.certified_tol().
    """
    fine = eigen_near(fine_op, coarse.energy, fine_op.certified_tol())
    energy = (4.0 * fine.energy - coarse.energy) / 3.0
    return EigenResult(
        energy=energy,
        residual=fine.residual,
        boundary_leak=fine.boundary_leak,
        iterations=coarse.iterations + fine.iterations,
    )


def _census(v: PotentialCoefficients, grid: Grid) -> list[complex]:
    # Every eigenvalue of the mapped operator on the same box at a
    # coarse xi step, sorted: dxi is set by the fastest local
    # oscillation sqrt(|V| + alpha^2) that a bound state can have. The
    # values land within a few hundredths of the fine-grid levels (a few
    # tenths for the two halves of a split exceptional pair), close
    # enough for inverse iteration to take over, and never cost more
    # points than grid itself.
    v_max = abs(v.t2) + 0.5 * abs(v.st)
    dxi = 0.5 / math.sqrt(v_max + v.alpha * v.alpha)
    xi_max = _xi_grid(grid, v.alpha).L
    n = min(grid.N, max(3, int(math.ceil(2.0 * xi_max / dxi)) - 1))
    op = _mapped_operator(v, Grid(L=grid.L, N=n))
    mat = np.diag(op.diag)
    j = np.arange(n - 1)
    mat[j, j + 1] = mat[j + 1, j] = op.offdiag
    values = eigvals(mat, overwrite_a=True, check_finite=False)
    return sorted((complex(z) for z in values), key=energy_sort_key)


def bound_spectrum(
    v: PotentialCoefficients,
    grid: Grid,
    *,
    seeds=(),
    re_limit: float = 0.0,
    max_leak: float = DEFAULT_MAX_LEAK,
) -> list[EigenResult]:
    """All certified eigenvalues with Re(E) below the threshold.

    Shifts are the seeds (analytic predictions, when available) and a
    census: every eigenvalue of a small dense operator on the same box
    with real part below re_limit, less those above zero real part that
    decay too slowly across the box to pass the leak gate. Each shift is
    polished by inverse iteration on the given grid, to the operator's
    certified_tol(), so the census guards against states the seeds do
    not predict. The census resolves levels only to a few hundredths:
    two levels closer than that can merge into one value that polishes
    to just one of them, which is why verify_spectrum passes the
    analytic levels as seeds. Runs converging to Re(E) >= re_limit are
    discarded; re_limit = 0 is the continuum threshold of the
    e0-subtracted operator, and callers may raise it to chase
    normalizable states whose energy has crept past zero real part in
    the broken phase. Eigenvalues closer than 1e-6 are considered the
    same state.

    Raises:
        DomainTooSmall: a converged state at Re(E) <= 0 still has
            boundary amplitude above max_leak, so the box is clipping
            it and its eigenvalue cannot be trusted. Leaky states at
            positive real part are box artifacts of the truncated
            continuum and are dropped instead.
    """
    op = discretize(v, grid)
    tol = op.certified_tol()
    min_decay = _CENSUS_MIN_DECAY_FOLDS / grid.L
    shifts = [complex(s) for s in seeds]
    shifts += [
        z
        for z in _census(v, grid)
        if z.real < re_limit and not (z.real > 0.0 and _decay_rate(z) < min_decay)
    ]

    accepted: list[EigenResult] = []
    for shift in shifts:
        try:
            res = eigen_near(op, shift, tol)
        except (NoConvergence, SingularShift) as exc:
            log.debug("shift %s: %s", shift, exc)
            continue
        if res.energy.real >= re_limit:
            continue
        if res.boundary_leak > max_leak:
            if res.energy.real > 0.0:
                continue
            raise DomainTooSmall(
                f"state at E = {res.energy} leaks {res.boundary_leak:.3e} "
                f"through the box edge at L = {grid.L}; enlarge the domain"
            )
        for k, kept in enumerate(accepted):
            if abs(kept.energy - res.energy) < _DEDUPE_TOL:
                if res.residual < kept.residual:
                    accepted[k] = res
                break
        else:
            accepted.append(res)
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
    partner within tol_match, nothing numeric was left over, and the
    worst pairing error stayed within tol_match.
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
        if merged and abs(merged[-1].energy - lv.energy) <= 1e-9:
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
    # keep the xi step of the base grid while growing the box: N grows
    # like log(need), not like need
    dxi = _xi_grid(base, alpha).h
    xi_max = _xi_grid(Grid(L=need, N=base.N), alpha).L
    n = int(math.ceil(2.0 * xi_max / dxi)) - 1
    return Grid(L=need, N=n)


def _greedy_match(levels, numeric, radius):
    # nearest-pair assignment with per-level capacity: a level of
    # multiplicity k absorbs up to k numeric eigenvalues. A defective
    # level is split by the h^2 perturbation into a cluster on the
    # sqrt scale, far wider than a simple level's matching error, so
    # its capture radius opens up accordingly.
    radii = [radius if lv.multiplicity == 1 else max(radius, 1e-2) for lv in levels]
    assigned: list[list[int]] = [[] for _ in levels]
    free = set(range(len(numeric)))
    while free:
        best = None
        for i, lv in enumerate(levels):
            if len(assigned[i]) >= lv.multiplicity:
                continue
            for j in free:
                dist = abs(lv.energy - numeric[j].energy)
                if dist <= radii[i] and (best is None or dist < best[0]):
                    best = (dist, i, j)
        if best is None:
            break
        _, i, j = best
        assigned[i].append(j)
        free.remove(j)
    left = [i for i in range(len(levels)) if not assigned[i]]
    return assigned, left, sorted(free)


def verify_spectrum(
    p: SusyParams,
    grid: Grid | None = None,
    tol_match: float = DEFAULT_TOL_MATCH,
    *,
    branch: BranchSign = BranchSign.PLUS,
    auto_domain: bool = True,
) -> VerificationReport:
    """Certify the analytic towers against the numerical solver.

    The analytic prediction fixes the seeds and the box size: the grid
    argument sets the base resolution, and with auto_domain the
    half-width grows (same xi step, so N grows like log L) until the
    slowest-decaying predicted state fits with boundary leak under
    DEFAULT_MAX_LEAK. Every numeric eigenvalue is Richardson refined
    before matching, since the raw second-order discretization error
    at the default step is above tol_match: the state bound_spectrum
    polished on the box grid is the coarse member, and the h/2 grid is
    discretized once for all states. Matching is greedy nearest-pair
    with capacity equal to the predicted multiplicity: a
    doubly-predicted (defective) level absorbs the conjugate pair the
    discretization splits it into, and is reported once, at the
    cluster mean, where the splitting cancels to second order. The
    report PASSes only if every analytic level took at least one
    numeric partner, no numeric state is left over, and the worst
    pairing error is within tol_match.

    Raises:
        ValueError: tol_match is not in (0, MAX_TOL_MATCH]; a larger
            one would let a level capture its neighbours' states.
        DomainTooSmall: with auto_domain=False, when the base grid
            clips a bound state (this is also how a deliberately small
            box fails loudly rather than returning polluted numbers).
    """
    if not 0.0 < tol_match <= MAX_TOL_MATCH:
        raise ValueError(f"tol_match must be in (0, {MAX_TOL_MATCH}], got {tol_match!r}")
    base = grid if grid is not None else default_grid(p.alpha)
    levels = _analytic_levels(p, branch)
    v = pcs_partner_coefficients(p, branch)
    if levels:
        geff = _auto_grid(base, levels, p.alpha) if auto_domain else base
        re_limit = max(0.0, max(lv.energy.real for lv in levels) + 0.1)
    else:
        geff = base
        re_limit = 0.0

    raw = bound_spectrum(v, geff, seeds=[lv.energy for lv in levels], re_limit=re_limit)
    fine_op = discretize(v, geff.refined())
    refined = [refine_eigenvalue(r, fine_op) for r in raw]

    radius = max(1e-3, 10.0 * tol_match)
    assigned, left, right = _greedy_match(levels, refined, radius)
    matches = []
    for i, js in enumerate(assigned):
        if not js:
            continue
        cluster = [refined[j] for j in js]
        # a defective level's conjugate-pair splitting cancels in the
        # cluster mean, which is the second-order-accurate estimate of
        # the eigenvalue itself
        mean = sum(r.energy for r in cluster) / len(cluster)
        matches.append(
            MatchedLevel(
                analytic=levels[i],
                numeric=mean,
                residual=max(r.residual for r in cluster),
                boundary_leak=max(r.boundary_leak for r in cluster),
                abs_err=abs(mean - levels[i].energy),
            )
        )
    matches.sort(key=lambda m: energy_sort_key(m.analytic.energy))
    matches = tuple(matches)
    max_err = max((m.abs_err for m in matches), default=0.0)
    passed = not left and not right and max_err <= tol_match
    return VerificationReport(
        passed=passed,
        params=p,
        branch=branch,
        base_grid=base,
        grid=geff,
        re_limit=re_limit,
        tol_match=tol_match,
        matches=matches,
        unmatched_analytic=tuple(levels[i] for i in left),
        unmatched_numeric=tuple(refined[j] for j in right),
        max_abs_err=max_err,
    )
