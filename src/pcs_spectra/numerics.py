"""Independent numerical oracle for the analytic level towers.

The Schrodinger operator -d^2/dx^2 + V(x) - e0 (hbar = 2m = 1) is
discretized with second-order central differences on [-L, L] with
Dirichlet walls. The matrix is complex symmetric tridiagonal, not
Hermitian, so eigenpairs are found by shifted inverse iteration with
unsymmetric tridiagonal LU (partial pivoting) rather than by anything
that assumes a real spectrum. Eigenvalues of the second-order scheme
carry a clean h^2 error term, which refine_eigenvalue removes by
pairing N with 2N+1 interior points (h exactly halved) and Richardson
extrapolation.

Nothing here trusts the closed-form towers. bound_spectrum takes a
census of every eigenvalue of a small dense operator on the same box
(a stretched grid whose point count grows like log L), polishes the
seeds and each census value below the threshold by inverse iteration
on the fine grid, and certifies every result by its own residual and
its boundary leak, so states the formulas do not predict are found
too.
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
DEFAULT_POINTS = 4000
# half-width in units of 1/alpha; sech^2(12) ~ 7e-11, below DEFAULT_TOL
DEFAULT_HALF_WIDTH = 12.0
# accepted bound states must have at most this much relative amplitude
# on the outer five percent of the box
DEFAULT_MAX_LEAK = 1e-8
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
    """Uniform Dirichlet grid: N interior points on (-L, L), h = 2L/(N+1)."""

    L: float
    N: int

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L!r}")
        if self.N < 3:
            raise ValueError(f"N must be at least 3, got {self.N!r}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N + 1)

    def points(self) -> np.ndarray:
        # x_j = (j - (N-1)/2) h is algebraically -L + (j+1) h but is
        # exactly antisymmetric in floats, so parity tests on the grid
        # hold to the bit.
        return (np.arange(self.N) - 0.5 * (self.N - 1)) * self.h

    def refined(self) -> "Grid":
        """Grid with h exactly halved (N -> 2N + 1)."""
        return Grid(L=self.L, N=2 * self.N + 1)


def default_grid(alpha: float = 1.0) -> Grid:
    return Grid(L=DEFAULT_HALF_WIDTH / alpha, N=DEFAULT_POINTS)


@dataclass(frozen=True)
class DiscretizedOperator:
    """Complex symmetric tridiagonal form of -d^2/dx^2 + V - e0."""

    diag: np.ndarray
    offdiag: float
    grid: Grid

    def __post_init__(self):
        self.diag.setflags(write=False)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = self.diag * v
        w[1:] += self.offdiag * v[:-1]
        w[:-1] += self.offdiag * v[1:]
        return w

    def residual_floor(self) -> float:
        """Rounding-level floor of ||Hv - theta v|| for a unit vector.

        The matvec works with entries of size 2/h^2, so the residual of
        even an exact eigenpair cannot drop below about eps * ||H||.
        """
        eps = float(np.finfo(np.float64).eps)
        return 8.0 * eps * (2.0 * abs(self.offdiag) + float(np.abs(self.diag).max()))


@dataclass(frozen=True)
class EigenResult:
    """One certified eigenpair summary.

    residual is ||H psi - E psi|| for the normalized eigenvector,
    recomputed after convergence. boundary_leak is the largest |psi| on
    the outer five percent of the box over the global maximum; a
    genuinely bound, well-contained state leaves essentially nothing
    there.
    """

    energy: complex
    residual: float
    boundary_leak: float
    iterations: int


def discretize(v: PotentialCoefficients, grid: Grid) -> DiscretizedOperator:
    """Second-order central-difference operator with Dirichlet walls.

    The potential is evaluated exactly from (t2, st) at the nodes and
    the constant tail e0 is subtracted, so bound states sit at negative
    real part and the continuum threshold is at zero.
    """
    h = grid.h
    diag = (2.0 / (h * h) + _potential(v, grid.points())).astype(np.complex128)
    return DiscretizedOperator(diag=diag, offdiag=-1.0 / (h * h), grid=grid)


def _potential(v: PotentialCoefficients, x: np.ndarray) -> np.ndarray:
    ax = v.alpha * x
    sech = 1.0 / np.cosh(ax)
    return v.t2 * sech * sech + v.st * sech * np.tanh(ax)


def _boundary_leak(v: np.ndarray) -> float:
    n = v.size
    edge = max(1, int(round(0.025 * n)))
    peak = float(np.abs(v).max())
    tail = max(float(np.abs(v[:edge]).max()), float(np.abs(v[-edge:]).max()))
    return tail / peak


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
    recomputed independently after the loop.

    Raises:
        NoConvergence: residual stayed above tol for max_iter sweeps.
        SingularShift: the (possibly updated) shift hit an exact zero
            pivot twice even after perturbing it by tol.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    d = op.diag
    n = d.size
    off = np.full(n - 1, op.offdiag, dtype=np.complex128)

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
    for it in range(1, max_iter + 1):
        y, info = zgttrs(*lu, v)
        if info != 0:
            raise SingularShift(f"tridiagonal solve failed near shift {theta}")
        norm = float(np.linalg.norm(y))
        if not math.isfinite(norm) or norm == 0.0:
            raise SingularShift(f"inverse iteration overflowed near shift {theta}")
        v = y / norm
        hv = op.matvec(v)
        theta = complex(np.vdot(v, hv))
        residual = float(np.linalg.norm(hv - theta * v))
        if residual <= tol:
            return EigenResult(
                energy=theta,
                residual=residual,
                boundary_leak=_boundary_leak(v),
                iterations=it,
            )
        if it >= 3:
            lu = factor(theta)
    raise NoConvergence(shift, max_iter, residual)


def refine_eigenvalue(
    v: PotentialCoefficients,
    grid: Grid,
    shift: complex,
    tol: float = DEFAULT_TOL,
    max_iter: int = 60,
) -> EigenResult:
    """Richardson-extrapolated eigenvalue from the (h, h/2) grid pair.

    Solves near the shift on the given grid and again on the refined
    grid, then removes the h^2 term with (4 E_fine - E_coarse) / 3. The
    per-grid residual tolerance is floored at the matvec rounding level,
    which scales like eps / h^2 and exceeds tight tolerances on fine
    grids.
    """
    coarse_op = discretize(v, grid)
    coarse = eigen_near(
        coarse_op, shift, max(tol, coarse_op.residual_floor()), max_iter
    )
    fine_op = discretize(v, grid.refined())
    fine = eigen_near(
        fine_op, coarse.energy, max(tol, fine_op.residual_floor()), max_iter
    )
    energy = (4.0 * fine.energy - coarse.energy) / 3.0
    return EigenResult(
        energy=energy,
        residual=fine.residual,
        boundary_leak=fine.boundary_leak,
        iterations=coarse.iterations + fine.iterations,
    )


def _census(v: PotentialCoefficients, grid: Grid) -> list[complex]:
    # Every eigenvalue of a coarse operator on the same Dirichlet box,
    # sorted. Nodes x = a sinh(xi / a) with xi uniform are nearly
    # uniform over the well (|x| < a = 4 ranges), with dxi set by the
    # fastest local oscillation sqrt(|V| + alpha^2) that a bound state
    # can have, and spread out geometrically along the tails, so the
    # point count grows like log L rather than L; a three-point
    # non-uniform Laplacian keeps the operator tridiagonal. The values
    # land within a few hundredths of the fine-grid levels (a few tenths
    # for the two halves of a split exceptional pair), close enough for
    # inverse iteration to take over, and never cost more points than
    # grid itself.
    a = 4.0 / v.alpha
    v_max = abs(v.t2) + 0.5 * abs(v.st)
    dxi = 0.5 / math.sqrt(v_max + v.alpha * v.alpha)
    xi_max = a * math.asinh(grid.L / a)
    n = min(grid.N, max(3, int(math.ceil(2.0 * xi_max / dxi)) - 1))
    x = a * np.sinh(np.linspace(-xi_max, xi_max, n + 2) / a)
    step = np.diff(x)
    lo, hi = step[:-1], step[1:]
    width = lo + hi
    j = np.arange(n)
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[j, j] = 2.0 / (lo * hi) + _potential(v, x[1:-1])
    mat[j[1:], j[:-1]] = -2.0 / (lo[1:] * width[1:])
    mat[j[:-1], j[1:]] = -2.0 / (hi[:-1] * width[:-1])
    values = eigvals(mat, overwrite_a=True, check_finite=False)
    return sorted((complex(z) for z in values), key=energy_sort_key)


def bound_spectrum(
    v: PotentialCoefficients,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    *,
    seeds=(),
    re_limit: float = 0.0,
    max_leak: float = DEFAULT_MAX_LEAK,
    max_iter: int = 60,
) -> list[EigenResult]:
    """All certified eigenvalues with Re(E) below the threshold.

    Shifts are the seeds (analytic predictions, when available) and a
    census: every eigenvalue of a small dense operator on the same box
    with real part below re_limit, less those above zero real part that
    decay too slowly across the box to pass the leak gate. Each shift is
    polished by inverse iteration on the given grid, so the census
    guards against states the seeds do not predict. Runs converging to
    Re(E) >= re_limit are discarded; re_limit = 0 is the continuum
    threshold of the e0-subtracted operator, and callers may raise it to
    chase normalizable states whose energy has crept past zero real part
    in the broken phase. Eigenvalues closer than 1e-6 are considered the
    same state.

    Raises:
        DomainTooSmall: a converged state at Re(E) <= 0 still has
            boundary amplitude above max_leak, so the box is clipping
            it and its eigenvalue cannot be trusted. Leaky states at
            positive real part are box artifacts of the truncated
            continuum and are dropped instead.
    """
    op = discretize(v, grid)
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
            res = eigen_near(op, shift, tol, max_iter)
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
    That happens exactly on the exchange-degenerate family, where the
    two towers share their wavefunctions as well, so the operator holds
    the level once but with algebraic multiplicity two (a defective,
    exceptional-point eigenvalue).
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
    # keep the spacing of the base grid while growing the box
    n = int(math.ceil((base.N + 1) * need / base.L)) - 1
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
    tol: float = DEFAULT_TOL,
    auto_domain: bool = True,
    match_radius: float | None = None,
    max_leak: float = DEFAULT_MAX_LEAK,
) -> VerificationReport:
    """Certify the analytic towers against the numerical solver.

    The analytic prediction fixes the seeds and the box size: the grid
    argument sets the base resolution, and with auto_domain the
    half-width grows (same spacing) until the slowest-decaying
    predicted state fits with boundary leak under max_leak. Every
    numeric eigenvalue is Richardson refined before matching, since the
    raw h^2 discretization error at the default spacing is above
    tol_match. Matching is greedy nearest-pair with capacity equal to
    the predicted multiplicity: a doubly-predicted (defective) level
    absorbs the conjugate pair the discretization splits it into, and
    is reported once, at the cluster mean, where the splitting cancels
    to second order. The report PASSes only if every analytic level
    took at least one numeric partner, no numeric state is left over,
    and the worst pairing error is within tol_match.

    Raises:
        DomainTooSmall: with auto_domain=False, when the base grid
            clips a bound state (this is also how a deliberately small
            box fails loudly rather than returning polluted numbers).
    """
    base = grid if grid is not None else default_grid(p.alpha)
    levels = _analytic_levels(p, branch)
    v = pcs_partner_coefficients(p, branch)
    if levels:
        geff = _auto_grid(base, levels, p.alpha) if auto_domain else base
        re_limit = max(0.0, max(lv.energy.real for lv in levels) + 0.1)
    else:
        geff = base
        re_limit = 0.0

    raw = bound_spectrum(
        v,
        geff,
        tol,
        seeds=[lv.energy for lv in levels],
        re_limit=re_limit,
        max_leak=max_leak,
    )
    refined = [refine_eigenvalue(v, geff, r.energy, tol) for r in raw]

    radius = match_radius if match_radius is not None else max(1e-3, 10.0 * tol_match)
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
