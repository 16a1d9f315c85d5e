"""Eigensolver and verification pipeline against independent oracles."""

import dataclasses
import math
import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcs_spectra import (
    BranchSign,
    DomainTooSmall,
    Grid,
    NoConvergence,
    PotentialCoefficients,
    SusyParams,
    bound_spectrum,
    default_grid,
    discretize,
    energy_sort_key,
    eigen_near,
    pcs_partner_coefficients,
    refine_eigenvalue,
    two_series_spectrum,
    verify_spectrum,
)
from pcs_spectra import numerics

PLUS = BranchSign.PLUS
MINUS = BranchSign.MINUS

# textbook sech^2 well: -A(A+1) sech^2(x) binds at -(A-n)^2
POSCHL_TELLER_3 = PotentialCoefficients(t2=-12.0, st=0.0, e0=0.0, alpha=1.0)


class TestGrid:
    def test_spacing(self):
        g = Grid(L=12.0, N=3999)
        assert g.h == pytest.approx(24.0 / 4000)

    def test_refined_halves_spacing_exactly(self):
        g = Grid(L=12.0, N=4000)
        assert Grid(L=g.L, N=2 * g.N + 1).h == g.h / 2

    def test_refined_halves_xi_step_exactly(self):
        # Richardson pairs N with 2N + 1 nodes: the mapped grid's xi step
        # must halve exactly, and every coarse node must be a fine node
        g = Grid(L=42.0, N=6703)
        refined = Grid(L=g.L, N=2 * g.N + 1)
        for alpha in (0.5, 1.0, 2.0):
            assert numerics._xi_step(refined, alpha) == numerics._xi_step(g, alpha) / 2
            v = pcs_partner_coefficients(SusyParams(2, 3, 0, alpha), PLUS)
            fine = discretize(v, refined)
            assert np.array_equal(fine.nodes[1::2], discretize(v, g).nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(L=0.0, N=100)
        with pytest.raises(ValueError):
            Grid(L=5.0, N=2)
        # h overflows, or h^2 does; 2/h^2 would then be a finite 0.0
        for huge in (1e308, 1e160):
            with pytest.raises(ValueError, match="too large"):
                Grid(L=huge, N=4000)


class TestMappedOperator:
    @pytest.mark.parametrize("n", [400, 401, 6703])
    def test_pt_symmetric_well_is_mirror_symmetric(self, n):
        # V(-x) = V(x)* on a C = 0 well: the nodes, the weights and the
        # couplings mirror exactly, and the diagonal mirrors to its
        # conjugate, bit for bit
        v = pcs_partner_coefficients(SusyParams(2, 3, 0, 1), PLUS)
        op = discretize(v, Grid(L=42.0, N=n))
        assert np.array_equal(op.nodes[::-1], -op.nodes)
        assert np.array_equal(op.weights[::-1], op.weights)
        assert np.array_equal(op.offdiag[::-1], op.offdiag)
        assert np.array_equal(op.diag[::-1], op.diag.conj())
        assert op.mirror_exact

    @pytest.mark.parametrize(
        "params, exact",
        [
            pytest.param(SusyParams(2, 2.5, 0, 1), True, id="(2, 2.5, 0)"),
            pytest.param(SusyParams(2, 2.5, 1, 1), True, id="(2, 2.5, 1) PT-degenerate"),
            pytest.param(SusyParams(2, 3, 0.5, 1), False, id="(2, 3, 0.5) broken"),
        ],
    )
    def test_mirror_exact_reads_the_matrix(self, params, exact):
        for branch in BranchSign:
            op = discretize(pcs_partner_coefficients(params, branch), Grid(L=42.0, N=235))
            assert op.mirror_exact is exact


@st.composite
def broken_wells(draw):
    # criterion 5's box with C != 0
    A, B, alpha = draw(st.floats(0.5, 3.5)), draw(st.floats(0.5, 3.5)), draw(st.floats(0.5, 2.0))
    C = draw(st.floats(-1.5, 1.5).filter(lambda c: c != 0.0))
    return SusyParams(A, B, C, alpha)


def coefficient_bits(v):
    return [float(x).hex() for z in (v.t2, v.st, v.e0) for x in (z.real, z.imag)]


def value_bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def count_solves(monkeypatch):
    """The grid of every eigen_near call from here on, in call order."""
    eigen = numerics.eigen_near
    grids = []

    def counting(op, shift):
        grids.append(op.grid)
        return eigen(op, shift)

    monkeypatch.setattr(numerics, "eigen_near", counting)
    return grids


@given(broken_wells(), st.integers(3, 300))
def test_minus_branch_is_the_pt_image_of_plus(p, n):
    # a well and its PT image share one census: (C, minus) is V(-x)* of
    # (C, plus), and the same well as (-C, plus), to the bit
    plus = pcs_partner_coefficients(p, PLUS)
    minus = pcs_partner_coefficients(p, MINUS)
    assert minus == plus.pt_image()
    assert minus == pcs_partner_coefficients(dataclasses.replace(p, C=-p.C), PLUS)
    assert coefficient_bits(minus) == coefficient_bits(plus.pt_image())
    grid = Grid(L=numerics.DEFAULT_HALF_WIDTH / p.alpha, N=n)
    op_plus, op_minus = discretize(plus, grid), discretize(minus, grid)
    # so its operator is J conj(H) J, with the conjugate spectrum
    assert np.array_equal(op_minus.diag, op_plus.diag[::-1].conj())
    assert np.array_equal(op_minus.offdiag, op_plus.offdiag[::-1])


def verify_box(params):
    """The plus well, with the box and the real-part limit that
    verify_spectrum sets for it."""
    levels = numerics._analytic_levels(params, PLUS)
    grid = numerics._auto_grid(default_grid(params.alpha), levels, params.alpha)
    re_limit = max([0.0] + [lv.energy.real + 0.1 for lv in levels])
    return pcs_partner_coefficients(params, PLUS), grid, re_limit


def blind_scan(params):
    """bound_spectrum's states, and its grid, on verify's box for the
    plus well."""
    v, grid, re_limit = verify_box(params)
    return numerics.bound_spectrum(v, grid, re_limit=re_limit), grid


def census_grid(v, grid):
    """The sinc grid of bound_spectrum's census on grid's box: one rung
    coarser than verify's coarser step, on at most grid.N points."""
    dxi = numerics._SINC_STEP * numerics._SINC_REFINE / math.sqrt(numerics._wave_squared(v))
    return numerics._sinc_grid(v, grid.L, dxi, grid.N)


def census(v, grid):
    """bound_spectrum's census of v on grid's box, sorted."""
    return [z for z, _ in numerics._sinc_spectrum(v, census_grid(v, grid), False)]


def sinc_operator(v, L, n):
    """The census operator as a dense complex matrix.

    C^-1 (-D2 + diag(q + c^2 V)) C^-1 on n nodes x = a sinh(xi / a),
    uniform in xi, with c = cosh(xi / a), q = 3/4 tanh^2(xi / a) / a^2
    - 1 / (2 a^2) and D2 the sinc second derivative.
    """
    a = numerics._STRETCH / v.alpha
    dxi = numerics._xi_step(Grid(L=L, N=n), v.alpha)
    xi = (np.arange(n) - 0.5 * (n - 1)) * dxi
    c = np.cosh(xi / a)
    m = np.arange(1, n)
    column = np.concatenate([[np.pi**2 / 3], 2.0 * (-1.0) ** m / (m * m)]) / (dxi * dxi)
    q = (0.75 * np.tanh(xi / a) ** 2 - 0.5) / (a * a)
    potential = v.evaluate(a * np.sinh(xi / a), include_offset=False)
    h = scipy.linalg.toeplitz(column) + np.diag(q + c * c * potential)
    return h.astype(np.complex128) / np.outer(c, c)


def dense_reference(v, L, n):
    return np.linalg.eigvals(sinc_operator(v, L, n))


def is_conjugate_closed(values):
    return np.array_equal(np.sort_complex(values), np.sort_complex(np.conj(values)))


def pair_off(values, reference, tol):
    """Census value paired with each reference eigenvalue, one to one.

    Fails unless every reference eigenvalue has its own census value
    within tol (a scalar, or one bound per reference value).
    """
    values = np.asarray(values)
    dist = np.abs(values[:, None] - reference[None, :])
    nearest = dist.argmin(axis=0)
    assert values.size == reference.size
    assert np.unique(nearest).size == reference.size
    assert np.all(dist[nearest, np.arange(reference.size)] <= tol)
    return values[nearest]


def cluster_means(values, radius):
    """One mean per run of values closer than radius, in (Re, Im) order."""
    groups = []
    for z in sorted(values, key=energy_sort_key):
        if groups and abs(z - groups[-1][-1]) < radius:
            groups[-1].append(z)
        else:
            groups.append([z])
    return np.array([sum(g) / len(g) for g in groups])


def pt_wells():
    # criterion 5's box with C = 0
    return st.builds(
        SusyParams, st.floats(0.5, 3.5), st.floats(0.5, 3.5), st.just(0.0), st.floats(0.5, 2.0)
    )


@st.composite
def pt_degenerate_wells(draw):
    # 2(A - B) + alpha = 0 with C != 0, on a 2^-6 lattice of criterion
    # 5's box, where B = A + alpha/2 is exact and so the family holds to
    # the bit
    def lattice(lo, hi):
        return st.integers(int(lo * 64), int(hi * 64)).map(lambda k: k / 64)

    A = draw(lattice(0.5, 3.5))
    alpha = draw(lattice(0.5, 2.0))
    C = draw(lattice(-1.5, 1.5).filter(lambda c: c != 0.0))
    return SusyParams(A, A + 0.5 * alpha, C, alpha)


class TestCensus:
    @pytest.mark.parametrize(
        "params, branch, n",
        [
            # at even n the two centre anti-diagonal entries of the real
            # similarity sit beside the diagonal; the census takes n
            # points when the box grid has fewer than its step needs
            # (157, 143 and 139 points at L = 42 on these wells)
            pytest.param(SusyParams(2, 3, 0, 1), PLUS, 152, id="(2, 3, 0) even n"),
            pytest.param(SusyParams(2, 3, 0, 1), PLUS, 153, id="(2, 3, 0) odd n"),
            pytest.param(SusyParams(2, 2.5, 0, 1), PLUS, 132, id="(2, 2.5, 0) even n"),
            # PT-degenerate: 2(A - B) + alpha = 0 with C != 0
            pytest.param(SusyParams(2, 2.5, 1, 1), PLUS, 130, id="(2, 2.5, 1) even n"),
            pytest.param(SusyParams(2, 2.5, 1, 1), PLUS, 129, id="(2, 2.5, 1) odd n"),
        ],
    )
    def test_pt_well_matches_complex_reference(self, params, branch, n):
        v = pcs_partner_coefficients(params, branch)
        values = np.array(census(v, Grid(L=42.0, N=n)))
        assert values.size == n
        # closed under conjugation to the bit, and real levels exactly real
        assert is_conjugate_closed(values)
        # the two eigensolvers split a defective level differently, on the
        # square-root scale of rounding; the mean of its pair is well
        # conditioned, and is held to the tolerance in the pair's place
        values = cluster_means(values, 1e-4)
        reference = cluster_means(dense_reference(v, 42.0, n), 1e-4)
        tol = 1e-9 * np.maximum(1.0, np.abs(reference))
        paired = pair_off(values, reference, tol)
        real = np.abs(reference.imag) <= tol
        assert real.any()
        assert np.all(paired[real].imag == 0.0)

    def test_broken_well_matches_complex_reference(self):
        # the census of this well takes 156 points at L = 42
        v = pcs_partner_coefficients(SusyParams(2, 3, 0.5, 1), BranchSign.MINUS)
        assert not discretize(v, Grid(L=42.0, N=148)).mirror_exact
        values = census(v, Grid(L=42.0, N=148))
        reference = dense_reference(v, 42.0, 148)
        pair_off(values, reference, 1e-9 * np.maximum(1.0, np.abs(reference)))

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(SusyParams(2, 3, 0, 1), id="(2, 3)"),
            pytest.param(SusyParams(2, 3, 1, 1), id="(2, 3, 1)"),
            pytest.param(SusyParams(2.25, 3, 0, 1), id="(2.25, 3)"),
        ],
    )
    def test_census_step_resolves_the_levels(self, monkeypatch, params):
        # on verify's box the census takes its own step, one rung coarser
        # than verify's, and still lands within rounding of every simple
        # level: 4.0e-12, 1.3e-13 and 6.0e-12 here. At 1.0 rad a node the
        # census is 9.3e-7 off on (2, 3)
        calls = TestCensusScope.count_eigensolves(monkeypatch)
        _, grid = blind_scan(params)
        v = pcs_partner_coefficients(params, PLUS)
        # the census bound_spectrum takes, in one eigensolve
        assert calls == [census_grid(v, grid).N] and calls[0] < grid.N
        values = np.array(census(v, grid))
        levels = [lv for lv in numerics._analytic_levels(params, PLUS) if lv.multiplicity == 1]
        assert levels
        for lv in levels:
            assert np.abs(values - lv.energy).min() <= 1e-9

    @staticmethod
    def assert_census_is_dense_spectrum(p, branch, n):
        # both eigensolvers are backward stable, so they may differ by
        # the condition number of each eigenvalue (||x||^2 / |x^T x| for
        # a complex symmetric matrix) times a few rounding errors of ||H||
        v = pcs_partner_coefficients(p, branch)
        grid = Grid(L=numerics.DEFAULT_HALF_WIDTH / p.alpha, N=n)
        values = np.array(census(v, grid))
        h = sinc_operator(v, grid.L, values.size)
        reference, x = scipy.linalg.eig(h)
        kappa = np.linalg.norm(x, axis=0) ** 2 / np.abs(np.sum(x * x, axis=0))
        eps = np.finfo(np.float64).eps
        pair_off(values, reference, 1e3 * eps * np.linalg.norm(h, 2) * kappa)
        assert is_conjugate_closed(values)

    @given(pt_wells(), st.sampled_from(list(BranchSign)), st.integers(3, 120))
    def test_pt_wells_over_criterion_5_box(self, p, branch, n):
        self.assert_census_is_dense_spectrum(p, branch, n)

    @given(pt_degenerate_wells(), st.sampled_from(list(BranchSign)), st.integers(3, 120))
    def test_pt_degenerate_wells_over_criterion_5_box(self, p, branch, n):
        self.assert_census_is_dense_spectrum(p, branch, n)


class TestCensusScope:
    # the scope of one census is a PT pair: a well and its image V(-x)*
    # share it, the member with the larger (Im t2, Re st) is censused,
    # and neither the order of the calls nor the cache moves a bit
    @staticmethod
    def count_eigensolves(monkeypatch):
        # the point count of each dense sinc eigensolve
        eigen = numerics._sinc_eigen
        calls = []

        def counted(v, grid, leaks):
            calls.append(grid.N)
            return eigen(v, grid, leaks)

        monkeypatch.setattr(numerics, "_sinc_eigen", counted)
        return calls

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(SusyParams(2, 3, 0, 1), id="(2, 3, 0)"),
            pytest.param(SusyParams(2, 3, -0.0, 1), id="(2, 3, -0.0)"),
            pytest.param(SusyParams(2, 2.5, 1, 1), id="(2, 2.5, 1) PT-degenerate"),
        ],
    )
    def test_mirror_exact_image_takes_the_same_bits(self, monkeypatch, params):
        # the minus well differs from the plus well only in signed zeros
        # of its coefficients, and its operator is the same to the bit:
        # the census after plus's must equal its own census bit for bit,
        # Im +0.0 on the real values included, in one eigensolve
        grid = Grid(L=12.0, N=4000)
        plus = pcs_partner_coefficients(params, PLUS)
        minus = pcs_partner_coefficients(params, MINUS)
        assert coefficient_bits(plus) != coefficient_bits(minus)
        own = census(minus, grid)
        numerics._canonical_sinc.cache_clear()
        calls = self.count_eigensolves(monkeypatch)
        census(plus, grid)
        shared = census(minus, grid)
        assert len(calls) == 1
        assert value_bits(shared) == value_bits(own)

    def test_broken_image_takes_the_conjugates(self, monkeypatch):
        grid = Grid(L=12.0, N=4000)
        p = SusyParams(2, 3, 1, 1)
        plus = pcs_partner_coefficients(p, PLUS)
        minus = pcs_partner_coefficients(p, MINUS)
        # (2, 3, 1, plus) has Im t2 = 1 > -1, so it is the member censused
        own = [z for z, _ in numerics._sinc_eigen(minus, census_grid(minus, grid), False)]
        numerics._canonical_sinc.cache_clear()
        calls = self.count_eigensolves(monkeypatch)
        shared = census(minus, grid)
        first = census(plus, grid)
        mirrored = census(
            pcs_partner_coefficients(dataclasses.replace(p, C=-1.0), PLUS), grid
        )
        # one census per well up to PT image, whichever member comes first
        assert calls == [len(first)]
        assert census(plus, grid) == first and len(calls) == 1
        assert shared == mirrored == sorted((z.conjugate() for z in first), key=energy_sort_key)
        # and exactly what the image takes from an empty cache
        numerics._canonical_sinc.cache_clear()
        assert value_bits(census(minus, grid)) == value_bits(shared)
        # the image's own dense census agrees to rounding
        pair_off(shared, np.array(own), 1e-9 * np.maximum(1.0, np.abs(own)))


class TestEigenNear:
    def test_poschl_teller_levels(self):
        # L = 22 so even the kappa = 1 state is contained below the
        # leak gate used elsewhere
        op = discretize(POSCHL_TELLER_3, Grid(L=22.0, N=5500))
        for seed, exact in ((-9.2, -9.0), (-4.1, -4.0), (-0.9, -1.0)):
            res = eigen_near(op, seed)
            assert res.residual <= 1e-10
            assert res.energy.real == pytest.approx(exact, abs=1e-4)
            assert abs(res.energy.imag) < 1e-9
            assert res.boundary_leak < 1e-8

    def test_residual_is_certificate(self):
        op = discretize(POSCHL_TELLER_3, Grid(L=12.0, N=500))
        res = eigen_near(op, -4.0)
        # recompute the spectrum from scratch with dense arithmetic
        m = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
        eigs = np.linalg.eigvals(m)
        assert min(abs(eigs - res.energy)) <= 1e-8

    def test_no_convergence_carries_context(self, monkeypatch):
        # from -4.0 this solve converges on its fourth sweep, so three
        # sweeps fall short
        op = discretize(POSCHL_TELLER_3, Grid(L=12.0, N=300))
        monkeypatch.setattr(numerics, "_MAX_ITER", 3)
        with pytest.raises(NoConvergence) as exc:
            eigen_near(op, -4.0)
        err = exc.value
        assert err.iterations == 3
        assert err.residual > op.certified_tol

    def test_complex_well_eigenvalue(self):
        # broken-phase well has genuinely complex bound energies
        v = pcs_partner_coefficients(SusyParams(2, 3, 0.5, 1), PLUS)
        op = discretize(v, Grid(L=24.0, N=8000))
        res = eigen_near(op, -3.75 - 2.0j)
        assert res.energy == pytest.approx(-3.75 - 2j, abs=2e-5)

    @pytest.mark.parametrize(
        "p", [SusyParams(2, 3, 0, 1), SusyParams(2, 3, 1, 1), SusyParams(1, 0, 0, 1)]
    )
    def test_converges_on_twice_refined_default_grid(self, p):
        # N = 16,003, the default grid refined twice: the matvec's
        # rounding floor, 8.6e-9, is the tolerance, so a solve never
        # chases a residual below it
        g = default_grid()
        op = discretize(pcs_partner_coefficients(p, PLUS), Grid(L=g.L, N=4 * g.N + 3))
        assert op.certified_tol > 1e-9
        for series in two_series_spectrum(p):
            for e in series.energies:
                res = eigen_near(op, e)
                assert res.residual <= op.certified_tol
                assert res.iterations <= 6


class TestRefine:
    def test_refinement_beats_raw_error(self):
        g = Grid(L=12.0, N=2000)
        raw = eigen_near(discretize(POSCHL_TELLER_3, g), -1.0)
        ref = refine_eigenvalue(raw, discretize(POSCHL_TELLER_3, Grid(L=g.L, N=2 * g.N + 1)))
        raw_err = abs(raw.energy.real + 1.0)
        ref_err = abs(ref.energy.real + 1.0)
        assert ref_err < raw_err / 50
        assert ref_err < 1e-8


class TestBoundSpectrum:
    @pytest.mark.parametrize(
        "v, grid, re_limit, levels",
        [
            pytest.param(
                POSCHL_TELLER_3, Grid(L=22.0, N=2750), 0.0,
                [(-9, 1), (-4, 1), (-1, 1)],
                id="poschl-teller",
            ),
            pytest.param(
                # spacing so small that the residual's rounding floor,
                # the solves' tolerance, is 1.7e-8 (1.5e-10 at N = 2750)
                POSCHL_TELLER_3, Grid(L=22.0, N=30000), 0.0,
                [(-9, 1), (-4, 1), (-1, 1)],
                id="fine-grid",
            ),
            pytest.param(
                # broken phase: the top level sits above Re E = 0
                pcs_partner_coefficients(SusyParams(2, 3, 1, 1), PLUS),
                Grid(L=42.0, N=14000), 0.85,
                [(-5.25 + 5j, 1), (-3 - 4j, 1), (-1.25 + 3j, 1), (-2j, 1), (0.75 + 1j, 1)],
                id="broken-above-threshold",
            ),
            pytest.param(
                # exceptional point: one defective level, split in two
                # by the discretization
                pcs_partner_coefficients(SusyParams(1.5, 2.5, 0, 2), PLUS),
                Grid(L=14.0, N=4000), 0.0,
                [(-2.25, 2)],
                id="exceptional-pair",
            ),
            pytest.param(
                # the towers nearly cross (A + alpha/2 - B = 2.05, near
                # alpha): -1.44 and -1.3225 are 0.12 apart
                pcs_partner_coefficients(SusyParams(3.2, 2.15, 0, 2), PLUS),
                Grid(L=18.0, N=12000), 0.0,
                [(-10.24, 1), (-1.44, 1), (-1.3225, 1)],
                id="near-crossing",
            ),
            pytest.param(
                # near the exceptional family A + alpha/2 = B, on verify's
                # box: each level of one tower 0.04 or 0.02 from one of
                # the other, and the top level 1e-4 below the threshold
                *verify_box(SusyParams(2, 2.51, 0, 1)),
                [(-4.0401, 1), (-4, 1), (-1.0201, 1), (-1, 1), (-1e-4, 1)],
                id="(2, 2.51)",
            ),
            pytest.param(
                *verify_box(SusyParams(2, 2.49, 0, 1)),
                [(-4, 1), (-3.9601, 1), (-1, 1), (-0.9801, 1)],
                id="(2, 2.49)",
            ),
            pytest.param(
                # deep well: the polish stops inside the pseudospectrum,
                # so where a state lands depends on its start
                *verify_box(SusyParams(7, 8, 0, 1)),
                [(-((7.5 - n) ** 2), 1) for n in range(8)]
                + [(-((7 - n) ** 2), 1) for n in range(7)],
                id="(7, 8)",
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="24 states: 11 of the 15 levels hit within 1e-3, and 13 states "
                    "match no level, off the axis by 2e-5 to 1.5e-3 around levels at and "
                    "above -30.25",
                ),
            ),
        ],
    )
    def test_blind_scan_finds_exactly_the_tower(self, v, grid, re_limit, levels):
        # no seeds: the census alone must locate every level, once each
        # (a defective one as a split pair), and nothing else
        found = [r.energy for r in bound_spectrum(v, grid, re_limit=re_limit)]
        assert len(found) == sum(mult for _, mult in levels)
        for energy, mult in levels:
            near = [z for z in found if abs(z - energy) < (1e-3 if mult == 1 else 5e-2)]
            assert len(near) == mult
            if mult == 2:
                assert abs(near[0] - near[1]) > 1e-6

    @pytest.mark.parametrize(
        "params, grid",
        [
            pytest.param(SusyParams(2, 2.5, 0, 1), Grid(L=21.0, N=6000), id="(2, 2.5, 0)"),
            pytest.param(
                SusyParams(1.5, 2.5, 0, 2), Grid(L=14.0, N=4000), id="(1.5, 2.5, alpha 2)"
            ),
            pytest.param(
                SusyParams(2, 2.5, 0.5, 1), Grid(L=21.0, N=6000), id="(2, 2.5, 0.5) PT-degenerate"
            ),
        ],
    )
    def test_mirror_exact_states_are_conjugate_closed(self, monkeypatch, params, grid):
        # every state lies off the axis: one solve per conjugate pair, and
        # the partner is its member's conjugate to the bit, with the same
        # residual and leak
        v = pcs_partner_coefficients(params, PLUS)
        assert discretize(v, grid).mirror_exact
        solves = count_solves(monkeypatch)
        states = bound_spectrum(v, grid)
        energies = [r.energy for r in states]
        assert all(z.imag != 0.0 for z in energies)
        conjugates = sorted((z.conjugate() for z in energies), key=energy_sort_key)
        assert value_bits(conjugates) == value_bits(energies)
        by_energy = {r.energy: r for r in states}
        for r in states:
            partner = by_energy[r.energy.conjugate()]
            assert (partner.residual, partner.boundary_leak) == (r.residual, r.boundary_leak)
        assert len(solves) == len(states) // 2

    def test_split_pair_owes_its_conjugate(self, monkeypatch):
        # (2, 2.4999) on verify's box: the levels come in pairs 4e-4
        # apart, each one conjugate pair of states on the finite-difference
        # grid, which the census may split along the axis. A real value
        # whose state lies off the axis owes its conjugate to the next
        # value, so each pair takes one solve
        solves = count_solves(monkeypatch)
        states, _ = blind_scan(SusyParams(2, 2.4999, 0, 1))
        energies = [r.energy for r in states]
        assert len(energies) == 4
        conjugates = sorted((z.conjugate() for z in energies), key=energy_sort_key)
        assert value_bits(conjugates) == value_bits(energies)
        assert len(solves) == 2

    def test_fine_step_leak_gate_reads_the_state(self):
        # a 15 times finer xi step than the default raises the residual
        # floor like 1/dxi^2; the leak gate must still read the states
        v = pcs_partner_coefficients(SusyParams(2, 3, 0, 1), PLUS)
        states = bound_spectrum(v, Grid(L=42.0, N=97_774))
        want = [-6.25, -4.0, -2.25, -1.0, -0.25]
        assert [round(r.energy.real, 5) for r in states] == want
        assert max(r.boundary_leak for r in states) < 1e-8

    def test_census_over_budget_builds_no_operator(self, monkeypatch):
        # (2, 3) on a box of L = 1e30 needs 3,536 census points: the
        # budget refuses the census before any operator is built
        built = []
        monkeypatch.setattr(numerics, "discretize", lambda v, grid: built.append(grid))
        monkeypatch.setattr(numerics, "_sinc_eigen", lambda v, grid, leaks: built.append(grid))
        v = pcs_partner_coefficients(SusyParams(2, 3, 0, 1), PLUS)
        with pytest.raises(DomainTooSmall, match="n = 3536 points, above the budget of 1500"):
            bound_spectrum(v, Grid(L=1e30, N=4000))
        assert built == []

    def test_clipped_state_raises(self):
        with pytest.raises(DomainTooSmall):
            bound_spectrum(POSCHL_TELLER_3, Grid(L=3.0, N=600), seeds=[-1.0])

    @pytest.mark.parametrize(
        "seed, re_limit, max_leak",
        [
            # polishes to the box continuum at E ~ 0.487, at or above
            # re_limit; with no leak gate, only re_limit can drop it
            pytest.param(0.5, 0.0, 1.0, id="re-limit"),
            # polishes to E ~ 0.288, below re_limit but leaking through
            # the walls and decaying by ~0 e-folds: dropped as continuum,
            # not raised as a clipped state
            pytest.param(0.3, 1.0, numerics.DEFAULT_MAX_LEAK, id="continuum"),
        ],
    )
    def test_seed_in_the_continuum_is_dropped(self, monkeypatch, seed, re_limit, max_leak):
        v = pcs_partner_coefficients(SusyParams(2, 3, 0, 1), PLUS)
        g = Grid(L=42.0, N=2000)
        want = [r.energy for r in bound_spectrum(v, g)]
        polished = []

        def eigen_recording(op, shift, *args, **kwargs):
            polished.append(eigen_near(op, shift, *args, **kwargs))
            return polished[-1]

        monkeypatch.setattr(numerics, "eigen_near", eigen_recording)
        got = bound_spectrum(v, g, seeds=[seed], re_limit=re_limit, max_leak=max_leak)
        assert [r.energy for r in got] == want
        # the seed is polished first, and its state reached the gate
        state = polished[0]
        if seed == 0.5:
            assert state.energy.real >= re_limit
        else:
            assert state.energy.real < re_limit
            assert state.boundary_leak > max_leak
            assert state.energy.real > 0.0
            assert numerics._decay_rate(state.energy) < numerics._CENSUS_MIN_DECAY_FOLDS / g.L

    def test_re_limit_extends_search(self):
        # C = 1 well holds a normalizable state at Re E = +0.75
        v = pcs_partner_coefficients(SusyParams(2, 3, 1.0, 1), PLUS)
        g = Grid(L=42.0, N=14000)
        found = bound_spectrum(v, g, seeds=[0.75 + 1j], re_limit=0.85)
        assert any(abs(r.energy - (0.75 + 1j)) < 1e-4 for r in found)


@settings(max_examples=10)
@given(st.one_of(pt_wells(), pt_degenerate_wells()), st.sampled_from(list(BranchSign)))
def test_mirror_exact_scan_is_conjugate_closed(p, branch):
    # on a mirror-exact box every state off the axis comes with its exact
    # conjugate, with the same residual and leak, and no two solves land
    # on the two members of one pair; the leak gate is off, since the
    # box is the default one and not grown for the well
    v = pcs_partner_coefficients(p, branch)
    grid = Grid(L=numerics.DEFAULT_HALF_WIDTH / p.alpha, N=800)
    op = discretize(v, grid)
    assert op.mirror_exact
    merge = numerics._MAX_CONDITION * op.certified_tol
    solved = []

    def recording(op, shift):
        res = eigen_near(op, shift)
        solved.append(res.energy)
        return res

    with mock.patch.object(numerics, "eigen_near", recording):
        states = bound_spectrum(v, grid, max_leak=1.0)
    off = {r.energy: r for r in states if abs(r.energy.imag) > merge}
    for z, r in off.items():
        assert z.conjugate() in off
        partner = off[z.conjugate()]
        assert (partner.residual, partner.boundary_leak) == (r.residual, r.boundary_leak)
    for z in solved:
        if abs(z.imag) > merge:
            assert all(abs(w - z.conjugate()) >= merge for w in solved)


class TestVerifySpectrum:
    def test_worked_well_passes(self):
        rep = verify_spectrum(SusyParams(2.5, 3.2, 0, 1))
        assert rep.passed
        assert len(rep.matches) == 6
        assert not rep.unmatched_analytic and not rep.unmatched_numeric
        assert rep.max_abs_err <= 1e-6
        # auto-domain grew the box for the kappa = 0.5 state but kept
        # the xi step, so N grew by far less than L did
        assert rep.grid.L > rep.base_grid.L
        step = numerics._xi_step(rep.grid, 1.0)
        assert step == pytest.approx(numerics._xi_step(rep.base_grid, 1.0), rel=1e-3)
        assert rep.grid.N / rep.base_grid.N < rep.grid.L / rep.base_grid.L

    def test_deterministic(self):
        a = verify_spectrum(SusyParams(2.5, 3.2, 0, 1))
        b = verify_spectrum(SusyParams(2.5, 3.2, 0, 1))
        assert a == b

    def test_two_solves_overlap_on_two_threads(self, monkeypatch):
        # the eig solve at h runs on a worker thread beside the eigvals
        # solve at h/1.25 on the caller's; the worker is joined before
        # verify returns or raises, and what it raised reaches the caller
        p = SusyParams(2, 3, 0, 1)
        eigen = numerics._sinc_eigen
        threads = {}

        def recording(v, grid, leaks):
            threads[leaks] = threading.get_ident()
            return eigen(v, grid, leaks)

        before = threading.active_count()
        monkeypatch.setattr(numerics, "_sinc_eigen", recording)
        numerics._canonical_sinc.cache_clear()
        assert verify_spectrum(p).passed
        assert threads.keys() == {True, False}
        assert threads[True] != threads[False] == threading.get_ident()
        assert threading.active_count() == before

        def failing(v, grid, leaks):
            if leaks:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigen(v, grid, leaks)

        monkeypatch.setattr(numerics, "_sinc_eigen", failing)
        numerics._canonical_sinc.cache_clear()
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            verify_spectrum(p)
        assert threading.active_count() == before

    def test_concurrent_verifies_share_the_cache_safely(self):
        # every verify's two threads share the PT-pair cache with each
        # other and with other verifies: twelve at once, more threads than
        # cores, under a short switch interval, each give the report of
        # their own well. Energies are compared to 1e-9, not to the bit,
        # since BLAS may split concurrent solves differently
        wells = [SusyParams(2, 3, 0, 1), SusyParams(2, 3, 1, 1), SusyParams(2.5, 3.2, 0, 1)]
        want = [verify_spectrum(p) for p in wells]
        got = [None] * (4 * len(wells))

        def verify(i):
            got[i] = verify_spectrum(wells[i % len(wells)])

        workers = [threading.Thread(target=verify, args=(i,)) for i in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for rep, ref in zip(got, want * 4):
            assert rep.passed and rep.grid == ref.grid
            assert [m.analytic for m in rep.matches] == [m.analytic for m in ref.matches]
            for m, r in zip(rep.matches, ref.matches):
                assert abs(m.numeric - r.numeric) <= 1e-9

    def test_reports_read_the_coarser_solve(self, monkeypatch):
        # a left-over state's residual is its distance to the nearest
        # value of the coarser solve, and its leak is that value's leak; a
        # match's leak is the largest among its partners at that step
        spectrum = numerics._sinc_spectrum
        solves = []

        def recording(v, grid, leaks):
            pairs = spectrum(v, grid, leaks)
            if leaks:
                solves.append(pairs)
            return pairs

        monkeypatch.setattr(numerics, "_sinc_spectrum", recording)
        two_series = numerics.two_series_spectrum

        def without_series1(*args, **kwargs):
            s1, s2 = two_series(*args, **kwargs)
            return dataclasses.replace(s1, energies=()), s2

        with mock.patch.object(numerics, "two_series_spectrum", without_series1):
            edited = verify_spectrum(SusyParams(2, 3, 0, 1))
        exceptional = verify_spectrum(SusyParams(2, 2.5, 0, 1))
        edited_pairs, exceptional_pairs = solves
        assert [round(u.energy.real, 6) for u in edited.unmatched_numeric] == [-4.0, -1.0]
        for u in edited.unmatched_numeric:
            near, leak = min(edited_pairs, key=lambda pair: abs(pair[0] - u.energy))
            assert (u.residual, u.boundary_leak) == (abs(u.energy - near), leak)
        for rep, pairs in ((edited, edited_pairs), (exceptional, exceptional_pairs)):
            assert rep.matches
            for m in rep.matches:
                by_distance = sorted(pairs, key=lambda pair: abs(pair[0] - m.analytic.energy))
                partners = by_distance[: m.analytic.multiplicity]
                assert m.boundary_leak == max(leak for _, leak in partners)

    def test_no_auto_domain_fails_loudly(self):
        with pytest.raises(DomainTooSmall):
            verify_spectrum(SusyParams(2.5, 3.2, 0, 1), L=8.0, auto_domain=False)

    def test_degenerate_well_each_level_once(self):
        rep = verify_spectrum(SusyParams(2, 2.5, 0, 1))
        assert rep.passed
        assert [m.analytic.multiplicity for m in rep.matches] == [2, 2]
        assert rep.max_abs_err <= 1e-6
        # each level's cluster is an exact conjugate pair
        assert [m.numeric.imag for m in rep.matches] == [0.0, 0.0]
        assert [m.analytic for m in rep.matches] == numerics._analytic_levels(rep.params, PLUS)

    @pytest.mark.parametrize(
        "params, solves",
        [
            pytest.param(SusyParams(2, 2.5, 0, 1), 2, id="(2, 2.5, 0)"),
            pytest.param(SusyParams(1.5, 2.5, 0, 2), 1, id="(1.5, 2.5, alpha 2)"),
            pytest.param(SusyParams(2, 2.5, 0.5, 1), 2, id="(2, 2.5, 0.5) PT-degenerate"),
            # real levels, and an operator that is not mirror-exact: one
            # solve per state
            pytest.param(SusyParams(2, 3, 0, 1), 5, id="(2, 3, 0)"),
            pytest.param(SusyParams(2, 3, 1, 1), 5, id="(2, 3, 1)"),
        ],
    )
    def test_conjugate_pair_takes_one_solve_per_grid(self, monkeypatch, params, solves):
        # blind scan on the box verify grows: a mirror-exact operator's
        # conjugate pair of states is polished once, and its partner is
        # the exact conjugate
        grids = count_solves(monkeypatch)
        states, grid = blind_scan(params)
        levels = numerics._analytic_levels(params, PLUS)
        assert len(states) == sum(lv.multiplicity for lv in levels)
        assert grids == [grid] * solves

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A", [0.005, 0.02, 0.05])
    def test_near_threshold_level_passes(self, A):
        # the top rung sits at -A^2: the box grows to 21/A, the mapped
        # grid keeps the point count down to log L, and the leak gate
        # reads the state, not the solver's stopping error
        rep = verify_spectrum(SusyParams(A, 3, 0, 1))
        assert rep.passed
        assert rep.grid.L == pytest.approx(21.0 / A)
        assert rep.grid.N <= 20_000

    @pytest.mark.parametrize("L", [0.05, 0.1, 0.2, 3.0, 6.0])
    def test_box_sets_no_resolution(self, L):
        # a given box takes the default xi step, so a box the states
        # outgrow grows to the default report's grid and finds its states
        want = verify_spectrum(SusyParams(2, 3, 0, 1))
        rep = verify_spectrum(SusyParams(2, 3, 0, 1), L=L)
        assert rep.passed
        assert (rep.grid, rep.matches) == (want.grid, want.matches)

    def test_wide_box_keeps_the_default_step(self):
        # 1e8 moves the walls, not the resolution: N grows like log L
        rep = verify_spectrum(SusyParams(2, 3, 0, 1), L=1e8)
        assert rep.passed
        assert rep.grid.L == 1e8
        step = numerics._xi_step(default_grid(1.0), 1.0)
        assert step * (1 - 1 / rep.grid.N) < numerics._xi_step(rep.grid, 1.0) <= step

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(SusyParams(0.5, 3, 0, 1), id="(0.5, 3, 0)"),
            pytest.param(SusyParams(1, 3.5, 0, 1), id="(1, 3.5, 0)"),
        ],
    )
    def test_tower_crossing_passes(self, params):
        # A + alpha/2 - B is a nonzero multiple of alpha: one rung of each
        # tower predicts the same energy, and the matches keep the order
        # of the levels
        rep = verify_spectrum(params)
        assert rep.passed
        assert [m.analytic for m in rep.matches] == numerics._analytic_levels(params, PLUS)

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(SusyParams(2, 3, 1, 1), id="(2, 3, 1)"),
            pytest.param(SusyParams(2, 3, -0.5, 1), id="(2, 3, -0.5)"),
            pytest.param(SusyParams(2, 2.5, 1, 1), id="(2, 2.5, 1) PT-degenerate"),
        ],
    )
    def test_report_does_not_depend_on_call_history(self, params):
        # a well verified right after its PT image, or before it, gives
        # the report it gives from an empty cache of sinc solves
        def verify(branch):
            try:
                return verify_spectrum(params, branch=branch)
            except DomainTooSmall as exc:
                return str(exc)

        after = [verify(branch) for branch in (PLUS, MINUS)]
        numerics._canonical_sinc.cache_clear()
        before = [verify(branch) for branch in (MINUS, PLUS)][::-1]
        fresh = []
        for branch in (PLUS, MINUS):
            numerics._canonical_sinc.cache_clear()
            fresh.append(verify(branch))
        assert after == before == fresh
        if not isinstance(fresh[0], str):
            assert [m.analytic for m in fresh[0].matches] == numerics._analytic_levels(params, PLUS)

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(SusyParams(2, 3, 0, 1), id="(2, 3, 0)"),
            pytest.param(SusyParams(3.2, 2.15, 0, 2), id="(3.2, 2.15, 0, alpha 2)"),
        ],
    )
    def test_one_census_per_call(self, monkeypatch, params):
        # blind scan on the box verify grows for the well: one census,
        # even where two levels lie close
        calls = TestCensusScope.count_eigensolves(monkeypatch)
        states, _ = blind_scan(params)
        assert len(states) == len(numerics._analytic_levels(params, PLUS))
        assert len(calls) == 1


def _refused(reason):
    return pytest.mark.xfail(strict=True, raises=DomainTooSmall, reason=reason)


# B = A + alpha with C = 0: how deep a well verify_spectrum certifies.
# The worst eigenvalue condition number of the operator grows 22-29
# times per unit of A/alpha, and past about A/alpha = 5 it times the
# rounding error of the sinc solves reaches tol_match: the two solves
# then disagree on a level, and the well is refused, not FAILed. The
# reasons give the disagreement with one BLAS thread, then with two
@pytest.mark.parametrize(
    "params",
    [
        pytest.param(SusyParams(2, 3, 0, 1), id="(2, 3)"),
        pytest.param(SusyParams(3, 4, 0, 1), id="(3, 4)"),
        pytest.param(SusyParams(4, 5, 0, 1), id="(4, 5)"),
        pytest.param(SusyParams(1.5, 2, 0, 0.5), id="(1.5, 2, alpha 0.5)"),
        pytest.param(SusyParams(5, 6, 0, 1), id="(5, 6)"),
        pytest.param(
            SusyParams(20, 24, 0, 4),
            id="(20, 24, alpha 4)",
            marks=_refused(
                "(5, 6) scaled by 4, its rounding error by 16: the two sinc solves "
                "disagree on a level by 6.4e-7 / 1.1e-6, above half of tol_match"
            ),
        ),
        pytest.param(
            SusyParams(7, 8, 0, 1),
            id="(7, 8)",
            marks=_refused("the two sinc solves disagree on level -36 by 2.5e-6 / 1.6e-6"),
        ),
    ],
)
def test_depth_envelope(params):
    assert verify_spectrum(params).passed


# the exchange fixed point A + alpha/2 = B at depth: every level is
# doubled, a defective pair judged by its cluster mean
@pytest.mark.parametrize(
    "A",
    [
        pytest.param(2.5, id="(2.5, 3)"),
        pytest.param(3.5, id="(3.5, 4)"),
        pytest.param(4, id="(4, 4.5)"),
        pytest.param(5, id="(5, 5.5)"),
    ],
)
def test_exchange_fixed_point_depth(A):
    assert verify_spectrum(SusyParams(A, A + 0.5, 0, 1)).passed


def test_exchange_fixed_point_on_the_tolerance_edge():
    # (3, 3.5) sat on the tolerance edge of the finite-difference
    # pipeline, a PASS at 1.68e-7 with one BLAS thread and a FAIL at
    # 1.02e-6 with two; the sinc solves certify it at about 1e-11
    rep = verify_spectrum(SusyParams(3, 3.5, 0, 1))
    assert rep.passed
    assert [m.analytic.multiplicity for m in rep.matches] == [2, 2, 2]
    assert rep.max_abs_err <= 1e-9


@pytest.mark.parametrize(
    "params",
    [
        # PASS at 7.8e-7 / 7.1e-7, its levels' two solves 2.7e-7 / 4.3e-7
        # apart: the deep exchange fixed point
        pytest.param(SusyParams(6, 6.5, 0, 1), id="(6, 6.5)"),
        # refused at 7.4e-7 / PASS at 1.7e-7: a near-defective pair
        pytest.param(SusyParams(2, 2.5 - 1e-6, 0, 1), id="(2, 2.5 - 1e-6)"),
    ],
)
def test_rounding_edge_is_never_a_fail(params):
    # wells whose error and agreement sit at the rounding floor of the
    # sinc solves, where the verdict follows the BLAS: each must PASS or
    # be refused, never FAIL on its true towers
    try:
        rep = verify_spectrum(params)
    except DomainTooSmall:
        return
    assert rep.passed, rep


def _unseparated(reason):
    # judged one by one, the members of a near-defective pair miss on the
    # square-root scale; a cluster rule for levels the arithmetic cannot
    # separate (ROADMAP item 10) would judge their mean
    return pytest.mark.xfail(strict=True, raises=(AssertionError, DomainTooSmall), reason=reason)


# (2, 2.5 + delta, 0, 1): delta away from the exceptional family
# A + alpha/2 = B, where the two towers share their levels
@pytest.mark.parametrize(
    "delta",
    [
        pytest.param(-1e-2, id="-1e-2"),
        pytest.param(1e-2, id="+1e-2"),
        pytest.param(-1e-3, id="-1e-3"),
        pytest.param(1e-3, id="+1e-3"),
        pytest.param(-1e-4, id="-1e-4"),
        pytest.param(1e-4, id="+1e-4"),
        pytest.param(-1e-5, id="-1e-5"),
        pytest.param(
            -1e-7, id="-1e-7",
            marks=_unseparated(
                "FAIL with max |dE| 1.20e-6, every level matched, the two sinc solves "
                "6.9e-8 apart, with one BLAS thread; refused at 5.8e-7 apart with two"
            ),
        ),
        pytest.param(
            -1e-8, id="-1e-8",
            marks=_unseparated("refused: the two sinc solves disagree by 6.9e-7 / 5.2e-7"),
        ),
        pytest.param(
            -1e-9, id="-1e-9",
            marks=_unseparated("refused: the two sinc solves disagree by 9.8e-7 / 1.1e-6"),
        ),
        # within the 1e-9 alpha^2 merge of the analytic levels
        pytest.param(-1e-10, id="-1e-10"),
    ],
)
def test_exceptional_offset(delta):
    assert verify_spectrum(SusyParams(2, 2.5 + delta, 0, 1)).passed


def test_exceptional_offset_near_threshold_is_refused(monkeypatch):
    # B = 2.5 + delta puts a level delta^2 below the threshold, and the
    # box that holds it is 21/delta wide. At 1e-10 and 1e-8 that box
    # needs sinc solves above the point budget. At 1e-6 they fit, but the
    # level lies within the rounding floor of the threshold, where values
    # of the box continuum round below zero and leak. Each is refused
    # before any matrix is built
    built = []
    eigen = numerics._sinc_eigen
    monkeypatch.setattr(
        numerics, "_sinc_eigen", lambda v, grid, leaks: built.append(grid) or eigen(v, grid, leaks)
    )
    for delta in (1e-10, 1e-8, 1e-6):
        with pytest.raises(DomainTooSmall, match="budget|threshold"):
            verify_spectrum(SusyParams(2, 2.5 + delta, 0, 1))
    assert built == []


# (2s, 3s, 0, s) is (2, 3) in the unit x -> x/s, with every level scaled
# by s^2. The solver takes its tolerances from the operator, so neither
# the verdict nor the relative error should depend on s. The analytic
# levels merge on the well's own scale, 1e-9 alpha^2, so the small end
# passes; the absolute tol_match pins the large end
@pytest.mark.parametrize(
    "s",
    [
        pytest.param(1e-5, id="1e-5"),
        pytest.param(1e-4, id="1e-4"),
        pytest.param(1e-3, id="1e-3"),
        pytest.param(1e-2, id="1e-2"),
        pytest.param(1.0, id="1"),
        pytest.param(30.0, id="30"),
        pytest.param(100.0, id="100"),
        pytest.param(
            1000.0,
            id="1000",
            marks=_refused(
                "the two sinc solves disagree on the level -4e6 by 7.5e-7 / 1.2e-6, a "
                "relative 2e-13 at the rounding floor, against the absolute tol_match 1e-6"
            ),
        ),
    ],
)
def test_scale_envelope(s):
    rep = verify_spectrum(SusyParams(2 * s, 3 * s, 0, s))
    assert rep.passed
    assert rep.max_abs_err <= 2.1e-9 * s * s


# A + alpha/2 = B and 2(A - B) + alpha = 0 at once, with C != 0, inside
# TestNoWrongPass's box: the doubled levels of C = 0 split into the
# conjugate pairs -(A - n)^2 + C^2 -+ 2iC(A - n), here 0.0117 and 0.0039
# apart
@pytest.mark.parametrize("branch", list(BranchSign), ids=["plus", "minus"])
def test_exchange_fixed_point_on_pt_degenerate_family(branch):
    assert verify_spectrum(SusyParams(1.5, 2, 2**-9, 1), branch=branch).passed


# the PT-degenerate family 2(A - B) + alpha = 0 with C != 0, at alpha 1:
# V stays PT-symmetric, and its complex levels come in conjugate pairs
# ((2, 2.5, 1) has -3 -+ 4i and -+2i). The wells whose auto-grown box
# clips a complex state, with the state on the plus branch (its
# conjugate on minus) and its leak; the box assumes e^(-0.95 kappa L),
# about 2e-9
_PT_DEGENERATE_LEAKS = {
    (1, 1): "E = -2i leaks 1.65e-8 at L = 21",
    (1, 2): "E = 3 - 4i leaks 2.58e-8 at L = 21",
    (2, 2): "E = 3 - 4i leaks 4.18e-8 at L = 21",
    (3, 2): "E = 3 - 4i leaks 2.99e-8 at L = 21",
}


def _pt_degenerate_wells():
    for A in (1, 1.5, 2, 3):
        for C in (0.25, 0.5, 1, 2):
            leak = _PT_DEGENERATE_LEAKS.get((A, C))
            marks = () if leak is None else pytest.mark.xfail(
                strict=True, raises=DomainTooSmall, reason=leak
            )
            for branch in BranchSign:
                yield pytest.param(
                    SusyParams(A, A + 0.5, C, 1), branch,
                    id=f"({A:g}, {A + 0.5:g}, {C:g}) {branch.value}", marks=marks,
                )


@pytest.mark.parametrize("params, branch", _pt_degenerate_wells())
def test_pt_degenerate_family(params, branch):
    assert verify_spectrum(params, branch=branch).passed


@pytest.mark.parametrize("s", [1e-4, 1e-3, 1e-2], ids=["1e-4", "1e-3", "1e-2"])
@pytest.mark.parametrize(
    "params, branch",
    [
        pytest.param(SusyParams(2, 3, 0.5, 1), MINUS, id="(2, 3, 0.5) minus"),
        pytest.param(SusyParams(2, 3, 1, 1), MINUS, id="(2, 3, 1) minus"),
        pytest.param(SusyParams(2.5, 3.2, 0, 1), PLUS, id="(2.5, 3.2)"),
        pytest.param(SusyParams(2, 2.5, 0, 1), PLUS, id="(2, 2.5)"),
        pytest.param(SusyParams(1.5, 2.5, 0, 2), PLUS, id="(1.5, 2.5, alpha 2)"),
        pytest.param(SusyParams(0.7, 2.9, 1.3, 0.6), MINUS, id="(0.7, 2.9, 1.3, alpha 0.6) minus"),
        # the towers nearly cross: with absolute solver tolerances this
        # well FAILed at s = 1e-3
        pytest.param(SusyParams(3.2, 2.15, 0, 2), PLUS, id="(3.2, 2.15, alpha 2)"),
    ],
)
def test_small_scale_wells_pass(params, branch, s):
    # each well in a unit where its levels are 1e-8 to 1e-4 of the
    # original: solves and merges scale with the operator
    scaled = SusyParams(*(s * x for x in dataclasses.astuple(params)))
    assert verify_spectrum(scaled, branch=branch).passed


def true_wells():
    # the benchmark's box of seeded wells, on either branch
    return st.tuples(
        st.builds(
            SusyParams, st.floats(1.5, 3.0), st.floats(2.0, 3.5), st.floats(-1.0, 1.0), st.just(1.0)
        ),
        st.sampled_from(list(BranchSign)),
    )


def assume_box_fits(p, branch):
    # as the benchmark does: the auto-grown box is 21 / kappa_min wide
    levels = numerics._analytic_levels(p, branch)
    assume(min(numerics._decay_rate(lv.energy) for lv in levels) >= 0.25)


def passes(p, branch):
    """verify_spectrum's verdict on the well, or None when it refuses it."""
    try:
        return verify_spectrum(p, branch=branch).passed
    except DomainTooSmall:
        return None


def shifted_second_tower():
    # a 1e-4 error in series2 is above tol_match and inside the match
    # radius, so every level still finds its state, but too far off
    two_series = numerics.two_series_spectrum

    def shifted(*args, **kwargs):
        s1, s2 = two_series(*args, **kwargs)
        return s1, dataclasses.replace(s2, energies=tuple(e + 1e-4 for e in s2.energies))

    return mock.patch.object(numerics, "two_series_spectrum", shifted)


class TestNoWrongPass:
    @settings(max_examples=10)
    @given(true_wells())
    def test_true_towers_pass(self, well):
        p, branch = well
        assume_box_fits(p, branch)
        assert passes(p, branch) is not False

    @settings(max_examples=10)
    @given(true_wells())
    def test_shifted_second_tower_never_passes(self, well):
        p, branch = well
        assume_box_fits(p, branch)
        with shifted_second_tower():
            assert not passes(p, branch)


def scoreboard_wells(count=80, seed=1):
    """A fixed list of true wells over the wider unbroken box.

    In draw order from random.Random(seed): A ~ U(0.3, 6), B ~ U(0.5, 7),
    C = U(-1, 1) or 0 with equal odds, alpha 1, either branch. A well is
    kept when its auto-grown box is at most 84 wide (kappa_min >= 0.25),
    as assume_box_fits does; none is kept or dropped by its verdict.
    """
    rng = random.Random(seed)
    wells = []
    while len(wells) < count:
        A, B = rng.uniform(0.3, 6.0), rng.uniform(0.5, 7.0)
        C = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else 0.0
        branch = rng.choice(list(BranchSign))
        p = SusyParams(A, B, C, 1.0)
        levels = numerics._analytic_levels(p, branch)
        if levels and min(numerics._decay_rate(lv.energy) for lv in levels) >= 0.25:
            name = f"{len(wells)}: ({A:.4f}, {B:.4f}, {C:.4f}) {branch.value}"
            wells.append(pytest.param(p, branch, id=name))
    return wells


SCOREBOARD = scoreboard_wells()


class TestScoreboard:
    # every true well PASSes or is refused (exit 3), never FAILs (exit
    # 1); and the same wells with series2 shifted by 1e-4 never PASS, so
    # a verifier that refuses too easily cannot score here
    @pytest.mark.parametrize("params, branch", SCOREBOARD)
    def test_true_towers_are_never_a_fail(self, params, branch):
        assert passes(params, branch) is not False

    @pytest.mark.parametrize("params, branch", SCOREBOARD)
    def test_shifted_second_tower_never_passes(self, params, branch):
        with shifted_second_tower():
            assert not passes(params, branch)


def test_verify_solve_count_is_bounded(monkeypatch):
    # blind scan on the box verify grows for a broken well with five
    # levels: the census hands the grid one shift per level, so it needs
    # a few dozen solves, not hundreds; the grid is discretized once and
    # each shift polished once
    grids, solves, scans = [], [], []
    originals = {
        name: getattr(numerics, name)
        for name in ("discretize", "eigen_near", "bound_spectrum")
    }

    def discretize_counting(v, grid):
        grids.append(grid)
        return originals["discretize"](v, grid)

    def eigen_counting(op, shift, *args, **kwargs):
        solves.append((op.grid, shift))
        return originals["eigen_near"](op, shift, *args, **kwargs)

    def bound_counting(*args, **kwargs):
        scans.append((args, kwargs))
        return originals["bound_spectrum"](*args, **kwargs)

    monkeypatch.setattr(numerics, "discretize", discretize_counting)
    monkeypatch.setattr(numerics, "eigen_near", eigen_counting)
    monkeypatch.setattr(numerics, "bound_spectrum", bound_counting)
    returned, grid = blind_scan(SusyParams(2, 3, 1, 1))
    assert grids == [grid]
    shifts = [shift for g, shift in solves]
    assert all(g == grid for g, _ in solves) and len(set(shifts)) == len(shifts)
    # the solver is handed no analytic energy, and the census of this
    # well holds no value that polishes onto another's state
    [(args, kwargs)] = scans
    assert len(args) == 2 and "seeds" not in kwargs
    assert len(solves) == len(returned) == 5


def test_default_grid_scales_with_range():
    g1 = default_grid(1.0)
    g2 = default_grid(2.0)
    assert g1.L == 12.0 and g2.L == 6.0
    assert g1.N == g2.N == 4000
