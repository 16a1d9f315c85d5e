"""Eigensolver and verification pipeline against independent oracles."""

import numpy as np
import pytest

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
    eigen_near,
    pcs_partner_coefficients,
    refine_eigenvalue,
    verify_spectrum,
)
from pcs_spectra import numerics

PLUS = BranchSign.PLUS

# textbook sech^2 well: -A(A+1) sech^2(x) binds at -(A-n)^2
POSCHL_TELLER_3 = PotentialCoefficients(t2=-12.0, st=0.0, e0=0.0, alpha=1.0)


class TestGrid:
    def test_spacing(self):
        g = Grid(L=12.0, N=3999)
        assert g.h == pytest.approx(24.0 / 4000)

    def test_points_exactly_antisymmetric(self):
        for n in (400, 401):
            x = Grid(L=7.0, N=n).points()
            assert np.all(x == -x[::-1])

    def test_refined_halves_spacing_exactly(self):
        g = Grid(L=12.0, N=4000)
        assert g.refined().h == g.h / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(L=0.0, N=100)
        with pytest.raises(ValueError):
            Grid(L=5.0, N=2)
        # h overflows, or h^2 does; 2/h^2 would then be a finite 0.0
        for huge in (1e308, 1e160):
            with pytest.raises(ValueError, match="too large"):
                Grid(L=huge, N=4000)


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
        # recompute the residual from scratch with dense arithmetic
        h = op.grid.h
        m = np.diag(op.diag) + np.diag(np.full(op.grid.N - 1, -1 / h**2), 1) \
            + np.diag(np.full(op.grid.N - 1, -1 / h**2), -1)
        eigs = np.linalg.eigvals(m)
        assert min(abs(eigs - res.energy)) <= 1e-8

    def test_no_convergence_carries_context(self):
        op = discretize(POSCHL_TELLER_3, Grid(L=12.0, N=300))
        with pytest.raises(NoConvergence) as exc:
            eigen_near(op, -4.0, tol=1e-18, max_iter=4)
        err = exc.value
        assert err.iterations == 4
        assert err.residual > 0

    def test_complex_well_eigenvalue(self):
        # broken-phase well has genuinely complex bound energies
        v = pcs_partner_coefficients(SusyParams(2, 3, 0.5, 1), PLUS)
        op = discretize(v, Grid(L=24.0, N=8000))
        res = eigen_near(op, -3.75 - 2.0j)
        assert res.energy == pytest.approx(-3.75 - 2j, abs=2e-5)

    def test_rejects_nonpositive_tol(self):
        op = discretize(POSCHL_TELLER_3, Grid(L=12.0, N=300))
        with pytest.raises(ValueError):
            eigen_near(op, -4.0, tol=0.0)


class TestRefine:
    def test_refinement_beats_raw_error(self):
        g = Grid(L=12.0, N=2000)
        raw = eigen_near(discretize(POSCHL_TELLER_3, g), -1.0)
        ref = refine_eigenvalue(raw, discretize(POSCHL_TELLER_3, g.refined()))
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
                # spacing so small that the rounding floor of the
                # residual is above the default tolerance
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
                # alpha): the census merges -1.44 and -1.3225 into one
                # conjugate pair, and both values polish to -1.44
                pcs_partner_coefficients(SusyParams(3.2, 2.15, 0, 2), PLUS),
                Grid(L=18.0, N=12000), 0.0,
                [(-10.24, 1), (-1.44, 1), (-1.3225, 1)],
                id="near-crossing",
                marks=pytest.mark.xfail(
                    strict=True, reason="the census merges two levels 0.12 apart"
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

    def test_clipped_state_raises(self):
        with pytest.raises(DomainTooSmall):
            bound_spectrum(POSCHL_TELLER_3, Grid(L=3.0, N=600), seeds=[-1.0])

    def test_re_limit_extends_search(self):
        # C = 1 well holds a normalizable state at Re E = +0.75
        v = pcs_partner_coefficients(SusyParams(2, 3, 1.0, 1), PLUS)
        g = Grid(L=42.0, N=14000)
        found = bound_spectrum(v, g, seeds=[0.75 + 1j], re_limit=0.85)
        assert any(abs(r.energy - (0.75 + 1j)) < 1e-4 for r in found)


class TestVerifySpectrum:
    def test_worked_well_passes(self):
        rep = verify_spectrum(SusyParams(2.5, 3.2, 0, 1))
        assert rep.passed
        assert len(rep.matches) == 6
        assert not rep.unmatched_analytic and not rep.unmatched_numeric
        assert rep.max_abs_err <= 1e-6
        # auto-domain grew the box for the kappa = 0.5 state but kept h
        assert rep.grid.L > rep.base_grid.L
        assert rep.grid.h == pytest.approx(rep.base_grid.h, rel=1e-3)

    def test_deterministic(self):
        a = verify_spectrum(SusyParams(2.5, 3.2, 0, 1))
        b = verify_spectrum(SusyParams(2.5, 3.2, 0, 1))
        assert a == b

    def test_no_auto_domain_fails_loudly(self):
        with pytest.raises(DomainTooSmall):
            verify_spectrum(
                SusyParams(2.5, 3.2, 0, 1), Grid(L=8.0, N=2500), auto_domain=False
            )

    def test_degenerate_well_each_level_once(self):
        rep = verify_spectrum(SusyParams(2, 2.5, 0, 1))
        assert rep.passed
        assert [m.analytic.multiplicity for m in rep.matches] == [2, 2]
        assert rep.max_abs_err <= 1e-6

    def test_tight_match_tolerance_fails_honestly(self):
        rep = verify_spectrum(SusyParams(2.5, 3.2, 0, 1), tol_match=1e-14)
        assert not rep.passed


def test_verify_solve_count_is_bounded(monkeypatch):
    # the census hands the fine grid one shift per level, so a broken
    # well with five levels needs a few dozen solves, not hundreds; each
    # grid is discretized once, each shift polished once on the box
    # grid, and each returned state solved once more on the h/2 grid
    grids, solves, returned = [], [], []
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
        states = originals["bound_spectrum"](*args, **kwargs)
        returned.extend(states)
        return states

    monkeypatch.setattr(numerics, "discretize", discretize_counting)
    monkeypatch.setattr(numerics, "eigen_near", eigen_counting)
    monkeypatch.setattr(numerics, "bound_spectrum", bound_counting)
    rep = verify_spectrum(SusyParams(2, 3, 1, 1))
    assert rep.passed
    assert grids == [rep.grid, rep.grid.refined()]
    box = [shift for grid, shift in solves if grid == rep.grid]
    fine = [shift for grid, shift in solves if grid == rep.grid.refined()]
    assert len(box) + len(fine) == len(solves)
    assert len(set(box)) == len(box)
    assert fine == [r.energy for r in returned]
    assert len(solves) <= 50


def test_default_grid_scales_with_range():
    g1 = default_grid(1.0)
    g2 = default_grid(2.0)
    assert g1.L == 12.0 and g2.L == 6.0
    assert g1.N == g2.N == 4000
