"""Closed-form algebra: coefficient formulas, PT constraint, exchange."""

import math
import warnings

import numpy as np
import pytest

from pcs_spectra import (
    BranchSign,
    ComplexSusyParams,
    PcsPhysicalParams,
    PotentialCoefficients,
    NoRealFactorization,
    Superpotential,
    SusyParams,
    complexify,
    dual_superpotentials,
    exchange_map,
    partner_potentials,
    pcs_partner_coefficients,
    physical_to_susy,
    pt_constraint_check,
    susy_to_physical,
)

PLUS, MINUS = BranchSign.PLUS, BranchSign.MINUS


def random_params(rng, c_zero=False):
    A, B = rng.uniform(0.5, 3.5, 2)
    C = 0.0 if c_zero else rng.uniform(-1.5, 1.5)
    alpha = rng.uniform(0.5, 2.0)
    return SusyParams(A=A, B=B, C=C, alpha=alpha)


class TestValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            SusyParams(1, 1, 0, 0.0)
        with pytest.raises(ValueError):
            SusyParams(1, 1, 0, -2.0)
        with pytest.raises(ValueError):
            PcsPhysicalParams(1, 1, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SusyParams(math.nan, 1, 0, 1)
        with pytest.raises(ValueError):
            PotentialCoefficients(complex(math.inf, 0), 0, 0, 1)

    def test_branch_parsing(self):
        assert BranchSign.from_string("plus") is PLUS
        assert BranchSign.from_string("MINUS") is MINUS
        with pytest.raises(ValueError):
            BranchSign.from_string("both")


def test_far_tail_evaluates_silently():
    # cosh overflows past |alpha x| ~ 710; sech is then exactly 0.0,
    # with no RuntimeWarning
    v = pcs_partner_coefficients(SusyParams(0.02, 3, 0, 1), PLUS)
    x = np.array([-1050.0, -711.0, 0.0, 711.0, 1050.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = v.evaluate(x, include_offset=False)
    assert values[0] == values[1] == values[3] == values[4] == 0.0
    assert values[2] == v.t2


class TestPartnerPotentials:
    def test_coefficients_match_pointwise_definition(self):
        # V_-/+ = W^2 -/+ W' evaluated directly must equal the closed
        # coefficient forms on a grid, for complex (lam, mu)
        rng = np.random.default_rng(101)
        x = np.linspace(-8.0, 8.0, 401)
        for _ in range(50):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            mu = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            alpha = rng.uniform(0.5, 2.0)
            w = Superpotential(lam=lam, mu=mu, alpha=alpha, factorization_energy=-lam * lam)
            wx = w.evaluate(x)
            dwx = w.evaluate_derivative(x)
            vm, vp = partner_potentials(w)
            assert np.allclose(vm.evaluate(x), wx * wx - dwx, atol=1e-12)
            assert np.allclose(vp.evaluate(x), wx * wx + dwx, atol=1e-12)

    def test_derivative_is_consistent_with_evaluate(self):
        w = Superpotential(lam=1.5 + 0.5j, mu=2 - 1j, alpha=1.3, factorization_energy=0)
        x = np.linspace(-3, 3, 31)
        h = 1e-6
        fd = (w.evaluate(x + h) - w.evaluate(x - h)) / (2 * h)
        assert np.allclose(fd, w.evaluate_derivative(x), atol=1e-7)

    def test_pcs_coefficients_real_case(self):
        v = pcs_partner_coefficients(SusyParams(2, 3, 0, 1), PLUS)
        assert v.t2 == -15 + 0j
        assert v.st == 15j
        assert v.e0 == 4 + 0j

    def test_pcs_coefficients_broken_case_both_branches(self):
        p = SusyParams(2, 3, 0.5, 1)
        vp = pcs_partner_coefficients(p, PLUS)
        vm = pcs_partner_coefficients(p, MINUS)
        assert vp.t2 == pytest.approx(-14.5 + 0.5j)
        assert vp.st == pytest.approx(-0.5 + 15.5j)
        assert vp.e0 == pytest.approx(3.75 + 2j)
        # the branches are PT images: t2, e0 conjugate; st -> -conj
        assert vm.t2 == vp.t2.conjugate()
        assert vm.st == -vp.st.conjugate()
        assert vm.e0 == vp.e0.conjugate()

    def test_split_form_agrees_with_superpotential_route(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_params(rng)
            for br in (PLUS, MINUS):
                v = pcs_partner_coefficients(p, br)
                w, _ = dual_superpotentials(p, br)
                vm = partner_potentials(w)[0]
                scale = max(1.0, abs(vm.t2), abs(vm.st), abs(vm.e0))
                assert abs(v.t2 - vm.t2) <= 1e-13 * scale
                assert abs(v.st - vm.st) <= 1e-13 * scale
                assert abs(v.e0 - vm.e0) <= 1e-13 * scale

    def test_branch_swap_is_pt_image(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_params(rng)
            vp = pcs_partner_coefficients(p, PLUS)
            vm = pcs_partner_coefficients(p, MINUS)
            img = vp.pt_image()
            assert vm.t2 == img.t2 and vm.st == img.st and vm.e0 == img.e0


class TestPtConstraint:
    def test_c_zero_is_pt_symmetric(self):
        rep = pt_constraint_check(SusyParams(2, 3, 0, 1))
        assert rep.pt_symmetric and rep.constraint_residual == 0.0
        assert not rep.degenerate_branch

    def test_generic_c_breaks_pt(self):
        rep = pt_constraint_check(SusyParams(2, 3, 0.5, 1))
        assert not rep.pt_symmetric
        assert rep.constraint_residual == pytest.approx(0.5)

    def test_degenerate_branch_flagged(self):
        # A = B - alpha/2 kills the defect with C != 0
        rep = pt_constraint_check(SusyParams(2, 2.5, 0.7, 1))
        assert rep.pt_symmetric and rep.degenerate_branch

    def test_predicate_equivalence_with_coefficient_reality(self):
        # parameter-level test and coefficient-level test must be the
        # same decision, including exactly on the degenerate family
        rng = np.random.default_rng(9)
        cases = [random_params(rng) for _ in range(300)]
        cases += [random_params(rng, c_zero=True) for _ in range(100)]
        cases += [
            SusyParams(b - 0.5 * a, b, c, a)
            for b, c, a in zip(
                rng.uniform(1, 3, 50), rng.uniform(0.2, 2, 50), rng.uniform(0.5, 2, 50)
            )
        ]
        for p in cases:
            want = pt_constraint_check(p).pt_symmetric
            for br in (PLUS, MINUS):
                assert pcs_partner_coefficients(p, br).is_pt_symmetric() == want

    def test_pt_image_fixed_point_iff_symmetric(self):
        v = pcs_partner_coefficients(SusyParams(2, 3, 0, 1), PLUS)
        img = v.pt_image()
        assert img.t2 == v.t2 and img.st == v.st and img.e0 == v.e0


class TestExchange:
    def test_worked_example(self):
        q = exchange_map(SusyParams(2, 3.2, 0, 1))
        assert (q.A, q.B) == (2.7, 2.5)
        v = pcs_partner_coefficients(q, PLUS)
        assert v.t2 == pytest.approx(-16.24)
        assert v.st == pytest.approx(16j)

    def test_involution_exact_on_dyadic_parameters(self):
        # parameters on a 2^-20 lattice make the half-step shifts exact
        rng = np.random.default_rng(11)
        scale = 2.0**-20
        for _ in range(200):
            A = float(rng.integers(1, 4 * 2**20)) * scale
            B = float(rng.integers(1, 4 * 2**20)) * scale
            C = float(rng.integers(-2 * 2**20, 2 * 2**20)) * scale
            alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            p = SusyParams(A, B, C, alpha)
            assert exchange_map(exchange_map(p)) == p
            cp = complexify(p, PLUS)
            back = exchange_map(exchange_map(cp))
            assert back.calA == cp.calA and back.calB == cp.calB

    def test_involution_within_rounding_generally(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = random_params(rng)
            q = exchange_map(exchange_map(p))
            assert abs(q.A - p.A) <= 4 * np.finfo(float).eps * max(1, abs(p.A))
            assert abs(q.B - p.B) <= 4 * np.finfo(float).eps * max(1, abs(p.B))

    def test_profile_invariance_under_exchange(self):
        # both factorizations of the same well: (t2, st) agree, only the
        # constant moves
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = random_params(rng)
            br = PLUS if rng.random() < 0.5 else MINUS
            w, wx = dual_superpotentials(p, br)
            v1 = partner_potentials(w)[0]
            v2 = partner_potentials(wx)[0]
            assert abs(v1.t2 - v2.t2) <= 1e-14 * max(1.0, abs(v1.t2))
            assert abs(v1.st - v2.st) <= 1e-14 * max(1.0, abs(v1.st))

    def test_exchange_map_rejects_other_types(self):
        with pytest.raises(TypeError):
            exchange_map((2.0, 3.0))


class TestDualSuperpotentials:
    def test_real_case_factorization_energies(self):
        w, wx = dual_superpotentials(SusyParams(2, 3, 0, 1))
        assert w.factorization_energy == -4 + 0j or w.factorization_energy == -4 - 0j
        assert abs(w.factorization_energy.imag) == 0.0
        assert wx.factorization_energy == pytest.approx(-6.25)
        assert (w.lam, w.mu) == (2 + 0j, 3 - 0j)
        assert (wx.lam, wx.mu) == (2.5 - 0j, 2.5 + 0j)

    def test_broken_case_factorization_energies(self):
        w, wx = dual_superpotentials(SusyParams(2, 3, 0.5, 1), PLUS)
        assert w.factorization_energy == pytest.approx(-3.75 - 2j)
        assert wx.factorization_energy == pytest.approx(-6 + 2.5j)

    def test_accepts_complexified_pair(self):
        cp = ComplexSusyParams(calA=2 + 0.5j, calB=3 - 0.5j, alpha=1.0)
        w, _ = dual_superpotentials(cp)
        assert w.lam == 2 + 0.5j

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            dual_superpotentials("not params")


class TestPhysicalMap:
    def test_susy_to_physical_example(self):
        phys = susy_to_physical(SusyParams(2, 3.2, 0, 1))
        assert phys.V1 == pytest.approx(16.24)
        assert phys.V2 == pytest.approx(-16.0)

    def test_susy_to_physical_requires_c_zero(self):
        with pytest.raises(ValueError):
            susy_to_physical(SusyParams(2, 3, 0.5, 1))

    def test_physical_to_susy_recovers_both_assignments(self):
        got = physical_to_susy(PcsPhysicalParams(16.24, -16.0, 1.0))
        assert len(got) == 2
        assert got[0].A == pytest.approx(2.0) and got[0].B == pytest.approx(3.2)
        assert got[1].A == pytest.approx(2.7) and got[1].B == pytest.approx(2.5)
        # and they are each other's exchange image
        q = exchange_map(got[0])
        assert q.A == pytest.approx(got[1].A) and q.B == pytest.approx(got[1].B)

    def test_physical_roundtrip_random(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = random_params(rng, c_zero=True)
            cands = physical_to_susy(susy_to_physical(p))
            best = min(abs(q.A - p.A) + abs(q.B - p.B) for q in cands)
            assert best <= 1e-9

    def test_no_real_factorization(self):
        # V2 too strong for V1: complex quadratic roots
        with pytest.raises(NoRealFactorization):
            physical_to_susy(PcsPhysicalParams(0.0, 10.0, 1.0))

    def test_double_root_listed_once(self):
        # V1 + alpha^2/4 = 2t, V2^2/4 = t^2 makes both roots equal
        phys = PcsPhysicalParams(V1=2 - 0.25, V2=-2.0, alpha=1.0)
        got = physical_to_susy(phys)
        assert len(got) == 1
        back = susy_to_physical(got[0])
        assert back.V1 == pytest.approx(phys.V1) and back.V2 == pytest.approx(phys.V2)
