"""Algebraic (m, b) labels versus the factorization coefficients."""

import cmath

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcs_spectra import (
    BranchSign,
    DegenerateB,
    Sl2Params,
    SusyParams,
    build_sl2_potential,
    correspondence_residuals,
    m_square_identities,
    pcs_partner_coefficients,
    solve_correspondence,
    solve_m_given_b,
)

PLUS, MINUS = BranchSign.PLUS, BranchSign.MINUS


def random_params(rng):
    A, B = rng.uniform(0.5, 3.5, 2)
    C = rng.uniform(-1.5, 1.5)
    alpha = rng.uniform(0.5, 2.0)
    return SusyParams(A=A, B=B, C=C, alpha=alpha)


def test_build_sl2_potential_worked_values():
    v = build_sl2_potential(Sl2Params(m=-2.5, b=3j, alpha=1.0))
    assert v.t2 == pytest.approx(-15.0)
    assert v.st == pytest.approx(15j)
    assert v.e0 == 0


def test_worked_pair_recovered():
    # ordered by b^2: the b = 3i orbit sits below the b = 2.5i one
    sols = solve_correspondence(SusyParams(2, 3, 0, 1))
    assert len(sols) == 2
    (m1, b1), (m2, b2) = sols
    assert m1 == pytest.approx(-2.5, abs=1e-10) and b1 == pytest.approx(3j, abs=1e-10)
    assert m2 == pytest.approx(-3.0, abs=1e-10) and b2 == pytest.approx(2.5j, abs=1e-10)


def test_residuals_vanish_on_solutions():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(300):
        p = random_params(rng)
        br = PLUS if rng.random() < 0.5 else MINUS
        for m, b in solve_correspondence(p, br):
            res = correspondence_residuals(Sl2Params(m=m, b=b, alpha=p.alpha), p, br)
            assert res.shape == (4,)
            worst = max(worst, float(np.abs(res).max()))
    assert worst <= 1e-10


def test_solve_m_given_b_matches_strength_condition():
    rng = np.random.default_rng(32)
    for _ in range(200):
        p = random_params(rng)
        br = PLUS if rng.random() < 0.5 else MINUS
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(b) < 0.1:
            continue
        m = solve_m_given_b(b, p, br)
        v = pcs_partner_coefficients(p, br)
        assert -2 * p.alpha * m * b == pytest.approx(v.st, abs=1e-11)


def test_m_square_identities_agree_with_solved_m():
    rng = np.random.default_rng(33)
    for _ in range(300):
        p = random_params(rng)
        br = PLUS if rng.random() < 0.5 else MINUS
        for m, b in solve_correspondence(p, br):
            re_m2, half_im_m2 = m_square_identities(b, p, br)
            m2 = m * m
            assert abs(m2.real - re_m2) <= 1e-10
            assert abs(0.5 * m2.imag - half_im_m2) <= 1e-10


def test_plus_minus_orbit_collapsed():
    # (m, b) and (-m, -b) realize the same well; only one is reported
    sols = solve_correspondence(SusyParams(2, 3, 0, 1))
    for m, b in sols:
        assert not any(
            abs(m + m2) < 1e-9 and abs(b + b2) < 1e-9 for m2, b2 in sols
        )


def _newton_labels(p, branch):
    """Reference route: damped Newton on the m-eliminated condition.

    g(b) = b^2 + alpha^2/4 - st^2 / (4 b^2) - t2 vanishes exactly on the
    matching b; eight starts in the complex b plane, each converged root
    paired with its m from the strength condition.
    """
    target = pcs_partner_coefficients(p, branch)
    t2, st, a = target.t2, target.st, p.alpha
    scale = max(1.0, abs(t2), abs(st), a)

    def g(b):
        return b * b + 0.25 * a * a - st * st / (4.0 * b * b) - t2

    found = []
    for br in (1.0, 3.0):
        for bi in (1.0, -1.0, 3.0, -3.0):
            b = complex(br, bi)
            for _ in range(100):
                if abs(g(b)) <= 1e-12 * scale:
                    found.append((solve_m_given_b(b, p, branch), b))
                    break
                dg = 2.0 * b + st * st / (2.0 * b * b * b)
                if dg == 0:
                    break
                step = g(b) / dg
                # halve the step until |g| does not grow
                lam = 1.0
                for _ in range(8):
                    trial = b - lam * step
                    if trial != 0 and abs(g(trial)) < abs(g(b)):
                        break
                    lam *= 0.5
                b = b - lam * step
                if b == 0:
                    break
    return found


def test_newton_oracle_lands_on_closed_form_orbits():
    # the quadratic in b^2 has at most two roots, so at most two orbits;
    # every root the independent Newton search reaches must be one of them
    rng = np.random.default_rng(34)
    for _ in range(400):
        p = SusyParams(
            rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5),
            rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0),
        )
        for br in (PLUS, MINUS):
            closed = solve_correspondence(p, br)
            assert 1 <= len(closed) <= 2
            newton = _newton_labels(p, br)
            assert newton, f"no Newton start converged for {p} {br}"
            for m, b in newton:
                assert any(
                    max(abs(m - s * cm), abs(b - s * cb)) < 1e-6
                    for cm, cb in closed
                    for s in (1, -1)
                ), (p, br, m, b, closed)


@settings(max_examples=200)
@given(
    st.floats(0.5, 3.5), st.floats(0.5, 3.5), st.floats(-1.5, 1.5), st.floats(0.5, 2.0),
    st.integers(-150, 150), st.sampled_from([PLUS, MINUS]),
)
@example(2.0, 3.0, 0.5, 1.0, -20, PLUS)
@example(2.0, 3.0, 0.5, 1.0, -100, MINUS)
def test_labels_scale_covariant(A, B, C, alpha, k, branch):
    # scaling A, B, C and alpha by s maps each (m, b) to (m, s b). The
    # two b^2 roots lie |A + alpha/2 - B + 2iC| (A + alpha/2 + B) apart,
    # so off the exchange-degenerate family (C = 0, B = A + alpha/2,
    # where they coincide) the rounding of A s cannot merge or split
    # an orbit
    assume(abs(complex(A + 0.5 * alpha - B, 2.0 * C)) > 1e-3)
    s = 10.0**k
    want = solve_correspondence(SusyParams(A, B, C, alpha), branch)
    got = solve_correspondence(SusyParams(A * s, B * s, C * s, alpha * s), branch)
    assert len(got) == len(want)
    for (m, b), (m0, b0) in zip(got, want):
        assert cmath.isclose(m, m0, rel_tol=1e-9, abs_tol=1e-9)
        assert cmath.isclose(b / s, b0, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=200)
@given(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.booleans(),
    st.floats(0.5, 2.0), st.sampled_from([PLUS, MINUS]),
)
@example(2e5, 3e5, 5e4, True, 1.0, PLUS)
@example(-7e5, 3e5, 0.0, False, 1.5, MINUS)
def test_labels_at_rounding_for_large_couplings(a_ratio, b_ratio, c_ratio, c_zero, alpha, branch):
    # couplings up to 1e6 alpha: the closed form alone puts every pair
    # within a few ulp of the profile it realizes (measured worst 4.5)
    C = 0.0 if c_zero else c_ratio * alpha
    p = SusyParams(a_ratio * alpha, b_ratio * alpha, C, alpha)
    try:
        sols = solve_correspondence(p, branch)
    except DegenerateB:
        return
    v = pcs_partner_coefficients(p, branch)
    bound = 16 * np.finfo(float).eps * max(abs(v.t2), abs(v.st), alpha * alpha)
    for m, b in sols:
        res = correspondence_residuals(Sl2Params(m=m, b=b, alpha=alpha), p, branch)
        assert np.abs(res).max() <= bound, (p, branch, m, b, res)


def test_solve_m_rejects_b_zero():
    with pytest.raises(DegenerateB):
        solve_m_given_b(0j, SusyParams(2, 3, 0, 1), PLUS)


def test_degenerate_well_has_no_labels():
    # t2 = alpha^2/4 and st = 0 push every root to b = 0
    with pytest.raises(DegenerateB):
        solve_correspondence(SusyParams(-0.5, 0.0, 0.0, 1.0))


def test_alignment_with_tower_parameters_at_unit_range():
    # at alpha = 1 the |m| values line up with the ladder heads
    # A + 1/2 and B; away from alpha = 1 they do not
    p = SusyParams(2, 3, 0, 1)
    got = sorted(abs(m) for m, _ in solve_correspondence(p))
    assert got[0] == pytest.approx(2.5, abs=1e-10)
    assert got[1] == pytest.approx(3.0, abs=1e-10)
