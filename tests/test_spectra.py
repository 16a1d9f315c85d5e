"""Level towers: shape-invariance ladder, dual series, bifurcation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcs_spectra import (
    BranchSign,
    LadderExhausted,
    Superpotential,
    SusyParams,
    TowerTooLong,
    bifurcation_scan,
    broken_spectrum,
    dual_superpotentials,
    energy_sort_key,
    partner_potentials,
    shape_invariance_step,
    spectra,
    two_series_spectrum,
)

PLUS, MINUS = BranchSign.PLUS, BranchSign.MINUS


def test_two_series_worked_well():
    s1, s2 = two_series_spectrum(SusyParams(2.5, 3.2, 0, 1))
    assert np.allclose(s1.energies, [-6.25, -2.25, -0.25], atol=1e-12)
    assert np.allclose(s2.energies, [-7.29, -2.89, -0.49], atol=1e-12)
    assert s1.label == "series1" and s2.label == "series2"
    assert s1.factorization_energy == s1.energies[0]
    assert s2.factorization_energy == s2.energies[0]


def test_series_formula_random():
    # E_n = -(lam0 - n alpha)^2 while Re(lam) stays positive
    rng = np.random.default_rng(21)
    for _ in range(100):
        A, B = rng.uniform(0.3, 4.0, 2)
        alpha = rng.uniform(0.5, 2.0)
        p = SusyParams(A, B, 0.0, alpha)
        s1, s2 = two_series_spectrum(p)
        lam1, lam2 = A, B - alpha / 2
        for lam0, s in ((lam1, s1), (lam2, s2)):
            want = []
            lam = lam0
            while lam > 0:
                want.append(-(lam**2))
                if lam < alpha:
                    break
                lam -= alpha
            assert len(s.energies) == len(want)
            assert np.allclose(s.energies, want, atol=1e-10)


def stepped_tower(w):
    """-lam_n^2 of each rung, by shape_invariance_step."""
    energies = []
    while w.lam.real > 0.0:
        energies.append(w.factorization_energy)
        try:
            w, _ = shape_invariance_step(w)
        except LadderExhausted:
            break
    return energies


def bits(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(z.real.hex(), z.imag.hex()) for z in np.ravel(values)]


@st.composite
def scaled_wells(draw):
    # criterion 5's box, with every parameter scaled by one power of ten
    # up to 1e150; the tower lengths stay those of the box
    scale = 10.0 ** draw(st.integers(-150, 150))
    A, B = draw(st.floats(0.5, 3.5)), draw(st.floats(0.5, 3.5))
    C, alpha = draw(st.floats(-1.5, 1.5)), draw(st.floats(0.5, 2.0))
    return SusyParams(A * scale, B * scale, C * scale, alpha * scale)


@settings(max_examples=200)
@given(scaled_wells(), st.sampled_from([PLUS, MINUS]))
@example(SusyParams(2.5, 3.2, 0, 1), PLUS)
@example(SusyParams(2, 3, 0.5, 1), MINUS)
@example(SusyParams(2e150, 3e150, 1e150, 1e150), PLUS)
def test_ladder_bitwise_equals_stepped_superpotentials(p, branch):
    for s, w in zip(two_series_spectrum(p, branch), dual_superpotentials(p, branch)):
        assert bits(s.energies) == bits(stepped_tower(w))


@pytest.mark.parametrize("branch", [PLUS, MINUS])
def test_first_rung_overflow_raises(branch):
    with pytest.raises(ValueError, match="must be finite"):
        two_series_spectrum(SusyParams(2e160, 3e160, 0.5e160, 1e160), branch)


def test_level_budget():
    # the deep well's longest tower, and a tower exactly at the budget
    _, s2 = two_series_spectrum(SusyParams(50, 55, 0, 1))
    assert len(s2.energies) == 55
    s1, _ = two_series_spectrum(SusyParams(10_000, 3, 0, 1))
    assert len(s1.energies) == 10_000
    with pytest.raises(TowerTooLong, match="series1 would hold 10001 levels"):
        two_series_spectrum(SusyParams(10_000.5, 3, 0, 1))
    with pytest.raises(TowerTooLong, match="series2 would hold 100000000000000000 levels"):
        two_series_spectrum(SusyParams(2, 1e17, 0, 1))


def test_series_empty_when_no_bound_state():
    s1, s2 = two_series_spectrum(SusyParams(-0.5, 0.2, 0, 1))
    assert s1.is_empty
    # second tower: lam0 = 0.2 - 0.5 < 0, also empty
    assert s2.is_empty


def test_shape_invariance_step_shift():
    w, _ = dual_superpotentials(SusyParams(2.5, 3.2, 0, 1))
    w_next, shift = shape_invariance_step(w)
    assert w_next.lam == pytest.approx(1.5)
    assert w_next.mu == w.mu
    assert shift == pytest.approx(2.5**2 - 1.5**2)


def test_shape_invariance_partner_identity():
    # V_+(lam, mu) and V_-(lam - alpha, mu) differ by a constant only
    rng = np.random.default_rng(22)
    x = np.linspace(-10, 10, 2001)
    for _ in range(50):
        alpha = rng.uniform(0.5, 2.0)
        # keep Re(lam) > alpha so the rung below exists and the step
        # does not raise
        lam = complex(alpha + rng.uniform(0.1, 2.0), rng.uniform(-1, 1))
        mu = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        w = Superpotential(lam=lam, mu=mu, alpha=alpha, factorization_energy=-lam * lam)
        w_next, shift = shape_invariance_step(w)
        vplus = partner_potentials(w)[1]
        vminus_next = partner_potentials(w_next)[0]
        diff = vplus.evaluate(x) - vminus_next.evaluate(x)
        assert np.max(np.abs(diff - diff[0])) <= 1e-12
        assert diff[0] == pytest.approx(shift, abs=1e-12)


def test_ladder_exhausts_below_alpha():
    w, _ = dual_superpotentials(SusyParams(0.7, 0.2, 0, 1))
    with pytest.raises(LadderExhausted):
        shape_invariance_step(w)


@settings(max_examples=200)
@given(
    st.builds(
        SusyParams,
        st.floats(0.5, 3.5),
        st.floats(0.5, 3.5),
        st.floats(-1.5, 1.5).filter(lambda c: c != 0.0),
        st.floats(0.5, 2.0),
    )
)
@example(SusyParams(2, 3, 0.5, 1))
def test_broken_spectrum_conjugate_pairs_bitwise(p):
    spec = broken_spectrum(p)
    # the same point the scan builds at this C
    assert spec == bifurcation_scan(p, [p.C])[0]
    for sp, sm in zip(spec.plus, spec.minus):
        assert len(sp.energies) == len(sm.energies)
        for ep, em in zip(sp.energies, sm.energies):
            assert em == ep.conjugate()


def test_broken_spectrum_worked_levels():
    spec = broken_spectrum(SusyParams(2, 3, 1.0, 1))
    merged = sorted(
        [e for s in spec.plus for e in s.energies], key=lambda e: (e.real, e.imag)
    )
    want = [-5.25 + 5j, -3 - 4j, -1.25 + 3j, 0 - 2j, 0.75 + 1j]
    want.sort(key=lambda e: (e.real, e.imag))
    assert np.allclose(merged, want, atol=1e-12)


def test_broken_spectrum_c_is_float():
    spec = broken_spectrum(SusyParams(2, 3, 1, 1))
    assert type(spec.C) is float and spec.C == 1.0


def test_broken_spectrum_rejects_c_zero():
    with pytest.raises(ValueError):
        broken_spectrum(SusyParams(2, 3, 0, 1))


def test_excited_level_broken_case():
    s1, _ = two_series_spectrum(SusyParams(2, 3, 0.5, 1), PLUS)
    assert s1.energies[1] == pytest.approx(-0.75 - 1j)


def test_bifurcation_scan_shape_and_order():
    p0 = SusyParams(2, 3, 0, 1)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    pts = bifurcation_scan(p0, grid)
    assert [pt.C for pt in pts] == grid
    # C = 0: the two branches are literally the same spectrum
    assert pts[0].energies_plus == pts[0].energies_minus
    # C > 0: conjugate partners, none real
    for pt in pts[1:]:
        assert all(abs(e.imag) > 0 for e in pt.energies_plus)
        # each branch's levels are its towers' in energy_sort_key order
        for towers, energies in ((pt.plus, pt.energies_plus), (pt.minus, pt.energies_minus)):
            merged = towers[0].energies + towers[1].energies
            assert energies == tuple(sorted(merged, key=energy_sort_key))
        conj = sorted((e.conjugate() for e in pt.energies_minus), key=lambda e: (e.real, e.imag))
        plus = sorted(pt.energies_plus, key=lambda e: (e.real, e.imag))
        assert max(abs(a - b) for a, b in zip(plus, conj)) == 0.0


def test_bifurcation_scan_respects_base_params():
    p0 = SusyParams(2, 3, 0.9, 1)  # C of the base params is ignored per point
    pts = bifurcation_scan(p0, [0.0])
    q = dataclasses.replace(p0, C=0.0)
    s1, s2 = two_series_spectrum(q, PLUS)
    want = tuple(sorted(s1.energies + s2.energies, key=lambda e: (e.real, e.imag)))
    assert pts[0].energies_plus == want


def object_scan(p0, c_grid):
    """The sweep through the public objects, one replace(p0, C=c) per point."""
    points = []
    for c in c_grid:
        q = dataclasses.replace(p0, C=float(c))
        plus = two_series_spectrum(q, PLUS)
        minus = plus if q.C == 0.0 else two_series_spectrum(q, MINUS)
        points.append((q.C, plus, minus))
    return points


def tower_bits(towers):
    return [
        (s.label, bits(s.energies), bits([s.factorization_energy])) for s in towers
    ]


@st.composite
def scaled_sweeps(draw):
    # criterion 5's box scaled by 10^k, and a C grid on the same scale
    # that may hold both signed zeros
    scale = 10.0 ** draw(st.integers(-150, 150))
    A, B = draw(st.floats(0.5, 3.5)), draw(st.floats(0.5, 3.5))
    C, alpha = draw(st.floats(-1.5, 1.5)), draw(st.floats(0.5, 2.0))
    cs = st.floats(-1.5, 1.5) | st.sampled_from([0.0, -0.0])
    grid = [c * scale for c in draw(st.lists(cs, min_size=1, max_size=6))]
    return SusyParams(A * scale, B * scale, C * scale, alpha * scale), grid


@settings(max_examples=200)
@given(scaled_sweeps())
@example((SusyParams(2, 3, 0, 1), [0, 1, 0.5, -0.0, 0.0]))
@example((SusyParams(2e150, 3e150, 1e150, 1e150), [0.0, 1e150, -1.5e150]))
# subnormal C: on series2's last rung, lam = 0.5 -/+ 5e-324j, Re * Im
# underflows to a signed zero
@example((SusyParams(2, 3, 0, 1), [5e-324, -5e-324, 1e-300]))
# the exceptional well, where one branch holds conjugate pairs of its own
@example((SusyParams(2, 2.5, 0, 1), [0.5, -0.5]))
# B - alpha/2 <= 0: series2 is empty on both branches
@example((SusyParams(2, 0.4, 0, 1), [0.3, -0.3, -0.0]))
# alpha != 1 at both ends of the scale
@example((SusyParams(2e-150, 3e-150, 0, 0.75e-150), [1e-150, -0.5e-150, -0.0, 5e-324]))
@example((SusyParams(1.5e150, 2.5e150, 0, 2e150), [0.4e150, -1.2e150, 0.0]))
def test_scan_bitwise_equals_object_path(sweep):
    p0, grid = sweep
    points = bifurcation_scan(p0, grid)
    assert len(points) == len(grid)
    for pt, (c, plus, minus) in zip(points, object_scan(p0, grid)):
        assert type(pt.C) is float and pt.C.hex() == c.hex()
        assert tower_bits(pt.plus) == tower_bits(plus)
        assert tower_bits(pt.minus) == tower_bits(minus)
        if c == 0.0:
            assert pt.minus is pt.plus


def test_scan_walks_only_the_plus_ladders(monkeypatch):
    # two ladders per C, on the plus branch: the minus towers are taken by
    # conjugation, never walked
    walked = []
    walk = spectra._walk_ladder

    def counted(lam, alpha, label):
        walked.append(lam)
        return walk(lam, alpha, label)

    monkeypatch.setattr(spectra, "_walk_ladder", counted)
    grid = [0.25, -0.5, 1.0, 1e-300, -5e-324]
    points = bifurcation_scan(SusyParams(2, 3, 0, 1), grid)
    assert len(walked) == 2 * len(grid)
    assert all(lam.imag == c for lam, c in zip(walked[::2], grid))
    for pt in points:
        for s, t in zip(pt.plus, pt.minus):
            assert bits(t.energies) == bits([e.conjugate() for e in s.energies])


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "p0, grid, error, message",
    [
        (SusyParams(2, 3, 0, 1), [NAN], ValueError, "C must be finite, got nan"),
        (SusyParams(2, 3, 0, 1), [0.5, 1.0, INF], ValueError, "C must be finite, got inf"),
        (SusyParams(2, 3, 0, 1), [0.0, -INF, NAN], ValueError, "C must be finite, got -inf"),
        # the first rung overflows on both branches; plus raises first
        (SusyParams(2e160, 3e160, 0, 1e160), [0.0], ValueError,
         "factorization_energy must be finite"),
        (SusyParams(2e160, 3e160, 0, 1e160), [0.5e160, NAN], ValueError,
         "factorization_energy must be finite"),
        # only w's energy overflows: B - alpha/2 is 0
        (SusyParams(2e160, 5e159, 0, 1e160), [0.0], ValueError,
         "factorization_energy must be finite"),
        # the exchanged pair overflows: B - alpha/2 is -inf
        (SusyParams(2, -1.7e308, 0, 1.7e308), [0.0], ValueError,
         "lam must be finite, got (-inf-0j)"),
        # the level budget, on each tower
        (SusyParams(10_000.5, 3, 0, 1), [0.0], TowerTooLong, "series1 would hold 10001 levels"),
        (SusyParams(2, 1e17, 0, 1), [0.5, NAN], TowerTooLong,
         "series2 would hold 100000000000000000 levels"),
    ],
)
def test_scan_errors_equal_object_path(p0, grid, error, message):
    want = raised(object_scan, p0, grid)
    assert raised(bifurcation_scan, p0, grid) == want
    assert want[0] is error and message in want[1]
