"""Known answers for the benchmark, computed here and not by the library.

Every check returns a list of problems; an empty list means the output
is correct. A check never raises on a wrong answer, so the caller can
count the failure against ok_frac and name the case.

The closed forms used here are the physics of the well, written out
independently of pcs_spectra:

* series1 levels are -(A + isC - n alpha)^2 and series2 levels are
  -(B - alpha/2 - isC - n alpha)^2, for n = 0, 1, ... while the real
  part of the bracket stays positive (s is the branch sign);
* the profile of V_minus is t2 sech^2 + st sech tanh with
  t2 = -[A^2 + B^2 - 2C^2 + alpha A + is(2A - 2B + alpha)C] and
  st = s(2A - 2B + alpha)C + i(2AB + 2C^2 + alpha B);
* sl(2) labels (m, b) realize the profile t2 = b^2 + alpha^2 (1/4 - m^2),
  st = -2 alpha m b.
"""

from __future__ import annotations

import hashlib
import json

# closed-form energies agree with the library to rounding; this only
# absorbs the different order of the float operations
ENERGY_TOL = 1e-9
# two towers predicting the same energy mark a defective level
MERGE_TOL = 1e-9
SL2_RESIDUAL_TOL = 1e-10
CONJUGACY_TOL = 1e-6
# an exceptional-point level splits on the square-root scale of the
# h^2 perturbation; both halves of the pair must sit this close to it
EP_PAIR_RADIUS = 5e-2
# below this the pair would have been merged as a single state
EP_PAIR_MIN_SPLIT = 1e-6


def sign(branch: str) -> float:
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be plus or minus, got {branch!r}")
    return 1.0 if branch == "plus" else -1.0


def towers(A, B, C, alpha, branch) -> list[tuple[str, int, complex]]:
    """(series, n, energy) of both closed-form towers, series1 first."""
    s = sign(branch)
    out = []
    for label, lam in (
        ("series1", complex(A, s * C)),
        ("series2", complex(B - 0.5 * alpha, -s * C)),
    ):
        n = 0
        while lam.real - n * alpha > 0.0:
            out.append((label, n, -((lam - n * alpha) ** 2)))
            n += 1
    return out


def _key(e: complex):
    return (e.real, e.imag)


def merged_levels(A, B, C, alpha, branch) -> list[tuple[complex, int]]:
    """Distinct tower energies with their multiplicity, sorted."""
    energies = sorted((e for _, _, e in towers(A, B, C, alpha, branch)), key=_key)
    merged: list[list] = []
    for e in energies:
        if merged and abs(merged[-1][0] - e) <= MERGE_TOL:
            merged[-1][1] += 1
        else:
            merged.append([e, 1])
    return [(e, k) for e, k in merged]


def kappa_min(A, B, alpha) -> float | None:
    """Slowest decay rate Re sqrt(-E) over both towers (None: no levels).

    A level -(lam)^2 with Re lam > 0 decays as exp(-Re lam |x|), and
    Re lam does not depend on C or on the branch.
    """
    rates = [
        lam - n * alpha
        for lam in (A, B - 0.5 * alpha)
        for n in range(int(lam // alpha) + 2)
        if lam - n * alpha > 0.0
    ]
    return min(rates) if rates else None


def profile(A, B, C, alpha, branch) -> tuple[complex, complex]:
    """(t2, st) of V_minus on one branch."""
    s = sign(branch)
    defect = (2.0 * (A - B) + alpha) * C
    t2 = -complex(A * A + B * B - 2.0 * C * C + alpha * A, s * defect)
    st = complex(s * defect, 2.0 * A * B + 2.0 * C * C + alpha * B)
    return t2, st


def _z(d) -> complex:
    return complex(d["re"], d["im"])


def _same_energies(got, want, what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} energies, expected {len(want)}"]
    got = sorted(got, key=_key)
    want = sorted(want, key=_key)
    for g, w in zip(got, want):
        if abs(g - w) > ENERGY_TOL:
            return [f"{what}: energy {g} differs from closed form {w}"]
    return []


# ---------------------------------------------------------------- closed form


def check_spectrum(data, A, B, C, alpha, branch) -> list[str]:
    problems = []
    want = towers(A, B, C, alpha, branch)
    for series in data["series"]:
        label = series["label"]
        got = [_z(e) for e in series["energies"]]
        exp = [e for lab, _, e in want if lab == label]
        problems += _same_energies(got, exp, label)
    return problems


def check_profile(coeffs, A, B, C, alpha, branch) -> list[str]:
    t2, st = profile(A, B, C, alpha, branch)
    err = max(abs(_z(coeffs["t2"]) - t2), abs(_z(coeffs["st"]) - st))
    if err > ENERGY_TOL:
        return [f"profile coefficients off the closed form by {err:.3e}"]
    return []


def check_analyze(data, A, B, C, alpha, branch) -> list[str]:
    return check_profile(data["coefficients"], A, B, C, alpha, branch)


def check_exchange(data, A, B, C, alpha, branch) -> list[str]:
    problems = []
    image = data["image"]
    want = (B - 0.5 * alpha, A + 0.5 * alpha)
    if abs(image["A"] - want[0]) > ENERGY_TOL or abs(image["B"] - want[1]) > ENERGY_TOL:
        problems.append(f"exchange image {image} is not (B - alpha/2, A + alpha/2)")
    for side in ("original", "exchanged"):
        problems += check_profile(data["coefficients"][side], A, B, C, alpha, branch)
    return problems


def check_sl2(data, A, B, C, alpha, branch) -> list[str]:
    sols = data["solutions"]
    if not 1 <= len(sols) <= 2:
        return [f"sl2 returned {len(sols)} label pairs, expected 1 or 2"]
    t2, st = profile(A, B, C, alpha, branch)
    problems = []
    for sol in sols:
        m, b = _z(sol["m"]), _z(sol["b"])
        r = max(
            abs(b * b + alpha * alpha * (0.25 - m * m) - t2),
            abs(-2.0 * alpha * m * b - st),
        )
        if not r <= SL2_RESIDUAL_TOL:
            problems.append(f"sl2 pair (m={m}, b={b}) misses the profile by {r:.3e}")
    return problems


def check_bifurcation_points(data, A, B, alpha) -> list[str]:
    problems = []
    for pt in data["points"]:
        c = pt["C"]
        for branch, key in (("plus", "energies_plus"), ("minus", "energies_minus")):
            want = [e for _, _, e in towers(A, B, c, alpha, branch)]
            problems += _same_energies([_z(e) for e in pt[key]], want, f"C={c} {branch}")
        if problems:
            break
    return problems


def check_bifurcation(data, A, B, C, alpha, branch) -> list[str]:
    return check_bifurcation_points(data, A, B, alpha)


CLOSED_FORM_CHECKS = {
    "analyze": check_analyze,
    "spectrum": check_spectrum,
    "sl2": check_sl2,
    "exchange": check_exchange,
    "bifurcation": check_bifurcation,
}


# ------------------------------------------------------- seed-output equality


def key_schema(obj):
    """Union of dict keys at each nesting level (lists share one node)."""
    if isinstance(obj, dict):
        return {k: key_schema(v) for k, v in obj.items()}
    if isinstance(obj, list):
        node: dict = {}
        for item in obj:
            merge_schema(node, key_schema(item))
        return [node]
    return None


def merge_schema(into: dict, other) -> None:
    if not isinstance(other, dict):
        return
    for k, v in other.items():
        if isinstance(v, list):
            slot = into.setdefault(k, [{}])
            merge_schema(slot[0], v[0])
        elif isinstance(v, dict):
            slot = into.setdefault(k, {})
            if isinstance(slot, dict):
                merge_schema(slot, v)
        else:
            into.setdefault(k, None)


def project(obj, schema):
    """obj restricted to the keys the seed emitted; added keys drop out."""
    if isinstance(obj, dict) and isinstance(schema, dict):
        return {k: project(v, schema[k]) for k, v in obj.items() if k in schema}
    if isinstance(obj, list) and isinstance(schema, list):
        return [project(v, schema[0]) for v in obj]
    return obj


def digest(data, schema) -> str:
    """Stable hash of a report, ignoring schema_version and added keys."""
    body = project(data, schema)
    if isinstance(body, dict):
        body.pop("schema_version", None)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# --------------------------------------------------------------------- verify


def check_verify_payload(payload, A, B, C, alpha, branch) -> list[str]:
    """PASS, one match per merged level, every error within tol_match."""
    problems = []
    tol_match = payload["tol_match"]
    if payload["passed"] is not True:
        problems.append("verify did not PASS")
    levels = merged_levels(A, B, C, alpha, branch)
    matches = payload["matches"]
    if len(matches) != len(levels):
        problems.append(f"{len(matches)} matches for {len(levels)} merged levels")
    else:
        got = sorted(matches, key=lambda m: _key(_z(m["analytic"])))
        for m, (e, _) in zip(got, levels):
            analytic = _z(m["analytic"])
            if abs(analytic - e) > ENERGY_TOL:
                problems.append(f"matched level {analytic} is not the closed form {e}")
                break
            err = abs(_z(m["numeric"]) - e)
            if not err <= tol_match:
                problems.append(f"numeric {_z(m['numeric'])} misses {e} by {err:.3e}")
                break
    if not payload["max_abs_err"] <= tol_match:
        problems.append(f"max_abs_err {payload['max_abs_err']:.3e} > tol_match {tol_match}")
    if payload["unmatched_analytic"] or payload["unmatched_numeric"]:
        problems.append("verify left unmatched levels")
    return problems


def check_verify_at(data, A, B, alpha) -> list[str]:
    """bifurcation --verify-at: both branches certified and conjugate."""
    problems = check_bifurcation_points(data, A, B, alpha)
    checks = data.get("verifications") or []
    if not checks:
        return problems + ["bifurcation report has no verifications"]
    for check in checks:
        c = check["C"]
        for branch in ("plus", "minus"):
            problems += [
                f"C={c} {branch}: {p}"
                for p in check_verify_payload(check[branch], A, B, c, alpha, branch)
            ]
        conj = check["numeric_conjugacy_err"]
        if conj is None or not conj <= CONJUGACY_TOL:
            problems.append(f"C={c}: numeric_conjugacy_err {conj} > {CONJUGACY_TOL}")
    return problems


def check_exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


# ----------------------------------------------------------------- blind scan


def blind_tolerance(energy: complex, h: float, v_max: float) -> float:
    """Allowed raw (unrefined) discretization error of one level.

    Central differences shift a level by about (h^2 / 12) <(V - E)^2>,
    which is at most (h^2 / 12) (max |V| + |E|)^2.
    """
    return h * h / 12.0 * (v_max + abs(energy)) ** 2


def check_blind(energies, levels, h: float, v_max: float) -> list[str]:
    """Blind-scan energies against the Re E < 0 closed-form levels.

    levels holds (energy, multiplicity) and v_max bounds |V| on the
    grid. A simple level takes exactly one numeric state within
    blind_tolerance; a defective level of multiplicity two takes a split
    pair within EP_PAIR_RADIUS whose halves differ by more than
    EP_PAIR_MIN_SPLIT and whose mean sits within blind_tolerance. A
    level whose real part is within blind_tolerance of the threshold may
    land on either side of it, so it may be missing but takes at most
    its multiplicity. Nothing numeric may be left over.
    """
    problems = []
    free = sorted(energies, key=_key)
    for e, mult in levels:
        tol = blind_tolerance(e, h, v_max)
        if e.real >= tol:
            continue
        radius = tol if mult == 1 else EP_PAIR_RADIUS
        near = [z for z in free if abs(z - e) <= radius]
        optional = abs(e.real) < tol
        if len(near) > mult or (len(near) < mult and not (optional and not near)):
            problems.append(f"level {e} (x{mult}) took {len(near)} numeric states")
            continue
        if mult > 1 and near:
            split = max(abs(a - b) for a in near for b in near)
            mean = sum(near) / len(near)
            if split <= EP_PAIR_MIN_SPLIT:
                problems.append(f"exceptional level {e} was not seen as a split pair")
            elif abs(mean - e) > tol:
                problems.append(f"split pair around {e} has mean {mean}")
        for z in near:
            free.remove(z)
    if free:
        problems.append(f"unpredicted states {free}")
    return problems
