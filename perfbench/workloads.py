"""The jobs of each workload and the checks on their outputs.

A job returns ``(exit_code, text)``.  CLI jobs call ``h14.cli.main(argv)``
in-process with stdout captured; library jobs call the public functions and
render their results as text.  Every call goes through a module attribute at
call time, so the tracer's wrappers see it.

Each check returns a list of problems (empty when the output is right).  The
checks test invariants and the paper's pinned answers on every seed; the
default seed's outputs are also compared against pinned digests of their
non-``#`` rows (the ``#`` headers are expected to change).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs

OFF3_DIMS = (1, 0, 0, 1, 3, 3, 4, 6, 9, 10, 12, 15, 19)
OFF3_NEW_GENERATORS = {3: 1, **{d: 3 for d in range(4, 13)}}
FP = "Fp:32003"


@dataclass
class Job:
    name: str
    run: Callable[[], tuple]
    check: Callable[[str, dict], list]


def rows_of(text):
    """The report's data rows: every non-empty line not starting with '#'."""
    return [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]


def digest(text) -> str:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def run_cli(h14, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = h14.cli.main(list(argv))
    return code, buf.getvalue()


def parse_poly(text):
    """Terms {exponents: Fraction} of a canonical Laurent text form."""
    if text.strip() == "0":
        return {}
    terms = {}
    for part in text.split(" + "):
        coef, _, mono = part.partition(" * ")
        exps = tuple(int(atom.split("^")[1]) for atom in mono.split())
        terms[exps] = terms.get(exps, 0) + Fraction(coef)
    return {e: c for e, c in terms.items() if c}


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def apply_e(f):
    """Sum of the partial derivatives, on a terms dict."""
    out = {}
    for e, c in f.items():
        for i, x in enumerate(e):
            if x:
                d = list(e)
                d[i] -= 1
                d = tuple(d)
                out[d] = out.get(d, 0) + c * x
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def verify_passes(text, _results=None):
    rows = rows_of(text)
    if not rows or rows[-1] != ["RESULT", "pass"]:
        return [f"last row is {rows[-1] if rows else None}, expected RESULT pass"]
    return []


def intersect_table(text):
    """(dims by degree, new generators by degree, image texts by degree)."""
    rows = rows_of(text)
    dims, newg, images = {}, {}, {}
    for r in rows[1:]:
        if len(r) == 5:
            d, _pis, _cons, dim, new = map(int, r)
            dims[d] = dim
            if new:
                newg[d] = new
        elif len(r) == 2:
            images.setdefault(int(r[0]), []).append(r[1])
    return dims, newg, images


def check_intersect(dmax, dims=None, newg=None, positive_zero=False, same_dims_as=None):
    def check(text, results):
        got_dims, got_newg, images = intersect_table(text)
        problems = []
        if sorted(got_dims) != list(range(dmax + 1)):
            problems.append(f"degrees {sorted(got_dims)} != 0..{dmax}")
        if got_dims.get(0) != 1:
            problems.append("degree 0 must have dimension 1")
        for d, texts in images.items():
            if len(texts) != got_dims.get(d):
                problems.append(f"degree {d}: {len(texts)} images for dim {got_dims.get(d)}")
            for t in texts:
                if any(min(e) < 0 for e in parse_poly(t)):
                    problems.append(f"degree {d}: image is not a polynomial")
                    break
        if dims is not None and tuple(got_dims[d] for d in sorted(got_dims)) != dims:
            problems.append(f"dims {got_dims} != pinned {dims}")
        if newg is not None and got_newg != newg:
            problems.append(f"new generators {got_newg} != pinned {newg}")
        if positive_zero and any(got_dims[d] for d in got_dims if d > 0):
            problems.append(f"positive-degree elements found: {got_dims}")
        if same_dims_as is not None:
            other = results.get(same_dims_as)
            if other is None or intersect_table(other)[0] != got_dims:
                problems.append(f"dims differ from job {same_dims_as}")
        return problems

    return check


def check_verify_rows(**expected):
    """RESULT pass, plus exact values for some named rows."""

    def check(text, _results):
        problems = verify_passes(text)
        rows = {r[0]: r[1:] for r in rows_of(text)}
        for key, value in expected.items():
            if rows.get(key) != value:
                problems.append(f"row {key} = {rows.get(key)}, expected {value}")
        return problems

    return check


def check_l215(text, _results):
    problems = verify_passes(text)
    for r in rows_of(text)[1:]:
        if len(r) == 2 and r[0].isdigit() and int(r[0]) > 0 and r[1] != "0":
            problems.append(f"degree {r[0]} has dimension {r[1]}")
    return problems


def check_scan(text, _results):
    rows = rows_of(text)[1:]
    totals = {3: 4 ** 4, 4: 2 ** 9}
    problems = []
    if len(rows) != 2:
        return [f"expected 2 scan rows, got {len(rows)}"]
    for r in rows:
        n, _bound, total, violations = (int(x) for x in r[:4])
        if violations:
            problems.append(f"n={n}: {violations} implication violations")
        if total != totals.get(n):
            problems.append(f"n={n}: {total} instances, expected {totals.get(n)}")
    return problems


def check_conditions(n, rows):
    value = inputs.star_value(rows) if n == 4 else inputs.starstar_value(rows)
    limit = 1 if n == 4 else Fraction(1, 2)
    want = {"value": str(value), "holds": str(value < limit), "det_T": str(inputs.det_t(rows))}

    def check(text, _results):
        got = {r[0]: r[1] for r in rows_of(text) if len(r) == 2}
        return [f"{k} = {got.get(k)}, expected {v}" for k, v in want.items() if got.get(k) != v]

    return check


def check_hilbert(u):
    def check(text, _results):
        rows = rows_of(text)
        betas = [tuple(int(x) for x in r[1:]) for r in rows if r[0] == "beta"]
        monos = [tuple(parse_poly(r[1]))[0] for r in rows if r[0] == "monomial"]
        images = {b: tuple(sum(b[i] * u[i][j] for i in range(3)) for j in range(3)) for b in betas}
        problems = []
        for b, img in images.items():
            if not any(b) or min(img) < 0:
                problems.append(f"vector {b} is not a nonzero element of the cone")
        basis = set(betas)
        missing = [r for r in inputs.cone_rays(u) if r not in basis]
        if missing:
            problems.append(f"extreme rays {missing} missing from the basis")
        for a in betas:
            for b in betas:
                if tuple(x + y for x, y in zip(a, b)) in basis:
                    problems.append(f"basis vector {a}+{b} is reducible")
        if monos != sorted(set(images.values())):
            problems.append("monomials are not the images beta U of the basis")
        return problems

    return check


def check_f0(text, _results):
    # A mutated Lemma 3.1 exponent must never give a polynomial certificate.
    return [] if text.strip().endswith("False") else [f"mutated certificate accepted: {text!r}"]


def check_membership(text, _results):
    problems = []
    for line in text.splitlines():
        target_s, witness_s = line.split("\t")
        i, j, k = target = tuple(int(x) for x in target_s.split())
        member = (i + j + k) % 2 == 0 and i + j >= k and j + k >= i and i + k >= j
        if witness_s == "none":
            if member:
                problems.append(f"{target}: member reported as non-member")
            continue
        beta = tuple(int(x) for x in witness_s.split())
        image = tuple(sum(beta[g] * inputs.TRIANGLE[g][c] for g in range(3)) for c in range(3))
        if min(beta) < 0 or image != target:
            problems.append(f"{target}: bad witness {beta}")
    return problems


def check_true(text, _results):
    return [] if text.strip() == "True" else [f"expected True, got {text!r}"]


def check_kernel_basis(d):
    def check(text, _results):
        lines = text.splitlines()
        dim = int(lines[0])
        problems = []
        if dim != math.comb(d + 3, 3) or len(lines) != dim + 1:
            problems.append(f"dimension {dim}, expected {math.comb(d + 3, 3)}")
        for t in lines[1:]:
            if apply_e(parse_poly(t)):
                problems.append("basis element not annihilated by E")
                break
        return problems

    return check


def check_leibniz(pairs):
    def check(text, _results):
        problems = []
        for (f, g), line in zip(pairs, text.splitlines()):
            ok, ef, eg, efg = line.split("\t")
            if ok != "True":
                problems.append("Leibniz rule fails")
            f = {e: Fraction(c) for e, c in f.items()}
            g = {e: Fraction(c) for e, c in g.items()}
            want = (apply_e(f), apply_e(g), apply_e(poly_mul(f, g)))
            if (parse_poly(ef), parse_poly(eg), parse_poly(efg)) != want:
                problems.append("E(f), E(g) or E(fg) differs from the direct derivative")
        return problems

    return check


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _config(work, name, data):
    path = work / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _instance_config(work, name, rows, gamma=1):
    return _config(work, name, {"n": len(rows) + 1, "gamma": gamma, "delta": [list(r) for r in rows]})


def _cli(h14, name, argv, check):
    return Job(name, lambda: run_cli(h14, argv), check)


def pi_engine_jobs(h14, data, work):
    off3 = _instance_config(work, "off3", inputs.OFF3)
    ones = _instance_config(work, "ones", inputs.ONES)
    d = str(inputs.PI_SEEDED_DMAX)
    jobs = [
        _cli(h14, "intersect-off3-q-d12", ["intersect", "--dmax", "12", "--config", off3],
             check_intersect(12, OFF3_DIMS, OFF3_NEW_GENERATORS)),
        _cli(h14, "intersect-off3-fp-d12", ["intersect", "--dmax", "12", "--config", off3, "--field", FP],
             check_intersect(12, OFF3_DIMS)),
        _cli(h14, "intersect-ones-q-d12", ["intersect", "--dmax", "12", "--config", ones],
             check_intersect(12, positive_zero=True)),
        _cli(h14, "intersect-ones-fp-d12", ["intersect", "--dmax", "12", "--config", ones, "--field", FP],
             check_intersect(12, positive_zero=True)),
        _cli(h14, "verify-l3.2-d10", ["verify", "l3.2", "--dmax", "10", "--config", off3], verify_passes),
    ]
    for i, rows in enumerate(data["seeded"]):
        cfg = _instance_config(work, f"star{i}", rows)
        jobs.append(_cli(h14, f"intersect-star{i}-q-d{d}", ["intersect", "--dmax", d, "--config", cfg],
                         check_intersect(int(d))))
    cfg = str(work / "star0.json")
    jobs.append(_cli(h14, f"intersect-star0-fp-d{d}", ["intersect", "--dmax", d, "--config", cfg, "--field", FP],
                     check_intersect(int(d), same_dims_as=f"intersect-star0-q-d{d}")))
    return jobs


def _f0_job(h14, index, rows, exps):
    def run():
        inst = h14.kuroda.build_instance(4, 1, [list(r) for r in rows])
        return 0, f"{rows}\t{exps}\t{h14.kuroda.f0_is_polynomial(inst, *exps)}"

    return Job(f"f0-mutated-{index}", run, check_f0)


def _membership_job(h14, index, targets):
    def run():
        gens = h14.monoid.SubalgebraGens.of(3, inputs.TRIANGLE)
        lines = []
        for t in targets:
            w = h14.monoid.monomial_membership(gens, t)
            lines.append(" ".join(map(str, t)) + "\t" + ("none" if w is None else " ".join(map(str, w))))
        return 0, "\n".join(lines)

    return Job(f"membership-{index}", run, check_membership)


def certificates_jobs(h14, data, work):
    off3 = _instance_config(work, "off3", inputs.OFF3)
    ones = _instance_config(work, "ones", inputs.ONES)
    jobs = [_cli(h14, "verify-l3.1", ["verify", "l3.1"],
                 check_verify_rows(scanned_instances=["58"], all_certificates_polynomial=["ok"]))]
    jobs += [_f0_job(h14, i, rows, exps) for i, (rows, exps) in enumerate(data["f0_cases"])]
    jobs += [
        _cli(h14, "verify-t2.5ii-off3", ["verify", "t2.5ii", "--config", off3], verify_passes),
        _cli(h14, "verify-t2.5ii-ones", ["verify", "t2.5ii", "--config", ones], verify_passes),
    ]
    for i, u in enumerate(data["cones"]):
        cfg = _config(work, f"cone{i}", {"U": [list(r) for r in u]})
        jobs.append(_cli(h14, f"hilbert-cone{i}", ["hilbert", "--config", cfg], check_hilbert(u)))
    jobs.append(_cli(h14, "scan", ["scan"], check_scan))
    for n, key in ((3, "n3"), (4, "n4")):
        for i, (gamma, rows) in enumerate(data[key]):
            cfg = _instance_config(work, f"cond-n{n}-{i}", rows, gamma)
            jobs.append(_cli(h14, f"check-conditions-n{n}-{i}", ["check-conditions", "--config", cfg],
                             check_conditions(n, rows)))
    jobs.append(_cli(h14, "verify-t2.5i", ["verify", "t2.5i"], verify_passes))
    for s in data["t28_seeds"]:
        jobs.append(_cli(h14, f"verify-t2.8-seed{s}", ["verify", "t2.8", "--seed", str(s)], verify_passes))
    for s in data["t214_seeds"]:
        jobs.append(_cli(h14, f"verify-t2.14-seed{s}", ["verify", "t2.14", "--seed", str(s)], verify_passes))
    jobs += [_membership_job(h14, i, targets) for i, targets in enumerate(data["membership"])]
    return jobs


def _no_units_job(h14):
    def run():
        inst = h14.kuroda.build_instance(4, 1, [list(r) for r in inputs.OFF3])
        return 0, str(h14.intersect.no_monomial_units_check(inst, 8))

    return Job("no-units-off3-d8", run, check_true)


def _kernel_job(h14, d):
    def run():
        basis = h14.derivation.kernel_degree_basis(d)
        return 0, "\n".join([str(len(basis))] + [b.to_text() for b in basis])

    return Job(f"kernel-basis-d{d}", run, check_kernel_basis(d))


def _leibniz_job(h14, index, pairs):
    def run():
        poly = h14.laurent.LaurentPoly
        apply_E = h14.derivation.apply_E
        lines = []
        for f, g in pairs:
            f, g = poly(4, "Q", f), poly(4, "Q", g)
            ef, eg, efg = apply_E(f), apply_E(g), apply_E(f * g)
            ok = efg == ef * g + f * eg
            lines.append(f"{ok}\t{ef.to_text()}\t{eg.to_text()}\t{efg.to_text()}")
        return 0, "\n".join(lines)

    return Job(f"leibniz-{index}", run, check_leibniz(pairs))


def graded_jobs(h14, data, work):
    off3 = _instance_config(work, "off3", inputs.OFF3)
    jobs = [
        _cli(h14, "verify-l2.15", ["verify", "l2.15"], check_l215),
        _cli(h14, "verify-l2.15-d20", ["verify", "l2.15", "--dmax", "20"], check_l215),
        _cli(h14, "verify-l2.15-fp5", ["verify", "l2.15", "--field", "Fp:5"], check_l215),
        _cli(h14, "verify-l2.15-fp7", ["verify", "l2.15", "--field", "Fp:7"], check_l215),
        _cli(h14, "verify-l2.15-fp-d20", ["verify", "l2.15", "--field", FP, "--dmax", "20"], check_l215),
        _cli(h14, "verify-r2.16", ["verify", "r2.16"], verify_passes),
        _cli(h14, "verify-p2.6-off3", ["verify", "p2.6", "--config", off3], verify_passes),
    ]
    for i, rows in enumerate(data["p26"]):
        cfg = _instance_config(work, f"p26-{i}", rows)
        jobs.append(_cli(h14, f"verify-p2.6-star{i}", ["verify", "p2.6", "--config", cfg], verify_passes))
    jobs.append(_no_units_job(h14))
    jobs += [_kernel_job(h14, d) for d in range(9)]
    jobs += [_leibniz_job(h14, i, pairs) for i, pairs in enumerate(data["leibniz"])]
    return jobs


WORKLOADS = {
    "pi-engine": pi_engine_jobs,
    "certificates": certificates_jobs,
    "graded": graded_jobs,
}
