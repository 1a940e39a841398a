"""Batch verification front-end.

Subcommands: ``check-conditions``, ``verify <id>``, ``hilbert``,
``intersect``, ``scan``.  Instance configs are JSON files with keys
``{n, gamma, delta, field}`` (``hilbert`` instead takes ``{U: matrix}``).
Reports are tab-separated tables preceded by ``#`` header lines echoing the
configuration; bases are serialized in the canonical Laurent text form.

Exit codes: 0 all checks pass, 1 a check printed ``RESULT fail`` (or ``scan``
found an implication violation), 2 usage or config error, 3 precondition
error (singular matrix, non-pointed cone, ...), 4 internal error (an
unexpected exception; no report is printed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import __version__
from .derivation import support_property_check
from .errors import ConfigError, PreconditionError, UsageError, is_int
from .intersect import graded_intersection, kuroda_intersection_basis
from .kuroda import (
    build_f0,
    build_G,
    build_instance,
    check_star,
    check_starstar,
    f0_is_polynomial,
    implication_scan,
    lemma31_find_p,
    random_instance,
    star_value,
    verify_t214,
)
from .lattice import solve_unit_row
from .laurent import QQ, LaurentPoly, field_name, parse_field
from .monoid import SubalgebraGens, cone_membership, hilbert_basis, intersection_generators

DEFAULT_N4 = {"n": 4, "gamma": 1, "delta": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}
DEFAULT_N4_ONES = {"n": 4, "gamma": 1, "delta": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]}
DEFAULT_N3 = {"n": 3, "gamma": 1, "delta": [[3, 1], [1, 1]]}

VERIFY_IDS = ("t2.5i", "t2.5ii", "p2.6", "t2.8", "t2.14", "l2.15", "r2.16", "l3.1", "l3.2")
VERIFY_ALIASES = {"l2.13": "t2.14"}


class Report:
    """Line buffer: '#' comments plus tab-separated rows."""

    def __init__(self):
        self.lines = []

    def comment(self, text):
        self.lines.append(f"# {text}")

    def row(self, *cells):
        self.lines.append("\t".join(str(c) for c in cells))

    def emit(self, out_path):
        text = "\n".join(self.lines) + "\n"
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _header(rep: Report, args, field=None, dmax=None, extra=()):
    """The ``#`` lines that open a report.

    ``field`` (parsed) and ``dmax`` are the effective values of a command
    that resolves them from its config or its own defaults; a command that
    does not passes neither, and the options are echoed as given.
    """
    rep.comment(f"h14 {__version__}")
    rep.comment(f"command: {args.command}" + (f" {args.check_id}" if getattr(args, "check_id", None) else ""))
    rep.comment(f"config: {args.config or 'default'}")
    rep.comment(f"field: {field_name(field) if field is not None else args.field or 'Q'}")
    if dmax is None:
        dmax = args.dmax
    if dmax is not None:
        rep.comment(f"dmax: {dmax}")
    rep.comment(f"seed: {args.seed}")
    for line in extra:
        rep.comment(line)


def load_config(path):
    if path is None:
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as ex:
        raise ConfigError(f"cannot read config {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise ConfigError(f"config {path} is not valid JSON: {ex}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"n", "gamma", "delta", "field", "U"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _n4_instance(args):
    """The instance of a check that concerns the n=4 family only."""
    inst = _instance(args, DEFAULT_N4)
    if inst.n != 4:
        raise ConfigError(f"verify {args.check_id} concerns the n=4 family, got n={inst.n}")
    return inst


def _instance(args, default):
    cfg = load_config(args.config) or dict(default)
    if "U" in cfg:
        raise ConfigError("this command needs an instance config {n, gamma, delta, field}, not U")
    for key in ("n", "gamma", "delta"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    field = args.field or cfg.get("field", "Q")
    return build_instance(cfg["n"], cfg["gamma"], cfg["delta"], field)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_conditions(args):
    inst = _instance(args, DEFAULT_N4)
    rep = Report()
    _header(rep, args, inst.field)
    rep.row("quantity", "value")
    if inst.n == 4:
        value, holds = check_star(inst)
        rep.row("condition", "three-ratio sum < 1")
        for i, x in enumerate(inst.xi):
            rep.row(f"xi_{i + 1}", x)
    else:
        value, holds = check_starstar(inst)
        rep.row("condition", "two-ratio sum < 1/2")
    rep.row("value", value)
    rep.row("holds", holds)
    rep.row("det_T", inst.det_t)
    rep.emit(args.out)
    return 0


def cmd_hilbert(args):
    cfg = load_config(args.config)
    if not cfg or "U" not in cfg:
        raise ConfigError('the hilbert command needs a config {"U": [[...], ...]}')
    extra = sorted(set(cfg) - {"U", "field"})
    if extra:
        raise ConfigError(f"unexpected config keys for hilbert: {', '.join(extra)}")
    u_rows = cfg["U"]
    if not u_rows or not all(isinstance(r, list) and r for r in u_rows):
        raise ConfigError("U must be a nonempty matrix")
    bad = [x for r in u_rows for x in r if not is_int(x)]
    if bad:
        raise ConfigError(f"U entries must be integers, got {bad[0]!r}")
    field = parse_field(args.field or cfg.get("field", "Q"))
    gens = SubalgebraGens.of(len(u_rows[0]), u_rows)
    hb = hilbert_basis(gens.matrix)
    rep = Report()
    _header(rep, args, field)
    rep.comment("hilbert basis vectors (beta), then generator monomials")
    for beta in hb.vectors:
        rep.row("beta", *beta)
    for m in hb.monomials:
        rep.row("monomial", LaurentPoly.monomial(gens.n, m, 1, field).to_text())
    rep.emit(args.out)
    return 0


def cmd_intersect(args):
    inst = _instance(args, DEFAULT_N4)
    dmax = args.dmax if args.dmax is not None else 6
    report = kuroda_intersection_basis(inst, dmax)
    rep = Report()
    _header(rep, args, inst.field, dmax, extra=[report.note])
    rep.row("degree", "pi_monomials", "constraints", "dim", "new_generators")
    for row in report.table_rows():
        rep.row(*row)
    rep.comment("basis elements, X-coordinates (one per line: degree TAB text)")
    for d in sorted(report.images):
        for img in report.images[d]:
            rep.row(d, img.to_text())
    rep.emit(args.out)
    return 0


def cmd_scan(args):
    given = [
        opt for opt, value in (("--config", args.config), ("--field", args.field), ("--dmax", args.dmax))
        if value is not None
    ]
    if given:
        raise UsageError(f"scan takes no {', '.join(given)}: its boxes are fixed and it builds no polynomials")
    rep = Report()
    _header(rep, args)
    rep.row("n", "bound", "instances", "implication_violations", "converse_witnesses")
    bad = 0
    for n, bound in ((3, 4), (4, 2)):
        sc = implication_scan(n, bound)
        rep.row(n, bound, sc.total, len(sc.implication_violations), len(sc.converse_witnesses))
        bad += len(sc.implication_violations)
    rep.emit(args.out)
    return 1 if bad else 0


# -- verify checks ----------------------------------------------------------


def _verify_t25i(args, rep):
    inst = _n4_instance(args)
    _header(rep, args, inst.field)
    ok = True
    for i in range(inst.n - 1):
        m, s = solve_unit_row(inst.t_matrix, i)
        word = LaurentPoly.monomial(inst.n - 1, s, 1, inst.field)
        lhs = word.substitute(list(inst.y_images[: inst.n - 1]))
        target = [0] * inst.n
        target[i] = m
        good = lhs == LaurentPoly.monomial(inst.n, target, 1, inst.field)
        rep.row(f"unit_row_{i + 1}", m, " ".join(map(str, s)), "ok" if good else "FAIL")
        ok = ok and good
    return ok


def _verify_t25ii(args, rep):
    from .intersect import freeness_coset_check

    inst = _instance(args, DEFAULT_N4)
    _header(rep, args, inst.field)
    ok = freeness_coset_check(inst, 5)
    rep.row("coset_box_bound", 5)
    rep.row("free_decomposition", "ok" if ok else "FAIL")
    return ok


def _verify_p26(args, rep):
    from .intersect import no_monomial_units_check

    inst = _n4_instance(args)
    dmax = args.dmax if args.dmax is not None else 4
    _header(rep, args, inst.field, dmax)
    ok = no_monomial_units_check(inst, dmax)
    rep.row("degree_bound", dmax)
    rep.row("no_nonconstant_monomials", "ok" if ok else "FAIL")
    return ok


def _verify_t28(args, rep):
    _header(rep, args)
    gens = SubalgebraGens.of(2, [(1, 1), (1, -1)])
    monos = intersection_generators(gens)
    expected = [(0, 2), (1, 1), (2, 0)]
    ok = monos == expected
    rep.row("worked_example", "ok" if ok else "FAIL")
    rng = random.Random(args.seed)
    checked = 0
    for _ in range(10):
        t = rng.randint(1, 3)
        n = rng.randint(1, 3)
        u = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(t)]
        try:
            hb = hilbert_basis(SubalgebraGens.of(n, u).matrix)
        except (PreconditionError, UsageError):
            continue
        checked += 1
        for beta in hb.vectors:
            if not cone_membership(hb.u, beta):
                ok = False
    rep.row("random_bases_in_cone", checked, "ok" if ok else "FAIL")
    return ok


def _verify_t214(args, rep):
    inst = _instance(args, DEFAULT_N3)
    _header(rep, args, inst.field)
    ok = verify_t214(inst)
    rep.row("default_instance", "ok" if ok else "FAIL")
    rng = random.Random(args.seed)
    rand_ok = all(verify_t214(random_instance(rng, 3, 5)) for _ in range(50))
    rep.row("random_instances", 50, "ok" if rand_ok else "FAIL")
    mono = lambda e: LaurentPoly.monomial(3, e, 1, inst.field)
    (d11, d12), (d21, d22) = inst.delta
    bad_pi3 = 3 * mono((d21 - d11, d12 - d22, 0)) - mono((-2 * d11, 2 * d12, 0))
    mutated = verify_t214(inst, (inst.pis[0], inst.pis[1], bad_pi3))
    rep.row("mutated_pi3_detected", "ok" if not mutated else "FAIL")
    return ok and rand_ok and not mutated


def _l215_generators(field):
    mono = lambda e: LaurentPoly.monomial(4, e, 1, field)
    gens_a = [mono((1, 1, 0, 0)), mono((0, 1, 1, 0)), mono((1, 0, 1, 0)), mono((0, 0, 0, 1))]
    x = mono((0, 0, 0, 1))
    gens_b = [x - mono((2, 0, 0, 0)), x - mono((0, 2, 0, 0)), x - mono((0, 0, 2, 0))]
    return gens_a, gens_b


def _verify_l215(args, rep):
    field = parse_field(args.field or "Q")
    dmax = args.dmax if args.dmax is not None else (16 if field == QQ else 12)
    _header(rep, args, field, dmax)
    gens_a, gens_b = _l215_generators(field)
    report = graded_intersection(gens_a, gens_b, (1, 1, 1, 2), dmax)
    if field == 3:
        rep.comment("characteristic 3 is outside the verified range; table reported as computed")
    rep.row("degree", "dim")
    for d in range(dmax + 1):
        rep.row(d, report.dims[d])
    ok = all(report.dims[d] == 0 for d in range(1, dmax + 1))
    rep.row("all_positive_degrees_zero", "ok" if ok else "FAIL")
    return ok


def _verify_r216(args, rep):
    from .linalg import SparseRREF

    field = parse_field(args.field or 2)
    if field != 2:
        raise UsageError("this check concerns characteristic 2 (use --field Fp:2)")
    _header(rep, args, field)
    gens_a, gens_b = _l215_generators(2)
    report = graded_intersection(gens_a, gens_b, (1, 1, 1, 2), 4)
    mono = lambda e: LaurentPoly.monomial(4, e, 1, 2)
    target = mono((0, 1, 1, 0)) ** 2 - mono((1, 0, 1, 0)) ** 2 - mono((1, 1, 0, 0)) ** 2 + mono((0, 0, 0, 1)) ** 2
    rr = SparseRREF(2)
    for b in report.bases[4]:
        rr.add(b.terms)
    ok = report.dims[4] >= 1 and rr.contains(target.terms)
    rep.row("degree4_dim", report.dims[4])
    rep.row("expected_element_in_span", "ok" if ok else "FAIL")
    return ok


def _verify_l31(args, rep):
    _header(rep, args, QQ)
    total = 0
    ok = True
    for flat in itertools.product(range(1, 4), repeat=9):
        rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        if star_value(rows) >= 1:
            continue
        inst = build_instance(4, 1, rows)
        total += 1
        p, p1, p2, p3 = lemma31_find_p(inst.xi)
        if not f0_is_polynomial(inst, p1, p2, p3):
            ok = False
            rep.row("non_polynomial_certificate", rows)
    rep.row("scanned_instances", total)
    rep.row("all_certificates_polynomial", "ok" if ok else "FAIL")
    return ok


def _verify_l32(args, rep):
    inst = _n4_instance(args)
    dmax = args.dmax if args.dmax is not None else 6
    _header(rep, args, inst.field, dmax)
    report = kuroda_intersection_basis(inst, dmax)
    ok = True
    checked = 0
    for d in sorted(report.images):
        for img in report.images[d]:
            if img.is_constant():
                continue
            checked += 1
            if not support_property_check(img):
                ok = False
    rep.row("nonconstant_elements", checked)
    g = build_G(inst, 3, 3, 6, 1)
    rep.row("g_product_x2_x3_nonnegative", "ok" if g.x2_x3_nonnegative else "FAIL")
    rep.row("support_property", "ok" if ok else "FAIL")
    return ok and g.x2_x3_nonnegative


VERIFY_DISPATCH = {
    "t2.5i": _verify_t25i,
    "t2.5ii": _verify_t25ii,
    "p2.6": _verify_p26,
    "t2.8": _verify_t28,
    "t2.14": _verify_t214,
    "l2.15": _verify_l215,
    "r2.16": _verify_r216,
    "l3.1": _verify_l31,
    "l3.2": _verify_l32,
}


def cmd_verify(args):
    check_id = VERIFY_ALIASES.get(args.check_id, args.check_id)
    if check_id not in VERIFY_DISPATCH:
        valid = ", ".join(sorted(VERIFY_DISPATCH) + sorted(VERIFY_ALIASES))
        raise UsageError(f"unknown check id {args.check_id!r}; valid ids: {valid}")
    rep = Report()
    ok = VERIFY_DISPATCH[check_id](args, rep)
    rep.row("RESULT", "pass" if ok else "fail")
    rep.emit(args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="h14",
        description="Exact verification toolkit for Laurent-monomial subalgebra constructions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON instance config {n, gamma, delta, field} (or {U})")
    common.add_argument("--dmax", type=int, help="degree bound for bounded-degree computations")
    common.add_argument("--field", help="coefficient field: Q or Fp:<prime>")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-conditions", parents=[common],
                   help="exact ratio-condition values and det T").set_defaults(func=cmd_check_conditions)
    p_verify = sub.add_parser("verify", parents=[common], help="run one named batch check")
    p_verify.add_argument("check_id", help="one of: " + ", ".join(VERIFY_IDS))
    p_verify.set_defaults(func=cmd_verify)
    sub.add_parser("hilbert", parents=[common],
                   help="Hilbert basis and generator monomials for a config U").set_defaults(func=cmd_hilbert)
    sub.add_parser("intersect", parents=[common],
                   help="bounded-degree polynomial part of the pi-span").set_defaults(func=cmd_intersect)
    sub.add_parser("scan", parents=[common],
                   help="exhaustive condition/determinant box scans").set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dmax is not None and args.dmax < 0:
        parser.error("--dmax must be >= 0")
    try:
        if args.field is not None:
            parse_field(args.field)
        return args.func(args)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except PreconditionError as ex:
        print(f"precondition error: {ex}", file=sys.stderr)
        return 3
    except Exception as ex:  # a crash must not look like a failed verification (exit 1)
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
