"""Batch verification front-end.

Subcommands: ``check-conditions``, ``verify <id>``, ``hilbert``,
``intersect``, ``scan``.  A config is a JSON object with exactly the keys the
command needs (``{n, gamma, delta}``, or ``{U}`` for ``hilbert``), plus an
optional ``field`` where the command reads ``--field``; an empty or partial
config is a config error.  A command or verify id accepts only the options it
reads (its ``reads``), and ``--out``.  Each command fills one :class:`Report`:
``#`` header lines with the config, effective field, degree bound and seed of
those it reads (and ``verify r2.16``'s fixed field), then tab-separated rows.
Checked rows end in ``ok`` or ``FAIL`` and alone decide the verdict.

Exit codes: 0 all checks pass, 1 a checked row failed (a ``FAIL`` row was
printed: ``verify`` then ends in ``RESULT fail``, ``scan`` names each
implication violation), 2 usage or config error, 3 precondition error
(singular matrix, non-pointed cone, ...), 4 internal error (an unexpected
exception; no report is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import __version__
from .derivation import support_property_check
from .errors import PreconditionError, UsageError, is_int
from .intersect import (
    BOUND_NOTE, freeness_certificate, graded_intersection, kuroda_intersection_basis, no_monomial_units_check,
)
from .kuroda import (
    build_G,
    build_instance,
    condition_holds,
    f0_is_polynomial,
    implication_scan,
    lemma31_find_p,
    random_instance,
    ratio_sum,
    star_tables,
    verify_t214,
)
from .lattice import IntMatrix, solve_unit_row
from .laurent import QQ, LaurentPoly, field_name, parse_field
from .linalg import SparseRREF
from .monoid import SubalgebraGens, cone_membership, hilbert_basis, intersection_generators

DEFAULT_N4 = {"n": 4, "gamma": 1, "delta": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}
DEFAULT_N3 = {"n": 3, "gamma": 1, "delta": [[3, 1], [1, 1]]}

VERIFY_ALIASES = {"l2.13": "t2.14"}


class Report:
    """The one report of a command: ``#`` header lines, tab-separated rows
    and the verdict of its checked rows."""

    def __init__(self, args):
        self.args = args
        self.lines = []
        self.failed = False

    def comment(self, text):
        self.lines.append(f"# {text}")

    def row(self, *cells):
        self.lines.append("\t".join(str(c) for c in cells))

    def check(self, name, *cells, ok):
        """A checked row ``name cells... ok|FAIL``; a failed one fails the report."""
        self.row(name, *cells, "ok" if ok else "FAIL")
        if not ok:
            self.failed = True

    def header(self, field=None, dmax=None, extra=()):
        """The ``#`` lines that open the report: the config, seed, and the given
        effective ``field`` (parsed) and ``dmax``, each for a command that reads
        it (``verify r2.16`` gives its fixed field)."""
        args = self.args
        self.comment(f"h14 {__version__}")
        self.comment(f"command: {args.command}" + (f" {args.check_id}" if getattr(args, "check_id", None) else ""))
        if "config" in args.reads:
            self.comment(f"config: {args.config or 'default'}")
        if field is not None:
            self.comment(f"field: {field_name(field)}")
        if dmax is not None:
            self.comment(f"dmax: {dmax}")
        if "seed" in args.reads:
            self.comment(f"seed: {args.seed or 0}")
        for line in extra:
            self.comment(line)

    def emit(self):
        text = "\n".join(self.lines) + "\n"
        if self.args.out:
            try:
                with open(self.args.out, "w") as fh:
                    fh.write(text)
            except OSError as ex:
                raise UsageError(f"cannot write report to {self.args.out}: {ex}")
        else:
            sys.stdout.write(text)


def load_config(args, required):
    """The JSON object at ``args.config``: exactly the ``required`` keys, plus
    an optional ``"field"`` if the command reads ``--field``; else a ``UsageError``."""
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as ex:
        raise UsageError(f"cannot read config {args.config}: {ex}")
    except json.JSONDecodeError as ex:
        raise UsageError(f"config {args.config} is not valid JSON: {ex}")
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(data) - set(required) - ({"field"} & set(args.reads)))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key in required:
        if key not in data:
            raise UsageError(f"config is missing required key {key!r}")
    return data


def _bound(args, default):
    """The effective degree bound: ``--dmax`` if given, else the command's default."""
    return default if args.dmax is None else args.dmax


def _n4_instance(args):
    """The instance of a check that concerns the n=4 family only."""
    inst = _instance(args, DEFAULT_N4)
    if inst.n != 4:
        raise UsageError(f"verify {args.check_id} concerns the n=4 family, got n={inst.n}")
    return inst


def _instance(args, default):
    cfg = default if args.config is None else load_config(args, ("n", "gamma", "delta"))
    return build_instance(cfg["n"], cfg["gamma"], cfg["delta"], args.field or cfg.get("field", "Q"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_conditions(args, rep):
    inst = _instance(args, DEFAULT_N4)
    rep.header()
    rep.row("quantity", "value")
    if inst.n == 4:
        rep.row("condition", "three-ratio sum < 1")
        for i, x in enumerate(inst.xi):
            rep.row(f"xi_{i + 1}", x)
    else:
        rep.row("condition", "two-ratio sum < 1/2")
    rep.row("value", ratio_sum(inst.delta))
    rep.row("holds", condition_holds(inst.delta))
    rep.row("det_T", inst.det_t)


def cmd_hilbert(args, rep):
    if args.config is None:
        raise UsageError('the hilbert command needs a config {"U": [[...], ...]}')
    cfg = load_config(args, ("U",))
    u_rows = cfg["U"]
    if not isinstance(u_rows, list) or not u_rows or not all(isinstance(r, list) and r for r in u_rows):
        raise UsageError("U must be a nonempty matrix")
    bad = [x for r in u_rows for x in r if not is_int(x)]
    if bad:
        raise UsageError(f"U entries must be integers, got {bad[0]!r}")
    gens = SubalgebraGens.of(len(u_rows[0]), u_rows)
    hb = hilbert_basis(gens.matrix)
    rep.header()
    rep.comment("hilbert basis vectors (beta), then generator monomials")
    for beta in hb.vectors:
        rep.row("beta", *beta)
    for m in hb.monomials:
        rep.row("monomial", LaurentPoly.monomial(gens.n, m).to_text())


def cmd_intersect(args, rep):
    inst = _instance(args, DEFAULT_N4)
    dmax = _bound(args, 6)
    report = kuroda_intersection_basis(inst, dmax)
    rep.header(inst.field, dmax, extra=[BOUND_NOTE])
    rep.row("degree", "pi_monomials", "constraints", "dim", "new_generators")
    newg = dict(report.new_generators)
    for d in sorted(report.dims):
        rep.row(d, report.pi_monomials[d], report.constraints[d], report.dims[d], newg.get(d, 0))
    rep.comment("basis elements, X-coordinates (one per line: degree TAB text)")
    for d in sorted(report.images):
        for img in report.images[d]:
            rep.row(d, img.to_text())


def cmd_scan(args, rep):
    rep.header()
    rep.row("n", "bound", "instances", "implication_violations", "converse_witnesses")
    for n, bound in ((3, 4), (4, 2)):
        sc = implication_scan(n, bound)
        rep.row(n, bound, sc.total, len(sc.implication_violations), sc.converse_witnesses)
        for v in sc.implication_violations:
            rep.check("implication_violation", n, bound, [list(r) for r in v["delta"]], v["value"], v["det"], ok=False)


# -- verify checks ----------------------------------------------------------


def _verify_t25i(args, rep):
    inst = _n4_instance(args)
    rep.header()
    for i in range(inst.n - 1):
        m, s = solve_unit_row(inst.t_matrix, i)
        word = LaurentPoly.monomial(inst.n - 1, s)
        lhs = word.substitute(list(inst.y_images[: inst.n - 1]))
        target = [0] * inst.n
        target[i] = m
        rep.check(f"unit_row_{i + 1}", m, " ".join(map(str, s)),
                  ok=lhs == LaurentPoly.monomial(inst.n, target))


def _verify_t25ii(args, rep):
    inst = _instance(args, DEFAULT_N4)
    rep.header(extra=["free_decomposition: Smith certificate U*A*V = D, |det U| = |det V| = 1,"
                      " valid on all of Z^n (contains the box)"])
    rep.row("coset_box_bound", 5)
    rep.check("free_decomposition", ok=freeness_certificate(inst))


def _verify_p26(args, rep):
    inst = _n4_instance(args)
    dmax = _bound(args, 4)
    rep.header(inst.field, dmax)
    rep.row("degree_bound", dmax)
    rep.check("no_nonconstant_monomials", ok=no_monomial_units_check(inst, dmax))


def _verify_t28(args, rep):
    rep.header()
    gens = SubalgebraGens.of(2, [(1, 1), (1, -1)])
    rep.check("worked_example", ok=intersection_generators(gens) == [(0, 2), (1, 1), (2, 0)])
    rng = random.Random(args.seed or 0)
    checked = 0
    in_cone = True
    for _ in range(10):
        t = rng.randint(1, 3)
        n = rng.randint(1, 3)
        u = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(t)])
        try:
            hb = hilbert_basis(u)
        except PreconditionError:  # its only one: the cone has a line, as with a repeated generator
            continue
        checked += 1
        in_cone = in_cone and all(cone_membership(hb.u, beta) for beta in hb.vectors)
    rep.check("random_bases_in_cone", checked, ok=in_cone)


def _verify_t214(args, rep):
    inst = _instance(args, DEFAULT_N3)
    rep.header(inst.field)
    rep.check("default_instance", ok=verify_t214(inst))
    rng = random.Random(args.seed or 0)
    rep.check("random_instances", 50, ok=all(verify_t214(random_instance(rng, 3, 5)) for _ in range(50)))
    mono = lambda e: LaurentPoly.monomial(3, e, 1, inst.field)
    (d11, d12), (d21, d22) = inst.delta
    bad_pi3 = 3 * mono((d21 - d11, d12 - d22, 0)) - mono((-2 * d11, 2 * d12, 0))
    rep.check("mutated_pi3_detected", ok=not verify_t214(inst, (inst.pis[0], inst.pis[1], bad_pi3)))


def _l215_generators(field):
    mono = lambda e: LaurentPoly.monomial(4, e, 1, field)
    gens_a = [mono((1, 1, 0, 0)), mono((0, 1, 1, 0)), mono((1, 0, 1, 0)), mono((0, 0, 0, 1))]
    x = mono((0, 0, 0, 1))
    gens_b = [x - mono((2, 0, 0, 0)), x - mono((0, 2, 0, 0)), x - mono((0, 0, 2, 0))]
    return gens_a, gens_b


def _verify_l215(args, rep):
    field = parse_field(args.field or "Q")
    dmax = _bound(args, 16 if field == QQ else 12)
    rep.header(field, dmax)
    gens_a, gens_b = _l215_generators(field)
    bases = graded_intersection(gens_a, gens_b, (1, 1, 1, 2), dmax)
    if field == 3:
        rep.comment("characteristic 3 is outside the verified range; table reported as computed")
    rep.row("degree", "dim")
    for d in range(dmax + 1):
        rep.row(d, len(bases[d]))
    rep.check("all_positive_degrees_zero", ok=not any(bases[d] for d in range(1, dmax + 1)))


def _verify_r216(args, rep):
    rep.header(2)
    gens_a, gens_b = _l215_generators(2)
    degree4 = graded_intersection(gens_a, gens_b, (1, 1, 1, 2), 4)[4]
    mono = lambda e: LaurentPoly.monomial(4, e, 1, 2)
    target = mono((0, 1, 1, 0)) ** 2 - mono((1, 0, 1, 0)) ** 2 - mono((1, 1, 0, 0)) ** 2 + mono((0, 0, 0, 1)) ** 2
    rr = SparseRREF(2)
    for b in degree4:
        rr.add(b.terms)
    rep.row("degree4_dim", len(degree4))
    rep.check("expected_element_in_span", ok=len(degree4) >= 1 and rr.contains(target.terms))


def _verify_l31(args, rep):
    rep.header()
    tables = [[list(r) for r in delta] for delta in star_tables(3)]
    ok = True
    for rows in tables:
        inst = build_instance(4, 1, rows)
        if not f0_is_polynomial(inst, *lemma31_find_p(inst.xi)[1:]):
            ok = False
            rep.row("non_polynomial_certificate", rows)
    rep.row("scanned_instances", len(tables))
    rep.check("all_certificates_polynomial", ok=ok)


def _verify_l32(args, rep):
    inst = _n4_instance(args)
    dmax = _bound(args, 6)
    rep.header(inst.field, dmax)
    report = kuroda_intersection_basis(inst, dmax)
    nonconstant = [img for d in sorted(report.images) for img in report.images[d] if not img.is_constant()]
    rep.row("nonconstant_elements", len(nonconstant))
    rep.check("g_product_x2_x3_nonnegative", ok=build_G(inst, 3, 3, 6, 1).x2_x3_nonnegative)
    rep.check("support_property", ok=all(support_property_check(img) for img in nonconstant))


# each check and the options it reads
VERIFY_DISPATCH = {
    "t2.5i": (_verify_t25i, ("config",)),
    "t2.5ii": (_verify_t25ii, ("config",)),
    "p2.6": (_verify_p26, ("config", "field", "dmax")),
    "t2.8": (_verify_t28, ("seed",)),
    "t2.14": (_verify_t214, ("config", "field", "seed")),
    "l2.15": (_verify_l215, ("field", "dmax")),
    "r2.16": (_verify_r216, ()),
    "l3.1": (_verify_l31, ()),
    "l3.2": (_verify_l32, ("config", "field", "dmax")),
}


def cmd_verify(args, rep):
    args.check(args, rep)
    rep.row("RESULT", "fail" if rep.failed else "pass")


def _reject_unread(args):
    """Resolve a verify id to its check, then refuse every given option the
    command does not read."""
    name = args.command
    if name == "verify":
        check_id = VERIFY_ALIASES.get(args.check_id, args.check_id)
        if check_id not in VERIFY_DISPATCH:
            valid = ", ".join(sorted(VERIFY_DISPATCH) + sorted(VERIFY_ALIASES))
            raise UsageError(f"unknown check id {args.check_id!r}; valid ids: {valid}")
        args.check, args.reads = VERIFY_DISPATCH[check_id]
        name += f" {args.check_id}"
    unread = [f"--{opt}" for opt in ("config", "dmax", "field", "seed")
              if getattr(args, opt) is not None and opt not in args.reads]
    if unread:
        raise UsageError(f"{name} does not read {', '.join(unread)}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once: ``parse_args`` fills a fresh namespace
    on every call, so one parser serves every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="h14",
        description="Exact verification toolkit for Laurent-monomial subalgebra constructions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON instance config {n, gamma, delta, field} (or {U})")
    common.add_argument("--dmax", type=int, help="degree bound for bounded-degree computations")
    common.add_argument("--field", help="coefficient field: Q or Fp:<prime>")
    common.add_argument("--seed", type=int, help="seed for randomized checks (default 0)")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-conditions", parents=[common], help="exact ratio-condition values and det T"
                   ).set_defaults(func=cmd_check_conditions, reads=("config",))
    p_verify = sub.add_parser("verify", parents=[common], help="run one named batch check")
    p_verify.add_argument("check_id", help="one of: " + ", ".join(VERIFY_DISPATCH))
    p_verify.set_defaults(func=cmd_verify)
    sub.add_parser("hilbert", parents=[common], help="Hilbert basis and generator monomials for a config U"
                   ).set_defaults(func=cmd_hilbert, reads=("config",))
    sub.add_parser("intersect", parents=[common], help="bounded-degree polynomial part of the pi-span"
                   ).set_defaults(func=cmd_intersect, reads=("config", "field", "dmax"))
    sub.add_parser("scan", parents=[common], help="exhaustive condition/determinant box scans"
                   ).set_defaults(func=cmd_scan, reads=())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dmax is not None and args.dmax < 0:
        parser.error("--dmax must be >= 0")
    rep = Report(args)
    try:
        _reject_unread(args)
        args.func(args, rep)
        rep.emit()
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except PreconditionError as ex:
        print(f"precondition error: {ex}", file=sys.stderr)
        return 3
    except Exception as ex:  # a crash must not look like a failed verification (exit 1)
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 4
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
