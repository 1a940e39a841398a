"""Span tracing from outside the program.

``install(tracer, modules)`` wraps the public functions named in ``TARGETS``
wherever they are bound: in the defining module, under every name that a
``from``-import re-binds in another ``h14`` module, and under every alias in
a class body (``__rmul__ = __mul__``).  Each wrapped call records a span
(name, start, end, parent span, job id) in memory.  ``row_times_matrix`` is
called hundreds of thousands of times per run, so it is only counted,
against the innermost open span.  ``GF`` methods are not wrapped.

A layer's self time is its span time minus the time its child spans cover.
Calls run on one thread, so children never overlap and "cover" is a sum.
The wrapper's own cost lands in the parent's self time.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.events = array("l")  # counted calls made with this span innermost
        self.loose_events = 0     # counted calls made outside every span
        self.stack = []
        self.job_id = -1
        self.extra = Counter()    # counters computed from arguments and results
        self.max_coeff_bits = 0

    def span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.events.append(0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack:
                tracer.events[tracer.stack[-1]] += 1
            else:
                tracer.loose_events += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\tcounted_calls\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.job[i]}\t{self.events[i]}\n"
                )


# -- counters computed from a wrapped call ----------------------------------


def _terms_in(tracer, args, kwargs, _result):
    terms = args[3] if len(args) > 3 else kwargs.get("terms")
    tracer.extra["laurent.init.terms_in"] += len(terms) if terms else 0


def _terms_out(metric):
    def after(tracer, _args, _kwargs, result):
        tracer.extra[metric] += len(getattr(result, "terms", ()))

    return after


def _text_bytes(tracer, _args, _kwargs, result):
    tracer.extra["laurent.to_text.bytes"] += len(result.encode())


def _rref_add(tracer, _args, _kwargs, result):
    tracer.extra["linalg.rref_add.independent"] += result is not None


def _hilbert_vectors(tracer, _args, _kwargs, result):
    tracer.extra["monoid.hilbert_basis.vectors"] += len(result.vectors)


def _nullspace(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs.get("constraints")
    tracer.extra["linalg.sparse_nullspace.rows_in"] += sum(1 for r in rows if r)
    tracer.extra["linalg.sparse_nullspace.dim_out"] += len(result)
    bits = tracer.max_coeff_bits
    for vec in result:
        for c in vec.values():
            if isinstance(c, Fraction):
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tracer.max_coeff_bits = bits


# (module, attribute path, span name, counter hook); span None = count only.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("intersect", "kuroda_intersection_basis", "intersect.kuroda_basis", None),
    ("intersect", "minimal_generator_degrees", "intersect.min_gen_degrees", None),
    ("intersect", "graded_intersection", "intersect.graded", None),
    ("intersect", "no_monomial_units_check", "intersect.no_units", None),
    ("intersect", "freeness_coset_check", "intersect.freeness", None),
    ("kuroda", "f0_is_polynomial", "kuroda.f0_is_polynomial", None),
    ("kuroda", "build_f0", "kuroda.build_f0", _terms_out("kuroda.build_f0.terms_out")),
    ("kuroda", "build_instance", "kuroda.build_instance", None),
    ("kuroda", "implication_scan", "kuroda.implication_scan", None),
    ("kuroda", "verify_t214", "kuroda.verify_t214", None),
    ("kuroda", "build_G", "kuroda.build_G", None),
    ("monoid", "hilbert_basis", "monoid.hilbert_basis", _hilbert_vectors),
    ("monoid", "monomial_membership", "monoid.monomial_membership", None),
    ("lattice", "det", "lattice.det", None),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form", None),
    ("lattice", "solve_unit_row", "lattice.solve_unit_row", None),
    ("lattice", "CosetDecomposition.representative", "lattice.coset_query", None),
    ("lattice", "CosetDecomposition.contains", "lattice.coset_query", None),
    ("lattice", "row_times_matrix", None, None),
    ("linalg", "SparseRREF.add", "linalg.rref_add", _rref_add),
    ("linalg", "SparseRREF.reduce", "linalg.rref_reduce", None),
    ("linalg", "sparse_nullspace", "linalg.sparse_nullspace", _nullspace),
    ("linalg", "span_intersection", "linalg.span_intersection", None),
    ("linalg", "row_reduce", "linalg.dense", None),
    ("linalg", "rational_solve", "linalg.dense", None),
    ("linalg", "rational_nullspace", "linalg.dense", None),
    ("laurent", "LaurentPoly.__init__", "laurent.init", _terms_in),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", _terms_out("laurent.mul.terms_out")),
    ("laurent", "LaurentPoly.__add__", "laurent.add", None),
    ("laurent", "LaurentPoly.substitute", "laurent.substitute", None),
    ("laurent", "LaurentPoly.__pow__", "laurent.pow", None),
    ("laurent", "LaurentPoly.to_text", "laurent.to_text", _text_bytes),
    ("derivation", "kernel_degree_basis", "derivation.kernel_degree_basis", None),
    ("derivation", "apply_E", "derivation.apply_E", None),
    ("derivation", "support_property_check", "derivation.support_property_check", None),
)


def install(tracer, modules):
    """Wrap every target; returns the (owner, name, original) list to undo it.

    ``modules`` maps a short name ("cli", "laurent", ...) to the loaded
    ``h14`` module.
    """
    undo = []
    for mod_name, path, span_name, after in TARGETS:
        owner = modules[mod_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.counted(original) if span_name is None else tracer.span(span_name, original, after)
        owners = [owner] if cls_path else list(modules.values())
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is original:
                    undo.append((target, key, original))
                    setattr(target, key, wrapper)
    return undo


def uninstall(undo):
    for target, key, original in reversed(undo):
        setattr(target, key, original)


def _ancestor_named(tracer, idx, name, direct):
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.names[p] == name:
            return True
        if direct:
            return False
        p = tracer.parent[p]
    return False


SPAN_METRICS = (
    # (metric prefix, report calls?)
    ("intersect.kuroda_basis", True),
    ("intersect.min_gen_degrees", False),
    ("intersect.graded", True),
    ("intersect.no_units", False),
    ("intersect.freeness", False),
    ("kuroda.f0_is_polynomial", True),
    ("kuroda.build_f0", False),
    ("kuroda.build_instance", True),
    ("kuroda.implication_scan", False),
    ("kuroda.verify_t214", False),
    ("kuroda.build_G", False),
    ("monoid.hilbert_basis", True),
    ("monoid.monomial_membership", True),
    ("lattice.det", True),
    ("lattice.smith_normal_form", True),
    ("lattice.solve_unit_row", True),
    ("lattice.coset_query", True),
    ("linalg.rref_add", True),
    ("linalg.rref_reduce", True),
    ("linalg.sparse_nullspace", True),
    ("linalg.span_intersection", True),
    ("linalg.dense", True),
    ("laurent.init", True),
    ("laurent.mul", True),
    ("laurent.add", True),
    ("laurent.substitute", True),
    ("laurent.pow", True),
    ("laurent.to_text", True),
    ("cli.main", False),
    ("derivation.kernel_degree_basis", True),
    ("derivation.apply_E", True),
    ("derivation.support_property_check", True),
)


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(tracer):
    """Per-layer metrics {name: (value, unit)} of one traced pass."""
    n = len(tracer.names)
    covered = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            covered[p] += tracer.end[i] - tracer.start[i]
    calls = Counter(tracer.names)
    self_s = defaultdict(float)
    for i, name in enumerate(tracer.names):
        self_s[name] += tracer.end[i] - tracer.start[i] - covered[i]

    def count_spans(name, under, direct=False):
        return sum(
            1 for i in range(n)
            if tracer.names[i] == name and _ancestor_named(tracer, i, under, direct)
        )

    out = {}
    for prefix, with_calls in SPAN_METRICS:
        if with_calls:
            out[f"{prefix}.calls"] = (calls[prefix], "count")
        out[f"{prefix}.self_s"] = (self_s[prefix], "s")
    f0_calls = calls["kuroda.f0_is_polynomial"]
    fallbacks = count_spans("kuroda.build_f0", "kuroda.f0_is_polynomial", direct=True)
    box_points = sum(tracer.events[i] for i in range(n) if tracer.names[i] == "monoid.hilbert_basis")
    hilbert_vectors = tracer.extra["monoid.hilbert_basis.vectors"]
    extra = tracer.extra
    out.update({
        "intersect.kuroda_basis.nullspace_solves": (
            count_spans("linalg.sparse_nullspace", "intersect.kuroda_basis"), "count"),
        "intersect.min_gen_degrees.products": (
            count_spans("laurent.mul", "intersect.min_gen_degrees", direct=True), "count"),
        "intersect.freeness.coset_queries": (
            count_spans("lattice.coset_query", "intersect.freeness"), "count"),
        "kuroda.f0_is_polynomial.fallbacks": (fallbacks, "count"),
        "kuroda.f0_is_polynomial.fallback_ratio": (_ratio(fallbacks, f0_calls), "ratio"),
        "kuroda.build_f0.terms_out": (extra["kuroda.build_f0.terms_out"], "count"),
        "monoid.hilbert_basis.box_points": (box_points, "count"),
        "monoid.hilbert_basis.basis_ratio": (_ratio(hilbert_vectors, box_points), "ratio"),
        "lattice.row_times_matrix.calls": (sum(tracer.events) + tracer.loose_events, "count"),
        "linalg.rref_add.independent_ratio": (
            _ratio(extra["linalg.rref_add.independent"], calls["linalg.rref_add"]), "ratio"),
        "linalg.sparse_nullspace.rows_in": (extra["linalg.sparse_nullspace.rows_in"], "count"),
        "linalg.sparse_nullspace.dim_out": (extra["linalg.sparse_nullspace.dim_out"], "count"),
        "linalg.max_coeff_bits": (tracer.max_coeff_bits, "bits"),
        "laurent.init.terms_in": (extra["laurent.init.terms_in"], "count"),
        "laurent.mul.terms_out": (extra["laurent.mul.terms_out"], "count"),
        "laurent.to_text.bytes": (extra["laurent.to_text.bytes"], "bytes"),
    })
    return out
