"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced(fn):
    """fn(h14) computed plain and under installed wrappers, plus the tracer."""
    h14, mods = run.load_h14()
    plain = fn(h14)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, mods)
    try:
        traced = fn(h14)
    finally:
        tracing.uninstall(undo)
    return plain, traced, tracer, mods


def test_wrappers_preserve_return_values_and_aliases():
    def compute(h14):
        lp = h14.laurent.LaurentPoly
        x = lp.variable(2, 0)
        y = lp.variable(2, 1)
        inst = h14.kuroda.build_instance(4, 1, [list(r) for r in inputs.OFF3])
        report = h14.cli.kuroda_intersection_basis(inst, 5)
        return (
            (2 * x).to_text(), (x * 3).to_text(), (1 + y).to_text(), (x + y).to_text(),
            ((x - y) ** 3).to_text(),
            h14.intersect.kuroda_intersection_basis(inst, 5).dims, report.new_generators,
            h14.monoid.hilbert_basis(h14.lattice.IntMatrix.from_rows([[1, 2], [2, -1]])).vectors,
            h14.linalg.sparse_nullspace([{0: 1, 1: 1}], [0, 1, 2], "Q"),
        )

    plain, traced, tracer, mods = _traced(compute)
    assert traced == plain
    names = set(tracer.names)
    assert {"laurent.mul", "laurent.add", "laurent.pow", "intersect.kuroda_basis"} <= names
    # the from-import in cli and the class-body alias __rmul__ were wrapped too
    assert tracer.names.count("intersect.kuroda_basis") == 2
    lp = mods["laurent"].LaurentPoly
    assert vars(lp)["__rmul__"] is vars(lp)["__mul__"]
    assert mods["cli"].kuroda_intersection_basis is mods["intersect"].kuroda_intersection_basis
    assert not hasattr(vars(lp)["__mul__"], "__wrapped__")


def test_generator_is_reproducible():
    for workload in workloads.WORKLOADS:
        assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
        assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


def test_cone_budget_is_respected():
    lo, hi = inputs.CONE_BOX_BUDGET
    for seed in range(3):
        cones = inputs.generate("certificates", seed)["cones"]
        assert len(cones) == len(set(cones)) == inputs.CONES
        for u in cones:
            assert inputs.det3(u) != 0
            assert lo <= inputs.cone_box_points(u) <= hi
    # the box the generator budgets is the box hilbert_basis enumerates
    u = cones[0]
    _, _, tracer, _ = _traced(
        lambda h14: h14.monoid.hilbert_basis(h14.lattice.IntMatrix.from_rows(u)).vectors
    )
    assert tracing.aggregate(tracer)["monoid.hilbert_basis.box_points"][0] == inputs.cone_box_points(u)


def _kernel_jobs():
    h14, _ = run.load_h14()
    return [workloads._kernel_job(h14, d) for d in range(4)]


def test_wrong_digest_counts_as_failure():
    jobs = _kernel_jobs()
    pinned = {r.name: r.digest for r in run.run_pass(jobs)}
    assert not any(r.problems for r in run.run_pass(jobs, pinned))
    pinned[jobs[2].name] = "0" * 64
    failed = [r.name for r in run.run_pass(jobs, pinned) if r.problems]
    assert failed == [jobs[2].name]


def test_counts_repeat_exactly():
    def counts():
        h14, mods = run.load_h14()
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, mods)
        try:
            inst = h14.kuroda.build_instance(4, 1, [list(r) for r in inputs.OFF3])
            h14.intersect.kuroda_intersection_basis(inst, 6)
            h14.intersect.freeness_coset_check(inst, 1)
        finally:
            tracing.uninstall(undo)
        return {k: v for k, (v, unit) in tracing.aggregate(tracer).items() if unit != "s"}

    first = counts()
    assert first == counts()
    assert first["intersect.kuroda_basis.nullspace_solves"] == 7
    assert first["intersect.freeness.coset_queries"] == 3 ** 4 * 7
