"""Benchmark of the h14 batch toolkit.

    python3 perfbench/run.py --workload pi-engine --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; h14 is imported from ``src/`` of that
checkout.  One process, one client, jobs run one after another (a closed
loop).  A run sets up ``SETUP_REPEATS`` times (import h14, generate the
seeded inputs, write the config files), then repeats the workload's batch of
jobs until the next batch would end after ``--seconds``.  Every job's output
is checked.

The host's speed drifts by tens of percent for seconds to minutes at a time
(other tenants on the same cores), so a fixed reference computation is timed
between consecutive jobs, and each job's time is scaled by
``REF_NOMINAL_S / median(reference times just before and after)``: seconds at
the reference speed, equal to wall seconds when the core runs at that speed.
A job's time is the median of its scaled times over the batches; ``wall_s``
is their sum.  The raw wall time and the speed factor are printed as well.

With ``--trace 1`` the run then installs span wrappers and runs the batch
once more, reports the per-layer metrics of that traced batch, checks that
its outputs match the untraced ones, and writes the spans to
``.perfbench/<workload>/spans-seed<seed>.tsv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record-digests`` (default
seed only) pins the digests of the current outputs in ``expected.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.0057  # reference_work() on an otherwise idle core of the baseline host
MODULES = ("cli", "derivation", "errors", "intersect", "kuroda", "lattice", "laurent", "linalg", "monoid")


@dataclass
class JobResult:
    name: str
    seconds: float
    ref_seconds: float  # median of reference_work() timings just before and after the job
    digest: str
    problems: list


def _reference_poly(rng, terms):
    return {
        tuple(rng.randint(-9, 9) for _ in range(4)): Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
        for _ in range(terms)
    }


_REF_RNG = random.Random(14)
REF_POLYS = (_reference_poly(_REF_RNG, 36), _reference_poly(_REF_RNG, 36))


def reference_work():
    """Fixed pure-Python work in the program's style: the product of two
    sparse polynomials with tuple exponent keys and Fraction coefficients."""
    f, g = REF_POLYS
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def timed_reference():
    gc.disable()  # so that no collection of the jobs' garbage lands in the reference
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        gc.enable()


def reference_samples(job_seconds):
    """Reference timings taken after a job: one, plus one per quarter second
    the job ran (at most five), so long jobs get a steadier estimate."""
    return [timed_reference() for _ in range(1 + min(4, int(job_seconds / 0.25)))]


def load_h14():
    """Import h14 afresh from SRC; returns (namespace, {short name: module})."""
    for name in [m for m in sys.modules if m == "h14" or m.startswith("h14.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"h14.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"h14 was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods), mods


def setup(workload, seed):
    """One timed set-up: import, generate inputs, write configs, build jobs.

    Returns (set-up seconds, reference seconds, modules, jobs).
    """
    ref_before = timed_reference()
    t0 = perf_counter()
    h14, mods = load_h14()
    data = inputs.generate(workload, seed)
    work = ROOT / ".perfbench" / workload
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[workload](h14, data, work)
    seconds = perf_counter() - t0
    return seconds, (ref_before + timed_reference()) / 2, mods, jobs


def run_pass(jobs, expected=None, tracer=None):
    """Run every job once, in order; returns one JobResult per job.

    A job fails if it raises, exits with a code other than 0, fails its
    check, or (when ``expected`` is given) its digest differs from the pin.
    """
    outputs = {}
    results = []
    refs_after = reference_samples(0.0)
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        refs_before = refs_after
        # Every job starts from a collected heap, as a fresh h14 process would;
        # otherwise when the collector runs depends on the jobs before it.
        gc.collect()
        t0 = perf_counter()
        try:
            code, text = job.run()
        except Exception as ex:  # a crashing job is a failed job, not a crashed run
            seconds = perf_counter() - t0
            refs_after = reference_samples(seconds)
            ref = statistics.median(refs_before + refs_after)
            results.append(JobResult(job.name, seconds, ref, "", [f"raised {type(ex).__name__}: {ex}"]))
            continue
        seconds = perf_counter() - t0
        refs_after = reference_samples(seconds)
        ref = statistics.median(refs_before + refs_after)
        outputs[job.name] = text
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            problems += job.check(text, outputs)
        except Exception as ex:  # malformed output
            problems.append(f"check raised {type(ex).__name__}: {ex}")
        dig = workloads.digest(text)
        if expected is not None and expected.get(job.name) != dig:
            problems.append(f"digest {dig[:12]} != pinned {str(expected.get(job.name))[:12]}")
        results.append(JobResult(job.name, seconds, ref, dig, problems))
    return results


def scaled(seconds, ref_seconds):
    """Seconds at the reference speed."""
    return seconds * REF_NOMINAL_S / ref_seconds


def speed_factor(results):
    """How much slower than nominal the host ran during one batch."""
    return statistics.median(r.ref_seconds for r in results) / REF_NOMINAL_S


def job_times(passes):
    """Per job, the median over batches of its speed-scaled time."""
    return [
        statistics.median(scaled(p[j].seconds, p[j].ref_seconds) for p in passes)
        for j in range(len(passes[0]))
    ]


def time_metrics(times):
    return {
        "wall_s": sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[-1],
        "job_max_s": max(times),
    }


def load_expected(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {})


def record_digests(workload, results):
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    pinned[workload] = {r.name: r.digest for r in results}
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="pin the default seed's output digests in expected.json")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("--record-digests pins the default seed only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "h14" / "__init__.py").is_file():
        print(f"error: no h14 package under {SRC}", file=sys.stderr)
        return 2
    try:
        setups = [setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    except (ImportError, OSError) as ex:
        print(f"error: set-up failed: {ex}", file=sys.stderr)
        return 2
    _, _, mods, jobs = setups[-1]
    expected = None if args.record_digests else load_expected(args.workload, args.seed)

    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(run_pass(jobs, expected))
        now = perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = job_times(passes)
    summary = time_metrics(times)
    executed = [r for p in passes for r in p]

    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, mods)
        try:
            traced = run_pass(jobs, expected, tracer)
        finally:
            tracing.uninstall(undo)
        for r, plain in zip(traced, passes[0]):
            if r.digest != plain.digest:
                r.problems.append("traced output differs from the untraced output")
        executed += traced
        layer = tracing.aggregate(tracer)
        traced_wall = sum(scaled(r.seconds, r.ref_seconds) for r in traced)
        layer["trace.overhead_ratio"] = (traced_wall / summary["wall_s"], "ratio")
        tracer.dump(ROOT / ".perfbench" / args.workload / f"spans-seed{args.seed}.tsv")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled(s[0], s[1]) for s in setups), "unit": "s"},
            **{key: {"value": value, "unit": "s"} for key, value in summary.items()},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    failed = [r for r in executed if r.problems]
    if args.record_digests and not failed:
        record_digests(args.workload, passes[0])
    for job, seconds in zip(jobs, times):
        status = "; ".join(dict.fromkeys(q for r in executed if r.name == job.name for q in r.problems))
        print(f"{job.name}\t{seconds:.4f}\t{status or 'ok'}")
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "load": "closed loop, one client, sequential jobs",
        "jobs_per_pass": len(jobs),
        "passes": len(passes) + bool(args.trace),
        "fail_ratio": len(failed) / len(executed),
        "speed_factor": statistics.median(speed_factor(p) for p in passes),
        "raw_wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(executed),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
