"""Command-line interface: subcommands, reports, exit-code contract."""

import argparse
import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import h14.cli
import h14.errors
import h14.intersect
import h14.monoid
from h14.cli import main
from h14.errors import PreconditionError, UsageError
from h14.kuroda import ScanReport
from h14.lattice import left_kernel
from h14.laurent import LaurentPoly
from h14.monoid import SubalgebraGens, intersection_generators


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


N4 = {"n": 4, "gamma": 1, "delta": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestCheckConditions:
    def test_default_instance(self, capsys):
        code, out, _ = run(capsys, "check-conditions")
        assert code == 0
        assert "value\t3/4" in out
        assert "holds\tTrue" in out

    def test_n3_counterexample(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"n": 3, "gamma": 1, "delta": [[3, 1], [1, 1]]})
        code, out, _ = run(capsys, "check-conditions", "--config", cfg)
        assert code == 0
        assert "value\t5/4" in out
        assert "holds\tFalse" in out
        assert "det_T\t2" in out

    def test_malformed_delta(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"n": 3, "gamma": 1, "delta": [[0, 1], [1, 1]]})
        code, _, err = run(capsys, "check-conditions", "--config", cfg)
        assert code == 2
        assert "delta" in err

    @pytest.mark.parametrize("argv", [["check-conditions"], ["intersect"], ["verify", "l3.2"]])
    @pytest.mark.parametrize("data", [{}, {"field": "Fp:5"}])
    def test_config_without_an_instance_is_a_config_error(self, capsys, tmp_path, argv, data):
        # an empty config used to run the default instance under "# config: <path>";
        # check-conditions does not read the field, so it refuses that key first
        cfg = write_config(tmp_path, data)
        code, out, err = run(capsys, *argv, "--config", cfg)
        assert code == 2
        assert out == ""
        if "field" in data and argv == ["check-conditions"]:
            assert err == "error: unknown config keys: field\n"
        else:
            assert "missing required key 'n'" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"n": 3, "gamma": 1, "delta": [[1, 1], [1, 1]], "x": 1})
        code, _, err = run(capsys, "check-conditions", "--config", cfg)
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 4, "gamma": 1, "delta": [1, 2, 3]},
            {"n": 4, "gamma": True, "delta": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]},
            {"n": 3, "gamma": 1, "delta": [[3, True], [1, 1]]},
        ],
    )
    def test_malformed_instance_is_a_config_error(self, capsys, tmp_path, data):
        cfg = write_config(tmp_path, data)
        code, _, err = run(capsys, "check-conditions", "--config", cfg)
        assert code == 2
        assert "gamma" in err or "delta" in err

    @pytest.mark.parametrize("n", [4.0, True, "4"])
    def test_n_that_is_not_an_integer_is_a_config_error(self, capsys, tmp_path, n):
        # n = 4.0 used to pass as 4 and exit 0
        cfg = write_config(tmp_path, {"n": n, "gamma": 1, "delta": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]})
        code, out, err = run(capsys, "check-conditions", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "n must be an integer" in err

    def test_jobs_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-conditions", "--jobs", "2"])
        assert exc.value.code == 2


class TestHilbert:
    def test_worked_example(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"U": [[1, 1], [1, -1]]})
        code, out, _ = run(capsys, "hilbert", "--config", cfg)
        assert code == 0
        assert "1 * X1^1 X2^1" in out
        assert "1 * X1^2 X2^0" in out
        assert "1 * X1^0 X2^2" in out

    def test_identity_u(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"U": [[1, 0], [0, 1]]})
        code, out, _ = run(capsys, "hilbert", "--config", cfg)
        assert code == 0
        assert "1 * X1^1 X2^0" in out and "1 * X1^0 X2^1" in out

    def test_rank_deficient_exit3(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"U": [[1, 1], [2, 2]]})
        code, _, err = run(capsys, "hilbert", "--config", cfg)
        assert code == 3
        assert err == "precondition error: cone is not pointed; contains the line through (2, -1)\n"

    def test_missing_u(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"n": 4, "gamma": 1, "delta": [[1, 1, 1]] * 3})
        code, _, _ = run(capsys, "hilbert", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize("entry", ["a", 1.7, True])
    def test_non_integer_entry_is_a_config_error(self, capsys, tmp_path, entry):
        cfg = write_config(tmp_path, {"U": [[1, entry], [1, -1]]})
        code, out, err = run(capsys, "hilbert", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "U entries must be integers" in err

    @pytest.mark.parametrize("u", [True, 3, "ab", []])
    def test_u_that_is_not_a_matrix_is_a_config_error(self, capsys, tmp_path, u):
        # a U that is not a list of lists is refused before it is iterated
        cfg = write_config(tmp_path, {"U": u})
        code, out, err = run(capsys, "hilbert", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "U must be a nonempty matrix" in err

    def test_one_hilbert_basis_per_run(self, capsys, tmp_path, monkeypatch):
        rng = random.Random(8)
        calls = []
        original = h14.monoid.hilbert_basis

        def counted(u):
            calls.append(u)
            return original(u)

        checked = 0
        while checked < 15:
            t = rng.randint(1, 3)
            u = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(t)]
            if len({tuple(r) for r in u}) != t:
                continue
            gens = SubalgebraGens.of(3, u)
            if left_kernel(gens.matrix):  # dependent rows: a cone with a line
                continue
            expected = [LaurentPoly.monomial(3, m).to_text() for m in intersection_generators(gens)]
            checked += 1
            cfg = write_config(tmp_path, {"U": u})
            with monkeypatch.context() as m:
                m.setattr(h14.cli, "hilbert_basis", counted)
                m.setattr(h14.monoid, "hilbert_basis", counted)
                calls.clear()
                code, out, _ = run(capsys, "hilbert", "--config", cfg)
            assert code == 0
            assert len(calls) == 1
            monos = [line.split("\t")[1] for line in out.splitlines() if line.startswith("monomial\t")]
            assert monos == expected

    def test_cone_past_the_enumeration_budget_exits_2_quickly(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"U": [[20, 1, 0], [0, 20, 1], [1, 0, 20]]})
        start = time.perf_counter()
        code, out, err = run(capsys, "hilbert", "--config", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "enumeration budget" in err


class TestVerify:
    @pytest.mark.parametrize(
        "check_id",
        ["t2.5i", "t2.5ii", "p2.6", "t2.8", "t2.14", "l2.13", "l2.15", "r2.16", "l3.2"],
    )
    def test_all_pass(self, capsys, check_id):
        bound = ["--dmax", "6"] if check_id in ("p2.6", "l2.15", "l3.2") else []
        code, out, _ = run(capsys, "verify", check_id, *bound)
        assert code == 0, out
        assert "RESULT\tpass" in out

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == 2
        assert "valid ids" in err

    def test_field_option(self, capsys):
        code, out, _ = run(capsys, "verify", "l2.15", "--field", "Fp:5", "--dmax", "8")
        assert code == 0
        assert "RESULT\tpass" in out

    @pytest.mark.parametrize(
        "check_id, work",
        [
            ("t2.5i", "h14.cli.solve_unit_row"),
            ("p2.6", "h14.cli.no_monomial_units_check"),
            ("l3.2", "h14.cli.kuroda_intersection_basis"),
        ],
    )
    def test_n4_checks_reject_n3_config_up_front(self, capsys, tmp_path, monkeypatch, check_id, work):
        def no_work(*_args):
            raise AssertionError("the check ran before the config was rejected")

        monkeypatch.setattr(work, no_work)
        cfg = write_config(tmp_path, {"n": 3, "gamma": 1, "delta": [[3, 1], [1, 1]]})
        code, out, err = run(capsys, "verify", check_id, "--config", cfg)
        assert code == 2
        assert "RESULT" not in out
        assert "n=4 family" in err

    @pytest.mark.parametrize(
        "option, value",
        [("--config", "instance.json"), ("--field", "Fp:5"), ("--dmax", "3"), ("--seed", "3")],
    )
    def test_l31_rejects_options_it_would_ignore(self, capsys, tmp_path, monkeypatch, option, value):
        # --config /nonexistent.json --field Fp:5 used to exit 0, computing over Q on the fixed box
        def no_work(*_args):
            raise AssertionError("the (*)-tables were built before the option was rejected")

        monkeypatch.setattr("h14.cli.star_tables", no_work)
        if option == "--config":
            value = write_config(tmp_path, {"n": 4, "gamma": 1, "delta": [[1, 1, 1]] * 3})
        code, out, err = run(capsys, "verify", "l3.1", option, value)
        assert code == 2
        assert out == ""
        assert option in err

    def test_t28_rows_fail_separately(self, capsys, monkeypatch):
        monkeypatch.setattr(h14.cli, "intersection_generators", lambda gens: [])
        code, out, _ = run(capsys, "verify", "t2.8")
        assert code == 1
        assert "worked_example\tFAIL\n" in out
        assert "random_bases_in_cone\t5\tok\n" in out
        assert out.endswith("RESULT\tfail\n")

    @pytest.mark.parametrize(
        "check_id, work, row",
        [
            ("t2.5ii", "freeness_certificate", "free_decomposition\tFAIL\n"),
            ("p2.6", "no_monomial_units_check", "no_nonconstant_monomials\tFAIL\n"),
            ("l3.2", "support_property_check", "support_property\tFAIL\n"),
        ],
    )
    def test_failed_worker_fails_the_report(self, capsys, monkeypatch, check_id, work, row):
        monkeypatch.setattr(h14.cli, work, lambda *_args: False)
        code, out, _ = run(capsys, "verify", check_id)
        assert code == 1
        assert row in out
        assert out.endswith("RESULT\tfail\n")

    def test_crash_is_exit_4_not_a_failed_verification(self, capsys, monkeypatch):
        def crash(_args, _rep):
            raise RuntimeError("worker crashed")

        monkeypatch.setitem(h14.cli.VERIFY_DISPATCH, "t2.8", (crash, ("seed",)))
        code, out, err = run(capsys, "verify", "t2.8")
        assert code == 4
        assert "RESULT" not in out
        assert err == "internal error: RuntimeError: worker crashed\n"

    def test_non_homogeneous_basis_is_an_internal_error(self, capsys, monkeypatch):
        real = h14.intersect.span_intersection

        def corrupt(rows_a, rows_b, field):
            # the rows have packed monomial keys, and key 0 is the constant
            # monomial: a nonconstant key of the slice plus 0 is not homogeneous
            inter = real(rows_a, rows_b, field)
            keys = {k for row in rows_a for k in row} - {0}
            return inter + [{min(keys): 1, 0: 1}] if keys else inter

        monkeypatch.setattr(h14.intersect, "span_intersection", corrupt)
        code, out, err = run(capsys, "verify", "l2.15", "--field", "Fp:5", "--dmax", "2")
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: ArithmeticError: ")

    def test_bad_field(self, capsys):
        code, _, err = run(capsys, "verify", "l2.15", "--field", "Fp:9")
        assert code == 2

    def test_thirty_digit_modulus_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "intersect", "--field", "Fp:" + "1" * 30)
        assert code == 2
        assert out == ""
        assert "too large" in err

    def test_boolean_config_field_is_not_a_modulus(self, capsys, tmp_path):
        # "field": true used to fail as "field modulus True is not prime"
        cfg = write_config(tmp_path, {**N4, "field": True})
        code, out, err = run(capsys, "intersect", "--config", cfg)
        assert (code, out) == (2, "")
        assert "unrecognized field tag True" in err


class TestIntersectAndScan:
    def test_intersect_report(self, capsys):
        code, out, _ = run(capsys, "intersect", "--dmax", "4")
        assert code == 0
        assert "degree\tpi_monomials\tconstraints\tdim\tnew_generators" in out
        assert "1 * X1^0 X2^0 X3^0 X4^0" in out  # the constant basis element

    def test_dmax_bound_of_the_pi_engine(self, capsys, tmp_path):
        # on the n=3 instance, whose dmax-20 run is cheap; acceptance 14 runs
        # the default n=4 instance through dmax 20
        cfg = write_config(tmp_path, {"n": 3, "gamma": 1, "delta": [[3, 1], [1, 1]]})
        code, out, _ = run(capsys, "intersect", "--dmax", "20", "--config", cfg)
        assert code == 0 and "# dmax: 20" in out
        code, out, err = run(capsys, "intersect", "--dmax", "21", "--config", cfg)
        assert code == 2 and out == "" and "degree bound" in err

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "scan")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0].split("\t") == ["n", "bound", "instances", "implication_violations", "converse_witnesses"]
        assert lines[1].split("\t")[:4] == ["3", "4", "256", "0"]
        assert lines[2].split("\t")[:4] == ["4", "2", "512", "0"]

    def test_scan_violation_is_a_failed_row(self, capsys, monkeypatch):
        def one_violation(n, bound):
            found = ({"delta": ((1, 2), (3, 4)), "value": "1/3", "det": 0},) if n == 3 else ()
            return ScanReport(1, found, 0)

        monkeypatch.setattr("h14.cli.implication_scan", one_violation)
        code, out, _ = run(capsys, "scan")
        assert code == 1
        failed = [l.split("\t") for l in out.splitlines() if l.endswith("\tFAIL")]
        assert failed == [["implication_violation", "3", "4", "[[1, 2], [3, 4]]", "1/3", "0", "FAIL"]]

    @pytest.mark.parametrize(
        "option, value",
        [("--config", "instance.json"), ("--field", "Fp:5"), ("--dmax", "3"), ("--seed", "3")],
    )
    def test_scan_rejects_options_it_would_ignore(self, capsys, tmp_path, monkeypatch, option, value):
        def no_work(*_args):
            raise AssertionError("the scan ran before the option was rejected")

        monkeypatch.setattr("h14.cli.implication_scan", no_work)
        if option == "--config":
            value = write_config(tmp_path, {"n": 4, "gamma": 1, "delta": [[1, 1, 1]] * 3})
        code, out, err = run(capsys, "scan", option, value)
        assert code == 2
        assert out == ""
        assert option in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.tsv"
        code, out, _ = run(capsys, "scan", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "instances" in target.read_text()

    @pytest.mark.parametrize("check_id", ["t2.8", "t2.14"])
    def test_header_lines(self, capsys, check_id):
        code, out, _ = run(capsys, "verify", check_id, "--seed", "7")
        header = [l for l in out.splitlines() if l.startswith("#")]
        assert code == 0
        assert any("h14" in l for l in header)
        assert "# seed: 7" in header

    @pytest.mark.parametrize("argv", [
        ["scan"], ["check-conditions"], ["verify", "t2.5i"], ["verify", "p2.6", "--dmax", "1"],
        ["intersect", "--dmax", "1"], ["verify", "l2.15", "--dmax", "1"],
    ])
    def test_commands_without_randomness_print_no_seed(self, capsys, argv):
        # they used to accept --seed 7 and ignore it; now they refuse it
        code, out, err = run(capsys, *argv, "--seed", "7")
        assert code == 2
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize(
        "argv, config, expected",
        [
            (["verify", "r2.16"], None, ["# field: Fp:2"]),
            (["verify", "p2.6"], None, ["# field: Q", "# dmax: 4"]),
            (["verify", "l2.15", "--field", "Fp:5"], None, ["# field: Fp:5", "# dmax: 12"]),
            (["intersect"], {**N4, "field": "Fp:5"}, ["# field: Fp:5", "# dmax: 6"]),
            (["verify", "p2.6"], {**N4, "field": "Fp:7"}, ["# field: Fp:7", "# dmax: 4"]),
            (["verify", "l3.2", "--dmax", "3"], {**N4, "field": "F5"}, ["# field: Fp:5", "# dmax: 3"]),
            # commands that use no degree bound print none (and refuse --dmax,
            # see TestOptionsRead); commands that read no field print none
            (["check-conditions"], None, []),
            (["hilbert"], {"U": [[1, 1], [1, -1]]}, []),
            (["verify", "t2.5i"], None, []),
            (["verify", "t2.5ii"], None, []),
            (["verify", "l3.1"], None, []),
            (["verify", "t2.8"], None, []),
            (["scan"], None, []),
        ],
    )
    def test_header_states_effective_field_and_bound(self, capsys, tmp_path, argv, config, expected):
        if config is not None:
            argv = argv + ["--config", write_config(tmp_path, config)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header = [line for line in out.splitlines() if line.startswith("# field:") or line.startswith("# dmax:")]
        assert header == expected

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "t2.14", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "t2.14", "--seed", "3")
        assert out1 == out2


class TestParser:
    def test_built_once(self):
        assert h14.cli.build_parser() is h14.cli.build_parser()

    def test_options_do_not_leak_between_calls(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"n": 4, "gamma": 1, "delta": [[1, 1, 1]] * 3, "field": "Fp:7"})
        code, out, _ = run(capsys, "verify", "l2.15", "--dmax", "3", "--field", "Fp:5")
        assert code == 0 and "# field: Fp:5" in out and "# dmax: 3" in out
        code, out, _ = run(capsys, "verify", "l2.15")
        assert code == 0 and "# field: Q" in out and "# dmax: 16" in out
        code, out, _ = run(capsys, "verify", "p2.6", "--config", cfg, "--dmax", "1")
        assert code == 0 and f"# config: {cfg}" in out and "# field: Fp:7" in out and "seed" not in out
        code, out, _ = run(capsys, "verify", "t2.8", "--seed", "5")
        assert code == 0 and "# seed: 5" in out
        code, out, _ = run(capsys, "verify", "p2.6", "--dmax", "1")
        assert code == 0
        assert "# config: default" in out and "# field: Q" in out and "# dmax: 1" in out
        code, out, _ = run(capsys, "verify", "t2.8")
        assert code == 0 and "# seed: 0" in out


def command_lines():
    """Each subcommand but ``verify`` (its reads are parser defaults), and
    ``verify`` with each check id of ``VERIFY_DISPATCH``."""
    sub = next(a for a in h14.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name,) for name in sub.choices if name != "verify"] + [("verify", i) for i in h14.cli.VERIFY_DISPATCH]


@pytest.mark.parametrize("command", command_lines(), ids=" ".join)
def test_config_line_exactly_when_the_config_is_read(command):
    args = h14.cli.build_parser().parse_args(list(command))
    h14.cli._reject_unread(args)
    rep = h14.cli.Report(args)
    rep.header()
    assert ("# config: default" in rep.lines) == ("config" in args.reads)


# -- options: each command accepts exactly the options it reads -----------------

# command -> (the options it reads, the h14.cli function its work starts with)
READS = {
    ("check-conditions",): ({"config"}, "build_instance"),
    ("hilbert",): ({"config"}, "hilbert_basis"),
    ("intersect",): ({"config", "field", "dmax"}, "kuroda_intersection_basis"),
    ("scan",): (set(), "implication_scan"),
    ("verify", "t2.5i"): ({"config"}, "solve_unit_row"),
    ("verify", "t2.5ii"): ({"config"}, "freeness_certificate"),
    ("verify", "p2.6"): ({"config", "field", "dmax"}, "no_monomial_units_check"),
    ("verify", "t2.8"): ({"seed"}, "intersection_generators"),
    ("verify", "t2.14"): ({"config", "field", "seed"}, "verify_t214"),
    ("verify", "l2.13"): ({"config", "field", "seed"}, "verify_t214"),
    ("verify", "l2.15"): ({"field", "dmax"}, "graded_intersection"),
    ("verify", "r2.16"): (set(), "graded_intersection"),
    ("verify", "l3.1"): (set(), "star_tables"),
    ("verify", "l3.2"): ({"config", "field", "dmax"}, "kuroda_intersection_basis"),
}


class TestOptionsRead:
    @pytest.mark.parametrize("option", ["config", "dmax", "field", "seed"])
    @pytest.mark.parametrize("command", sorted(READS), ids=" ".join)
    def test_an_option_is_accepted_exactly_when_it_is_read(self, capsys, tmp_path, monkeypatch, command, option):
        # verify l2.15 --config /nonexistent.json used to print "# config: ..." and RESULT pass
        reads, work = READS[command]

        def started(*_args):
            raise RuntimeError("work started")

        monkeypatch.setattr(f"h14.cli.{work}", started)
        cfg = write_config(tmp_path, {"U": [[1, 1], [1, -1]]} if command == ("hilbert",) else N4)
        argv = [*command, f"--{option}", {"config": cfg, "dmax": "1", "field": "Fp:2", "seed": "1"}[option]]
        if command == ("hilbert",) and option != "config":
            argv += ["--config", cfg]  # hilbert has no default cone
        code, out, err = run(capsys, *argv)
        if option in reads:
            assert (code, err) == (4, "internal error: RuntimeError: work started\n")
        else:
            assert code == 2
            assert out == ""
            assert err == f"error: {' '.join(command)} does not read --{option}\n"

    @pytest.mark.parametrize("command", sorted(c for c in READS if "config" in READS[c][0]), ids=" ".join)
    def test_a_config_field_is_accepted_exactly_when_the_field_is_read(self, capsys, tmp_path, monkeypatch, command):
        # check-conditions used to print "# field: Fp:5" for a config field it never computed in
        reads, work = READS[command]
        fields = []

        def started(inst, *_args):
            fields.append(inst.field)
            raise RuntimeError("work started")

        monkeypatch.setattr(f"h14.cli.{work}", started)
        cone = {"U": [[1, 1], [1, -1]]}
        cfg = write_config(tmp_path, {**(cone if command == ("hilbert",) else N4), "field": "Fp:5"})
        code, out, err = run(capsys, *command, "--config", cfg)
        if "field" in reads:
            assert (code, err, fields) == (4, "internal error: RuntimeError: work started\n", [5])
        else:
            assert (code, out, err, fields) == (2, "", "error: unknown config keys: field\n", [])

    def test_every_unread_option_is_named(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("h14.cli.star_tables", lambda *_args: pytest.fail("work started"))
        code, out, err = run(capsys, "verify", "l3.1", "--seed", "1", "--field", "Q", "--dmax", "2",
                             "--out", str(tmp_path / "report.tsv"))
        assert (code, out) == (2, "")
        assert err == "error: verify l3.1 does not read --dmax, --field, --seed\n"


# -- the stderr of each error exit, byte for byte ------------------------------

MISSING = object()  # a --config path with no file behind it

# (argv, config text or None or MISSING, exit code, stderr); "{cfg}" in the
# stderr stands for the config path.  One raise per error message the CLI
# can reach: every config error of ``cli`` and an instance, shape, lineality
# and singularity error from the library.
ERROR_EXITS = [
    (["hilbert"], '{"U": [[1, 1], [2, 2]]}', 3,
     "precondition error: cone is not pointed; contains the line through (2, -1)\n"),
    (["hilbert"], '{"U": [[1, 1], [2]]}', 2, "error: generator (2,) has length != 2\n"),
    (["intersect"], '{"n": 4, "gamma": 0, "delta": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}', 2,
     "error: gamma must be an integer >= 1, got 0\n"),
    (["intersect"], '{"n": 4, "gamma": 1, "delta": [[0, 3, 3], [3, 1, 3], [3, 3, 1]]}', 2,
     "error: delta[0][0] must be an integer >= 1, got 0\n"),
    (["intersect"], '{"n": 3, "gamma": 1, "delta": [[1, 1], [1, 1]]}', 3,
     "precondition error: exponent matrix is singular; the pis are dependent\n"),
    (["intersect"], MISSING, 2,
     "error: cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'\n"),
    (["intersect"], "", 2, "error: config {cfg} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"),
    (["intersect"], "[1]", 2, "error: config must be a JSON object\n"),
    (["intersect"], '{"n": 3, "gamma": 1, "delta": [[3, 1], [1, 1]], "x": 1}', 2,
     "error: unknown config keys: x\n"),
    (["intersect"], '{"n": 3}', 2, "error: config is missing required key 'gamma'\n"),
    (["verify", "l3.2"], '{"n": 3, "gamma": 1, "delta": [[3, 1], [1, 1]]}', 2,
     "error: verify l3.2 concerns the n=4 family, got n=3\n"),
    (["hilbert"], None, 2, 'error: the hilbert command needs a config {"U": [[...], ...]}\n'),
    (["hilbert"], '{"U": []}', 2, "error: U must be a nonempty matrix\n"),
    (["hilbert"], '{"U": [[1, 1.5]]}', 2, "error: U entries must be integers, got 1.5\n"),
]


@pytest.mark.parametrize("argv, config, code, stderr", ERROR_EXITS)
def test_error_exit_prints_its_exact_message(capsys, tmp_path, argv, config, code, stderr):
    path = tmp_path / "config.json"
    if isinstance(config, str):
        path.write_text(config)
    if config is not None:
        argv = [*argv, "--config", str(path)]
    assert run(capsys, *argv) == (code, "", stderr.replace("{cfg}", str(path)))


def test_every_error_class_has_an_exit_code(capsys, monkeypatch):
    # a leaf class below the two would name no exit code of its own
    defined = {cls for cls in vars(h14.errors).values()
               if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == "h14.errors"}
    exits = {UsageError: (2, "error"), PreconditionError: (3, "precondition error")}
    assert defined == set(exits)
    for cls, (code, prefix) in exits.items():
        def fail(n, bound, cls=cls):
            raise cls("stop")

        monkeypatch.setattr(h14.cli, "implication_scan", fail)
        assert run(capsys, "scan") == (code, "", f"{prefix}: stop\n")


# -- exit-code contract under generated input ---------------------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.sampled_from([10**20, -(10**20)]), st.lists(st.integers(-2, 2), max_size=2),
)


def matrix(k, entries):
    return st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k)


FIELDS = st.sampled_from(["Q", "Fp:2", "Fp:3", "F5", "Fp:4", "Fp:0", "x", 7, 9]) | JUNK
# well-formed instances reach the checks (a singular one is a precondition error)
INSTANCES = st.sampled_from([3, 4]).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n), "gamma": st.integers(1, 2), "delta": matrix(n - 1, st.integers(1, 4))},
    optional={"field": st.sampled_from(["Q", "Fp:2", "Fp:5", "F7"])},
))
MALFORMED_INSTANCES = st.fixed_dictionaries(
    {"n": st.sampled_from([2, 3, 4, 5]) | JUNK, "gamma": st.integers(-1, 3) | JUNK,
     "delta": matrix(2, st.integers(-1, 4) | JUNK) | matrix(3, st.integers(-1, 4) | JUNK) | JUNK},
    optional={"field": FIELDS, "U": matrix(2, st.integers(-2, 2)), "junk": JUNK},
)
CONES = st.fixed_dictionaries(
    {"U": st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=3), min_size=1, max_size=3)},
    optional={"field": FIELDS},
)
MALFORMED_CONES = st.fixed_dictionaries(
    {"U": st.lists(st.lists(st.integers(-2, 2) | JUNK, min_size=1, max_size=3), max_size=3) | JUNK},
    optional={"field": FIELDS, "n": JUNK},
)
CONFIG_TEXTS = st.one_of(
    INSTANCES.map(json.dumps), CONES.map(json.dumps),
    (MALFORMED_INSTANCES | MALFORMED_CONES | JUNK).map(json.dumps), st.text(max_size=8),
)
COMMANDS = st.sampled_from(
    [["check-conditions"], ["hilbert"], ["intersect"], ["scan"]]
    + [["verify", c] for c in ("t2.5i", "t2.5ii", "p2.6", "t2.8", "t2.14", "l2.13", "l2.15", "r2.16", "l3.1",
                               "l3.2", "x")]
)


class TestExitCodeContract:
    """0 pass, 1 only with a printed ``RESULT fail``, 2 usage or config error,
    3 precondition error; a crash (4) never happens on any input."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        command=COMMANDS,
        config=st.none() | CONFIG_TEXTS,
        dmax=st.sampled_from([None, None, "0", "1", "2", "3", "-1", "x"]),
        field=st.sampled_from([None, None, None, "Q", "Fp:2", "Fp:3", "F5", "Fp:9", "y"]),
        seed=st.sampled_from([None, None, "0", "3", "-2", "z"]),
    )
    def test_generated_configs_and_options(self, tmp_path_factory, command, config, dmax, field, seed):
        argv = list(command)
        if config is not None:
            path = tmp_path_factory.mktemp("fuzz") / "config.json"
            path.write_text(config)
            argv += ["--config", str(path)]
        for option, value in (("--dmax", dmax), ("--field", field), ("--seed", seed)):
            if value is not None:
                argv += [option, value]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as ex:  # argparse rejects the options
                code = ex.code
        assert code in (0, 1, 2, 3), (argv, config, err.getvalue())
        if code == 1:
            assert "RESULT\tfail" in out.getvalue(), (argv, config)

    @pytest.mark.parametrize("out", ["missing/x.txt", "."])
    def test_unwritable_out_path_is_a_usage_error(self, capsys, tmp_path, out):
        # it used to print "internal error: FileNotFoundError" and exit 4
        path = tmp_path / out
        code, stdout, err = run(capsys, "check-conditions", "--out", str(path))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write report to {path}: ")


def test_readme_lists_every_verify_id():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("The verification ids accepted by `h14 verify` are")
    ids = re.findall(r"`([a-z]\d[\w.]*)`", readme[start:readme.index("Each prints", start)])
    assert len(ids) == len(set(ids))
    assert set(ids) == set(h14.cli.VERIFY_DISPATCH) | set(h14.cli.VERIFY_ALIASES)


def test_readme_table_states_the_options_each_command_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("| command / id | reads |")
    rows = readme[start:readme.index("\n\n", start)].splitlines()[2:]
    stated = {}
    for row in rows:
        names, reads = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`([^`]+)`", names):
            command = ("verify", name) if name in h14.cli.VERIFY_ALIASES else tuple(name.split())
            assert command not in stated
            stated[command] = set() if reads == "none" else set(reads.split(", "))
    parser = h14.cli.build_parser()
    declared = {(c,): set(parser.parse_args([c]).reads) for c in ("check-conditions", "hilbert", "intersect", "scan")}
    for check_id in [*h14.cli.VERIFY_DISPATCH, *h14.cli.VERIFY_ALIASES]:
        declared["verify", check_id] = set(h14.cli.VERIFY_DISPATCH[h14.cli.VERIFY_ALIASES.get(check_id, check_id)][1])
    assert stated == declared
