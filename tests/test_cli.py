"""Command-line interface: subcommands, reports, exit-code contract."""

import json
import random
import time

import pytest

import h14.cli
import h14.intersect
import h14.monoid
from h14.cli import main
from h14.errors import IndependenceError, LinealityError
from h14.laurent import LaurentPoly
from h14.monoid import SubalgebraGens, intersection_generators


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            try:
                expected = [LaurentPoly.monomial(3, m).to_text() for m in intersection_generators(gens)]
            except (IndependenceError, LinealityError):
                continue
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
        code, out, _ = run(capsys, "verify", check_id, "--dmax", "6")
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
            ("p2.6", "h14.intersect.no_monomial_units_check"),
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

    def test_crash_is_exit_4_not_a_failed_verification(self, capsys, monkeypatch):
        def crash(_args, _rep):
            raise RuntimeError("worker crashed")

        monkeypatch.setitem(h14.cli.VERIFY_DISPATCH, "t2.8", crash)
        code, out, err = run(capsys, "verify", "t2.8")
        assert code == 4
        assert "RESULT" not in out
        assert err == "internal error: RuntimeError: worker crashed\n"

    def test_non_homogeneous_basis_is_an_internal_error(self, capsys, monkeypatch):
        real = h14.intersect.span_intersection

        def corrupt(rows_a, rows_b, field):
            dim_a, dim_b, inter = real(rows_a, rows_b, field)
            return dim_a, dim_b, inter + [{(1, 0, 0, 0): 1, (0, 0, 0, 1): 1}]

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


class TestIntersectAndScan:
    def test_intersect_report(self, capsys):
        code, out, _ = run(capsys, "intersect", "--dmax", "4")
        assert code == 0
        assert "degree\tpi_monomials\tconstraints\tdim\tnew_generators" in out
        assert "1 * X1^0 X2^0 X3^0 X4^0" in out  # the constant basis element

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "scan")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0].split("\t") == ["n", "bound", "instances", "implication_violations", "converse_witnesses"]
        assert lines[1].split("\t")[:4] == ["3", "4", "256", "0"]
        assert lines[2].split("\t")[:4] == ["4", "2", "512", "0"]

    @pytest.mark.parametrize(
        "option, value",
        [("--config", "instance.json"), ("--field", "Fp:5"), ("--dmax", "3")],
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

    def test_header_lines(self, capsys):
        code, out, _ = run(capsys, "check-conditions", "--seed", "7")
        header = [l for l in out.splitlines() if l.startswith("#")]
        assert any("h14" in l for l in header)
        assert any("seed: 7" in l for l in header)

    @pytest.mark.parametrize(
        "argv, config_field, expected",
        [
            (["verify", "r2.16"], None, ["# field: Fp:2"]),
            (["verify", "p2.6"], None, ["# field: Q", "# dmax: 4"]),
            (["verify", "l2.15", "--field", "Fp:5"], None, ["# field: Fp:5", "# dmax: 12"]),
            (["intersect"], "Fp:5", ["# field: Fp:5", "# dmax: 6"]),
            (["check-conditions"], "Fp:7", ["# field: Fp:7"]),
            (["verify", "l3.2", "--dmax", "3"], "F5", ["# field: Fp:5", "# dmax: 3"]),
        ],
    )
    def test_header_states_effective_field_and_bound(self, capsys, tmp_path, argv, config_field, expected):
        if config_field is not None:
            data = {"n": 4, "gamma": 1, "delta": [[1, 3, 3], [3, 1, 3], [3, 3, 1]], "field": config_field}
            argv = argv + ["--config", write_config(tmp_path, data)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header = [line for line in out.splitlines() if line.startswith("# field:") or line.startswith("# dmax:")]
        assert header == expected

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "t2.14", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "t2.14", "--seed", "3")
        assert out1 == out2
