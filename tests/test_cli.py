import re

import numpy as np
import pytest

import lpipm.cli
import lpipm.mehrotra
from lpipm import FactorizationFailed, generate_instance, parse_certificate
from lpipm.cli import run_cli
from conftest import boxed_ranged_instance

STATUS_RE = re.compile(
    r"^status=(Optimal|IterationLimit|NumericalFailure) "
    r"objective=[-+0-9.e]+ "
    r"e_p=[-+0-9.e]+ e_d=[-+0-9.e]+ e_g=[-+0-9.e]+ "
    r"iterations=\d+ factorizations=\d+ cg_iterations=\d+ wall_s=\d+\.\d+$"
)


@pytest.fixture
def planted(tmp_path):
    inst = generate_instance(12, 30, seed=33)
    path = tmp_path / "toy.mps"
    path.write_text(inst.mps_text)
    return inst, str(path)


def _run(capsys, argv):
    code = run_cli(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestSolve:
    def test_pd_solves_to_certificate(self, planted, capsys):
        inst, path = planted
        code, out, _ = _run(capsys, ["solve", path, "--algorithm", "pd"])
        assert code == 0
        line = out.strip().splitlines()[-1]
        assert STATUS_RE.match(line), line
        obj = float(line.split("objective=")[1].split()[0])
        ref = inst.certificate.objective
        assert abs(obj - ref) <= 1e-8 * (1 + abs(ref))

    def test_all_algorithms_agree(self, planted, capsys):
        inst, path = planted
        ref = inst.certificate.objective
        for algo in ("pd", "primal", "primal-exact", "hybrid"):
            args = ["solve", path, "--algorithm", algo]
            if algo.startswith("primal"):
                args += ["--tau", "0.28"]
            code, out, _ = _run(capsys, args)
            assert code == 0, (algo, out)
            obj = float(out.split("objective=")[1].split()[0])
            assert abs(obj - ref) <= 1e-7 * (1 + abs(ref)), algo

    def test_missing_file_exit_one(self, capsys):
        code, _, err = _run(capsys, ["solve", "no-such-file.mps"])
        assert code == 1
        assert "error" in err

    def test_malformed_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.mps"
        bad.write_text("ROWS\n N COST\n")  # no ENDATA
        code, _, err = _run(capsys, ["solve", str(bad)])
        assert code == 1

    def test_iteration_limit_exit_two(self, planted, capsys):
        _, path = planted
        code, out, _ = _run(
            capsys, ["solve", path, "--algorithm", "pd", "--max-iter", "1"]
        )
        assert code == 2
        assert "IterationLimit" in out

    @pytest.mark.parametrize("algorithm", ["pd", "primal", "primal-exact", "hybrid"])
    def test_negative_max_iter_is_usage_error(self, planted, capsys, algorithm):
        _, path = planted
        code, out, err = _run(
            capsys, ["solve", path, "--algorithm", algorithm, "--max-iter", "-3"]
        )
        assert code == 1
        assert out == "" and "max_iter" in err

    def test_disabled_switch_matches_pd_trace(self, planted, tmp_path, capsys):
        _, path = planted
        t1 = tmp_path / "pd.csv"
        t2 = tmp_path / "hy.csv"
        _run(capsys, ["solve", path, "--algorithm", "pd", "--trace", str(t1)])
        _run(capsys, [
            "solve", path, "--algorithm", "hybrid",
            "--switch-budget", "1000000000", "--trace", str(t2),
        ])
        rows1 = t1.read_text().splitlines()
        rows2 = t2.read_text().splitlines()
        assert len(rows1) == len(rows2)
        # timing columns differ run to run; everything else is identical
        for a, b in zip(rows1[1:], rows2[1:]):
            assert a.split(",")[:12] == b.split(",")[:12]

    def test_quiet_suppresses_output(self, planted, capsys):
        _, path = planted
        code, out, _ = _run(capsys, ["solve", path, "--algorithm", "pd", "--quiet"])
        assert code == 0
        assert out == ""

    def test_dualize_reports_same_objective(self, planted, capsys):
        inst, path = planted
        code, out, _ = _run(capsys, ["solve", path, "--algorithm", "pd", "--dualize"])
        assert code == 0
        obj = float(out.split("objective=")[1].split()[0])
        ref = inst.certificate.objective
        assert abs(obj - ref) <= 1e-6 * (1 + abs(ref))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_dualize_keeps_bounds_and_ranges(self, tmp_path, capsys, seed):
        # the symmetric form writes each finite upper bound as a row
        path = tmp_path / "box.mps"
        path.write_text(boxed_ranged_instance(seed).mps_text)
        objectives = []
        for route in ([], ["--dualize"]):
            code, out, _ = _run(capsys, ["solve", str(path), "--algorithm", "pd", *route])
            assert code == 0, out
            objectives.append(float(out.split("objective=")[1].split()[0]))
        primal, dual = objectives
        assert abs(dual - primal) <= 1e-10 * (1 + abs(primal))

    def test_usage_error_exit_one(self, planted, capsys):
        code, _, _ = _run(capsys, ["solve"])  # missing input
        assert code == 1
        code, _, _ = _run(capsys, ["frobnicate"])
        assert code == 1
        _, path = planted
        code, out, err = _run(capsys, ["solve", path, "--switch-budget", "-1"])
        assert code == 1
        assert out == "" and err.startswith("error:")
        # the scaled-distance thresholds are constants, not options
        for option in (["--nu", "1"], ["--switch-dist", "0.1"]):
            code, out, err = _run(capsys, ["solve", path, *option])
            assert code == 1
            assert out == "" and "error: unrecognized arguments" in err
        # the probe is exact: it has no step count to set
        code, out, err = _run(capsys, ["probe", path, "--tau", "0.28", "--iters", "30"])
        assert code == 1
        assert out == "" and "error: unrecognized arguments" in err

    @pytest.mark.parametrize("algorithm", ["pd", "primal", "primal-exact", "hybrid"])
    def test_failed_start_exit_three(self, planted, capsys, monkeypatch, algorithm):
        # the primal engines take their start from the CLI, pd and the
        # hybrid compute it in pd_solve: on every path a factorization
        # that fails there is a numerical failure, not a traceback
        def fail(p):
            raise FactorizationFailed("non-finite pivot in the factorization")

        monkeypatch.setattr(lpipm.cli, "pd_starting_point", fail)
        monkeypatch.setattr(lpipm.mehrotra, "pd_starting_point", fail)
        _, path = planted
        code, out, err = _run(capsys, ["solve", path, "--algorithm", algorithm])
        assert code == 3
        assert "non-finite pivot in the factorization" in out + err

    def test_status_line_stable_across_runs(self, planted, capsys):
        # golden-style stability: everything except wall time is
        # byte-identical between repeated runs
        _, path = planted
        lines = []
        for _ in range(2):
            _, out, _ = _run(capsys, ["solve", path, "--algorithm", "pd"])
            lines.append(out.strip().rsplit(" wall_s=", 1)[0])
        assert lines[0] == lines[1]
        assert STATUS_RE.match(out.strip())


class TestGenerate:
    def test_writes_files_and_exit_zero(self, tmp_path, capsys):
        out_prefix = str(tmp_path / "inst")
        code, out, _ = _run(capsys, [
            "generate", "6", "15", "--seed", "5", "--out", out_prefix,
        ])
        assert code == 0
        mps = (tmp_path / "inst.mps").read_text()
        cert = parse_certificate((tmp_path / "inst.cert").read_text())
        assert cert.m == 6 and cert.n == 15 and cert.seed == 5
        assert "ENDATA" in mps

    def test_seed_determinism_byte_identical(self, tmp_path, capsys):
        p1 = str(tmp_path / "a")
        p2 = str(tmp_path / "b")
        _run(capsys, ["generate", "6", "15", "--seed", "9", "--out", p1, "--quiet"])
        _run(capsys, ["generate", "6", "15", "--seed", "9", "--out", p2, "--quiet"])
        assert (tmp_path / "a.mps").read_bytes() == (tmp_path / "b.mps").read_bytes()
        assert (tmp_path / "a.cert").read_bytes() == (tmp_path / "b.cert").read_bytes()

    def test_generated_solves_via_cli(self, tmp_path, capsys):
        prefix = str(tmp_path / "g")
        _run(capsys, ["generate", "8", "20", "--seed", "2", "--out", prefix, "--quiet"])
        code, out, _ = _run(capsys, ["solve", prefix + ".mps", "--algorithm", "pd"])
        assert code == 0
        cert = parse_certificate((tmp_path / "g.cert").read_text())
        obj = float(out.split("objective=")[1].split()[0])
        assert abs(obj - cert.objective) <= 1e-8 * (1 + abs(cert.objective))

    @pytest.mark.parametrize("argv", [["8", "20", "--density", "0"], ["8", "20", "--spread", "-2"],
                                      ["0", "5"]])
    def test_out_of_range_shape_is_usage_error(self, tmp_path, capsys, argv):
        prefix = tmp_path / "g"
        code, out, err = _run(capsys, ["generate", *argv, "--out", str(prefix)])
        assert code == 1
        assert out == "" and "error" in err
        assert not (tmp_path / "g.mps").exists()


class TestProbe:
    def test_probe_writes_csv(self, planted, tmp_path, capsys):
        _, path = planted
        out_csv = tmp_path / "spectra.csv"
        code, _, _ = _run(capsys, [
            "probe", path, "--tau", "0.28", "--max-iter", "100",
            "--trace", str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "iteration,kappa_reuse,kappa_pd"
        assert len(lines) >= 2
        for line in lines[1:]:
            kappa = float(line.split(",")[1])
            assert kappa >= 1.0 - 1e-9

    @pytest.mark.parametrize("argv", [
        ["--window", "0"], ["--window", "-2"], ["--max-iter", "-1"], ["--iters", "0"],
    ])
    def test_out_of_range_count_is_usage_error(self, planted, capsys, argv):
        # --window 0 used to probe every iterate, --window -2 to drop two;
        # --iters, the step count of the old Lanczos probe, is no option
        _, path = planted
        code, out, err = _run(capsys, ["probe", path, "--tau", "0.28", *argv])
        assert code == 1
        assert out == "" and "error" in err
