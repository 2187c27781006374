import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from probdd import (choose_ordering, compile_cnf, export_prob, parameterize, parse_dimacs, parse_weights, run_incremental,
                    sample, smooth)
from probdd.cli import EXIT_GUARD, EXIT_INPUT, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, _write, main
from probdd.sampler import SampleBatch

from helpers import (EXAMPLE_DIMACS, EXAMPLE_WEIGHTS, force_split, mutated_exports, mutated_inputs, record_pools,
                     wide_ancestors_prob)

NON_SMOOTH_PROB = "prob 1.0\nnvars 3\nnnodes 5\n0 F\n1 T\n2 D 2 0 1\n3 D 3 1 0\n4 D 1 2 3\nroot 4\n"


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "example.cnf"
    path.write_text(EXAMPLE_DIMACS)
    return str(path)


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "example.w"
    path.write_text(EXAMPLE_WEIGHTS)
    return str(path)


class TestCompileCommand:
    def test_smooth_compile_reports_nine_nodes(self, cnf_file, tmp_path, capsys):
        out = tmp_path / "example.prob"
        code = main(["compile", "--cnf", cnf_file, "--smooth", "--ordering", "natural", "--out", str(out)])
        assert code == EXIT_OK
        assert "nnodes 9" in out.read_text()
        assert "nodes=9" in capsys.readouterr().err

    def test_unsat_warns_but_succeeds(self, tmp_path, capsys):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        out = tmp_path / "unsat.prob"
        assert main(["compile", "--cnf", str(cnf), "--out", str(out)]) == EXIT_OK
        assert "unsatisfiable" in capsys.readouterr().err
        assert "root 0" in out.read_text()

    def test_guard_exit_code(self, cnf_file):
        assert main(["compile", "--cnf", cnf_file, "--max-vars", "2"]) == EXIT_GUARD

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf x y\n")
        assert main(["compile", "--cnf", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("text, message", [
        ("p cnf 3 2\n1 0\n\n2\n-3\n", "line 4: last clause is missing its terminating 0"),
        ("c two clauses\np cnf 2 2\n1 2 0\n", "line 2: header declares 2 clauses, found 1"),
    ])
    def test_clause_count_errors_name_their_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cnf"
        bad.write_text(text)
        assert main(["compile", "--cnf", str(bad)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--cnf", "--prob", "--weights"])
    def test_missing_input_file_is_input_error(self, cnf_file, tmp_path, capsys, flag):
        missing = str(tmp_path / "missing")
        argv = ["sample", "-k", "1", flag, missing] + (["--cnf", cnf_file] if flag == "--weights" else [])
        assert main(argv) == EXIT_INPUT
        assert f"cannot read {missing}" in capsys.readouterr().err

    def test_missing_cnf_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["compile"])
        assert err.value.code == EXIT_USAGE

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("probdd ")

    def test_runs_as_module(self):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "probdd", "--version"],
            cwd=src, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == EXIT_OK
        assert result.stdout.startswith("probdd ")

    def test_long_chain_compiles_without_recursion_error(self, tmp_path):
        # 987 variables: the shortest chain whose recursive compilation
        # overflowed the interpreter stack when run as a module.
        n = 987
        cnf = tmp_path / "chain.cnf"
        cnf.write_text(f"p cnf {n} {n - 1}\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, n)))
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "probdd", "compile", "--cnf", str(cnf), "--max-vars", "2000", "--smooth"],
            cwd=src, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == EXIT_OK, result.stderr[-2000:]
        assert "Traceback" not in result.stderr
        assert f"nvars {n}" in result.stdout


class TestSampleCommand:
    def test_deterministic_output(self, cnf_file, weights_file, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            code = main([
                "sample", "--cnf", cnf_file, "--weights", weights_file,
                "-k", "20", "--seed", "7", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 20

    def test_thread_count_is_capped_by_cpus_and_samples(self, cnf_file, tmp_path, monkeypatch):
        serial, split = tmp_path / "serial.txt", tmp_path / "split.txt"
        assert main(["sample", "--cnf", cnf_file, "-k", "1000", "--seed", "3", "--out", str(serial)]) == EXIT_OK
        sizes = record_pools(monkeypatch)
        force_split(monkeypatch, 4)
        assert main(["sample", "--cnf", cnf_file, "-k", "1000", "--seed", "3", "--out", str(split)]) == EXIT_OK
        assert sizes == [4]
        assert split.read_text() == serial.read_text()

    def test_sample_from_prob_file(self, cnf_file, weights_file, tmp_path):
        prob_path = tmp_path / "example.prob"
        main(["compile", "--cnf", cnf_file, "--smooth", "--out", str(prob_path)])
        out = tmp_path / "models.txt"
        code = main(["sample", "--prob", str(prob_path), "--weights", weights_file, "-k", "5", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 5

    def test_sample_from_parameterized_non_smooth_prob_file(self, cnf_file, weights_file, tmp_path, capsys):
        # smoothing adds unparameterized nodes; the tool must fall back to
        # uniform weights rather than fail
        prob_path = tmp_path / "skeleton.prob"
        text = (
            "prob 1.0\nnvars 3\nnnodes 5\n0 F\n1 T\n"
            "2 D 2 0 1 0.25 0.75\n3 D 3 1 0 0.25 0.75\n4 D 1 2 3 0.25 0.75\nroot 4\n"
        )
        prob_path.write_text(text)
        out = tmp_path / "models.txt"
        code = main(["sample", "--prob", str(prob_path), "-k", "4", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert "uniform" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 4

    def test_missing_weights_warns_uniform(self, cnf_file, tmp_path, capsys):
        out = tmp_path / "m.txt"
        assert main(["sample", "--cnf", cnf_file, "-k", "3", "--seed", "2", "--out", str(out)]) == EXIT_OK
        assert "uniform" in capsys.readouterr().err

    def test_uniform_warning_says_why(self, tmp_path, capsys):
        out = str(tmp_path / "out.txt")
        empty = tmp_path / "empty.cnf"  # no decisions, yet only a --prob file carries parameters
        empty.write_text("p cnf 0 0\n")
        for command in ("sample", "dist"):
            assert main([command, "--cnf", str(empty), "-k", "2", "--out", out]) == EXIT_OK
            assert "warning: no weights given, sampling uniformly" in capsys.readouterr().err
        dropped = "warning: smoothing added decisions without branch parameters, sampling uniformly\n"
        for num_vars, err in ((2, dropped), (1, "")):  # variable 2 needs a new don't-care decision
            prob_path = tmp_path / f"{num_vars}.prob"
            prob_path.write_text(f"prob 1.0\nnvars {num_vars}\nnnodes 3\n0 F\n1 T\n2 D 1 0 1 0.25 0.75\nroot 2\n")
            assert main(["sample", "--prob", str(prob_path), "-k", "2", "--out", out]) == EXIT_OK
            assert capsys.readouterr().err == err

    def test_both_sources_is_usage_error(self, cnf_file):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--cnf", cnf_file, "--prob", cnf_file])
        assert err.value.code == EXIT_USAGE

    def test_neither_source_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["sample", "-k", "3"])
        assert err.value.code == EXIT_USAGE

    def test_env_seed_fallback(self, cnf_file, tmp_path, monkeypatch):
        def run(out):
            assert main(["sample", "--cnf", cnf_file, "-k", "10", "--out", str(out)]) == EXIT_OK
            return out.read_text()

        monkeypatch.setenv("PROB_SAMPLER_SEED", "1234")
        first = run(tmp_path / "env1.txt")
        second = run(tmp_path / "env2.txt")
        monkeypatch.setenv("PROB_SAMPLER_SEED", "99")
        third = run(tmp_path / "env3.txt")
        assert first == second
        assert first != third

    def test_non_integer_env_seed_is_input_error(self, cnf_file, monkeypatch, capsys):
        monkeypatch.setenv("PROB_SAMPLER_SEED", "abc")
        assert main(["sample", "--cnf", cnf_file, "-k", "1"]) == EXIT_INPUT
        assert "PROB_SAMPLER_SEED must be an integer" in capsys.readouterr().err

    def test_rational_mode_runs(self, cnf_file, weights_file, tmp_path):
        out = tmp_path / "r.txt"
        code = main([
            "sample", "--cnf", cnf_file, "--weights", weights_file,
            "-k", "10", "--seed", "3", "--mode", "rational", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 10

    def test_streamed_output_equals_model_lines(self, cnf_file, weights_file, tmp_path):
        # k spans several formatting blocks, each written on its own
        out = tmp_path / "models.txt"
        argv = ["sample", "--cnf", cnf_file, "--weights", weights_file, "-k", "20000", "--seed", "4", "--out", str(out)]
        assert main(argv) == EXIT_OK
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = smooth(compile_cnf(formula, choose_ordering(formula, "occ")))
        parameterize(prob, parse_weights(EXAMPLE_WEIGHTS, formula))
        assert out.read_text() == sample(prob, 20000, 4).model_lines()

    @pytest.mark.parametrize("previous", [None, "earlier output\n"])
    def test_failed_write_leaves_no_partial_file(self, cnf_file, tmp_path, capsys, monkeypatch, previous):
        def failing_blocks(batch):
            yield "1 -2 3 0\n"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(SampleBatch, "model_line_blocks", failing_blocks)
        out = tmp_path / "models.txt"
        if previous is not None:
            out.write_text(previous)
        assert main(["sample", "--cnf", cnf_file, "-k", "3", "--out", str(out)]) == EXIT_INPUT
        assert "cannot write" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["example.cnf"]

    def test_write_failure_propagates_and_cleans_up(self, tmp_path):
        def chunks():
            yield "first block\n"
            raise RuntimeError("formatting failed")

        out = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            _write(str(out), chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_through_a_link_keeps_the_link(self, tmp_path):
        def chunks():
            yield "first block\n"
            raise RuntimeError("formatting failed")

        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        link.symlink_to(target)
        with pytest.raises(RuntimeError):
            _write(str(link), chunks())
        assert link.is_symlink()

    def test_out_dev_stdout_into_a_pipe(self, cnf_file, weights_file):
        if not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout on this platform")
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["sample", "--cnf", cnf_file, "--weights", weights_file, "-k", "20000", "--seed", "4", "--out", "/dev/stdout"]
        result = subprocess.run(
            [sys.executable, "-m", "probdd", *argv], cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        assert result.returncode == EXIT_OK, result.stderr.decode()[-2000:]
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = smooth(compile_cnf(formula, choose_ordering(formula, "occ")))
        parameterize(prob, parse_weights(EXAMPLE_WEIGHTS, formula))
        assert result.stdout == sample(prob, 20000, 4).model_lines().encode()

    def test_unwritable_out_is_input_error(self, cnf_file, tmp_path, capsys):
        code = main(["sample", "--cnf", cnf_file, "-k", "3", "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err


class TestCountArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "-k", "0"],
            ["sample", "-k", "-3"],
            ["sample", "-k", "ten"],
            ["dist", "-k", "0"],
            ["inc", "--rounds", "0"],
            ["inc", "-k", "0"],
        ],
    )
    def test_non_positive_count_is_usage_error(self, cnf_file, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main([argv[0], "--cnf", cnf_file, *argv[1:]])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "expected a positive integer" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["sample", "inc", "dist"])
    @pytest.mark.parametrize("k", [2**59, 2**62])  # beyond any 64-bit address space: refused without allocating
    def test_unallocatable_count_is_guard_error(self, cnf_file, capsys, command, k):
        assert main([command, "--cnf", cnf_file, "-k", str(k)]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert f"k={k}" in captured.err
        assert "Traceback" not in captured.err


class TestMaxVarsArgument:
    def test_negative_max_vars_is_usage_error(self, cnf_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compile", "--cnf", cnf_file, "--max-vars", "-5"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "expected a non-negative integer" in captured.err
        assert "Traceback" not in captured.err

    def test_zero_max_vars_is_the_guard(self, cnf_file, tmp_path):
        empty = tmp_path / "empty.cnf"
        empty.write_text("p cnf 0 0\n")
        assert main(["compile", "--cnf", cnf_file, "--max-vars", "0"]) == EXIT_GUARD
        assert main(["compile", "--cnf", str(empty), "--max-vars", "0", "--out", str(tmp_path / "out.prob")]) == EXIT_OK


class TestIncCommand:
    def test_csv_and_model_lines(self, cnf_file, weights_file, tmp_path, capsys):
        models = tmp_path / "models.txt"
        code = main([
            "inc", "--cnf", cnf_file, "--weights", weights_file,
            "--rounds", "10", "-k", "100", "--seed", "5", "--out", str(models),
        ])
        assert code == EXIT_OK
        csv_lines = capsys.readouterr().out.splitlines()
        assert csv_lines[0].startswith("round,compile_s")
        assert len(csv_lines) == 11
        model_lines = [l for l in models.read_text().splitlines() if not l.startswith("c ")]
        assert len(model_lines) == 1000

    def test_streamed_output_equals_joined_rounds(self, cnf_file, weights_file, tmp_path, capsys):
        out = tmp_path / "models.txt"
        argv = ["inc", "--cnf", cnf_file, "--weights", weights_file, "--rounds", "3", "-k", "10000", "--seed", "6"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        formula = parse_dimacs(EXAMPLE_DIMACS)
        reports = run_incremental(
            formula, parse_weights(EXAMPLE_WEIGHTS, formula), rounds=3, k=10000, seed=6,
            ordering=choose_ordering(formula, "occ"),
        )
        assert out.read_text() == "".join(f"c round {rep.round}\n" + rep.samples.model_lines() for rep in reports)

    def test_twenty_rounds(self, cnf_file, tmp_path, capsys):
        models = tmp_path / "models.txt"
        code = main(["inc", "--cnf", cnf_file, "--rounds", "20", "-k", "5", "--seed", "5", "--out", str(models)])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 21

    def test_models_deterministic_for_seed(self, cnf_file, weights_file, tmp_path, capsys):
        texts = []
        for name in ("m1.txt", "m2.txt"):
            out = tmp_path / name
            main(["inc", "--cnf", cnf_file, "--weights", weights_file,
                  "--rounds", "4", "-k", "30", "--seed", "8", "--out", str(out)])
            capsys.readouterr()
            texts.append(out.read_text())
        assert texts[0] == texts[1]


class TestCheckCommand:
    def test_smooth_diagram_passes(self, cnf_file, tmp_path, capsys):
        prob_path = tmp_path / "example.prob"
        main(["compile", "--cnf", cnf_file, "--smooth", "--out", str(prob_path)])
        assert main(["check", "--prob", str(prob_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "determinism: ok" in out and "smoothness: ok" in out
        assert "annotation: skipped" in out
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = smooth(compile_cnf(formula))
        prob_path.write_text(export_prob(parameterize(prob, parse_weights(EXAMPLE_WEIGHTS, formula))))
        assert main(["check", "--prob", str(prob_path)]) == EXIT_OK
        assert "annotation: ok (root mass 0.375)" in capsys.readouterr().out

    def test_non_smooth_diagram_fails_naming_node(self, tmp_path, capsys):
        prob_path = tmp_path / "nonsmooth.prob"
        prob_path.write_text(NON_SMOOTH_PROB)
        assert main(["check", "--prob", str(prob_path)]) == EXIT_PROPERTY
        out = capsys.readouterr().out
        assert "smoothness violated at node 4" in out

    def test_unnormalized_parameters_fail(self, tmp_path, capsys):
        prob_path = tmp_path / "unnormalized.prob"
        prob_path.write_text("prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 D 1 0 1 0 0\nroot 2\n")
        assert main(["check", "--prob", str(prob_path)]) == EXIT_PROPERTY
        assert "parameters" in capsys.readouterr().err

    def test_huge_variable_count_fails_smoothness(self, tmp_path, capsys):
        prob_path = tmp_path / "huge.prob"
        prob_path.write_text("prob 1.0\nnvars 100000000\nnnodes 3\n0 F\n1 T\n2 D 1 0 1\nroot 2\n")
        assert main(["check", "--prob", str(prob_path)]) == EXIT_PROPERTY
        assert "smoothness violated at node 2: diagram never mentions 99999999 variables" in capsys.readouterr().out

    def test_root_mass_above_one_fails(self, tmp_path, capsys):
        # each pair sums to 1 within THETA_SUM_TOL, but 2,000 of them multiply to 1 + 1.8e-9
        n = 2000
        decisions = [f"{v + 1} D {v} 1 1 0.50000000000045 0.50000000000045" for v in range(1, n + 1)]
        conj = f"{n + 2} A {n} " + " ".join(str(v + 1) for v in range(1, n + 1))
        prob_path = tmp_path / "heavy.prob"
        prob_path.write_text("\n".join(["prob 1.0", f"nvars {n}", f"nnodes {n + 3}", "0 F", "1 T", *decisions, conj,
                                        f"root {n + 2}"]) + "\n")
        assert main(["check", "--prob", str(prob_path)]) == EXIT_PROPERTY
        assert "annotation violated at node 2002: root mass 1.0000000017" in capsys.readouterr().out

    def test_broken_file_fails(self, tmp_path):
        prob_path = tmp_path / "broken.prob"
        prob_path.write_text("prob 1.0\nnvars 1\nnnodes 4\n0 F\n1 T\n2 D 1 0 1\n3 D 1 2 1\nroot 3\n")
        assert main(["check", "--prob", str(prob_path)]) == EXIT_PROPERTY


class TestMutatedDiagramFiles:
    @given(mutated_exports())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_commands_exit_with_a_code(self, tmp_path, text):
        prob_path = tmp_path / "mutated.prob"
        prob_path.write_text(text)
        codes = (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_PROPERTY, EXIT_GUARD)
        for argv in (["check"], ["smooth"], ["sample", "-k", "5", "--seed", "1"]):
            assert main([*argv, "--prob", str(prob_path)]) in codes


class TestMutatedInputFiles:
    @given(mutated_inputs())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_commands_exit_with_a_code(self, tmp_path, capsys, files):
        cnf_path, weights_path = tmp_path / "mutated.cnf", tmp_path / "mutated.w"
        cnf_path.write_text(files[0])
        weights_path.write_text(files[1])
        codes = (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_PROPERTY, EXIT_GUARD)
        for command in ("sample", "inc", "dist"):
            argv = [command, "--cnf", str(cnf_path), "--weights", str(weights_path), "-k", "5", "--seed", "1"]
            assert main([*argv, "--out", str(tmp_path / "out.txt")]) in codes
        assert "Traceback" not in capsys.readouterr().err


class TestSmoothCommand:
    def test_smooths_skeleton(self, tmp_path):
        prob_path = tmp_path / "nonsmooth.prob"
        prob_path.write_text(NON_SMOOTH_PROB)
        out = tmp_path / "smooth.prob"
        assert main(["smooth", "--prob", str(prob_path), "--out", str(out)]) == EXIT_OK
        assert "nnodes 9" in out.read_text()
        assert main(["check", "--prob", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("num_vars, params, warned", [
        (2, " 0.3 0.7", True),  # variable 2 needs a new don't-care decision, which has no parameters
        (1, " 0.3 0.7", False),  # already smooth: written back as read
        (2, "", False),  # no parameters to drop
    ])
    def test_warns_when_parameters_are_dropped(self, tmp_path, capsys, num_vars, params, warned):
        prob_path = tmp_path / "in.prob"
        prob_path.write_text(f"prob 1.0\nnvars {num_vars}\nnnodes 3\n0 F\n1 T\n2 D 1 0 1{params}\nroot 2\n")
        out = tmp_path / "out.prob"
        assert main(["smooth", "--prob", str(prob_path), "--out", str(out)]) == EXIT_OK
        dropped = "warning: smoothing added decisions without branch parameters, so the output has no parameters\n"
        assert capsys.readouterr().err == (dropped if warned else "")
        if num_vars == 1:
            assert out.read_text() == prob_path.read_text()
        else:
            assert "0.3" not in out.read_text()

    @pytest.mark.parametrize("argv", [["smooth"], ["sample", "-k", "3", "--seed", "1"]])
    def test_huge_declared_variable_count_is_guard_error(self, tmp_path, capsys, argv):
        prob_path = tmp_path / "huge.prob"
        prob_path.write_text("prob 1.0\nnvars 1000000000\nnnodes 2\n0 F\n1 T\nroot 1\n")
        out = tmp_path / "out.txt"
        assert main([*argv, "--prob", str(prob_path), "--out", str(out)]) == EXIT_GUARD
        assert "never mentions 1000000000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["check"], ["smooth"], ["sample", "-k", "3", "--seed", "1"]])
    def test_masks_past_the_bound_are_guard_error(self, tmp_path, capsys, argv):
        prob_path = tmp_path / "wide.prob"
        prob_path.write_text(wide_ancestors_prob(200))
        out = tmp_path / "out.txt"
        extra = [] if argv == ["check"] else ["--out", str(out)]
        assert main([*argv, "--prob", str(prob_path), *extra]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert "203 nodes deciding variables up to 100000000" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestDistCommand:
    def test_histogram_and_stats(self, cnf_file, weights_file, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        code = main([
            "dist", "--cnf", cnf_file, "--weights", weights_file,
            "-k", "20000", "--seed", "11", "--out", str(hist),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "tv_distance=" in out and "p_value=" in out
        lines = hist.read_text().splitlines()
        assert lines[0] == "occurrences,num_unique_solutions"
        assert len(lines) >= 2

    @pytest.mark.parametrize("weights", ["w {v} 1e300\n", "w {v} 1e-300\nw -{v} 1e-300\n"])
    def test_weights_far_from_one(self, tmp_path, capsys, weights):
        # products of three such weights leave a double's range
        cnf, weights_path = tmp_path / "free.cnf", tmp_path / "far.w"
        cnf.write_text("p cnf 3 0\n")
        weights_path.write_text("".join(weights.format(v=v) for v in (1, 2, 3)))
        code = main(["dist", "--cnf", str(cnf), "--weights", str(weights_path), "-k", "1000", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        tv = float(captured.out.split("tv_distance=")[1].split()[0])
        assert math.isfinite(tv) and tv < 0.2

    def test_histogram_beyond_one_mask_word(self, tmp_path, capsys):
        n = 70
        chain = tmp_path / "chain.cnf"
        chain.write_text(f"p cnf {n} {n - 1}\n" + "".join(f"-{v} {v + 1} 0\n" for v in range(1, n)))
        hist = tmp_path / "hist.csv"
        code = main(["dist", "--cnf", str(chain), "-k", "100", "--max-vars", "100", "--out", str(hist)])
        assert code == EXIT_OK
        assert "samples=100" in capsys.readouterr().out
        header, *lines = hist.read_text().splitlines()
        assert header == "occurrences,num_unique_solutions"
        rows = [line.split(",") for line in lines]
        assert sum(int(occ) * int(num) for occ, num in rows) == 100


class TestNoVariables:
    """Formulas and diagrams over zero variables sample the empty model."""

    @pytest.mark.parametrize(
        "command", [["sample", "-k", "3"], ["inc", "-k", "3", "--rounds", "2"], ["dist", "-k", "3"]]
    )
    def test_empty_cnf(self, command, tmp_path, capsys):
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 0 0\n")
        assert main(command + ["--cnf", str(cnf), "--seed", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if command[0] == "sample":
            assert captured.out == "0\n" * 3

    def test_empty_prob(self, tmp_path, capsys):
        prob_path = tmp_path / "empty.prob"
        prob_path.write_text("prob 1.0\nnvars 0\nnnodes 2\n0 F\n1 T\nroot 1\n")
        assert main(["sample", "--prob", str(prob_path), "-k", "3", "--seed", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "0\n" * 3
