import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colored_descents
from colored_descents import schemas
from colored_descents.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_row_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--r", "2", "--n", "2")
        assert code == 0
        assert len(out.splitlines()) == 8

    def test_empty_group(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--r", "1", "--n", "0")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_json_records(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--r", "2", "--n", "2", "--format", "json"
        )
        records = json.loads(out)
        assert len(records) == 8
        for record in records:
            schemas.validate(record, "enumerate_record")
        assert records[0]["word"] == "1_0 2_0"

    def test_json_stream_stops_at_a_bad_record(self, capsys, monkeypatch):
        # records are validated and written one at a time; a bad first
        # record writes nothing, and the schema error is not a usage error
        monkeypatch.setattr(
            "colored_descents.cli.permutation_to_json", lambda pi: {"r": 0}
        )
        with pytest.raises(schemas.SchemaError, match="permutation"):
            main(["enumerate", "--r", "2", "--n", "2", "--format", "json"])
        assert capsys.readouterr().out == ""

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--r", "2", "--n", "2", "--format", "csv"
        )
        assert out.splitlines()[0] == "rank,word,descent_set,des,intdes,mr_key"
        assert len(out.splitlines()) == 9

    def test_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--r", "4", "--n", "9", "--max-group-size", "100"
        )
        assert code == 2

    def test_bigger_group_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--r", "4", "--n", "5", "--format", "csv"
        )
        assert len(out.splitlines()) - 1 == 4**5 * 120


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["order-poly", "--r", "2"]) == 1

    def test_closure_refused_before_any_partition(self, capsys, monkeypatch):
        # G(2,6) needs (46080 - 23548)^2 pairs; the closed class sizes say
        # so before a word of the partition is built
        def fail(*args, **kwargs):
            raise AssertionError("a partition was built")

        monkeypatch.setattr("colored_descents.verify.des_partition", fail)
        for suite in ("closure-des", "idempotents", "phi"):
            code, out, err = run(
                capsys, "verify", suite, "--r", "2", "--n", "6", "--format", "json"
            )
            assert (code, out) == (2, "")
            assert err == "error: 507691024 products exceed cap 250000000\n"
        # over both caps, the group cap is reported
        code, _, err = run(
            capsys, "verify", "closure-des", "--r", "2", "--n", "6",
            "--max-group-size", "1000",
        )
        assert (code, err) == (2, "error: group of order 46080 exceeds cap 1000\n")

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == 1

    def test_verification_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "closure-desset", "--r", "2", "--n", "2")
        assert code == 3
        assert "witness" in out
        # a run that makes no check is not a pass
        code, out, _ = run(capsys, "verify", "ftcpp", "--cases", "0")
        assert code == 3
        assert "FAIL (0 checks" in out

    def test_pass(self, capsys):
        assert main(["verify", "variants", "--r", "2", "--n", "2"]) == 0

    def test_product_cap_is_not_group_cap(self, capsys):
        # 48^2 products stay under the fixed product cap; the group cap of
        # 100 bounds only the group of order 48
        argv = ["verify", "closure-des", "--r", "2", "--n", "3"]
        assert main(argv + ["--max-group-size", "100"]) == 0
        assert main(argv + ["--max-group-size", "10"]) == 2

    def test_lemma_suites_honour_group_cap(self, capsys):
        for suite in ("zigzag", "chain"):
            argv = ["verify", suite, "--r", "3", "--n", "5", "--max-group-size", "10"]
            assert main(argv) == 2

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(colored_descents.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        for module in ("colored_descents", "colored_descents.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "verify", "closure-desset",
                 "--r", "2", "--n", "2"],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 3, module
            assert "witness" in proc.stdout

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        code, _, err = run(capsys, "eulerian-poly", "--output", str(target))
        assert code == 1
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert not target.exists()

    def test_closed_stdout_pipe_is_usage_error(self):
        # the reader takes one line of about 1.5 MB and closes the pipe, as
        # ``| head -1`` does: the write fails like an unwritable --output
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(colored_descents.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "colored_descents", "enumerate",
             "--r", "3", "--n", "5", "--format", "csv"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().startswith("rank,word,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_cli_import_stays_light(self):
        # numpy or sympy at start-up would add to every command's time and
        # memory; jsonschema is a test-only dependency, so writing JSON must
        # not import it either; a single-process run needs no process pool
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(colored_descents.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        code = (
            "import io, sys, contextlib; from colored_descents.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['verify', 'closure-desset', '--format', 'json']),\n"
            "             main(['enumerate', '--format', 'json'])]\n"
            "heavy = {'numpy', 'sympy', 'jsonschema', 'concurrent.futures.process'}\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m in heavy or m.split('.')[0] == 'multiprocessing'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[3, 0] []"


class TestVerifyReports:
    def test_json_envelope(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "steingrimsson",
            "--r",
            "2",
            "--n",
            "2",
            "--format",
            "json",
            "--seed",
            "5",
        )
        assert code == 0
        report = json.loads(out)
        schemas.validate(report, "report")
        assert report["seed"] == 5
        assert report["version"]
        assert report["config"]["command"] == "verify"
        assert report["results"]["passed"] is True

    def test_deterministic_apart_from_duration(self, capsys):
        def normalized():
            code, out, _ = run(
                capsys,
                "verify",
                "ftcpp",
                "--r",
                "2",
                "--seed",
                "11",
                "--cases",
                "5",
                "--format",
                "json",
            )
            assert code == 0
            lines = [
                line
                for line in out.splitlines()
                if '"duration_seconds"' not in line
            ]
            return "\n".join(lines)

        assert normalized() == normalized()

    def test_jobs_do_not_change_output(self, capsys):
        def results(jobs, *argv):
            code, out, _ = run(
                capsys, "verify", *argv, "--jobs", jobs, "--format", "json"
            )
            assert code == 0
            return json.loads(out)["results"]

        for argv in (
            ("ftcpp", "--r", "2", "--seed", "3", "--cases", "6"),
            ("order-poly", "--r", "2", "--n", "2"),
            ("zigzag",),  # the default sweep: one case per element of nine groups
            ("zigzag", "--r", "2", "--n", "3"),
            ("chain", "--r", "3", "--n", "2"),
            ("barred", "--r", "2", "--n", "2", "--j", "0..2", "--k", "2"),
        ):
            assert results("1", *argv) == results("2", *argv), argv

    def test_barred_miscount_is_reported(self, capsys, monkeypatch):
        # a wrong barred-chain count must reach the report as a witness
        monkeypatch.setattr("colored_descents.ppartitions.omega_word", lambda w, j: 0)
        code, out, _ = run(
            capsys, "verify", "barred", "--r", "2", "--n", "2", "--format", "json"
        )
        assert code == 3
        results = json.loads(out)["results"]
        assert results["passed"] is False
        assert results["failures"][0]["barred"] == "0"

    def test_witness_emitted_on_failure(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "closure-desset",
            "--r",
            "2",
            "--n",
            "2",
            "--format",
            "json",
        )
        assert code == 3
        report = json.loads(out)
        witnesses = report["results"]["failures"][0]["witnesses"]
        assert witnesses and witnesses[0]["word1"]


class TestArtifacts:
    def test_idempotent_table_json(self, capsys):
        code, out, _ = run(
            capsys, "idempotents", "--r", "5", "--n", "3", "--format", "json"
        )
        table = json.loads(out)
        schemas.validate(table, "idempotent_table")
        assert table["common_denominator"] == "750"
        c0 = table["idempotents"][0]["by_des_class"]
        assert (c0[0]["num"], c0[0]["den"]) == ("84", "125")

    def test_idempotents_csv_rationals(self, capsys):
        code, out, _ = run(
            capsys, "idempotents", "--r", "5", "--n", "3", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "i,des,coefficient"
        assert lines[1] == "0,0,84/125"

    def test_eulerian_poly(self, capsys):
        code, out, _ = run(capsys, "eulerian-poly", "--r", "2", "--n", "2")
        assert out.strip() == "[1, 6, 1]"

    def test_eulerian_poly_json(self, capsys):
        code, out, _ = run(
            capsys, "eulerian-poly", "--r", "2", "--n", "2", "--format", "json"
        )
        record = json.loads(out)
        assert record["t_coeffs"] == ["1", "6", "1"]

    def test_order_poly_grid(self, capsys):
        code, out, _ = run(
            capsys, "order-poly", "--pi", "2_1 1_1", "--r", "2", "--j", "0..3"
        )
        assert out.strip() == "[0, 0, 1, 3]"

    def test_verify_j_range_starts_at_zero(self, capsys, monkeypatch):
        # a suite checks j = 0..J, so a range with another lower end would
        # be silently widened; order-poly evaluates exactly the range
        code, _, err = run(capsys, "verify", "phi", "--r", "1", "--n", "3", "--j", "1..2")
        assert code == 1
        assert "J or 0..J" in err and "1..2" in err
        assert main(["verify", "barred", "--r", "1", "--n", "2", "--j", "2..2"]) == 1
        monkeypatch.setenv("COLORED_DESCENTS_J", "1..2")
        assert main(["verify", "phi", "--r", "1", "--n", "3"]) == 1
        monkeypatch.delenv("COLORED_DESCENTS_J")
        for j in ("2", "0..2"):
            code, out, _ = run(
                capsys, "verify", "phi", "--r", "1", "--n", "3", "--j", j,
                "--format", "json",
            )
            assert code == 0
            assert len(json.loads(out)["results"]["params"]["pairs"]) == 9
        code, out, _ = run(
            capsys, "order-poly", "--pi", "2_1 1_1", "--r", "2", "--j", "2..3"
        )
        assert code == 0 and out.strip() == "[1, 3]"

    def test_order_poly_single_j(self, capsys):
        code, out, _ = run(
            capsys, "order-poly", "--pi", "2_1 1_1", "--r", "2", "--j", "2"
        )
        assert out.strip() == "[1]"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        code = main(
            [
                "idempotents",
                "--r",
                "2",
                "--n",
                "2",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        schemas.validate(json.loads(target.read_text()), "idempotent_table")


class TestEnvOverrides:
    def test_env_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COLORED_DESCENTS_R", "1")
        monkeypatch.setenv("COLORED_DESCENTS_N", "3")
        code, out, _ = run(capsys, "eulerian-poly")
        assert out.strip() == "[1, 4, 1]"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COLORED_DESCENTS_R", "1")
        monkeypatch.setenv("COLORED_DESCENTS_N", "3")
        code, out, _ = run(capsys, "eulerian-poly", "--r", "2", "--n", "2")
        assert out.strip() == "[1, 6, 1]"

    def test_bad_format_preset_is_a_usage_error(self, capsys, monkeypatch):
        # argparse checks a flag against its choices, but not a default
        monkeypatch.setenv("COLORED_DESCENTS_FORMAT", "xml")
        assert main(["eulerian-poly"]) == 1
        assert main(["verify", "steingrimsson", "--r", "1", "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format must be one of json, csv, text" in captured.err
        assert main(["eulerian-poly", "--format", "csv"]) == 0


class TestVerifyIdempotentsEndToEnd:
    def test_five_colors_three_letters(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "idempotents",
            "--r",
            "5",
            "--n",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["passed"] is True
        assert report["results"]["details"]["reference_table"] == "matched"


class TestVariantScanScope:
    def test_other_groups_are_asserted(self, capsys):
        # closed iff equal to the standard partition, asserted at every group
        code, out, _ = run(
            capsys, "verify", "variants", "--r", "3", "--n", "2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        scan = report["results"]["details"]["scan"]
        assert len(scan) == 9
        assert report["results"]["checks"] == 9

    def test_bad_caps_are_usage_errors(self, capsys, monkeypatch):
        assert main(["enumerate", "--r", "2", "--n", "2", "--max-group-size", "0"]) == 1
        assert main(["verify", "variants", "--jobs", "0"]) == 1
        assert main(["verify", "barred", "--r", "2", "--n", "2", "--k", "-1"]) == 1
        assert main(["verify", "barred", "--r", "2", "--n", "2", "--j=-1"]) == 1
        assert main(["verify", "closure-des", "--r", "2", "--n", "2", "--cache", "x"]) == 1
        assert main(["verify", "phi", "--r", "2", "--n", "2", "--j", "3..1"]) == 1
        assert main(["order-poly", "--pi", "2_1 1_1", "--r", "2", "--j", "3..1"]) == 1
        assert main(["verify", "barred", "--r", "0", "--n", "2"]) == 1
        assert main(["verify", "steingrimsson", "--r", "0", "--n", "1"]) == 1
        assert main(["verify", "closure-des", "--r", "2", "--n", "-1"]) == 1
        assert main(["verify", "ftcpp", "--cases", "-3"]) == 1
        monkeypatch.setenv("COLORED_DESCENTS_K", "abc")
        assert main(["verify", "phi", "--r", "1", "--n", "1"]) == 1

    def test_half_given_group_is_a_usage_error(self, capsys):
        # a sweep suite takes G(r, n) only from both flags; one alone used to
        # be ignored in favour of the whole default sweep
        sweep_suites = ("closure-des", "closure-mr", "phi", "idempotents", "zigzag", "chain")
        for suite in sweep_suites:
            assert main(["verify", suite, "--r", "2"]) == 1, suite
            assert main(["verify", suite, "--n", "2"]) == 1, suite
        assert "both --r and --n" in capsys.readouterr().err
