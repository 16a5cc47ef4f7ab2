import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import colored_descents
from colored_descents import cli, schemas
from colored_descents.algebra import idempotent_class_table
from colored_descents.cli import main
from colored_descents.group import parse_one_line
from colored_descents.ppartitions import omega_pi
from colored_descents.verify import SUITE_NAMES, SuiteReport, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# an independent route to the idempotent tables for the byte tests: the
# Fraction table of algebra.idempotent_class_table, whose entries are in
# lowest terms, and the lcm of their denominators
IDEMPOTENT_GROUPS = [(1, 0), (1, 1), (1, 3), (2, 3), (3, 7), (5, 3), (5, 20)]


def _fraction_table(r, n):
    table = idempotent_class_table(r, n)
    return table, math.lcm(*(c.denominator for row in table for c in row))


def _reference_json(r, n):
    table, common = _fraction_table(r, n)
    record = {
        "r": r,
        "n": n,
        "idempotents": [
            {
                "i": i,
                "by_des_class": [
                    {"des": d, "num": str(c.numerator), "den": str(c.denominator)}
                    for d, c in enumerate(row)
                ],
            }
            for i, row in enumerate(table)
        ],
        "common_denominator": str(common),
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


ORDER_POLY_WORD = "2_1 1_0 3_1"


def _order_poly_reference(fmt, lo, hi):
    """order-poly's output for ORDER_POLY_WORD in G(2, 3) over j = lo..hi,
    from the whole list of its counts."""
    pi = parse_one_line(ORDER_POLY_WORD, 2)
    counts = [(j, str(omega_pi(pi, j))) for j in range(lo, hi + 1)]
    if fmt == "json":
        records = [
            {"op": "order-poly", "params": {"r": 2, "pi": ORDER_POLY_WORD, "j": j},
             "count": count}
            for j, count in counts
        ]
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return "j,count\n" + "".join(f"{j},{count}\n" for j, count in counts)
    return "[" + ", ".join(count for _, count in counts) + "]\n"


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
            "colored_descents.cli._permutation_block", lambda r, n, letters: {"r": 0}
        )
        with pytest.raises(schemas.SchemaError, match="permutation"):
            main(["enumerate", "--r", "2", "--n", "2", "--format", "json"])
        assert capsys.readouterr().out == ""

    def test_json_validates_once_per_record(self, capsys, monkeypatch):
        # one schemas.validate call per record, none batched or skipped
        calls = []
        validate = schemas.validate

        def counted(obj, schema_name):
            calls.append(schema_name)
            validate(obj, schema_name)

        monkeypatch.setattr(schemas, "validate", counted)
        code, out, _ = run(
            capsys, "enumerate", "--r", "2", "--n", "3", "--format", "json"
        )
        assert code == 0 and len(json.loads(out)) == 48
        assert calls == ["enumerate_record"] * 48

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

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_cap_refusal_creates_no_output_file(self, capsys, tmp_path, fmt):
        # the cap is checked before the output file is opened
        target = tmp_path / "out"
        code, out, err = run(
            capsys, "enumerate", "--r", "4", "--n", "9", "--max-group-size", "100",
            "--format", fmt, "--output", str(target),
        )
        assert code == 2
        assert "exceeds cap 100" in err
        assert out == ""
        assert not target.exists()

    def test_bigger_group_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--r", "4", "--n", "5", "--format", "csv"
        )
        assert len(out.splitlines()) - 1 == 4**5 * 120


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["order-poly", "--r", "2"]) == 1

    def test_closure_refused_before_any_partition(self, capsys, monkeypatch):
        # G(2,7) needs 645120 (1 + 1 + 2179) products, C_0, C_7 and C_1
        # being the candidates up to the generator; the closed class sizes
        # say so before a word of the partition or a table row is built
        def fail(*args, **kwargs):
            raise AssertionError("a partition or a row was built")

        monkeypatch.setattr("colored_descents.verify.des_partition", fail)
        monkeypatch.setattr("colored_descents.group.GroupTable.left_row", fail)
        for suite in ("closure-des", "idempotents", "phi"):
            code, out, err = run(
                capsys, "verify", suite, "--r", "2", "--n", "7", "--format", "json"
            )
            assert (code, out) == (2, "")
            assert err == "error: 1407006720 products exceed cap 250000000\n"
        # over both caps, the group cap is reported
        code, _, err = run(
            capsys, "verify", "closure-des", "--r", "2", "--n", "7",
            "--max-group-size", "1000",
        )
        assert (code, err) == (2, "error: group of order 645120 exceeds cap 1000\n")

    def test_unknown_suite(self, capsys):
        # the suite is a plain positional: run_suite refuses an unknown one,
        # naming every suite on one line
        code, out, err = run(capsys, "verify", "nosuch")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "'nosuch'" in err and all(repr(name) in err for name in SUITE_NAMES)

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

    def test_light_commands_load_no_algebra_or_verify(self):
        # the package re-exports lazily and the CLI imports algebra, verify
        # and ppartitions inside the commands that run them, so these
        # commands never load Fraction (which pulls in decimal)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(colored_descents.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        code = (
            "import io, sys, contextlib; from colored_descents.cli import main\n"
            "codes = []\n"
            "for argv in (['--version'], ['enumerate', '--format', 'json'],\n"
            "             ['order-poly', '--pi', '2_1 1_0'], ['eulerian-poly']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            codes.append(main(argv))\n"
            "        except SystemExit as exc:\n"
            "            codes.append(exc.code)\n"
            "heavy = {'fractions', 'decimal', 'colored_descents.algebra',\n"
            "         'colored_descents.verify'}\n"
            "print(codes, sorted(heavy & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0] []"

    def test_passing_verify_runs_load_no_fractions(self):
        # the descent-algebra checks run in integers, and Fraction is built
        # only to format a failing idempotent product
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(colored_descents.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        code = (
            "import io, sys, contextlib; from colored_descents.cli import main\n"
            "codes = []\n"
            "for argv in (['closure-des', '--r', '2', '--n', '3'],\n"
            "             ['phi', '--r', '2', '--n', '3'],\n"
            "             ['idempotents', '--r', '5', '--n', '3'],\n"
            "             ['closure-mr', '--r', '2', '--n', '2'],\n"
            "             ['zigzag', '--r', '2', '--n', '2'],\n"
            "             ['ftcpp', '--r', '2', '--cases', '5', '--seed', '0'],\n"
            "             ['barred', '--r', '2', '--n', '2'],\n"
            "             ['order-poly', '--r', '2', '--n', '2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(main(['verify', *argv, '--jobs', '1']))\n"
            "print(codes, sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0] []"

    def test_package_exports_resolve_from_their_modules(self):
        names = colored_descents._EXPORTS
        assert sorted(colored_descents.__all__) == sorted(names)
        for name, module in names.items():
            defining = importlib.import_module(f"colored_descents.{module}")
            assert getattr(colored_descents, name) is getattr(defining, name), name
            assert name in dir(colored_descents), name
        with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
            colored_descents.nosuch

    def test_cli_runs_without_dataclasses(self):
        # dataclasses pulls in inspect, ast, dis and tokenize: ~10 ms of
        # start-up in every CLI process, so the package's records do without it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(colored_descents.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        code = (
            "import io, sys, contextlib; from colored_descents.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['enumerate']), main(['idempotents']),\n"
            "             main(['verify', 'closure-des', '--r', '2', '--n', '2'])]\n"
            "print(codes, sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"


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

    def test_suite_report_json_and_equality(self):
        report = run_suite("variants", r=2, n=2)
        scan = [
            {"a": 0, "b": 0, "equals_standard": False, "closure": False},
            {"a": 0, "b": 1, "equals_standard": True, "closure": True},
            {"a": 1, "b": 0, "equals_standard": False, "closure": False},
            {"a": 1, "b": 1, "equals_standard": False, "closure": False},
        ]
        assert json.dumps(report.to_json()) == json.dumps({
            "suite": "variants",
            "params": {"r": 2, "n": 2},
            "checks": 4,
            "failures": [],
            "details": {"scan": scan},
            "passed": True,
        })
        assert report == run_suite("variants", r=2, n=2)
        assert report != SuiteReport("variants", {"r": 2, "n": 2})
        with pytest.raises(TypeError):  # suites fill reports in: unhashable
            hash(report)
        empty, other = SuiteReport("a", {}), SuiteReport("a", {})
        assert empty.to_json() == {
            "suite": "a", "params": {}, "checks": 0, "failures": [], "details": {},
            "passed": False,
        }
        empty.failures.append("x")
        assert other.failures == []  # each report has its own lists

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

    @pytest.mark.parametrize("r, n", IDEMPOTENT_GROUPS)
    def test_idempotent_table_json_bytes(self, capsys, r, n):
        # the table is written row by row; the bytes are those of the
        # indented encoder over the whole record
        code, out, _ = run(
            capsys, "idempotents", "--r", str(r), "--n", str(n), "--format", "json"
        )
        assert code == 0
        assert out == _reference_json(r, n)

    @pytest.mark.parametrize("r, n", IDEMPOTENT_GROUPS)
    def test_idempotent_table_csv_bytes(self, capsys, r, n):
        table, _ = _fraction_table(r, n)
        want = "i,des,coefficient\n" + "".join(
            f"{i},{d},{c.numerator}/{c.denominator}\n"
            for i, row in enumerate(table)
            for d, c in enumerate(row)
        )
        code, out, _ = run(
            capsys, "idempotents", "--r", str(r), "--n", str(n), "--format", "csv"
        )
        assert code == 0
        assert out == want

    def test_idempotents_csv_rationals(self, capsys):
        code, out, _ = run(
            capsys, "idempotents", "--r", "5", "--n", "3", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "i,des,coefficient"
        assert lines[1] == "0,0,84/125"

    @pytest.mark.parametrize("r, n", IDEMPOTENT_GROUPS)
    def test_idempotent_table_text_bytes(self, capsys, r, n):
        # c_i = (1/common)(sum of integer multiples of the classes C_d),
        # a leading minus on the first term and " + "/" - " between terms
        table, common = _fraction_table(r, n)
        want = ""
        for i, row in enumerate(table):
            text = ""
            for d, c in enumerate(row):
                scaled = c * common
                assert scaled.denominator == 1
                sign = "-" if scaled < 0 else "+"
                term = f"{abs(scaled.numerator)} C_{d}"
                if text:
                    text = f"{text} {sign} {term}"
                else:
                    text = term if sign == "+" else f"-{term}"
            want += f"c_{i} = (1/{common})({text})\n"
        code, out, _ = run(capsys, "idempotents", "--r", str(r), "--n", str(n))
        assert code == 0
        assert out == want

    def test_idempotent_text_signs(self, capsys, monkeypatch):
        # no real table starts a row with a negative entry, since P_0 has
        # nonnegative coefficients, so a made-up one pins that format
        monkeypatch.setattr(
            "colored_descents.algebra._idempotent_numerators",
            lambda r, n: ([[-3, 0, 2], [2, -1, -1], [1, 1, 1]], 6),
        )
        code, out, _ = run(capsys, "idempotents", "--r", "3", "--n", "2")
        assert code == 0
        assert out == (
            "c_0 = (1/6)(-3 C_0 + 0 C_1 + 2 C_2)\n"
            "c_1 = (1/6)(2 C_0 - 1 C_1 - 1 C_2)\n"
            "c_2 = (1/6)(1 C_0 + 1 C_1 + 1 C_2)\n"
        )

    def test_idempotent_json_stops_at_a_bad_row(self, capsys, monkeypatch):
        # each row is validated before it is written, so a bad row stops
        # the stream after the rows before it
        real = schemas.validate
        rows = []

        def third_row_is_bad(doc, name):
            (row,) = doc["idempotents"]
            rows.append(row["i"])
            real(dict(doc, idempotents=[dict(row, i=-1)]) if row["i"] == 2 else doc, name)

        monkeypatch.setattr(schemas, "validate", third_row_is_bad)
        with pytest.raises(schemas.SchemaError, match=r"^\$\.idempotents\[0\]\.i: fails"):
            main(["idempotents", "--r", "5", "--n", "3", "--format", "json"])
        out = capsys.readouterr().out
        assert rows == [0, 1, 2]
        assert out.count('"i": ') == 2 and out.endswith('"i": 1\n    }')
        assert _reference_json(5, 3).startswith(out)

    def test_idempotent_json_validates_each_row_under_the_table_head(
        self, capsys, monkeypatch
    ):
        real = schemas.validate
        checked = []

        def record(doc, name):
            (row,) = doc["idempotents"]
            head = {k: doc[k] for k in ("r", "n", "common_denominator")}
            checked.append((name, row["i"], head))
            real(doc, name)

        monkeypatch.setattr(schemas, "validate", record)
        code, out, _ = run(
            capsys, "idempotents", "--r", "3", "--n", "7", "--format", "json"
        )
        assert code == 0
        # a clean run checks n + 1 rows, each under the table's own head
        table = json.loads(out)
        head = {k: table[k] for k in ("r", "n", "common_denominator")}
        assert head["common_denominator"] == str(3**7 * math.factorial(7))
        assert checked == [("idempotent_table", i, head) for i in range(8)]

    def test_idempotents_load_no_fractions(self):
        # the table is written from the integer numerators in every format
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(colored_descents.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        code = (
            "import io, sys, contextlib; from colored_descents.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['idempotents', '--r', '3', '--n', '7', '--format', fmt])\n"
            "             for fmt in ('json', 'csv', 'text')]\n"
            "print(codes, sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"

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

    @pytest.mark.parametrize("command", [["enumerate"], ["verify", "closure-des"]])
    def test_j_range_is_read_by_its_bounds(self, capsys, command):
        # validation and verify read only the bounds, so a wide range costs
        # no memory; a list of 2·10⁶ ints would take about 80 MB
        tracemalloc.start()
        try:
            code = main([*command, "--r", "1", "--n", "1", "--j", "0..2000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0 and peak < 5 * 2**20, peak

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_order_poly_streams_its_j_range(self, tmp_path, fmt):
        # each count is written as it is evaluated; the records of 10⁵
        # values of j held at once take tens of MB.  The output goes to a
        # file, so that no capture buffer counts towards the peak.
        target = tmp_path / "counts"
        argv = ["order-poly", "--pi", ORDER_POLY_WORD, "--r", "2", "--j", "0..100000",
                "--format", fmt, "--output", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 5 * 2**20, peak
        last = str(omega_pi(parse_one_line(ORDER_POLY_WORD, 2), 100000))
        text = target.read_text()
        if fmt == "csv":
            assert text.count("\n") == 100002 and text.endswith(f"\n100000,{last}\n")
        else:
            assert text.count(", ") == 100000 and text.endswith(f", {last}]\n")

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("j, lo, hi", [("0..30", 0, 30), ("2", 2, 2), ("2..3", 2, 3)])
    def test_order_poly_bytes(self, capsys, fmt, j, lo, hi):
        code, out, _ = run(
            capsys, "order-poly", "--pi", ORDER_POLY_WORD, "--r", "2", "--j", j,
            "--format", fmt,
        )
        assert code == 0
        assert out == _order_poly_reference(fmt, lo, hi)

    @pytest.mark.parametrize("argv, rows", [
        (["enumerate", "--r", "2", "--n", "0"], lambda doc: doc),
        (["idempotents", "--r", "2", "--n", "0"], lambda doc: doc["idempotents"]),
        (["order-poly", "--pi", ORDER_POLY_WORD, "--r", "2", "--j", "5"], lambda doc: doc),
    ])
    def test_one_row_documents_stream_as_whole_dumps(self, capsys, argv, rows):
        # the smallest input of each streamed command has one row, and its
        # text is that of the indented encoder over the whole document
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert len(rows(json.loads(out))) == 1
        assert out == cli._dump_json(json.loads(out))

    @pytest.mark.parametrize("j", ["abc", "0..", "..3", "0..x", "1..2..3"])
    def test_malformed_j_is_a_usage_error_naming_the_flag(self, capsys, j):
        for command in (["enumerate"], ["verify", "phi"], ["order-poly", "--pi", "1_0"]):
            code, _, err = run(capsys, *command, "--j", j)
            assert code == 1 and "--j" in err and repr(j) in err, (command, err)

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


def _every_command_parser():
    """The CLI's parser with the arguments of every command, which is how
    each process built it before the CLI built only the invoked command's."""
    parser = cli._Parser(prog="colored-descents", description=cli.__doc__)
    parser.add_argument("--version", action="version", version=colored_descents.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("enumerate", "list group elements with statistics"),
        ("verify", "run a named verification suite"),
        ("idempotents", "emit the orthogonal idempotent table"),
        ("eulerian-poly", "emit descent-number coefficients"),
        ("order-poly", "evaluate the order polynomial of a word"),
    ):
        p = sub.add_parser(name, help=text)
        if name == "verify":
            p.add_argument("suite")
        if name == "order-poly":
            p.add_argument("--pi", type=str, help="one-line word like '2_1 1_1'")
        p.add_argument("--r", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--j", type=str, help="single value or inclusive range like 0..3")
        p.add_argument("--k", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--cases", type=int)
        p.add_argument("--jobs", type=int)
        p.add_argument("--max-group-size", type=int)
        p.add_argument("--format", choices=("json", "csv", "text"))
        p.add_argument("--output", "-o", type=str, help="write to this file instead of stdout")
    return parser


class TestParser:
    @pytest.mark.parametrize("command", [
        [], ["enumerate"], ["verify"], ["idempotents"], ["eulerian-poly"], ["order-poly"],
    ], ids=str)
    def test_help_reads_as_with_every_command_built(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--help"])
        assert exit_info.value.code == 0
        reference = _every_command_parser()
        for name in command:
            reference = reference._subparsers._group_actions[0].choices[name]
        assert capsys.readouterr().out == reference.format_help()

    def test_version_and_command_errors_read_as_with_every_command_built(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out == f"{colored_descents.__version__}\n"
        for argv in (["nosuch"], [], ["--r", "3", "enumerate"], ["enumerate", "--bogus"]):
            with pytest.raises(cli.UsageError) as want:
                _every_command_parser().parse_args(argv)
            assert run(capsys, *argv) == (1, "", f"error: {want.value}\n")

    def test_only_the_invoked_command_gets_its_arguments(self):
        commands = cli.build_parser(["--version", "verify", "closure-des"])
        commands = commands._subparsers._group_actions[0].choices
        assert [name for name, p in commands.items() if len(p._actions) > 1] == ["verify"]


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

    @pytest.mark.parametrize("r, n, one_class", [
        (2, 1, [(0, 0), (1, 1)]),
        (3, 1, [(0, 0), (1, 1), (2, 2)]),
        (2, 2, []),
        (3, 2, []),
    ])
    def test_one_class_frames_are_no_counterexample(self, capsys, r, n, one_class):
        # at n = 1 a frame (a, a) puts all of G(r, 1) in one class, which is
        # closed whatever the frame: it stays in the scan, and is no failure
        code, out, _ = run(
            capsys, "verify", "variants", "--r", str(r), "--n", str(n),
            "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["checks"] == r * r and results["failures"] == []
        scan = results["details"]["scan"]
        assert [(e["a"], e["b"]) for e in scan] == [
            (a, b) for a in range(r) for b in range(r)
        ]
        assert [
            (e["a"], e["b"]) for e in scan if e["closure"] != e["equals_standard"]
        ] == one_class

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
