"""Self-tests of the benchmark's output checks and timeout handling.

    python3 perfbench/selftest.py

Each test runs a real workload command once, corrupts its output or exit
code, and requires the command to count as failed.  The file name keeps
these tests out of the package's own pytest run.
"""
from __future__ import annotations

import json
import time
import unittest

import run
import workloads


class CheckerSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run.OUT.mkdir(exist_ok=True)
        cls.env = run.child_env()
        cls.commands = {
            c.name: c
            for w in ("closure", "emit")
            for c in workloads.commands(w, seed=0)
        }

    def _run(self, name: str):
        cmd = self.commands[name]
        res = run.run_child(cmd.argv, self.env, run.COMMAND_TIMEOUT_S)
        self.assertIsNone(workloads.outcome(cmd, res["exit"], res["stdout"]),
                          "clean output must pass")
        return cmd, res

    def assertFails(self, cmd, exit_code, stdout: str) -> None:
        self.assertIsNotNone(workloads.outcome(cmd, exit_code, stdout))

    def test_enumerate_json_corruptions(self) -> None:
        cmd, res = self._run("enumerate r=4 n=4 json")
        records = json.loads(res["stdout"])

        changed = json.loads(res["stdout"])
        changed[100]["des"] += 1
        self.assertFails(cmd, 0, json.dumps(changed))

        # descent set and des changed together: only the recomputation catches it
        consistent = json.loads(res["stdout"])
        rec = consistent[200]
        rec["descent_set"] = sorted(set(rec["descent_set"]) ^ {1})
        rec["des"] = len(rec["descent_set"])
        self.assertFails(cmd, 0, json.dumps(consistent))

        self.assertFails(cmd, 0, json.dumps(records[:57] + records[58:]))

    def test_enumerate_csv_des_changed(self) -> None:
        cmd, res = self._run("enumerate r=3 n=5 csv")
        lines = res["stdout"].splitlines()
        fields = lines[1234].split(",")
        fields[3] = str(int(fields[3]) + 1)
        lines[1234] = ",".join(fields)
        self.assertFails(cmd, 0, "\n".join(lines) + "\n")
        self.assertFails(cmd, 0, "\n".join(lines[:10] + lines[11:]) + "\n")

    def test_closure_desset_exit_code(self) -> None:
        cmd, res = self._run("verify closure-desset r=2 n=2")
        self.assertEqual(res["exit"], 3)
        self.assertFails(cmd, 0, res["stdout"])
        report = json.loads(res["stdout"])
        for failure in report["results"]["failures"]:
            failure["witnesses"] = []
        self.assertFails(cmd, 3, json.dumps(report))

    def test_reference_mismatch(self) -> None:
        cmd, res = self._run("verify closure-mr r=3 n=2")
        report = json.loads(res["stdout"])
        report["results"]["details"]["groups"][0]["class_sizes"][0] += 1
        self.assertFails(cmd, 0, json.dumps(report))

    def test_timeout_counts_as_failure(self) -> None:
        cmd = self.commands["verify closure-des r=3 n=4"]
        start = time.perf_counter()
        res = run.run_child(cmd.argv, self.env, timeout=0.3)
        self.assertLess(time.perf_counter() - start, 5)
        self.assertIsNone(res["exit"])
        self.assertEqual(workloads.outcome(cmd, res["exit"], res["stdout"]), "timed out")


if __name__ == "__main__":
    unittest.main()
