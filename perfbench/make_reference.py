"""Regenerate ``reference.json``: the ``results`` object of every unseeded
verify command of every workload, as the CLI of this checkout emits it.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right; the
benchmark then requires every later commit to reproduce them.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    env = run.child_env()
    reference = {}
    for workload in sorted(workloads.WHY):
        for cmd in workloads.commands(workload, seed=0):
            if cmd.argv[0] != "verify" or "--seed" in cmd.argv or cmd.expect_exit != 0:
                continue
            res = run.run_child(cmd.argv, env, run.COMMAND_TIMEOUT_S)
            if res["exit"] != 0:
                print(f"{cmd.name}: exit {res['exit']}", file=sys.stderr)
                return 1
            reference[cmd.name] = json.loads(res["stdout"])["results"]
    with open(workloads.REFERENCE_FILE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
