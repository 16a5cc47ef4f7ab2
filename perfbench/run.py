"""Benchmark of the ``colored-descents`` CLI.

    python3 perfbench/run.py --workload closure|lemmas|emit --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.

``--trace 0`` is a closed loop with one client: each command of the
workload runs in a fresh ``python`` process and the next starts only after
it exits.  Every command passes ``--jobs 1``, so the load uses one core.
Passes repeat until ``--seconds`` is used up; each pass is preceded by
three ``--version`` processes, whose median is the set-up time.

Shared hosts drift in speed by tens of percent over minutes (on a 2-vCPU
Intel Xeon VM, two sets of ten runs of unchanged code taken twenty
minutes apart differed by 30%).  So every child process is bracketed by a fixed
pure-Python calibration job run in this process, all on one pinned CPU,
and the reported times are calibrated seconds: the measured wall time
scaled by CALIBRATION_REF_S / (median time of the job around that
process).  Raw wall times and the scale factors are kept in the result
file under ``.bench_out/``.

``--trace 1`` runs the same commands in this process through
``colored_descents.cli.main(argv)``, alternating untraced and traced passes
(see ``tracing.py``), and reports per-layer metrics.

Every command's output is checked (``checks.py``); a command that exits
with an unexpected code, times out, or fails its check counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable summary and the provenance; the full record, and the spans
of a traced run, are written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = "import sys; from colored_descents.cli import main; sys.exit(main(sys.argv[1:]))"
COMMAND_TIMEOUT_S = 60.0
HARD_LIMIT_S = 165.0  # the whole run, set-up included, ends well within 180 s
SETUP_RUNS_PER_PASS = 3
CALIBRATION_REF_S = 0.012  # calibrated seconds: on a host where the job takes 12 ms

END_TO_END_UNITS = {
    "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "success_rate": "ratio",
}


def child_env() -> dict:
    """The environment of every command: no ``COLORED_DESCENTS_*`` preset and
    no inherited ``PYTHON*`` setting; bytecode is cached inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("COLORED_DESCENTS_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


@dataclass(frozen=True)
class _Word:
    """Stand-in for a colored permutation, validated the same way."""

    r: int
    letters: tuple

    def __post_init__(self) -> None:
        if sorted(v for _, v in self.letters) != list(range(1, len(self.letters) + 1)):
            raise ValueError(self.letters)


def calibration_job() -> float:
    """Seconds taken by a fixed job shaped like the CLI's inner loops: build
    validated frozen dataclasses, compose their letters as tuples, hash the
    results.  The garbage collector is off so that the size of this
    process's heap does not enter the timing."""
    gc.disable()
    try:
        start = time.perf_counter()
        words = [_Word(3, ((i % 3, 1), ((i + 1) % 3, 2), (0, 3), (1, 4))) for i in range(64)]
        seen = set()
        for a in words:
            for b in words[:40]:
                seen.add(_Word(3, tuple(((c + a.letters[v - 1][0]) % 3, a.letters[v - 1][1])
                                        for c, v in b.letters)))
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_calibrated(argv, env: dict, timeout: float) -> dict:
    """``run_child`` bracketed by two calibration jobs on each side; adds the
    scale factor and the calibrated time."""
    before = [calibration_job(), calibration_job()]
    res = run_child(argv, env, timeout)
    samples = before + [calibration_job(), calibration_job()]
    res["scale"] = CALIBRATION_REF_S / statistics.median(samples)
    res["calibrated"] = res["seconds"] * res["scale"]
    return res


def run_child(argv, env: dict, timeout: float) -> dict:
    """Run one CLI process to completion; stdout is read back afterwards."""
    out_path = OUT / "stdout.txt"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "exit": None if timed_out.is_set() else proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
        "stdout": out_path.read_text(),
    }


def tail(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return round(100 * (n - 10) / n, 1), sorted(values)[n - 11]


# ---------------------------------------------------------------------------
# untraced run


def measure(cmds, seconds: float) -> dict:
    env = child_env()
    started = time.perf_counter()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - started)

    where = subprocess.run(
        [sys.executable, "-c", "import colored_descents.cli as c; print(c.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    if where.returncode != 0 or not where.stdout.strip().startswith(str(SRC)):
        raise SystemExit(f"colored_descents does not import from {SRC}: {where.stderr}")
    setup, passes, laps, version = [], [], [], None
    while True:
        lap_start = time.perf_counter()
        for _ in range(SETUP_RUNS_PER_PASS):
            res = run_calibrated(["--version"], env, COMMAND_TIMEOUT_S)
            if res["exit"] != 0 or not res["stdout"].strip():
                raise SystemExit(f"--version failed: exit {res['exit']}")
            setup.append({"seconds": res["seconds"], "scale": res["scale"],
                          "calibrated": res["calibrated"]})
            version = res["stdout"].strip()
        rows = []
        for cmd in cmds:
            if remaining() < 1:
                break
            res = run_calibrated(cmd.argv, env, min(COMMAND_TIMEOUT_S, remaining()))
            rows.append({"command": cmd.name, "seconds": res["seconds"],
                         "scale": res["scale"], "calibrated": res["calibrated"],
                         "exit": res["exit"], "rss_mb": res["rss_mb"],
                         "problem": workloads.outcome(cmd, res["exit"], res["stdout"])})
        if rows:
            passes.append(rows)
        laps.append(time.perf_counter() - lap_start)
        lap = statistics.median(laps)
        if (len(rows) < len(cmds) or time.perf_counter() - started + lap > seconds
                or remaining() < 2 * lap):
            break
    return {"setup": setup, "passes": passes, "version": version}


def end_to_end(record: dict) -> dict:
    passes = record["passes"]
    rows = [r for p in passes for r in p]
    failed = sum(r["problem"] is not None for r in rows)
    return {
        "wall_s": statistics.median(sum(r["calibrated"] for r in p) for p in passes),
        "slowest_op_s": statistics.median(max(r["calibrated"] for r in p)
                                          for p in passes),
        "peak_rss_mb": max(r["rss_mb"] for r in rows),
        "setup_s": statistics.median(r["calibrated"] for r in record["setup"]),
        "success_rate": (len(rows) - failed) / len(rows),
    }


# ---------------------------------------------------------------------------
# traced run


def _alarm(signum, frame):
    raise TimeoutError("command overran its timeout")


def run_in_process(cli, cmds, tracer=None) -> list[dict]:
    rows = []
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(cmd.argv))
            problem = None
        except TimeoutError:
            code, problem = None, "timed out"
        except Exception as exc:  # a crash of the command is a failed command
            code, problem = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        text = out.getvalue()
        rows.append({"command": cmd.name, "seconds": seconds, "exit": code,
                     "bytes": len(text.encode()),
                     "problem": problem or workloads.outcome(cmd, code, text)})
    return rows


def import_times(env: dict) -> dict:
    """Cumulative import time of the CLI module and of jsonschema (-X importtime)."""
    totals, schema = [], []
    for _ in range(3):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import colored_descents.cli"],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=COMMAND_TIMEOUT_S)
        cumulative = {}
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        totals.append(cumulative.get("colored_descents.cli", 0.0))
        schema.append(cumulative.get("jsonschema", 0.0))
    return {"import.cli_s": statistics.median(totals),
            "import.jsonschema_s": statistics.median(schema)}


def layer_metrics(tracer: tracing.Tracer, rows: list[dict]) -> dict:
    stats, counts = tracer.stats, tracer.counts

    def stat(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i]

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(s[2] for n, s in stats.items()
                                     if n.startswith(layer + "."))
    for name in ("algebra.verify_closure", "algebra.structure_constants",
                 "algebra.partition_by", "algebra.algebra_multiply",
                 "algebra.structure_poly_eval", "algebra.eulerian_idempotents",
                 "group.compose", "group.enumerate_group", "group.descent_profile",
                 "group.mr_key", "posets.make_poset", "posets.colored_linear_extensions",
                 "ppartitions.count_ppartitions_bruteforce",
                 "ppartitions.barred_chain_total", "ppartitions.descent_counts"):
        out[f"{name}.self_s"] = stat(name, 2)
    for name in ("group.compose", "group.inverse", "group.descent_positions",
                 "posets.make_poset", "verify.run_suite", "schemas.validate", "cli.main"):
        out[f"{name}.calls"] = stat(name, 0)
    for name in ("algebra.verify_closure.products", "algebra.partition_by.elements",
                 "algebra.algebra_multiply.pairs", "group.enumerate_group.elements",
                 "posets.colored_linear_extensions.words",
                 "ppartitions.count_ppartitions_bruteforce.maps"):
        out[name] = counts.get(name, 0)
    maps = counts.get("ppartitions.count_ppartitions_bruteforce.maps", 0)
    hits = counts.get("ppartitions.count_ppartitions_bruteforce.hits", 0)
    out["ppartitions.count_ppartitions_bruteforce.hit_ratio"] = hits / maps if maps else 0.0
    checks = counts.get("verify.run_suite.checks", 0)
    out["verify.checks"] = checks
    out["verify.compose_per_check"] = stat("group.compose", 0) / checks if checks else 0.0
    out["cli.bytes_out"] = sum(r["bytes"] for r in rows)
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS)
    return out


def measure_traced(cmds, seconds: float, workload: str, seed: int) -> dict:
    for key in [k for k in os.environ if k.startswith("COLORED_DESCENTS_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import colored_descents.cli as cli

    if not cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"colored_descents does not import from {SRC}")
    signal.signal(signal.SIGALRM, _alarm)
    started = time.perf_counter()
    tracer = tracing.Tracer()
    plain, traced, layers, passes = [], [], [], []
    while True:
        rows = run_in_process(cli, cmds)
        plain.append(sum(r["seconds"] for r in rows))
        passes.append(rows)
        tracer.reset()
        undo = tracing.install(tracer)
        try:
            rows = run_in_process(cli, cmds, tracer)
        finally:
            tracing.uninstall(undo)
        traced.append(sum(r["seconds"] for r in rows))
        passes.append(rows)
        layers.append(layer_metrics(tracer, rows))
        elapsed = time.perf_counter() - started
        if elapsed * (len(plain) + 1) / len(plain) > seconds or elapsed > HARD_LIMIT_S / 2:
            break
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.unattributed_s"] = metrics["trace.wall_s"] - metrics["trace.self_sum_s"]
    metrics.update(import_times(child_env()))
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w") as handle:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "command"],
                   "commands": [c.name for c in cmds], "spans": tracer.spans}, handle)
    return {"passes": passes, "metrics": metrics, "spans": len(tracer.spans)}


# ---------------------------------------------------------------------------


def provenance(seed: int, version, cpus: set) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "colored_descents").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "cpu": cpu,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "package_version": version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "colored_descents" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cmds = workloads.commands(args.workload, args.seed)
    cpus = os.sched_getaffinity(0)
    # One CPU for this process and every child, so the calibration job and
    # the commands run on the same one.
    os.sched_setaffinity(0, {max(cpus)})

    if args.trace:
        record = measure_traced(cmds, args.seconds, args.workload, args.seed)
        metrics = {k: (v, _unit(k)) for k, v in record["metrics"].items()}
        version = importlib.import_module("colored_descents").__version__
    else:
        record = measure(cmds, args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(record).items()}
        version = record["version"]
    rows = [r for p in record["passes"] for r in p]
    problems = [r for r in rows if r["problem"] is not None]
    result = {
        "correct": not any(r["problem"] != "timed out" for r in problems),
        "attempted": len(rows),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = provenance(args.seed, version, cpus)
    _summary(args, record, metrics, rows, problems)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as handle:
        json.dump({"provenance": info, "result": result, "passes": record["passes"],
                   "setup": record.get("setup")}, handle, indent=1)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_check")):
        return "ratio"
    return "bytes" if name.endswith("bytes_out") else "count"


def _summary(args, record, metrics, rows, problems) -> None:
    passes = record["passes"]
    print(f"workload {args.workload} ({workloads.WHY[args.workload]}); seed {args.seed}; "
          f"{len(passes)} passes, {len(rows)} commands, {len(problems)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<52} {len(problems) / len(rows):>14.6g} ratio")
        setup = record["setup"]
        raw = statistics.median(sum(r["seconds"] for r in p) for p in passes)
        scale = statistics.median(r["scale"] for r in rows + setup)
        print(f"  uncalibrated: wall_s {raw:.6g} s, setup_s "
              f"{statistics.median(r['seconds'] for r in setup):.6g} s; "
              f"median scale factor {scale:.4g}")
        for name, values in (("wall_s", [sum(r["calibrated"] for r in p) for p in passes]),
                             ("setup_s", [r["calibrated"] for r in setup])):
            t = tail(values)
            print(f"  {name} tail: " + (f"p{t[0]} = {t[1]:.6g} s over {len(values)} samples"
                                        if t else f"none, only {len(values)} samples"))
    else:
        wall = metrics["trace.wall_s"][0]
        shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'][0] / wall:.1%}"
                           for layer in tracing.LAYERS)
        print(f"  layer shares of traced wall_s: {shares}; {record['spans']} spans kept")
    for r in problems[:5]:
        print(f"  FAILED {r['command']}: {r['problem']}")


if __name__ == "__main__":
    sys.exit(main())
