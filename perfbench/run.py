#!/usr/bin/env python3
"""zinbielkit benchmark: CLI wall time per command kind, and time per layer.

    python3 perfbench/run.py --workload dense-trunc --seed 1 --trace 0
    python3 perfbench/run.py

Untraced (``--trace 0``): one client runs the workload's command sequence in
a closed loop, each command a fresh ``python -m zinbielkit`` process, for
``run_seconds`` of ``BENCHMARK.json``; every end-to-end time is a sum of
per-command medians.  Traced (``--trace 1``): the same sequence is replayed
in this process, alternately plain and with spans around each layer
(``spans.py``); the per-layer metrics are medians over the traced passes, and
the tracing overhead is traced minus plain replay wall time.  Without
``--workload`` and ``--trace`` each workload runs untraced, then traced, and
every metric is printed.

Every command's exit code and output must match its expectation, and every
traced work count must match the one recorded for it; the last stdout line
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is 1 when anything did not match.  The default seed is 1;
seed 2 is the second seed for checking a claim on inputs not used while the
change was written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/zinbielkit/cli.py", "scripts/run_claim_audit.py", "tests/goldens")
SETUP_PER_PASS = 4
CONSTRUCT_REPEATS = 2  # write-side commands are short, so they get more samples
SETUP_ARGV = [sys.executable, "-c", "import zinbielkit.cli"]
PROBE_INTERVAL = 0.02  # seconds between probe readings
PROBE_SECONDS = 0.0004
END_TO_END = {
    "wall_s": "s",
    "check_s": "s",
    "audit_s": "s",
    "construct_s": "s",
    "tuples_per_s": "tuples/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


def child_argv(argv) -> list[str]:
    if argv[0].endswith(".py"):
        return [sys.executable, *argv]
    return [sys.executable, "-m", "zinbielkit", *argv]


def run_child(argv, work: Path, env: dict):
    """(seconds, exit code, stdout bytes, max RSS in KiB) of one process."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out_path.read_bytes(), usage.ru_maxrss


def output_of(cmd, stdout: bytes) -> bytes:
    """What a command produced: stdout, then the file it wrote with --out."""
    if cmd.out is None:
        return stdout
    return stdout + (ROOT / cmd.out).read_bytes()


def expectation(cmd, recorded: dict):
    from workloads import Expected

    if cmd.oracle is not None:
        return cmd.oracle
    entry = recorded.get(cmd.key)
    counts = entry["counts"] if entry else {}
    if cmd.golden is not None:
        golden = (ROOT / cmd.golden).read_bytes()
        return Expected(cmd.rc, hashlib.sha256(golden).hexdigest(), len(golden), counts)
    if entry is None:
        raise SystemExit(f"error: no recorded output for {cmd.key!r} in perfbench/expected.json")
    return Expected(entry["rc"], entry["sha256"], entry["bytes"], counts)


def mismatch(cmd, want, rc: int, output: bytes) -> str | None:
    if rc == want.rc and hashlib.sha256(output).hexdigest() == want.sha256:
        return None
    return (f"output mismatch: {cmd.key}: exit {rc} (want {want.rc}), "
            f"{len(output)} bytes (want {want.nbytes})")


def tuples_of(want) -> int:
    return want.counts.get("identities.evaluate.tuples", 0) + want.counts.get("audit.tuples", 0)


class Tally:
    """Checks made, and the problems they found."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, problem: str | None):
        self.attempted += 1
        if problem:
            self.problems.append(problem)
            print(problem, file=sys.stderr)


def keep_going(started: float, expected: float, seconds: float) -> bool:
    """Start more work only if it should end within the time budget."""
    return time.perf_counter() - started + expected <= seconds


class Speedometer:
    """Times ``reference.probe`` every ``PROBE_INTERVAL`` while commands run.

    The speed of a core of the host changes by up to 2x within a second, and
    the command running on it slows with it; other cores do not show it.  So
    while it is entered, the calling thread and the threads and processes it
    starts are pinned to one core, and a thread times the probe on that core
    throughout.  A sample is divided by the mean probe time during it and
    multiplied by ``PROBE_SECONDS``: it then reads as seconds on a machine
    where the probe takes that long.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._allowed = os.sched_getaffinity(0)
        self.cpu = min(self._allowed)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL):
            start = time.perf_counter()
            reference.probe()
            self.readings.append((start, time.perf_counter() - start))

    def __enter__(self):
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._allowed)

    def normalise(self, start: float, seconds: float) -> float:
        during = [s for t, s in self.readings if start <= t <= start + seconds]
        if not during:
            during = [min(self.readings, key=lambda r: abs(r[0] - start))[1]]
        return seconds * PROBE_SECONDS / statistics.mean(during)


def untraced(workload, wants, seconds: float, tally: Tally, work: Path):
    env = child_env()
    cmds = workload.commands
    samples: list[tuple[float, int, float]] = []  # (start, command, seconds)
    setup: list[tuple[float, float]] = []
    peak_kib = 0
    done = [0] * len(cmds)
    last = [0.0] * len(cmds)
    with Speedometer() as speed:
        run_child(SETUP_ARGV, work, env)  # fills the bytecode cache
        started = time.perf_counter()
        # Cycle through the sequence, command by command, until the next one
        # would overrun the budget; the first pass always completes.
        for step in itertools.count():
            i = step % len(cmds)
            cmd = cmds[i]
            repeats = CONSTRUCT_REPEATS if cmd.kind == "construct" else 1
            if step >= len(cmds) and not keep_going(started, repeats * last[i], seconds):
                break
            if i == 0:
                for _ in range(SETUP_PER_PASS):
                    start = time.perf_counter()
                    setup.append((start, run_child(SETUP_ARGV, work, env)[0]))
            for _ in range(repeats):
                start = time.perf_counter()
                secs, rc, stdout, rss = run_child(child_argv(cmd.argv), work, env)
                tally.check(mismatch(cmd, wants[i], rc, output_of(cmd, stdout)))
                samples.append((start, i, secs))
                peak_kib = max(peak_kib, rss)
                done[i] += 1
                last[i] = secs

    times: list[list[float]] = [[] for _ in cmds]
    for start, i, secs in samples:
        times[i].append(speed.normalise(start, secs))
    med = [statistics.median(t) for t in times]

    def total(kind):
        return sum(m for m, c in zip(med, cmds) if c.kind == kind)

    tuples = [tuples_of(w) for w in wants]
    metrics = {
        "wall_s": sum(med),
        "check_s": total("check"),
        "audit_s": total("audit"),
        "construct_s": total("construct"),
        "tuples_per_s": sum(tuples) / sum(m for m, t in zip(med, tuples) if t),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(speed.normalise(start, s) for start, s in setup),
    }
    reps = {
        "samples_per_command": sorted(set(done)),
        "setup_reps": len(setup),
        "cpu": speed.cpu,
        "probe_reps": len(speed.readings),
        "probe_median_s": statistics.median(s for _, s in speed.readings),
        "raw_wall_s": sum(statistics.median(s for _, j, s in samples if j == i) for i in range(len(cmds))),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, reps


# -- traced in-process replay --------------------------------------------------


def _load_script():
    spec = importlib.util.spec_from_file_location("run_claim_audit", ROOT / "scripts/run_claim_audit.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _invoke(entry, argv) -> int:
    try:
        return entry(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def replay(cmds, entries, call) -> list[tuple[int, bytes]]:
    """Run every command in this process; ``call(i, entry, argv)`` runs one."""
    results = []
    for i, cmd in enumerate(cmds):
        entry = entries["script" if cmd.is_script else "cli"]
        argv = list(cmd.argv[1:] if cmd.is_script else cmd.argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = call(i, entry, argv)
        results.append((rc, output_of(cmd, buf.getvalue().encode("utf-8"))))
    return results


def zinbielkit_modules(script) -> dict:
    import zinbielkit.cli  # noqa: F401  (loads every module the patches name)

    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("zinbielkit")}
    modules["run_claim_audit"] = script
    return modules


def traced_pass(cmds, entries, modules):
    """Replay with spans; returns (wall seconds, results, spans, incomplete layers)."""
    import spans

    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        start = time.perf_counter()
        results = replay(cmds, entries, lambda i, entry, argv: tracer.run_command(
            "scripts.self" if entry is entries["script"] else "cli.self", i, _invoke, entry, argv))
        wall = time.perf_counter() - start
    finally:
        tracer.remove()
    return wall, results, tracer.spans, tracer.incomplete


def count_mismatch(cmd, want, have: dict) -> str | None:
    """A traced command's work counts against the recorded ones."""
    if have == want.counts:
        return None
    return f"work count mismatch: {cmd.key}: {have} (want {want.counts})"


def traced(workload, wants, seconds: float, tally: Tally):
    import spans
    import zinbielkit.cli

    script = _load_script()
    entries = {"cli": zinbielkit.cli.main, "script": script.main}
    modules = zinbielkit_modules(script)
    cmds = workload.commands
    plain_walls, traced_walls, per_pass = [], [], []
    started = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        gc.collect()
        start = time.perf_counter()
        results = replay(cmds, entries, lambda i, entry, argv: _invoke(entry, argv))
        plain_walls.append(time.perf_counter() - start)
        for cmd, want, (rc, output) in zip(cmds, wants, results):
            tally.check(mismatch(cmd, want, rc, output))

        gc.collect()
        wall, results, span_list, incomplete = traced_pass(cmds, entries, modules)
        traced_walls.append(wall)
        # A layer the tracer could not fully patch has partial times and counts.
        for layer in sorted(incomplete):
            tally.check(f"layer not fully patched: {layer}")
        counts = spans.command_counts(span_list)
        for i, (cmd, want, (rc, output)) in enumerate(zip(cmds, wants, results)):
            tally.check(mismatch(cmd, want, rc, output)
                        or count_mismatch(cmd, want, counts.get(i, {})))
        per_pass.append((spans.layer_metrics(span_list), len(span_list)))
        if not keep_going(started, time.perf_counter() - pair_start, seconds):
            break

    metrics = {}
    for name in per_pass[0][0]:
        values = [m[name] for m, _ in per_pass]
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (statistics.median(values), unit)
    for key in spans.COUNTS:
        unit = "B" if key.startswith("serialization.bytes") else "count"
        metrics[key] = (sum(c.get(key, 0) for c in counts.values()), unit)
    plain, with_spans = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.plain_wall_s"] = (plain, "s")
    metrics["trace.traced_wall_s"] = (with_spans, "s")
    metrics["trace.overhead_s"] = (with_spans - plain, "s")
    metrics["trace.spans"] = (statistics.median(n for _, n in per_pass), "count")
    return metrics, {"passes": len(per_pass)}


# -- entry point -----------------------------------------------------------------


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name: str, trace: int, seed: int, seconds: float, recorded: dict, work: Path):
    import workloads

    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    workload = workloads.build(name, seed)
    for path, text in workload.inputs.items():
        (ROOT / path).write_text(text, encoding="utf-8")
    wants = [expectation(cmd, recorded) for cmd in workload.commands]
    tally = Tally()
    if trace:
        metrics, reps = traced(workload, wants, seconds, tally)
    else:
        metrics, reps = untraced(workload, wants, seconds, tally, work)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "commands_per_pass": len(workload.commands),
        **reps,
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "error_rate": len(tally.problems) / tally.attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"  {name:12} {metric:32} {value:14.6f} {unit}")
    print(f"  {name:12} {'error_rate':32} {record['error_rate']:14.6f} ratio "
          f"({record['failed']}/{record['attempted']})")
    return metrics, tally


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="dense-trunc, sparse-free, structures, or all (default)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="must equal run_seconds of BENCHMARK.json, the fixed run length")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = p.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).exists()]
    if missing:
        print(f"error: not a zinbielkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        p.error(f"--seconds must be {seconds}, the run_seconds of BENCHMARK.json")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    unknown = set(names) - set(workloads.NAMES)
    if unknown:
        p.error(f"unknown workload {', '.join(sorted(unknown))}")
    recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    work = ROOT / workloads.WORK_DIR

    modes = (0, 1) if args.trace is None else (args.trace,)
    results, attempted, failed = {}, 0, 0
    try:
        for name, trace in itertools.product(names, modes):
            metrics, tally = run_workload(name, trace, args.seed, seconds, recorded, work)
            attempted += tally.attempted
            failed += len(tally.problems)
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, (value, unit) in metrics.items():
                results[prefix + metric] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
