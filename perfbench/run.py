"""The qexpfam benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check --workload NAME --seed N --seconds S
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

Run it from the root of a checkout.  One process, one client, closed loop:
each op starts when the previous one returns.  The workloads are listed, with
the reason for each, in BENCHMARK.json and described in workloads.py.

A run builds the workload's inputs from --seed, then makes
``seconds // NOMINAL_PASS_S`` passes (at least one) over its op list, so both
sides of a comparison do the same work.  Every op's output is checked, and
the CSV/SVG files of CLI ops are hashed: a file that differs between passes,
or from an earlier run of the same seed and sources, fails the op.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones, with every time taken at the reference speed of
speed.py, so that the machine's own changes of speed cancel; the wall times
are printed beside them and kept in the record.  With --trace 1 the run makes untraced passes and then
traced ones (see tracing.py) and reports the per-layer metrics, with counts
and times per pass.  Each run also writes a record with the machine facts
under .perfbench_out/results/; --compare reads two such directories.

Seed 90001 is held out: do not use it while developing a change, so that a
claimed gain can be confirmed on inputs the change was not tuned on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

import numpy as np  # noqa: E402  (after bootstrap caps the BLAS threads)

import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(bootstrap.ROOT, "BENCHMARK.json")
HELD_OUT_SEED = 90001
SETUP_PROBES = 11
# no new pass starts once it would end later than this, so a run on a slow
# machine still exits well within three minutes
GUARD_S = 140.0


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as handle:
            names = [line.split(":", 1)[1].strip() for line in handle
                     if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": bootstrap.BLAS_THREADS,
        "process_threads": threads,
    }


def _digest_files(paths: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for rel, path in paths:
        h.update(rel.encode())
        with open(path, "rb") as handle:
            h.update(hashlib.sha256(handle.read()).digest())
    return h.hexdigest()


def _tree(root: str) -> list[tuple[str, str]]:
    out = []
    for base, dirs, names in os.walk(root):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(base, name)
            out.append((os.path.relpath(path, root), path))
    return out


def source_digest() -> str:
    """Digest of the package and benchmark sources, which fix every output."""
    files = _tree(os.path.join(bootstrap.SRC, "qexpfam")) + _tree(HERE)
    return _digest_files([(r, p) for r, p in files if r.endswith(".py")])


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds at the reference speed, wall seconds) to import qexpfam and
    build the inputs, in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        scaled, wall = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(scaled), float(wall)))
    return out


class Runner:
    """Runs passes over one workload and keeps every op's outcome."""

    def __init__(self, wl: workloads.Workload, work_dir: str, digests: dict):
        self.wl = wl
        self.work_dir = work_dir
        self.digests = digests
        # (kind, label, start, end, failure reason) per op, in perf_counter time
        self.records: list[tuple[str, str, float, float, str | None]] = []
        self.unexplained: list[str] = []

    def run_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """One pass over the op list; returns the summed op latency."""
        total = 0.0
        for op in self.wl.ops:
            out_dir = os.path.join(self.work_dir, op.label)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            if tracer is not None:
                tracer.begin_op(op.label)
            t0 = time.perf_counter()
            try:
                outcome, reason = op.run(out_dir), None
            except (Exception, SystemExit) as exc:
                outcome, reason = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.begin_op("checks")
            if reason is None:
                reason = op.check(outcome)
            explained = (reason is not None and outcome is not None
                         and op.known_defect is not None and op.known_defect(outcome))
            if op.files:
                digest = _digest_files(_tree(out_dir))
                if self.digests.setdefault(op.label, digest) != digest:
                    reason, explained = "output files differ from an earlier pass or run", False
            if reason is not None and not explained:
                self.unexplained.append(f"{op.label}: {reason}")
            total += t1 - t0
            self.records.append((op.kind, op.label, t0, t1, reason))
        return total


def _out_of_time(start: float, next_pass: float) -> bool:
    return time.perf_counter() - start + next_pass > GUARD_S


def run_passes(runner: Runner, count: int, start: float) -> list[float]:
    times: list[float] = []
    for _ in range(count):
        if times and _out_of_time(start, max(times)):
            print(f"guard: stopped after {len(times)} of {count} passes")
            break
        times.append(runner.run_pass())
    return times


def run(args) -> int:
    start = time.perf_counter()
    digest_path = os.path.join(
        bootstrap.OUT, "digests", f"{args.workload}-seed{args.seed}-{source_digest()[:16]}.json")
    digests = {}
    if os.path.exists(digest_path):
        with open(digest_path) as handle:
            digests = json.load(handle)
    first_run = not digests

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)
    wl.prepare()
    passes = max(1, int(args.seconds // workloads.NOMINAL_PASS_S[args.workload]))
    work_dir = os.path.join(bootstrap.OUT, f"work-{os.getpid()}")
    runner = Runner(wl, work_dir, digests)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "machine": machine_facts(), "inputs": wl.inputs}
    try:
        if args.trace:
            trace_path = os.path.join(bootstrap.OUT, "traces",
                                      f"{args.workload}-seed{args.seed}-{_stamp()}.json")
            metrics, extra = traced_passes(runner, max(1, passes // 2), start, trace_path)
        else:
            metrics, extra = untraced_passes(runner, passes, start, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if first_run:
        _write_json(digest_path, digests)

    attempted = len(runner.records)
    failed = sum(1 for *_, reason in runner.records if reason)
    result = {"correct": not runner.unexplained, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    failures: dict[str, str] = {}
    for _, label, _, _, reason in runner.records:
        if reason:
            failures.setdefault(label, reason)
    record.update(extra)
    record.update({"result": result, "failures": failures,
                   "unexplained_failures": runner.unexplained[:20]})
    record_path = os.path.join(bootstrap.OUT, "results", args.workload,
                               f"seed{args.seed}-trace{args.trace}-{_stamp()}.json")
    _write_json(record_path, record)

    _print_summary(args, record, attempted, failed)
    print(f"record: {os.path.relpath(record_path, bootstrap.ROOT)}")
    print(json.dumps(result))
    return 0


def untraced_passes(runner: Runner, count: int, start: float, setup: list[tuple[float, float]]):
    """Times are taken at the reference speed (see speed.py); the wall
    times they come from are kept in the record."""
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    with speed.SpeedProbe() as probe:
        run_passes(runner, count, start)
    latencies = [probe.scaled(t0, t1) for _, _, t0, t1, _ in runner.records]
    walls = [probe.wall(t0, t1) for _, _, t0, t1, _ in runner.records]
    n = len(runner.wl.ops)
    pass_times = [sum(latencies[k:k + n]) for k in range(0, len(latencies), n)]
    pass_walls = [sum(walls[k:k + n]) for k in range(0, len(walls), n)]
    pct, tail_value, beyond = stats.tail(latencies)
    failed = sum(1 for *_, reason in runner.records if reason)
    values = {
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "pass_s": statistics.median(pass_times),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "ok_frac": 1.0 - failed / len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_kind: dict[str, list[float]] = {}
    by_label: dict[str, list[float]] = {}
    for (kind, label, *_), dt in zip(runner.records, latencies):
        by_kind.setdefault(kind, []).append(dt)
        by_label.setdefault(label, []).append(dt)
    kernel = [e - s for s, e in zip(probe.starts, probe.ends)]
    extra = {"setup_probes_s": [scaled for scaled, _ in setup],
             "setup_probes_wall_s": [wall for _, wall in setup],
             "pass_times_s": pass_times,
             "pass_wall_s": pass_walls,
             "op_latencies_s": by_label,
             "op_kinds": {k: {"ops": len(v), "median_ms": 1e3 * statistics.median(v)}
                          for k, v in by_kind.items()},
             "op_tail": {"percentile": pct, "ops": len(latencies), "beyond": beyond},
             "wall": {"pass_s": statistics.median(pass_walls),
                      "op_p50_ms": 1e3 * statistics.median(walls),
                      "op_tail_ms": 1e3 * stats.tail(walls)[1]},
             "speed_probe": {"samples": len(kernel), "ref_s": speed.REF_S,
                             "kernel_quartiles_s": list(stats.quartiles(kernel))}}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, extra


def traced_passes(runner: Runner, count: int, start: float, trace_path: str):
    """Alternate untraced and traced passes, so that slow drifts of the
    machine's speed bias neither side of the overhead."""
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    problems: list[str] = []
    for _ in range(count):
        if untraced and _out_of_time(start, max(untraced) + max(traced)):
            print(f"guard: stopped after {len(traced)} of {count} traced passes")
            break
        untraced.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics())
        problems.extend(f"self time exceeds busy time in {layer}"
                        for layer in tracer.self_exceeds_busy())
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    values = {}
    counts_repeat = True
    for name in per_pass[0]:
        column = [m[name] for m in per_pass]
        if units[name] == "s":
            values[name] = statistics.median(column)
        else:
            values[name] = column[0]
            counts_repeat &= all(v == column[0] for v in column)
    if not counts_repeat:
        problems.append("per-pass counts differ between traced passes")
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    extra = {"untraced_pass_s": untraced, "traced_pass_s": traced,
             "layer_busy_s": dict(tracer.busy_s),
             "self_check": {"counts_repeat": counts_repeat, "problems": problems},
             "trace_file": os.path.relpath(trace_path, bootstrap.ROOT)}
    _write_json(trace_path, tracer.edge_table())
    return metrics, extra


def _print_summary(args, record, attempted, failed) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed (fail_frac {failed / attempted:.4g})")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for name, m in record["result"]["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            t = record["op_tail"]
            note = f"  (p{t['percentile']:g} of {t['ops']} ops, {t['beyond']} beyond)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if "wall" in record:
        wall = dict(record["wall"], setup_s=statistics.median(record["setup_probes_wall_s"]))
        print("  wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items())
              + f"; median kernel {1e3 * record['speed_probe']['kernel_quartiles_s'][1]:.4g} ms"
              f" (reference {1e3 * speed.REF_S:g} ms)")
    for label, reason in record["failures"].items():
        print(f"  failed op {label}: {reason}")
    for problem in record.get("self_check", {}).get("problems", []):
        print(f"  self-check: {problem}")


def self_check(args) -> int:
    """Two traced runs of one seed must give identical counts and outputs,
    and every layer's self time must stay within its busy time."""
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=600, cwd=bootstrap.ROOT)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
        with open(os.path.join(bootstrap.ROOT, path)) as handle:
            runs.append(json.load(handle))
    ok = True
    for name, m in runs[0]["result"]["metrics"].items():
        if m["unit"] in ("s", "ratio"):
            continue
        other = runs[1]["result"]["metrics"][name]["value"]
        if other != m["value"]:
            ok = False
            print(f"count differs between runs: {name} {m['value']} vs {other}")
    for k, rec in enumerate(runs):
        problems = rec["self_check"]["problems"] + rec["unexplained_failures"]
        for problem in problems:
            ok = False
            print(f"run {k + 1}: {problem}")
    print(f"self-check {args.workload} seed {args.seed}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _stamp() -> str:
    return f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"


def _spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help=f"input seed; {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run two traced runs and compare their counts")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of run records")
    args = parser.parse_args(argv)
    if args.compare:
        return stats.compare(*args.compare, _spec())
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.self_check:
        return self_check(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
