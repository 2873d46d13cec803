"""acre benchmark: drives the public `acre.cli.main` commands on seeded inputs.

    python3 perfbench/run.py --workload {embed-wav,train-eval,rank-serve} \
        --seed N --seconds S --trace {0,1}

Every timed CLI command runs in a fresh child forked from this process, which
has imported acre but never run a command. So each command starts as cold as a
real CLI invocation (encoder-weight caches, the default vocabulary, the first
BLAS call) while interpreter start-up stays out of the number. Commands run
one at a time (a closed loop with one client).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 operations alternate untraced and traced, and it carries the
per-layer metrics from the traced ones plus the tracing overhead. Lines before
it hold the environment record and the workload's own named figures. Outputs
are checked against oracles; a failed check or a nonzero exit is a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup_s is the fastest of these: set-up is repeated in every run, and the
# minimum is the figure least moved by other load on the host.
SETUP_REPEATS = 5
# Reported by every workload with --trace 0; workloads.py says what each means there.
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
# Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
_T0 = time.perf_counter()


def fork_call(fn, log: Path) -> tuple[int, float, float]:
    """Run fn() in a forked child with stdout/stderr to log.

    Returns (exit code, wall seconds, child peak RSS in MB). The child is
    killed by SIGALRM if it would outlive the run budget.
    """
    alarm_s = max(1, int(RUN_BUDGET_S - (time.perf_counter() - _T0)))
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    # fork, not spawn: the child must inherit the imported modules and nothing
    # else. OpenBLAS registers fork handlers, so its thread pool restarts cold.
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's frames: every path ends in os._exit
        code = 1
        try:
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            os.close(fd)
            signal.alarm(alarm_s)
            code = fn()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code if isinstance(code, int) else 1)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted or terminated: take the child down too
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def run_command(acre, cmd, trace_path: Path | None) -> None:
    cmd.out.parent.mkdir(parents=True, exist_ok=True)

    def child():
        if trace_path is None:
            return acre.cli.main(cmd.argv)
        tracer = tracing.Tracer(request=f"{cmd.out.name}/{cmd.name}")
        tracer.install(acre)
        try:
            return tracer.call(f"cli.{cmd.name}", acre.cli.main, cmd.argv)
        finally:
            tracer.dump(trace_path)

    cmd.code, cmd.wall_s, cmd.rss_mb = fork_call(child, cmd.log)


def environment(seed: int) -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads"] = blas_threads()
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
            env["git_commit"] = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "acre").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var])
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure(acre, workload, plan, seconds: float, trace: bool, work: Path):
    """Run operations until `seconds` have passed and min_ops are done.

    In a traced run, even operations run untraced and odd ones traced.
    Returns (all ops in order, untraced ops, traced ops, trace files).
    """
    ops, untraced, traced, traces = [], [], [], []
    min_ops = max(workload.min_ops, 2) if trace else workload.min_ops
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < min_ops:
        if time.perf_counter() - _T0 > RUN_BUDGET_S - 5:
            break
        cmds = workload.op(k, plan)
        with_trace = trace and k % 2 == 1
        for i, cmd in enumerate(cmds):
            path = work / f"trace-{k}-{i}.json" if with_trace else None
            run_command(acre, cmd, path)
            if path is not None and path.exists():
                traces.append(path)
        ops.append(cmds)
        (traced if with_trace else untraced).append(cmds)
        k += 1
    return ops, untraced, traced, traces


def run(args) -> dict:
    import acre

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        plan_path = work / "plan.json"

        def setup():
            plan_path.write_text(json.dumps(workload.setup(acre)), encoding="utf-8")
            return 0

        setup_walls = []
        for i in range(SETUP_REPEATS):
            code, wall, _ = fork_call(setup, work / f"setup{i}.log")
            if code != 0:
                sys.stderr.write((work / f"setup{i}.log").read_text(encoding="utf-8", errors="replace"))
                raise RuntimeError(f"setup failed with exit code {code}")
            setup_walls.append(wall)
        plan = json.loads(plan_path.read_text(encoding="utf-8"))

        ops, untraced, traced, traces = measure(acre, workload, plan, args.seconds, bool(args.trace), work)

        # all forks are done: checking may now use acre in this process
        workload.check(ops, plan, acre)
        commands = [cmd for op in ops for cmd in op]
        failed = sum(cmd.failed for cmd in commands)
        problems = [f"{cmd.name} ({cmd.out.name}) exited {cmd.code}: "
                    + cmd.log.read_text(encoding="utf-8", errors="replace")[-400:]
                    for cmd in commands if cmd.code != 0]
        problems += [line for cmd in commands for line in cmd.problems]
        for line in problems[:20]:
            print(f"check failed: {line}", file=sys.stderr)

        ok_ops = [op for op in untraced if not any(cmd.failed for cmd in op)]
        setup_s = min(setup_walls)
        report = {"workload": workload.name, "seed": args.seed, "setup_s": (setup_s, "s"),
                  "setup_walls_s": [round(wall, 4) for wall in setup_walls],
                  "error_rate": (failed / len(commands), "ratio"), "attempted": len(commands), "failed": failed}
        metrics = {}
        if ok_ops:
            generic, named = workload.figures(ok_ops)
            rss = max(cmd.rss_mb for op in ok_ops for cmd in op)
            report.update(named, peak_rss_mb=(rss, "MB"))
            report["op_wall_s"] = [round(sum(cmd.wall_s for cmd in op), 4) for op in ok_ops]
            metrics = end_to_end_metrics({"setup_s": setup_s, "peak_rss_mb": rss, **generic})
        if args.trace:
            profile = tracing.Profile()
            trace_out = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
            with open(trace_out, "w", encoding="utf-8") as fh:
                for path in traces:
                    spans = tracing.load_spans(path)
                    profile.add(spans)
                    for span, own in zip(spans, tracing.self_times(spans)):
                        fh.write(json.dumps({"name": span[0], "start": span[1], "end": span[2],
                                             "parent": span[3], "request": span[4],
                                             "self_s": own, "counts": span[5]}) + "\n")
            t_wall = u_wall = 0.0
            if traced and untraced:
                t_wall = statistics.median(sum(c.wall_s for c in op) for op in traced)
                u_wall = statistics.median(sum(c.wall_s for c in op) for op in untraced)
            overhead = t_wall / u_wall - 1.0 if u_wall else 0.0
            print(f"tracing overhead: traced {t_wall:.4f} s - untraced {u_wall:.4f} s per operation "
                  f"= {t_wall - u_wall:+.4f} s ({overhead:+.1%})")
            print_profile(profile, len(traced), trace_out)
            for name, errors in profile.counter_errors.items():
                print(f"trace: counts of {name} lost in {errors} spans (see trace.counter_errors)",
                      file=sys.stderr)
            layer = tracing.per_layer_metrics(profile, len(traced), overhead)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        print(json.dumps({"report": report}))
        return {"correct": failed == 0 and bool(ok_ops), "attempted": len(commands),
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(values: dict[str, float]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def print_profile(profile, n_ops: int, trace_out: Path) -> None:
    n = max(n_ops, 1)
    print(f"traced operations: {n_ops}; command time per operation {profile.command_s / n:.3f} s; "
          f"spans -> {trace_out}")
    print(f"{'span':<36}{'calls':>9}{'busy_s':>10}{'self_s':>10}{'self%':>8}")
    rows = sorted(profile.self_s.items(), key=lambda kv: -kv[1])
    for name, self_s in rows[:25]:
        print(f"{name:<36}{profile.calls[name] / n:>9.1f}{profile.busy[name] / n:>10.4f}"
              f"{self_s / n:>10.4f}{100 * self_s / max(profile.command_s, 1e-12):>7.1f}%")


def run_all(args) -> int:
    """Every workload in turn, each in its own process so each parent starts cold."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                              capture_output=True, text=True, timeout=RUN_BUDGET_S + 60)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    for name, result in results.items():
        for metric, m in (result or {}).get("metrics", {}).items():
            print(f"{name:<12}{metric:<40}{m['value']:>14.4f} {m['unit']}")
    ok = all(results.values())
    print(json.dumps({"correct": ok and all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values() if r),
                      "failed": sum(r["failed"] for r in results.values() if r),
                      "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "acre" / "__init__.py").is_file():
        print(f"error: acre sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print(json.dumps({"env": environment(args.seed)}))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
