"""Benchmark for the ``foi`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` one client runs a closed loop: it spawns one ``foi``
verb at a time on seeded inputs, waits for its exit, checks its output
against an independent oracle, and starts the next, until the verbs have
taken ``S`` seconds in total (whole rounds only). It reports end-to-end
metrics. With ``--trace 1`` it instead calls ``foi.cli.main(argv)`` in
this process, each op once untraced and once with spans around every
public function, and reports per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every output checked out, 1 when some op failed,
2 when the program or the arguments are missing (no result printed).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import envinfo
import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

ENTRY = "import sys; from foi.cli import main; sys.exit(main())"  # what the `foi` script runs
SETUP_CODE = "import foi.cli"
SETUP_BEFORE, SETUP_AFTER = 3, 2  # imports timed before and after the loop, in different spells of machine speed
IMPORT_CODE = (
    "import sys; before = len(sys.modules); import foi.cli; "
    "print(len(sys.modules) - before, int('scipy.stats' in sys.modules))"
)
IMPORT_REPEATS = 3
OP_TIMEOUT_S = 90.0
ROUND_LIMIT_S = 60.0  # no new round starts after this much run time


class Missing(Exception):
    """The program or an argument is missing; nothing was measured."""


@dataclass
class OpResult:
    verb: str
    ok: bool
    wall_s: float
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    bytes_out: int = 0
    error: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # this checkout's package, never another copy
    return env


def spawn(argv, stdout_path: Path, stderr_path: Path, timeout: float):
    """Run ``argv`` to exit; ``(exit code, wall s, cpu s, maxrss KiB)``.
    Wall time runs from before the spawn to the exit."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _kill_after(proc.pid, timeout)
        finally:  # also on interrupt: never leave the child running
            _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return proc.returncode, t1 - t0, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _kill_after(pid: int, timeout: float) -> None:
    """Return when ``pid`` exits, killing it after ``timeout`` seconds. The
    pid is not reaped here, so it cannot have been reused when killed."""
    try:
        fd = os.pidfd_open(pid)
    except (AttributeError, OSError):  # no pidfd on this platform: wait without a timeout
        return
    try:
        if not select.select([fd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(fd)


def clear_outputs(op) -> None:
    for path in op.outputs:
        path.unlink(missing_ok=True)


def output_bytes(op, stdout: str) -> int:
    return len(stdout.encode()) + sum(p.stat().st_size for p in op.outputs if p.exists())


def checked(op, result: OpResult, stdout: str) -> OpResult:
    if result.ok:
        try:
            op.check(stdout)
        except (oracle.CheckFailed, KeyError, ValueError, TypeError, OSError) as exc:
            result.ok = False
            result.error = f"output check: {type(exc).__name__}: {exc}"
    return result


def run_subprocess(op, work: Path) -> OpResult:
    clear_outputs(op)
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    code, wall, cpu, rss = spawn([sys.executable, "-c", ENTRY, *op.argv], out_path, err_path, OP_TIMEOUT_S)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    result = OpResult(op.verb, code == 0, wall, cpu, rss, output_bytes(op, stdout))
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        result.error = f"exit {code}: {' '.join(tail)}"
    return checked(op, result, stdout)


def measure_setup(work: Path, repeats: int) -> list[float]:
    """Fresh-interpreter ``import foi.cli`` times, in seconds."""
    times = []
    for _ in range(repeats):
        err = work / "setup.err"
        code, wall, _, _ = spawn([sys.executable, "-c", SETUP_CODE], Path(os.devnull), err, 60.0)
        if code != 0:
            raise Missing("`import foi.cli` fails: " + err.read_text(errors="replace")[-300:])
        times.append(wall)
    return times


def another_round(measured: float, last_round: float, seconds: float, start: float) -> bool:
    """Whole rounds only: start one more while that ends the run nearer to
    ``seconds`` of measured time than stopping now would."""
    if time.perf_counter() - start > ROUND_LIMIT_S:
        return False
    return measured == 0.0 or measured + last_round / 2 < seconds


def closed_loop(ops, seconds: float, work: Path) -> list[OpResult]:
    results: list[OpResult] = []
    measured, last_round, start = 0.0, 0.0, time.perf_counter()
    while another_round(measured, last_round, seconds, start):
        round_results = [run_subprocess(op, work) for op in ops]
        results += round_results
        last_round = sum(r.wall_s for r in round_results)
        measured += last_round
    return results


def end_to_end(results: list[OpResult], setup: list[float]) -> dict:
    walls = [r.wall_s for r in results]
    done = [r for r in results if r.ok]
    return {
        "wall_ms_p50": (1e3 * statistics.median(walls), "ms"),
        "ops_per_s": (len(done) / sum(walls), "1/s"),
        "cpu_ms_p50": (1e3 * statistics.median(r.cpu_s for r in results), "ms"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def import_facts(work: Path) -> dict:
    """Medians over fresh interpreters of ``-X importtime`` figures."""
    rows = []
    for _ in range(IMPORT_REPEATS):
        out, err = work / "importtime.out", work / "importtime.err"
        code, _, _, _ = spawn([sys.executable, "-X", "importtime", "-c", IMPORT_CODE], out, err, 60.0)
        if code != 0:
            raise Missing("`import foi.cli` fails: " + err.read_text(errors="replace")[-300:])
        rows.append(parse_importtime(err.read_text(errors="replace"), out.read_text()))
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(stderr: str, stdout: str) -> dict:
    """Cumulative ms of ``foi`` (top-level entries), ``scipy.stats`` and
    ``numpy``; module count and whether ``scipy.stats`` was loaded."""
    foi_us, cumulative = 0, {}
    for m in _IMPORT_LINE.finditer(stderr):
        us, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
        cumulative.setdefault(name, us)
        if indent == 1 and (name == "foi" or name.startswith("foi.")):
            foi_us += us
    modules, scipy_stats = stdout.split()
    return {
        "import.foi_ms": foi_us / 1e3,
        "import.scipy_stats_ms": cumulative.get("scipy.stats", 0) / 1e3,
        "import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "import.modules": float(modules),
        "import.scipy_stats_loaded": float(scipy_stats),
    }


def clear_caches() -> None:
    """Drop the program's in-process caches so each call starts as a fresh
    process would (``reference.load_fixture`` is memoised)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "foi" or name.startswith("foi.")):
            continue
        for value in list(vars(module).values()):
            for target in (value, getattr(value, "__wrapped__", None)):  # also under a tracing wrapper
                if hasattr(target, "cache_clear"):
                    target.cache_clear()


def run_inprocess(op, main) -> OpResult:
    clear_outputs(op)
    clear_caches()
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(op.argv))
        error = "" if code == 0 else f"exit {code}"
    except Exception as exc:  # a crash in one op is a failed op, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    stdout = buf.getvalue()
    return checked(op, OpResult(op.verb, not error, wall, bytes_out=output_bytes(op, stdout), error=error), stdout)


def traced_run(ops, seconds: float, work: Path):
    """Each op untraced and traced, alternating which goes first."""
    sys.path.insert(0, str(SRC))
    import foi.cli

    if Path(foi.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise Missing(f"foi imported from {foi.cli.__file__}, not from {SRC}")
    main = foi.cli.main
    run = import_facts(work)
    tr = tracer.Tracer()
    results, overhead, bytes_out = [], [], []
    measured, last_round, start, flip = 0.0, 0.0, time.perf_counter(), False
    wrapped: set[str] = set()
    while another_round(measured, last_round, seconds, start):
        before = measured
        for op in ops:
            flip = not flip
            pair = {}
            for traced in ((False, True) if flip else (True, False)):
                if traced:
                    tr.begin_op()
                    installed = tracer.install(tr)
                    wrapped = installed.wrapped
                    try:
                        r = run_inprocess(op, foi.cli.main)
                    finally:
                        installed.restore()
                    bytes_out.append(r.bytes_out)
                else:
                    r = run_inprocess(op, main)
                pair[traced] = r
                results.append(r)
                measured += r.wall_s
            overhead.append(1e3 * (pair[True].wall_s - pair[False].wall_s))
        last_round = measured - before
    run["trace.overhead_ms"] = statistics.median(overhead)
    run["report.bytes_out"] = statistics.median(bytes_out)
    metrics, absent = tracer.layer_metrics(tr, wrapped, run)
    return results, metrics, absent


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark the foi CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "foi" / "cli.py").is_file():
        print(f"perfbench: no foi sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    env = envinfo.record(ROOT, args.workload, args.seed)
    env["calibration_start"] = envinfo.calibrate()
    CACHE.mkdir(exist_ok=True)
    work = CACHE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        t = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed, CACHE, work, SRC / "foi" / "data")
        env["inputs_s"] = round(time.perf_counter() - t, 3)
        if args.trace:
            results, metrics, absent = traced_run(ops, args.seconds, work)
            env["absent"] = absent
        else:
            setup = measure_setup(work, SETUP_BEFORE)
            results = closed_loop(ops, args.seconds, work)
            setup += measure_setup(work, SETUP_AFTER)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(results, setup).items()}
            env["setup_samples_s"] = [round(s, 4) for s in setup]
    except Missing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["calibration_end"] = envinfo.calibrate()

    failed = [r for r in results if not r.ok]
    for r in failed[:5]:
        print(f"perfbench: {args.workload} {r.verb} failed: {r.error}", file=sys.stderr)
    mode = "traced in-process" if args.trace else "closed loop, 1 client"
    print(f"{args.workload} seed={args.seed} ({mode}): {len(results)} ops, {len(failed)} failed, "
          f"verbs {sorted({r.verb for r in results})}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")
    print(f"  {'ops_failed_frac':<36} {len(failed) / len(results):>14.4f} ({len(failed)}/{len(results)})")
    if not args.trace:
        print(f"  samples: {len(results)} verbs for wall/cpu/rss, {len(setup)} imports for setup_s")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
