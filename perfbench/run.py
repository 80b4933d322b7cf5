"""resetlb benchmark: fresh CLI processes on seeded workloads, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``sweep2q``, ``measures5q``, ``spingas``,
``evolve5q``.  Each invocation is one ``resetlb`` CLI process started from
this directory through ``child.py`` with ``--config/--out/--no-timestamp``
(plus the subcommand's required flags), one at a time in a closed loop,
with BLAS/OpenMP threads fixed at 2.  Invocations repeat until the next
one would end past ``--seconds`` (at least two with ``--trace 0``) and
every output CSV goes through the workload's oracle.

``--trace 0`` reports the end-to-end metrics as medians over the passing
invocations: ``wall_s``, ``setup_s`` (process start to the return of
``parse_config``, also sampled by a few children that stop right there),
``items_per_s`` and ``peak_rss_mb`` (each child's own ``wait4`` rusage).
``--trace 1`` spends about half the time on untraced invocations, then
runs one traced invocation in a fresh process and reports the per-layer
metrics, ``trace.overhead_s`` and ``oracle.max_dev``.  The line before the result carries the machine
record, every invocation and ``fail_frac``; the last line is the result.
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
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
THREAD_ENV = {
    "OMP_NUM_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "2",
    "MKL_NUM_THREADS": "2",
}
MIN_INVOCATIONS = 2
SETUP_PROBES = 4  # set-up-only children per run, on top of the full invocations
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0  # no invocation starts that is expected to end later than this


@dataclass
class Invocation:
    exit_code: int
    wall_s: float  # spawn to reaped process
    main_s: float  # spawn to the return of cli.main
    setup_s: float  # spawn to the return of parse_config
    peak_rss_mb: float
    ok: bool
    max_dev: float
    reason: str
    layers: dict | None = None

    def record(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k != "layers"}
        out["max_dev"] = _finite(self.max_dev)
        return out


def _finite(x: float):
    return x if x == x and abs(x) != float("inf") else None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RESETLB_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], log: Path):
    """Run one child to completion; returns (exit code, spawn stamp, reap stamp, rusage)."""
    with open(log, "wb") as log_fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=BENCH_DIR, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log_fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, t0, t1, usage


def _child_argv(workload, workdir: Path, tag: str, mode: list[str]) -> list[str]:
    config = workdir / f"{workload.name}.json"
    if not config.exists():
        config.write_text(json.dumps(workload.config, indent=1, sort_keys=True), encoding="utf-8")
    for ext in (".csv", ".report.json"):
        (workdir / f"{tag}{ext}").unlink(missing_ok=True)
    return [sys.executable, str(BENCH_DIR / "child.py"), str(workdir / f"{tag}.report.json"), *mode,
            "--", workload.command, "--config", str(config), "--out", str(workdir / f"{tag}.csv"),
            "--no-timestamp", *workload.extra_args]


def probe_setup(workload, workdir: Path) -> float:
    """Set-up time of a child that stops once parse_config returns."""
    argv = _child_argv(workload, workdir, "probe", ["--setup-only"])
    code, t0, _, _ = _spawn(argv, workdir / "probe.log")
    report = workdir / "probe.report.json"
    if code != 0 or not report.exists():
        raise RuntimeError(f"set-up probe exited {code}: " + (workdir / "probe.log").read_text(errors="replace"))
    return json.loads(report.read_text(encoding="utf-8"))["parse_end"] - t0


def invoke(workload, workdir: Path, tag: str, trace: bool = False) -> Invocation:
    """One CLI process; its CSV is checked after the clock stops."""
    mode = ["--trace", str(WORK / f"spans-{workload.name}.json")] if trace else []
    argv = _child_argv(workload, workdir, tag, mode)
    out, report, log = (workdir / f"{tag}{ext}" for ext in (".csv", ".report.json", ".log"))
    code, t0, t1, usage = _spawn(argv, log)
    stamps = json.loads(report.read_text(encoding="utf-8")) if report.exists() else {}
    inv = Invocation(
        exit_code=code,
        wall_s=t1 - t0,
        main_s=stamps.get("main_end", t1) - t0,
        setup_s=stamps.get("parse_end", t1) - t0,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        ok=False,
        max_dev=float("inf"),
        reason="",
        layers=stamps.get("layers"),
    )
    if code != 0 or not out.exists():
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        inv.reason = f"exit {code}: " + " | ".join(tail)
        return inv
    check = workload.check(out.read_text(encoding="utf-8"))
    inv.ok, inv.max_dev, inv.reason = check.ok, check.max_dev, check.reason
    return inv


def closed_loop(workload, workdir: Path, budget_s: float, min_count: int, deadline: float) -> list[Invocation]:
    """Untraced invocations back to back until the next would overrun ``budget_s``."""
    runs: list[Invocation] = []
    begin = time.monotonic()
    while True:
        runs.append(invoke(workload, workdir, f"run{len(runs)}"))
        typical = statistics.median(r.wall_s for r in runs)
        now = time.monotonic()
        if now + typical > deadline:
            break
        if len(runs) >= min_count and now - begin + typical > budget_s:
            break
    return runs


def end_to_end(runs: list[Invocation], probes: list[float], items: int) -> dict:
    good = [r for r in runs if r.ok] or runs
    med = lambda xs: float(statistics.median(xs))  # noqa: E731
    return {
        "wall_s": {"value": med(r.wall_s for r in good), "unit": "s"},
        "setup_s": {"value": med(probes + [r.setup_s for r in good]), "unit": "s"},
        "items_per_s": {"value": med(items / (r.wall_s - r.setup_s) for r in good), "unit": "1/s"},
        "peak_rss_mb": {"value": med(r.peak_rss_mb for r in good), "unit": "MB"},
    }


def per_layer(traced: Invocation, untraced: list[Invocation], runs: list[Invocation]) -> dict:
    from tracer import UNITS

    layers = traced.layers or {}
    metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in UNITS.items()}
    base = statistics.median(r.main_s for r in untraced)
    metrics["trace.overhead_s"] = {"value": traced.main_s - base, "unit": "s"}
    max_dev = max((r.max_dev for r in runs if r.ok), default=-1.0)  # -1: no output passed
    metrics["oracle.max_dev"] = {"value": max_dev, "unit": "abs"}
    return metrics


# --- machine record --------------------------------------------------------


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "thread_env": THREAD_ENV,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(numpy) -> dict | None:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "resetlb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# --- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "resetlb" / "cli.py").is_file():
        print(f"benchmark: no resetlb sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # the oracles' own BLAS calls
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # compile bytecode and warm the page cache; not timed
        subprocess.run([sys.executable, "-c", "import resetlb.cli"], cwd=BENCH_DIR, env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        deadline = started + RUN_BUDGET_S
        begin = time.monotonic()
        probes: list[float] = []
        if args.trace:
            untraced = closed_loop(workload, workdir, args.seconds / 2, 1, deadline)
            traced = invoke(workload, workdir, "traced", trace=True)
            runs = untraced + [traced]
            metrics = per_layer(traced, untraced, runs)
        else:
            probes = [probe_setup(workload, workdir) for _ in range(SETUP_PROBES)]
            budget = args.seconds - (time.monotonic() - begin)
            runs = closed_loop(workload, workdir, budget, MIN_INVOCATIONS, deadline)
            metrics = end_to_end(runs, probes, workload.items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in runs)
    for r in runs:
        if not r.ok:
            print(f"benchmark: {args.workload} invocation failed: {r.reason}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "items": workload.items,
        "notes": workload.notes,
        "fail_frac": failed / len(runs),
        "machine": machine_record(args.seed),
        "invocations": [r.record() for r in runs],
        "setup_probes_s": probes,
    }
    print(json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
