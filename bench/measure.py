"""Measurement: set-up probes, the closed loop, CLI timing and the traced run.

One caller in one thread issues each instance only after the previous one
returned.  A run covers whole passes over the workload's instances: it
starts passes until the passes have taken ``seconds``, so every run sees the
same mix.
Outputs are checked by ``gate`` outside the timed calls and with tracing
paused.
"""

from __future__ import annotations

import io
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import gate
import workloads
from antimark import cli
from tracer import COUNTED, ROOT, TIMED, Stat, Tracer, layer_names, unit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 9     # set-up probes per run
CLI_SAMPLES = 21      # CLI subprocesses per run
CLI_IN_PROCESS = 3    # traced in-process CLI calls for cli.main.self_s
TAIL_BEYOND = 10      # samples required beyond the tail percentile


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def run_instance(workload: str, inst, tally: Tally, tracer: Tracer | None = None) -> float:
    """Call one instance, gate its output, and return the call's wall time."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            out = inst.run()
        else:
            tracer.active = True
            try:
                with tracer.span(ROOT):
                    out = inst.run()
            finally:
                tracer.active = False
    except Exception as exc:  # a raising instance is a failed instance
        tally.fail(f"{inst.key}: raised {exc!r}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        problems, decided = gate.check(workload, inst, out)
    except Exception as exc:  # a gate that cannot read the output fails it
        problems, decided = [f"gate raised {exc!r}"], False
    if problems:
        tally.fail(f"{inst.key}: {'; '.join(problems)}")
    elif decided:
        tally.decided += 1
    return elapsed


def warm_up(w) -> None:
    """Run the instances of the first variant that end in milliseconds, so
    lazy set-up inside numpy and LAPACK is done before timing."""
    ref = gate.reference()[w.name]
    for inst in w.variants[0]:
        if ref[inst.key].get("decision") != "UNKNOWN":
            run_instance(w.name, inst, Tally())


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile; with too few samples, the maximum at percentile 100."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_time(name: str, seed: int, src: str) -> float:
    """Import plus input generation, in a fresh process."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "probe.py"),
                           src, name, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def cli_time(w, argv: list[str], src: str, cwd: str, tally: Tally) -> float:
    """Wall time of the workload's CLI command as a subprocess; its output
    is gated like any instance."""
    tally.attempted += 1
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "antimark.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    elapsed = time.perf_counter() - start
    problems = gate.check_cli(w.name, w.cli_key, w.cli_subject, proc.returncode, proc.stdout)
    if problems:
        tally.fail(f"CLI: {'; '.join(problems)}")
    return elapsed


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory for the CLI's input file and working directory.
    It lies inside the checkout, so the benchmark writes nowhere else."""
    return tempfile.TemporaryDirectory(dir=CHECKOUT, prefix=".benchtmp-")


def git_state(root: str) -> tuple[str | None, bool | None]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", root, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.stdout.strip())


def environment(src: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha, dirty = git_state(os.path.dirname(os.path.abspath(src)))
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
            "git_sha": sha, "git_dirty": dirty}


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    detail: dict


def timed_run(name: str, seed: int, seconds: float, src: str,
              minimal: bool = False) -> Result:
    """End-to-end metrics, tracing off.

    The set-up probes and CLI runs are spread evenly between the calls, so
    that their medians, like those of the calls, span the whole run rather
    than a few moments of it; passes stop once the calls have taken
    ``seconds``.
    """
    w = workloads.build(name, seed, minimal)
    warm_up(w)
    tally = Tally()
    setups: list[float] = []
    clis: list[float] = []
    latencies: list[float] = []
    pass_calls: list[float] = []
    loop_time = 0.0
    with scratch_dir() as tmp:
        argv = workloads.write_cli_file(w, tmp)
        cli_time(w, argv, src, tmp, Tally())   # untimed: fills caches, writes bytecode
        # Each job is due once this share of ``seconds`` has gone into calls.
        jobs = sorted([((i + 0.5) / SETUP_SAMPLES,
                        lambda: setups.append(setup_time(name, seed, src)))
                       for i in range(SETUP_SAMPLES)]
                      + [((i + 0.5) / CLI_SAMPLES,
                          lambda: clis.append(cli_time(w, argv, src, tmp, tally)))
                         for i in range(CLI_SAMPLES)], key=lambda job: job[0])
        done = 0
        while not pass_calls or loop_time < seconds:
            calls = []
            for inst in w.pass_instances(len(pass_calls)):
                start = time.perf_counter()
                calls.append(run_instance(name, inst, tally))
                loop_time += time.perf_counter() - start
                while done < len(jobs) and jobs[done][0] * seconds <= loop_time:
                    jobs[done][1]()
                    done += 1
            latencies += calls
            pass_calls.append(sum(calls))
        for _, job in jobs[done:]:
            job()
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ips": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "decided_frac": (tally.decided / len(latencies), "ratio"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
        "cli_p50_ms": (1e3 * statistics.median(clis), "ms"),
    }
    detail = {"passes": len(pass_calls), "samples": len(latencies),
              "tail_percentile": tail_pct, "pass_call_s": pass_calls,
              "setup_samples_s": setups, "cli_samples_s": clis}
    return Result(metrics, tally, detail)


def traced_run(name: str, seed: int, seconds: float, minimal: bool = False) -> Result:
    """Per-layer metrics: each pass runs untraced, then traced on the same
    inputs.  Counts and self times are those of one traced set-up plus the
    mean traced pass."""
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        tracer.active = True
        start = time.perf_counter()
        try:
            with tracer.span(ROOT):
                w = workloads.build(name, seed, minimal)
        finally:
            tracer.active = False
        setup_wall = time.perf_counter() - start
        setup_stats, tracer.stats = tracer.stats, {}
        warm_up(w)
        plain = traced = 0.0
        passes = 0
        start = time.perf_counter()
        while True:
            insts = w.pass_instances(passes)
            plain += sum(run_instance(name, inst, tally) for inst in insts)
            traced += sum(run_instance(name, inst, tally, tracer) for inst in insts)
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
        cli_self = []
        with scratch_dir() as tmp:
            argv = workloads.write_cli_file(w, tmp)
            for _ in range(CLI_IN_PROCESS):
                tally.attempted += 1
                buf = io.StringIO()
                with tracer.collecting({}) as stats, redirect_stdout(buf):
                    tracer.active = True
                    try:
                        code = cli.main(argv)
                    finally:
                        tracer.active = False
                cli_self.append((stats["cli.main"].calls, stats["cli.main"].self_s))
                problems = gate.check_cli(name, w.cli_key, w.cli_subject, code, buf.getvalue())
                if problems:
                    tally.fail(f"CLI: {'; '.join(problems)}")
    finally:
        tracer.active = False
        tracer.remove()

    def per_unit(key: str) -> Stat:
        one = Stat()
        for stats, count in ((setup_stats, 1), (tracer.stats, passes)):
            s = stats.get(key)
            if s is not None:
                one.calls += s.calls / count
                one.self_s += s.self_s / count
                one.raised += s.raised / count
                one.none += s.none / count
        return one

    metrics = {}
    for table in (TIMED, COUNTED):
        for mod, fns in table.items():
            for fn in fns:
                s = per_unit(f"{mod}.{fn}")
                metrics[f"{mod}.{fn}.calls"] = s.calls
                if table is TIMED:
                    metrics[f"{mod}.{fn}.self_s"] = s.self_s
    metrics["cli.main.calls"] = statistics.median(c for c, _ in cli_self)
    metrics["cli.main.self_s"] = statistics.median(s for _, s in cli_self)
    search = per_unit("exclusion.search_exclusion_povm")
    metrics["exclusion.search_exclusion_povm.found_ratio"] = (
        (search.calls - search.none - search.raised) / search.calls if search.calls else 0.0)
    metrics["exclusion.povm_from_caves_triple.failed"] = per_unit(
        "exclusion.povm_from_caves_triple").raised
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    pass_self = {key: s.self_s / passes for key, s in tracer.stats.items()}
    detail = {"passes": passes, "setup_wall_s": setup_wall,
              "untraced_pass_s": plain / passes, "traced_pass_s": traced / passes,
              "module_self_pass_s": sum(v for key, v in pass_self.items() if key != ROOT),
              "bench_self_pass_s": pass_self.get(ROOT, 0.0)}
    return Result({k: (metrics[k], unit(k)) for k in layer_names()}, tally, detail)
