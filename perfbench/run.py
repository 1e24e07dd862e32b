"""ellipoly benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json gives the reason for each):
  verify_battery  one op = verification.run_all(); the seed is unused, the
                  battery's inputs are fixed by the library
  gram_sweep      one Gram or Hessenberg case on a seeded ellipse
  closed_forms    one scalar closed-form call on a seeded ellipse
  cli_cold        one ``python -m ellipoly.cli`` process, run one at a time

Every workload is a closed loop: one caller, each op waits for the previous
one.  Op times are CPU time, of this process for the in-process workloads
and of the child process for cli_cold, so the time other tenants of a shared
host hold the core is left out; the library runs on one thread (BLAS is
pinned to one), so on an idle machine its CPU time is its wall time.  Every
reported time is then scaled to a reference host speed, sampled on a fixed
kernel all through the run (hostspeed.py).

Inputs inside ``oracles.known_limit`` (the seed's overflow and aliasing
regions) are drawn again, so no op of a run fails there; the traced run
measures that region with a fixed probe set (``known_limit.failed``).

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced half-run, the tracing overhead against an untraced half-run, and the
spans are written to ``.bench_build/perfbench/``.  The library is imported
from ``src/`` of the checkout this file sits in.
"""

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_battery", "gram_sweep", "closed_forms", "cli_cold")

# One BLAS/OpenMP thread for every workload and every commit: no higher
# than the core count of any machine this runs on, and free of the
# run-to-run spread that thread scheduling adds on a shared host.
THREADS = 1
PINNED = {name: str(THREADS) for name in
          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 9        # fresh processes timed for setup_s (median reported)
LIMIT_PROBES = 64       # known-limit inputs the traced run evaluates
LIMIT_PROBE_SEED = 90001
CLI_PROBES = 5          # fresh processes each for cli.interpreter_ms / cli.import_ms


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and draw the first input, then print the seconds taken")
    return ap.parse_args(argv)


# ----------------------------------------------------------------- inputs


def op_stream(workload: str, seed: int):
    """The workload's ops, with the first one already drawn.  Inputs inside
    oracles.known_limit are drawn again (only closed_forms and cli_cold have
    any): the benchmark times the range where the library answers."""
    import oracles
    import workloads
    if workload == "verify_battery":
        return itertools.repeat(None)
    if workload == "gram_sweep":
        gen = workloads.gram_ops(seed)
    else:
        draws = workloads.closed_ops if workload == "closed_forms" else workloads.cli_ops
        gen = draws(seed, keep=lambda op: not oracles.known_limit(op))
    return itertools.chain([next(gen)], gen)


def limit_probes() -> list:
    """A fixed, seed-independent sample of the known limit region: the first
    LIMIT_PROBES closed-form draws of LIMIT_PROBE_SEED inside it."""
    import oracles
    import workloads
    inside = (op for op in workloads.closed_ops(LIMIT_PROBE_SEED) if oracles.known_limit(op))
    return list(itertools.islice(inside, LIMIT_PROBES))


def limit_probe_failures() -> int:
    """How many limit probes fail (raise, return inf/nan or miss their
    tolerance); a route that stays in range at every degree lowers it."""
    import gate as g
    import workloads
    failed = 0
    for op in limit_probes():
        try:
            out = workloads.run_closed(op)
        except Exception as exc:
            out = exc
        failed += g.closed_outcome(op, out).failed
    return failed


def op_runner(workload: str):
    import ellipoly as E
    import workloads
    if workload == "verify_battery":
        return lambda _op: E.run_all()
    if workload == "gram_sweep":
        return workloads.run_gram
    if workload == "closed_forms":
        return workloads.run_closed
    env = child_env()
    return lambda op: workloads.run_cli(op, env)


def children_cpu() -> float:
    """CPU seconds of every ended child process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def op_clock(workload: str, speed):
    """The clock an op is timed on: its process's CPU time, less the time
    this process spends sampling the host speed."""
    return children_cpu if workload == "cli_cold" else speed.cpu


def timed_loop(ops, run_op, seconds: float, clock, tracer=None):
    """Run ops back to back until ``seconds`` of wall time have passed (at
    least one op).

    Returns [(op, output or exception, seconds on ``clock``)].
    """
    records = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            out = run_op(op)
        except Exception as exc:  # a failed op is recorded, the loop goes on
            out = exc
        records.append((op, out, clock() - t))
        if time.perf_counter() - start >= seconds:
            break
    return records


# ---------------------------------------------------------------- metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def fresh_process_ms(argv, probes: int) -> float:
    """Median CPU time of ``probes`` fresh processes, in ms."""
    times = []
    for _ in range(probes):
        t = children_cpu()
        subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append((children_cpu() - t) * 1e3)
    return statistics.median(times)


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes, of the CPU time from process start to
    the first drawn input: interpreter start, import and input generation."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", "0", "--setup-probe"],
                              env=child_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def gate(workload: str, records):
    import gate as g
    fn = g.GATES[workload]
    return [fn(op, out) for op, out, _ in records]


def end_to_end(records, outcomes, rss, setup, scale):
    """The end-to-end metrics; op times are scaled to the reference host by
    ``scale`` (hostspeed.py), ``setup`` is scaled already."""
    # Op times count passed ops only, so ops that start failing fast do not
    # read as a speedup (a run where every op failed falls back to all ops).
    good = [o for o in outcomes if not o.failed]
    times_ms = ([dt * 1e3 * scale for (_, _, dt), o in zip(records, outcomes) if not o.failed]
                or [dt * 1e3 * scale for _, _, dt in records])
    margins = [o.margin for o in good if o.margin is not None]
    busy = sum(dt for _, _, dt in records) * scale
    return {
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p90": (percentile(times_ms, 0.9), "ms"),
        "ops_per_s": (len(good) / busy, "1/s"),
        "margin_max": (max(margins) if margins else math.nan, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


# ----------------------------------------------------------- environment


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree; never looks above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> list[str]:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} blas_threads={THREADS}",
        f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__} "
        f"blas={blas.get('name')} {blas.get('version')}",
        f"commit={git_commit()}",
    ]


# ------------------------------------------------------------------- main


def run(args) -> tuple[dict, int, int, bool]:
    """Returns (metrics, attempted, failed, correct)."""
    import numpy as np
    import hostspeed
    fp_events = Counter()
    np.seterrcall(lambda kind, flag: fp_events.update([kind]))
    np.seterr(over="call", invalid="call")

    runner = op_runner(args.workload)
    # Each measurement is scaled by the host speed sampled while it ran.
    speed, probe_speed = hostspeed.HostSpeed(), hostspeed.HostSpeed()
    if not args.trace:
        with speed.sampling():
            records = timed_loop(op_stream(args.workload, args.seed), runner, args.seconds,
                                 op_clock(args.workload, speed))
        rss = peak_rss_mb(args.workload)
        with probe_speed.sampling():
            setup = setup_seconds(args.workload, args.seed) * probe_speed.scale()
        outcomes = gate(args.workload, records)
        metrics = end_to_end(records, outcomes, rss, setup, speed.scale())
        traced_records = []
    else:
        metrics, records, outcomes, traced_records = traced_run(args, runner, fp_events, speed,
                                                                probe_speed)

    failed = [o for o in outcomes if o.failed]
    reasons = Counter(o.reason for o in failed)
    for line in environment():
        print(line)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} op_samples={len(records)}"
          + (f" traced_op_samples={len(traced_records)}" if args.trace else ""))
    for label, sp in (("ops", speed), ("probes", probe_speed)):
        print(f"host_scale[{label}]={sp.scale():.4f} (kernel median "
              f"{statistics.median(sp.samples) * 1e3:.4f} ms over {len(sp.samples)} runs, "
              f"reference {hostspeed.REF_MS} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  ops_attempted = {len(outcomes)}")
    print(f"  ops_failed = {len(failed)}" + (f" ({dict(reasons)})" if reasons else ""))
    print(f"  numpy_fp_events = {dict(fp_events)}")
    return metrics, len(outcomes), len(failed), not failed


def traced_run(args, runner, fp_events, speed, probe_speed):
    """Untraced half-run, then a traced half-run over the same op stream."""
    import numpy as np
    import battery
    import workloads
    from tracing import Tracer

    half = args.seconds / 2.0
    clock = op_clock(args.workload, speed)
    with speed.sampling():
        plain = timed_loop(op_stream(args.workload, args.seed), runner, half, clock)
    # The traced half runs unsampled, so no span holds sampling time; it is
    # scaled by the host speed of the runs either side of it.
    tracer = Tracer()
    traced = []
    if args.workload != "cli_cold":   # the CLI runs in child processes
        np.seterrcall(lambda kind, flag: (fp_events.update([kind]), tracer.fp_event(kind, flag)))
        tracer.install()
        try:
            traced = timed_loop(op_stream(args.workload, args.seed), runner, half, clock,
                                tracer)
        finally:
            tracer.uninstall()
    records = plain + traced
    outcomes = gate(args.workload, records)

    with probe_speed.sampling():
        interpreter = fresh_process_ms([sys.executable, "-c", "pass"], CLI_PROBES)
        import_ms = fresh_process_ms([sys.executable, "-c", "import ellipoly.cli"], CLI_PROBES)
    scale = speed.scale()
    metrics = tracer.per_op_metrics(max(1, len(traced)), scale)
    margins = {}
    results = [out for _, out, _ in records if not isinstance(out, Exception)]
    if args.workload == "verify_battery" and results:
        margins = battery.battery_margins(results[-1])
    for name in battery.CLAUSES:
        metrics[f"verification.{name}.margin"] = (margins.get(name, 0.0), "ratio")
    for kind in workloads.GRAM_KINDS + workloads.CLOSED_KINDS:
        kind_margins = [o.margin for (op, _, _), o in zip(records, outcomes)
                        if op is not None and op.kind == kind and o.margin is not None
                        and not o.failed]
        metrics[f"ops.{kind}.margin"] = (max(kind_margins, default=0.0), "ratio")
    metrics["cli.interpreter_ms"] = (interpreter * probe_speed.scale(), "ms")
    metrics["cli.import_ms"] = (import_ms * probe_speed.scale(), "ms")
    p50 = lambda recs: statistics.median(dt * 1e3 * scale for _, _, dt in recs)  # noqa: E731
    metrics["known_limit.failed"] = (limit_probe_failures(), "count")
    metrics["trace.overhead_ms"] = ((p50(traced) - p50(plain)) if traced else 0.0, "ms")

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics, records, outcomes, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import ellipoly
    except ImportError as exc:
        print(f"perfbench: cannot import ellipoly from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(ellipoly.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: ellipoly was imported from {ellipoly.__file__}, "
              f"not from this checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        next(iter(op_stream(args.workload, args.seed)))
        print(f"{time.process_time():.9f}")
        return 0

    metrics, attempted, failed, correct = run(args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
