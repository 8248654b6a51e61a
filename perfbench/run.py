"""Run one workload of the mopr benchmark and print its metrics.

    python3 perfbench/run.py --workload retrieve|audit|sweep --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ./src.  One
process and one caller run a closed loop: each request is sent after the
previous one returned.  The corpus is fixed and the seed draws the queries,
so the same seed gives the same requests.

Every time reported is a normalised CPU time.  A request's CPU time
(``time.process_time``; the library computes on one thread, BLAS is pinned to
one thread and a request does no I/O) is divided by the CPU time of a fixed
reference kernel run just before and just after it, and multiplied by that
kernel's time on an idle core (``bench_reference``).  CPU time leaves out the
stretches in which the hypervisor ran another tenant on our core (steal time);
the reference cancels the slower speed of our own instructions while other
tenants share the core, caches and memory bandwidth.  Raw CPU and wall times,
the reference times and the steal time the kernel reported during the loop
are kept in the record.

Set-up (import, generating the instances, a CSV round trip of every pool and
one warm-up request) is repeated SETUP_REPS times and its median reported.
The import is timed once and normalised by the median of IMPORT_REFS
reference measurements taken right after it.  The timed loop then cycles
through the workload's list of distinct requests: it runs the whole list at
least once and stops at the first request boundary after ``--seconds`` of
wall time.  Throughput and median latency take the median repeat of each
distinct request, so every distinct request counts once wherever the
deadline cut the list, and a faster program's extra repeats do not bias its
figures.  The tail latency, taken over every request executed, is printed
and recorded but not reported as a metric: it keeps each execution's own
noise.  After the loop every output is checked by an independent
recomputation.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
the loop runs under the outside-in tracer, the per-layer metrics are
reported, and the loop's first requests are replayed in traced and untraced
pairs to measure the tracer's overhead.  Human-readable lines come first;
the last line of standard output is one JSON object.  Spans and a record of the run go to ``.perfbench/``.
The exit code is 1 when an output check failed and 2 when the checkout has
no ``src/mopr``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures one caller, and an OpenBLAS pool
# sized to the host would contend with other tenants of a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_CPU_START = time.process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("retrieve", "sweep", "audit")
SETUP_REPS = 5
IMPORT_REFS = 7
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_package():
    """Import mopr from this checkout's src/ (never from elsewhere)."""
    src = ROOT / "src"
    if not (src / "mopr" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mopr package under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import mopr

    if Path(mopr.__file__).resolve().parent != (src / "mopr").resolve():
        raise ImportError(f"mopr imported from {mopr.__file__}, not from {src}")


def _environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _normalised(cpu_s: float, ref_before: float, ref_after: float) -> float:
    """CPU time in seconds of an idle reference core; see bench_reference."""
    import bench_reference

    return cpu_s * bench_reference.NOMINAL_S / ((ref_before + ref_after) / 2.0)


def _setup(name: str, seed: int, workdir: Path, sizes, tracer):
    """Set up SETUP_REPS times; returns the workload, normalised and raw times."""
    import bench_reference
    import bench_workloads

    durations, raw = [], []
    ref = bench_reference.measure()
    for _ in range(SETUP_REPS):
        t0 = time.process_time()
        with _phase(tracer, "setup"):
            workload = bench_workloads.build(name, seed, workdir, sizes)
            workload.warm_up()
        raw.append(time.process_time() - t0)
        ref_after = bench_reference.measure()
        durations.append(_normalised(raw[-1], ref, ref_after))
        ref = ref_after
    return workload, durations, raw


def _phase(tracer, kind: str):
    return contextlib.nullcontext() if tracer is None else tracer.phase(kind)


def _execute(request, tracer=None):
    """Run one request, under a request span when a tracer is given."""
    try:
        with _phase(tracer, "request"):
            return request.call(), None
    except Exception:  # a failed request is counted, and the loop goes on
        return None, traceback.format_exc(limit=4)


def _tracer_overhead(workload, order, seconds: float) -> float:
    """Traced over untraced time of the loop's first requests, minus one.

    Each request runs twice back to back, once under a fresh tracer, and the
    order alternates, so slow phases of a shared machine cancel in the ratio.
    """
    import bench_tracer

    tracer = bench_tracer.Tracer()
    times = {True: 0.0, False: 0.0}
    for pair, idx in enumerate(order):
        if pair and times[False] >= seconds / 8.0:
            break
        for traced in ((True, False) if pair % 2 else (False, True)):
            if traced:
                tracer.install()
            t0 = time.process_time()
            _execute(workload.requests[idx], tracer if traced else None)
            times[traced] += time.process_time() - t0
            if traced:
                tracer.uninstall()
    return times[True] / times[False] - 1.0


def _timed_loop(workload, seconds: float, tracer):
    """Cycle the request list: all of it once, then until ``seconds`` elapsed.

    Returns the executed request indices; their normalised, CPU and wall
    latencies and the reference times taken between them; the loop's wall
    time; the first output of each request; and the positions of repeats
    whose output differed from the first.
    """
    import bench_reference
    import bench_workloads

    requests = workload.requests
    order, latencies, cpu_latencies, wall_latencies = [], [], [], []
    refs = [bench_reference.measure()]
    first: dict[int, tuple] = {}
    prints: dict[int, bytes | None] = {}
    repeat_bad: set[int] = set()
    start = time.perf_counter()
    i = 0
    while True:
        idx = i % len(requests)
        t0, c0 = time.perf_counter(), time.process_time()
        raw, error = _execute(requests[idx], tracer)
        t1, c1 = time.perf_counter(), time.process_time()
        refs.append(bench_reference.measure())
        order.append(idx)
        latencies.append(_normalised(c1 - c0, refs[-2], refs[-1]))
        cpu_latencies.append(c1 - c0)
        wall_latencies.append(t1 - t0)
        fingerprint = None if error else bench_workloads.fingerprint(raw)
        if idx not in first:
            first[idx] = (raw, error)
            prints[idx] = fingerprint
        elif fingerprint != prints[idx]:
            repeat_bad.add(len(order) - 1)
        i += 1
        if i >= len(requests) and t1 - start >= seconds:
            break
    times = {"latencies": latencies, "cpu": cpu_latencies, "wall": wall_latencies, "refs": refs}
    return order, times, time.perf_counter() - start, first, repeat_bad


def _steal_s() -> float | None:
    """Steal time of all CPUs so far, from /proc/stat; None where absent."""
    try:
        fields = Path("/proc/stat").read_text(encoding="ascii").split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _check_all(workload, first):
    """Check every distinct request once; run untimed those the loop missed."""
    from bench_workloads import Outcome

    outcomes = []
    for idx, request in enumerate(workload.requests):
        raw, error = first.get(idx) or _execute(request)
        if error is not None:
            outcomes.append(Outcome([], [f"raised: {error.strip().splitlines()[-1]}"]))
            continue
        try:
            outcomes.append(request.check(raw))
        except Exception:
            outcomes.append(Outcome([], [f"check raised: {traceback.format_exc(limit=4)}"]))
    return outcomes


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the result line and a record of the run."""
    import bench_reference
    import bench_tracer
    import bench_workloads

    sizes = sizes or bench_workloads.FULL
    import_cpu_s = time.process_time() - _CPU_START
    bench_reference.measure()  # the first run pays for lazy set-up in numpy
    ref = statistics.median(bench_reference.measure() for _ in range(IMPORT_REFS))
    import_s = _normalised(import_cpu_s, ref, ref)
    workdir = ROOT / ".perfbench" / f"{name}-seed{seed}"
    tracer = bench_tracer.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload, setup_durations, setup_cpu = _setup(name, seed, workdir, sizes, tracer)
        steal_before = _steal_s()
        order, times, wall, first, repeat_bad = _timed_loop(workload, seconds, tracer)
        steal_after = _steal_s()
        latencies = times["latencies"]
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes = _check_all(workload, first)
    failed_requests = {idx for idx, o in enumerate(outcomes) if o.problems}
    failed = sum(1 for pos, idx in enumerate(order) if idx in failed_requests or pos in repeat_bad)
    attempted = len(order)
    labels = [r.label for r in workload.requests]
    problems = {labels[i]: outcomes[i].problems for i in sorted(failed_requests)}
    problems.update({f"{labels[order[p]]} (repeat {p})": ["output changed on repeat"] for p in sorted(repeat_bad)})

    record = {
        "workload": name,
        "environment": _environment(seed),
        "digest": bench_workloads.selection_digest(labels, outcomes),
        "requests": attempted,
        "distinct_requests": len(workload.requests),
        "loop_wall_s": wall,
        "loop_cpu_s": sum(times["cpu"]),
        "loop_steal_s": None if steal_before is None else steal_after - steal_before,
        "error_frac": failed / attempted,
        "latency_tail_s": {
            "percentile": workload.tail_percentile,
            "value": statistics.quantiles(latencies, n=100, method="inclusive")[
                workload.tail_percentile - 1] if attempted > 1 else latencies[0],
        },
        "quality": bench_workloads.quality(outcomes),
        "setup_reps_s": setup_durations,
        "setup_reps_cpu_s": setup_cpu,
        "import_s": import_s,
        "import_cpu_s": import_cpu_s,
        "problems": problems,
        "order": order,
        "latencies_s": latencies,
        "cpu_latencies_s": times["cpu"],
        "wall_latencies_s": times["wall"],
        "reference_s": times["refs"],
    }
    if tracer is None:
        by_request: dict[int, list[float]] = {}
        for idx, lat in zip(order, latencies):
            by_request.setdefault(idx, []).append(lat)
        typical = [statistics.median(v) for v in by_request.values()]
        metrics = {
            "setup_s": import_s + statistics.median(setup_durations),
            "throughput_rps": len(typical) / sum(typical),
            "latency_p50_s": statistics.median(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        # spans are wall-clock, so the request time they are shares of is too
        metrics = tracer.summary(request_s=sum(times["wall"]) / attempted,
                                 overhead_frac=_tracer_overhead(workload, order, seconds))
        units = {n: u for n, u, _ in bench_tracer.per_layer_metric_specs()}
        tracer.write(workdir / "spans.jsonl")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "record": record}


def _print_human(run: dict) -> None:
    result, record = run["result"], run["record"]
    env = record["environment"]
    print(f"workload {record['workload']}: seed {env['seed']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"({env['blas_threads']} thread)")
    print(f"  requests {record['requests']} ({record['distinct_requests']} distinct) over "
          f"{record['loop_wall_s']:.3f} s wall, {record['loop_cpu_s']:.3f} s CPU; "
          f"error_frac {record['error_frac']:.4g} (fraction)")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    tail = record["latency_tail_s"]
    print(f"  latency_tail_s = {tail['value']:.6g} s (p{tail['percentile']} of all {record['requests']} requests)")
    for name, value in record["quality"].items():
        print(f"  {name} = {value:.6g}")
    print(f"  selection digest sha256 {record['digest']}")
    for label, problems in record["problems"].items():
        print(f"  FAILED {label}: {problems}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot import mopr from this checkout: {exc}", file=sys.stderr)
        return 2
    run = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}" / f"record-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    _print_human(run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
