#!/usr/bin/env python3
"""starclean benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload decide-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in one process drives `starclean.cli.main` in-process, one job
after another, over a job list generated from the seed.  The run repeats
rounds over that list until `--seconds` are used, and at least two rounds
(a job marked `every=k` runs in one round of k).  Each job's report is
checked against the expected verdict and its certificates are re-verified
after the round, outside the timed interval.

Host-speed correction: on a shared VM the speed of a core swings by a third
for seconds at a time, as neighbours load it.  A fixed pure-Python loop (the
speed probe, about 0.2 ms) is read before every job, every SAMPLE_S while a
job runs and after the last job.  Each job latency is scaled by the run's
fastest reading over the time-weighted median reading from one second before
the job to one second after it: the latency the job would have had at the
host's best speed in that run.  Set-up times are scaled the same way by the
readings right before and after each set-up process.  The time metrics use
the corrected latencies: `wall_s` is the sum over the job list of each job's
median over its runs, `job_ms.p50` and `job_ms.tail` are percentiles of all
job runs.  The run record keeps the uncorrected figures under `uncorrected`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes over the whole list (at least one each), reports the
per-layer metrics of the traced passes and the tracing overhead, and
requires both kinds of pass to give the same determinism digest.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "proved_share": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 7
PROBE_LOOP = 3000
# a job's host speed: the time-weighted median probe reading from this long
# before the job starts to this long after it ends (the speed stays
# correlated over seconds)
PROBE_WINDOW_S = 1.0
# speed-probe interval while a job runs
SAMPLE_S = 0.1


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None, help="smoke runs: only the first N jobs")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_jobs(workload: str, seed: int, limit: int | None = None):
    import check
    import jobs

    if workload == "decide-ladder":
        out = jobs.decide_ladder(seed)
    elif workload == "crossval-sweep":
        out = jobs.crossval_sweep(seed)
    elif workload == "lift-canonical":
        out = jobs.lift_canonical(
            seed, lambda g, r, rng: check.random_f_element(check.Carrier.from_specs(g, r), rng)
        )
    else:
        raise SystemExit(f"unknown workload {workload!r}; choose from {jobs.WORKLOADS} or all")
    return out[:limit] if limit else out


# --------------------------------------------------------------------------
# running jobs
# --------------------------------------------------------------------------

def _strip_timings(value):
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def run_job(job):
    """(latency s, exit code or None if it raised, report, error text)."""
    from starclean import cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*job.argv, "--json"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 3
    except Exception as exc:  # a crashing job is a failed job; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    report = None
    if code is not None and code <= 2:
        try:
            report = _strip_timings(json.loads(out.getvalue()))
        except json.JSONDecodeError as exc:
            code, error = None, f"unparseable report: {exc}"
    return latency, code, report, error or err.getvalue().strip()


def speed_probe() -> float:
    """Seconds of a fixed pure-Python loop, the median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Sampler:
    """(time, speed probe) readings: one per `read`, and one every SAMPLE_S
    inside `running`, from a SIGALRM handler (no thread).  `spent` is the
    time the handler took, which the caller takes back out of the job's
    latency.  The handler stays installed, so a signal that arrives after
    the timer is stopped finds it and does nothing."""

    def __init__(self):
        self.readings: list[tuple[float, float]] = []
        self.spent = 0.0
        self._armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def read(self) -> None:
        self.readings.append((time.perf_counter(), speed_probe()))

    def _tick(self, signum, frame) -> None:
        if not self._armed:
            return
        start = time.perf_counter()
        reading = speed_probe()
        end = time.perf_counter()
        self.readings.append((end, reading))
        self.spent += end - start

    @contextlib.contextmanager
    def running(self):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False


def run_pass(jobs, checker, tracer=None):
    """One timed pass over `jobs`; checks run after it.  Untraced passes
    read the speed probe before each job, while it runs and after the last."""
    results = []
    intervals = []
    sampler = Sampler() if tracer is None else None
    wall = 0.0
    for job in jobs:
        if tracer is not None:
            tracer.job = job.index
            results.append(run_job(job))
        else:
            sampler.read()
            spent = sampler.spent
            start = time.perf_counter()
            with sampler.running():
                latency, *rest = run_job(job)
            results.append((latency - (sampler.spent - spent), *rest))
            intervals.append((start, start + latency))
        wall += results[-1][0]
    if sampler is not None:
        sampler.read()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall": wall,
        "rss_mb": rss_mb,
        "jobs": [job.index for job in jobs],
        "latencies": [r[0] for r in results],
        "readings": sampler.readings if sampler is not None else [],
        "intervals": intervals,
        "outcomes": [checker.check(job, code, report, error)
                     for job, (_, code, report, error) in zip(jobs, results)],
        "reports": [json.dumps([job.argv, code, report, error], sort_keys=True, default=str)
                    for job, (_, code, report, error) in zip(jobs, results)],
    }


def measure_setup(args) -> list[tuple[float, float, float]]:
    """(seconds from process start until the job list is ready, speed probe
    before, speed probe after) for each of SETUP_RUNS fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    times = []
    for _ in range(SETUP_RUNS):
        before = speed_probe()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
        times.append((ready - start, before, speed_probe()))
    return times


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile of the job latencies
    that still has at least ten jobs beyond it (the maximum if there are
    fewer than eleven jobs)."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


# --------------------------------------------------------------------------
# a run
# --------------------------------------------------------------------------

def time_metrics(runs_ms: dict) -> dict:
    """wall_s: the sum of each job's median latency; job_ms.p50 and
    job_ms.tail: percentiles of all job runs."""
    pooled = [x for xs in runs_ms.values() for x in xs]
    tail, pct = tail_latency(pooled)
    return {
        "wall_s": sum(statistics.median(xs) for xs in runs_ms.values()) / 1000,
        "job_ms.p50": statistics.median(pooled),
        "job_ms.tail": tail,
        "tail_percentile": pct,
        "samples": len(pooled),
    }


def round_jobs(jobs, r: int):
    return [job for job in jobs if r % job.every == job.phase]


def run_workload(args, jobs, checker, tracer=None):
    """Rounds until the window is used and every job has run; traced runs
    alternate untraced and traced passes over the whole list.  Returns the
    passes, each tagged with `traced`."""
    passes = []
    measured = 0.0
    cycle = max(2, *(job.every for job in jobs))
    while True:
        r = len(passes)
        traced = tracer is not None and r % 2 == 1
        if tracer is not None:
            tracer.active = traced
        result = run_pass(jobs if tracer is not None else round_jobs(jobs, r), checker,
                          tracer if traced else None)
        if tracer is not None:
            tracer.active = False
        result["traced"] = traced
        passes.append(result)
        measured += result["wall"]
        # start another round while it is expected to end, on average,
        # within the window
        if len(passes) >= cycle and measured + 0.5 * measured / len(passes) > args.seconds:
            return passes


def digest(jobs, passes) -> tuple[str, list[int]]:
    """(sha256 of the job reports with timing fields stripped, in job order;
    indices of jobs whose report differed between two of their runs)."""
    reports = {job.index: set() for job in jobs}
    for p in passes:
        for i, text in zip(p["jobs"], p["reports"]):
            reports[i].add(text)
    unstable = [i for i, texts in reports.items() if len(texts) > 1]
    first = [min(reports[job.index]) for job in jobs]
    return hashlib.sha256(json.dumps(first).encode()).hexdigest(), unstable


def summarize(args, jobs, passes, setup_times, tracer=None) -> dict:
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(bool(o.failures) for o in outcomes)
    digest_hex, unstable = digest(jobs, passes)
    correct = not unstable and not any(o.wrong for o in outcomes)
    plain = [p for p in passes if not p["traced"]]
    readings = sorted(r for p in plain for r in p["readings"])
    at = [t for t, _ in readings]
    # a reading stands for the time until the next one (at most a second)
    weight = [min(b - a, 1.0) for a, b in zip(at, at[1:])] + [SAMPLE_S]
    fastest = min(min(x for _, x in readings), *(x for s in setup_times for x in s[1:]))

    def speed_around(start: float, end: float) -> float:
        """Time-weighted median reading from PROBE_WINDOW_S before the job
        to PROBE_WINDOW_S after it."""
        lo = bisect.bisect_left(at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, end + PROBE_WINDOW_S)
        window = sorted(zip((x for _, x in readings[lo:hi]), weight[lo:hi]))
        half, acc = sum(w for _, w in window) / 2, 0.0
        for x, w in window:
            acc += w
            if acc >= half:
                return x
        return window[-1][0]

    runs_ms = {job.index: [] for job in jobs}
    uncorrected_ms = {job.index: [] for job in jobs}
    first = {}
    seen = set()
    for p in passes:
        for k, (i, latency, outcome) in enumerate(zip(p["jobs"], p["latencies"], p["outcomes"])):
            first.setdefault(i, outcome)
            if not p["traced"]:
                local = speed_around(*p["intervals"][k])
                runs_ms[i].append(latency * 1000 * fastest / local)
                uncorrected_ms[i].append(latency * 1000)
        if len(seen) < len(jobs):
            seen.update(p["jobs"])
            # high-water mark once every job has run, so it does not depend
            # on how many rounds fit into the window
            rss_mb = p["rss_mb"]
    times = time_metrics(runs_ms)
    e2e = {
        "setup_s": statistics.median(t * fastest / ((a + b) / 2) for t, a, b in setup_times),
        "wall_s": times["wall_s"],
        "job_ms.p50": times["job_ms.p50"],
        "job_ms.tail": times["job_ms.tail"],
        "proved_share": sum(first[job.index].proved for job in jobs) / len(jobs),
        "peak_rss_mb": rss_mb,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "jobs_per_pass": len(jobs),
        "runs_per_job": [min(map(len, runs_ms.values())), max(map(len, runs_ms.values()))],
        "digest": digest_hex,
        "unstable_reports": [" ".join(jobs[i].argv) for i in unstable],
        "tail_percentile": times["tail_percentile"],
        "tail_samples": times["samples"],
        "uncorrected": time_metrics(uncorrected_ms),
        "fastest_probe_ms": fastest * 1000,
        "median_probe_ms": statistics.median(x for _, x in readings) * 1000,
        "failed_share": failed / attempted,
        "setup_runs_s": [t for t, _, _ in setup_times],
        "end_to_end": e2e,
        "jobs": [
            {"argv": " ".join(job.argv), "stratum": job.stratum, "expect": job.expect,
             "ms": statistics.median(runs_ms[job.index]), "runs_ms": runs_ms[job.index],
             "uncorrected_runs_ms": uncorrected_ms[job.index], "proved": first[job.index].proved}
            for job in jobs
        ],
        "failures": sorted({
            (" ".join(jobs[i].argv), reason)
            for p in passes for i, o in zip(p["jobs"], p["outcomes"]) for reason in o.failures
        }),
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        layers = tracer.metrics(len(traced))
        layers["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in plain), "s")
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_METRICS[k]} for k, v in e2e.items()}
    record["result"] = {"correct": correct, "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    return record


def print_summary(record) -> None:
    e2e = record["end_to_end"]
    lo, hi = record["runs_per_job"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['passes']} round(s) over {record['jobs_per_pass']} jobs, "
          f"each job run {lo}-{hi} times untraced; times corrected for host speed "
          f"(fastest probe {record['fastest_probe_ms']:.3f} ms, median {record['median_probe_ms']:.3f} ms)")
    for name, unit in E2E_METRICS.items():
        extra = ""
        if name == "job_ms.tail":
            extra = f"  (p{record['tail_percentile']:.1f} of {record['tail_samples']} job runs)"
        if name in record["uncorrected"]:
            extra += f"  uncorrected {record['uncorrected'][name]:.4f}"
        print(f"  {name:<14} {e2e[name]:>12.4f} {unit}{extra}")
    res = record["result"]
    print(f"  {'failed_share':<14} {record['failed_share']:>12.4f} ratio"
          f"  ({res['failed']} of {res['attempted']} jobs)")
    for name, value in sorted(record.get("per_layer", {}).items()):
        print(f"  {name:<40} {value:>14.6g} {res['metrics'][name]['unit']}")
    print(f"  digest {record['digest']}")
    for argv in record["unstable_reports"]:
        print(f"  report differs between runs: {argv}")
    for argv, reason in record["failures"]:
        print(f"  failed: {argv} :: {reason}")


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name."""
    import jobs

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.jobs:
            cmd += ["--jobs", str(args.jobs)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "starclean" / "__init__.py").is_file():
        print(f"error: no starclean sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one client, one thread: keep numpy's BLAS from starting worker threads
    # (the setup probes inherit this)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.workload == "all":
        return run_all(args)

    import check
    import starclean.cli  # noqa: F401  (loads every starclean module)

    jobs = make_jobs(args.workload, args.seed, args.jobs)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup_times = measure_setup(args)
    checker = check.Checker()
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    try:
        passes = run_workload(args, jobs, checker, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = summarize(args, jobs, passes, setup_times, tracer)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.json")
    print_summary(record)
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
