"""kleingroup benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  ``--workload all`` runs the four workloads in turn.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
sample counts, percentiles, failures and environment of the run.

Every measurement comes from one closed-loop client: a fresh worker
process (worker.py) that makes each call only after the previous one
returned.  See README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference as ref
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "homology", "chain-torsion", "cli")

PHASES = 24         # chunks of a timed run; one cold start after each
IMPORT_RUNS = 3     # `python -X importtime` launches per traced run
DEADLINE_S = 170    # whole run, so it exits within the 180 s allowed
RESERVE_S = 40      # stop starting chunks when less than this is left
NPROC = len(os.sched_getaffinity(0))  # before main() pins the run to one CPU


class BenchError(Exception):
    pass


def _env() -> dict:
    """The environment of every process the benchmark starts: the
    checkout's src first on the path, and bytecode cached as it is for
    an installed package, so set-up and cold starts do not recompile."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its deadline")
    return left


def _start(workload: str, seed: int, mode: str) -> tuple[subprocess.Popen, float]:
    """Start worker.py and wait for ``ready``; return the process and its
    set-up time (launch to ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=_env())
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if ready != "ready\n":
        _stop(proc)
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, setup_s


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _reply(proc: subprocess.Popen, command: str | None = None) -> dict:
    if command is not None:
        proc.stdin.write(command + "\n")
        proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited (code {proc.poll()})")
    return json.loads(line)


def _setup_probe(workload: str, seed: int, deadline: float) -> float:
    proc, setup_s = _start(workload, seed, "setup")
    try:
        proc.communicate(timeout=_remaining(deadline))
    finally:
        _stop(proc)
    return setup_s


def _cold_start(rng: random.Random, deadline: float) -> tuple[float, bool]:
    """Launch-to-exit time of one fresh ``python -m kleingroup.cli mul``
    on seeded 10^30-sized coordinates, and whether its output was right."""
    g = (rng.randint(-10**30, 10**30), rng.randint(-10**30, 10**30))
    h = (rng.randint(-10**30, 10**30), rng.randint(-10**30, 10**30))
    cmd = [sys.executable, "-m", "kleingroup.cli", "mul", *map(str, g + h), "--json"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_env(),
                          timeout=_remaining(deadline))
    elapsed = time.perf_counter() - t0
    n, m = ref.mul(g, h)
    try:
        ok = proc.returncode == 0 and \
            json.loads(proc.stdout)["result"] == {"element": {"n": n, "m": m}}
    except ValueError:
        ok = False
    return elapsed, ok


def _import_times(deadline: float) -> tuple[float, float]:
    """Median cumulative import time of numpy and of kleingroup (package
    plus cli), in ms, from ``python -X importtime``."""
    numpy_ms, kleingroup_ms = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kleingroup.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=_env(),
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError("importing kleingroup.cli failed")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1000
        numpy_ms.append(cumulative["numpy"])
        kleingroup_ms.append(cumulative["kleingroup"] + cumulative["kleingroup.cli"])
    return statistics.median(numpy_ms), statistics.median(kleingroup_ms)


def _beta_cdf(x: float, a: float) -> float:
    """The regularized incomplete beta function I_x(a, a), by its
    continued fraction (modified Lentz method)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > 0.5:
        return 1.0 - _beta_cdf(1.0 - x, a)
    tiny = 1e-300

    def step(value: float) -> float:
        return value if abs(value) > tiny else tiny

    c, d = 1.0, 1.0 / step(1.0 - 2 * a * x / (a + 1))
    h = d
    for m in range(1, 100_000):
        for aa in (m * (a - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (2 * a + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1.0 / step(1.0 + aa * d)
            c = step(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    front = math.exp(math.lgamma(2 * a) - 2 * math.lgamma(a)
                     + a * math.log(x) + a * math.log1p(-x))
    return front * h / a


def median(samples) -> float:
    """Harrell-Davis estimate of the median: the mean of the sorted
    samples weighted by the Beta((n+1)/2, (n+1)/2) distribution.

    Every end-to-end median uses it.  The sample median of a
    round made of a few tasks of very different sizes (homology, sweep)
    is one or two samples at a gap between task kinds, and jumps with
    the noise of those samples; this estimate averages the samples near
    the middle and does not.  Weights beyond 12 standard deviations of
    the Beta distribution are below 1e-30 and are left out.
    """
    xs = sorted(samples)
    n = len(xs)
    a = (n + 1) / 2
    half = 6.0 / math.sqrt(n + 2)
    lo, hi = max(0, math.floor((0.5 - half) * n)), min(n, math.ceil((0.5 + half) * n))
    cdf = [_beta_cdf(k / n, a) for k in range(lo, hi + 1)]
    weights = [c1 - c0 for c0, c1 in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, xs[lo:hi])) / sum(weights)


def tail(rounds: list[list[float]]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the task-time tail over complete
    rounds.

    Rounds of 100 tasks or more (chain-torsion): p99 of all samples, which
    has at least ten samples beyond it.  Smaller rounds (sweep, homology,
    cli) hold a few slow tasks, each once a round; the slowest task of
    each round, median over rounds, is reported.  Either way the
    percentile is fixed by the round's size, so a faster program that
    fits more rounds in a run is not measured at a higher percentile.
    """
    if len(rounds[0]) >= 100:
        samples = sorted(x for r in rounds for x in r)
        n = len(samples)
        return samples[n - max(10, n // 100) - 1], 100.0 * (n - max(10, n // 100)) / n, n
    return median([max(r) for r in rounds]), 100.0, len(rounds)


def _commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": NPROC,
        "seed": seed,
        "commit": _commit(),
    }


def _traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    numpy_ms, kleingroup_ms = _import_times(deadline)
    proc, _ = _start(workload, seed, "trace")
    try:
        res = _reply(proc)
    finally:
        _stop(proc)
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    metrics["import.numpy_ms"] = (numpy_ms, "ms")
    metrics["import.kleingroup_ms"] = (kleingroup_ms, "ms")
    return metrics, res


def _calibrated(probe):
    """Run ``probe() -> (seconds, ...)`` between two calibrations; return
    (reference seconds, raw seconds, rest of the probe's result)."""
    before = speed.calibrate()
    raw, *rest = probe()
    return (speed.scaled(raw, before, speed.calibrate()), raw, *rest)


def _measured(workload: str, seed: int, seconds: int,
              deadline: float) -> tuple[dict, dict]:
    """The timed run, in PHASES chunks of task time with a cold start
    after each chunk and a set-up probe after every other one, so each
    metric samples the whole run rather than one stretch of it."""
    rng = random.Random(f"cold/{seed}")
    before = speed.calibrate()
    proc, setup_s = _start(workload, seed, "run")
    setups = [(speed.scaled(setup_s, before, speed.calibrate()), setup_s)]
    cold, cold_wrong = [], 0
    res = {"attempted": 0, "failed": 0, "failures": [], "rounds": []}

    def probe() -> None:
        nonlocal cold_wrong
        ref_s, raw_s, ok = _calibrated(lambda: _cold_start(rng, deadline))
        cold.append((ref_s, raw_s))
        cold_wrong += not ok
        if len(cold) % 2 == 0:
            setups.append(_calibrated(lambda: (_setup_probe(workload, seed, deadline),))[:2])

    try:
        spent = 0.0
        # a sweep round is longer than --seconds: finish one, then stop
        while (spent < seconds or not res["rounds"]) and _remaining(deadline) > RESERVE_S:
            chunk = _reply(proc, f"chunk {seconds / PHASES}")
            spent += chunk.pop("spent")
            for key, value in chunk.items():
                res[key] += value
            probe()
        peak_rss_mib = _reply(proc, "end")["peak_rss_mib"]
        proc.wait(timeout=_remaining(deadline))
    finally:
        _stop(proc)
    while len(cold) < PHASES:  # chunks longer than seconds / PHASES
        probe()
    rounds = res.pop("rounds")
    if not rounds:
        raise BenchError("no round completed before the deadline")

    def summary(i: int, key: str) -> tuple[dict, tuple[float, int]]:
        """Metrics from the reference (i = 0) or raw (i = 1) timings."""
        times = [r[key] for r in rounds]
        tail_s, tail_pct, tail_n = tail(times)
        return {
            "setup_s": (median([s[i] for s in setups]), "s"),
            "wall_s": (median([sum(t) for t in times]), "s"),
            "task_p50_ms": (median([x for t in times for x in t]) * 1e3, "ms"),
            "task_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "cold_start_ms": (median([c[i] for c in cold]) * 1e3, "ms"),
        }, (tail_pct, tail_n)

    metrics, (tail_pct, tail_n) = summary(0, "task_ref_s")
    raw, _ = summary(1, "task_s")
    res["raw_metrics"] = {k: v for k, (v, _) in raw.items()}
    res["attempted"] += len(cold)
    res["failed"] += cold_wrong
    if cold_wrong:
        res["failures"].append(f"cold start: {cold_wrong} wrong outputs")
    res["samples"] = {
        "setup_s": len(setups),
        "wall_s": len(rounds),
        "task_p50_ms": sum(len(r["task_s"]) for r in rounds),
        "task_tail_ms": tail_n,
        "task_tail_percentile": tail_pct,
        "peak_rss_mib": 1,
        "cold_start_ms": len(cold),
    }
    return metrics, res


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Measure one workload; return (result line, detail line)."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        metrics, res = _traced(workload, seed, deadline)
    else:
        metrics, res = _measured(workload, seed, seconds, deadline)
    detail = {"workload": workload, "trace": trace, "seconds": seconds,
              "environment": environment(seed),
              "failed_frac": res["failed"] / res["attempted"],
              "failures": res["failures"]}
    for key in ("samples", "raw_metrics", "trace_file"):
        if key in res:
            detail[key] = res[key]
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "kleingroup" / "__init__.py").is_file():
        print(f"no kleingroup sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so that the
    # calibrations and the measurements see the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for w, (result, detail) in results.items():
        for name, m in result["metrics"].items():
            print(f"{w:14} {name:32} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        print(json.dumps(detail))
    if len(results) == 1:
        final = results[names[0]][0]
    else:
        final = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "metrics": {f"{w}.{k}": v for w, (r, _) in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
