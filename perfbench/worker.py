"""One benchmark process: set up a workload, then time or trace it.

Started by run.py as a fresh interpreter with the checkout's ``src`` on
the path.  It prints ``ready`` once imports, input generation and
warm-up are done; run.py times set-up up to that line.

Modes:

* ``setup``: exit after ``ready``.
* ``run``: serve run.py over stdin.  ``chunk <s>`` runs tasks until at
  least <s> seconds of task time have passed and answers with one JSON
  line of samples; ``end`` answers with the peak RSS and exits.  Chunks
  let run.py spread its set-up and cold-start probes over the whole run.
* ``trace``: time round 0 untraced, then again with the recorder
  installed, and print the per-layer metrics as one JSON line.

Round r of a run is generated from ``Random("<workload>/<seed>/<r>")``
just before it starts, so the same seed gives the same inputs.  A
round's time is the sum of its task times: the calls into kleingroup,
without input generation or output checks.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import resource
import signal
import sys
import time
import traceback

import kleingroup  # run.py puts the checkout's src first on the path
import kleingroup.cli  # noqa: F401  (imported by users of every workload)

import speed
import workloads
from recorder import Recorder

ROOT = pathlib.Path(__file__).resolve().parent.parent
TASK_LIMIT_S = 60  # a task still running after this counts as failed
MAX_FAILURE_NOTES = 10


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout(f"task exceeded {TASK_LIMIT_S}s")


def make_round(workload: str, seed: int, r: int) -> list:
    round_fn, _ = workloads.WORKLOADS[workload]
    return round_fn(random.Random(f"{workload}/{seed}/{r}"))


def _outcome() -> dict:
    return {"attempted": 0, "failed": 0, "failures": [], "rounds": []}


def run_task(task, outcome: dict, gauge: speed.Gauge | None = None,
             recorder: Recorder | None = None) -> float:
    """Run and check one task; return its duration.  Wrong outputs and
    exceptions are counted in ``outcome``, never raised.  A gauge, if
    given, calibrates around and during the call, not the check."""
    if gauge:
        gauge.start()
    signal.setitimer(signal.ITIMER_REAL, TASK_LIMIT_S)
    t0 = time.perf_counter()
    try:
        out = task.run()
    except Exception as e:  # a failing task is a measured outcome
        out, error = None, e
    else:
        error = None
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        if gauge:
            gauge.stop()
    if error is None:
        try:
            ok, note = task.check(out), "wrong output"
        except Exception as e:
            error = e
    if error is not None:
        ok, note = False, "".join(traceback.format_exception_only(type(error), error)).strip()
    outcome["attempted"] += 1
    if not ok:
        outcome["failed"] += 1
        if len(outcome["failures"]) < MAX_FAILURE_NOTES:
            outcome["failures"].append(f"{task.label}: {note}")
    if recorder is not None:
        recorder.task(task.label, t0, t1)
    return t1 - t0


def run_round(tasks, outcome: dict, recorder: Recorder | None = None) -> float:
    return sum(run_task(task, outcome, recorder=recorder) for task in tasks)


def serve(workload: str, seed: int, first_round: list) -> None:
    """Answer ``chunk`` commands until ``end``.  Each completed round is
    reported once, as its task times in seconds and in reference seconds;
    the tasks of an unfinished round still count as attempted."""
    gauge = speed.Gauge()
    tasks, r = first_round, 0
    done = {"task_s": [], "task_ref_s": []}
    for line in sys.stdin:
        command = line.split()
        if command[0] == "end":
            break
        budget = float(command[1])
        outcome, spent = _outcome(), 0.0
        while spent < budget:
            raw, ref = gauge.measure(run_task(tasks[len(done["task_s"])], outcome, gauge))
            done["task_s"].append(raw)
            done["task_ref_s"].append(ref)
            spent += raw
            if len(done["task_s"]) == len(tasks):
                outcome["rounds"].append(done)
                done = {"task_s": [], "task_ref_s": []}
                r += 1
                tasks = make_round(workload, seed, r)
        outcome["spent"] = spent
        print(json.dumps(outcome), flush=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mib": rss}), flush=True)


def trace(workload: str, seed: int, first_round: list) -> dict:
    untraced = run_round(first_round, _outcome())
    recorder = Recorder()
    recorder.install([workloads])
    outcome = _outcome()
    traced = run_round(first_round, outcome, recorder)
    out_path = ROOT / "perfbench" / "out" / f"trace-{workload}-{seed}.json"
    recorder.dump(out_path)

    def fn(key: str, field: int = 1):
        """calls (0), self_s (1) or total_s (2) of one traced function."""
        return recorder.stats.get(key, (0, 0.0, 0.0))[field]

    metrics = {}
    for layer, (calls, self_s) in recorder.layer_totals().items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    metrics["plane.act_line.calls"] = (fn("plane.act_line", 0), "count")
    for key in ("plane.act_line", "plane.stabilizes", "subgroups.contains",
                "core.mul", "core.conj", "models.index_action"):
        metrics[f"{key}.self_s"] = (fn(key), "s")
    for name, suite in sorted(kleingroup.verify.SUITES.items()):
        metrics[f"verify.{name}_s"] = (fn(f"verify.{suite.__name__}", 2), "s")
    metrics["snf.smith_s"] = (fn("snf.smith_normal_form", 2), "s")
    metrics["snf.matmul_s"] = (fn("snf.IntMatrix.__matmul__", 2), "s")
    metrics["abelian.from_moduli.calls"] = (fn("abelian.AbelianGroup.from_moduli", 0), "count")
    metrics["cli.build_parser_s"] = (fn("cli.build_parser", 2), "s")
    for key, value in recorder.counters.items():
        metrics[key] = (value, "bits" if key.endswith("_bits") else "count")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.unattributed_s"] = (traced - recorder.self_total_s(), "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    outcome["metrics"] = metrics
    outcome["trace_file"] = str(out_path.relative_to(ROOT))
    return outcome


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    if not pathlib.Path(kleingroup.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kleingroup imported from {kleingroup.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    first_round = make_round(args.workload, args.seed, 0)
    workloads.WORKLOADS[args.workload][1]()
    print("ready", flush=True)

    signal.signal(signal.SIGALRM, _alarm)
    if args.mode == "run":
        serve(args.workload, args.seed, first_round)
    elif args.mode == "trace":
        print(json.dumps(trace(args.workload, args.seed, first_round)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
