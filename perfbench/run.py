"""frustra benchmark: times whole CLI job lists from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary      # every workload once, as a table
    python3 perfbench/run.py --self-check   # reduced sizes, checks the metrics

A run starts one workload process (``worker.py``) under an address-space
limit and a timeout.  That process runs the workload's job list back to
back through ``frustra.cli.main`` for about ``--seconds`` seconds, checks
every payload, times a fixed reference kernel after every job, and between
jobs times fresh processes that import ``frustra.cli`` (the set-up time).
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
A result file with the run fingerprint goes to ``.perfbench_work/results``.

This file uses only the standard library and starts no threads, so the
resource limit can be set in the child between fork and exec.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
PROGRAM = os.path.join(ROOT, "src", "frustra", "cli.py")

WORKLOAD_NAMES = ("diag-large", "dense-ed", "analytic")
# Layers each workload was chosen to bypass (checked by --self-check).
BYPASSED = {
    "diag-large": ("spin_core.diagonalize.calls", "spin_core.build_dense.calls",
                   "cooling.maximize_cooled_entropy.calls"),
    "dense-ed": ("spin_core.diagonal.calls",),
    "analytic": ("spin_core.diagonal.calls", "spin_core.diagonalize.calls",
                 "cooling.maximize_cooled_entropy.calls"),
}
# Address space of the workload process.  The largest workload peaks near
# 0.5 GiB of address space; a job that asks for much more gets MemoryError
# and counts as failed instead of pushing the machine out of memory.
AS_LIMIT = 3 << 30
# The workload process is killed after this many seconds, well within the
# 180 s that a run may take.
RUN_LIMIT_S = 170.0
# The workload process and its probes run BLAS on one thread.  On a shared
# machine, a BLAS call split over cores waits for the slowest of them.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# norm_wall_s and setup_s are in seconds of a machine on which the reference
# kernel of worker.py takes this long; that is its median on the 2-core
# machine where the benchmark was built.
REF_NOMINAL_S = 0.05

E2E_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
STAT_UNITS = {
    "calls": "count", "self_s": "s", "term_passes": "count", "configs": "count",
    "peak_mb": "MB", "bytes": "B", "retained_ratio": "ratio",
    "matrix_elems": "count", "objective_evals": "count", "errors": "count",
}
LAYER_STATS = {
    "spin_core.diagonal": ("calls", "self_s", "term_passes"),
    "frustration.frustration_degree": ("calls", "self_s", "configs", "peak_mb"),
    "spin_core.build_dense": ("calls", "self_s", "bytes"),
    "spin_core.diagonalize": ("calls", "self_s", "peak_mb"),
    "cooling.cool": ("calls", "self_s", "retained_ratio"),
    "spin_core.schmidt_matrix": ("calls", "self_s"),
    "spin_core.block_entropy": ("calls", "self_s", "matrix_elems"),
    "spin_core.product_state": ("calls", "self_s"),
    "cooling.maximize_cooled_entropy": ("calls", "self_s", "objective_evals"),
    "models.build_model": ("calls", "self_s"),
    "models.dimer_product_state": ("calls", "self_s"),
    "closed_forms": ("calls", "self_s"),
    "interference": ("calls", "self_s"),
    "cli.main": ("calls", "self_s", "errors"),
}
RUN_UNITS = {"cli.payload_bytes": "B", "process.cpu_s": "s", "process.wall_s": "s",
             "process.setup_s": "s", "process.ref_s": "s", "trace.overhead_s": "s"}


class SetupError(RuntimeError):
    """The program cannot be started; no result is printed."""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def _git_sha():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def fingerprint(workload, seed, seconds, versions) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
        **(versions or {"python": sys.version.split()[0]}),
        "blas_thread_env": dict.fromkeys(BLAS_ENV, "1"),
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
        "address_space_limit_mb": AS_LIMIT >> 20,
    }


def _by_job(jobs, traced, key):
    """job index -> list of `key` (a field or a function of the event) over
    the runs of that job of one kind."""
    out = {}
    for ev in jobs:
        if ev["traced"] == traced:
            out.setdefault(ev["job"], []).append(key(ev) if callable(key) else ev[key])
    return out


def _ref_ratio(ev):
    return ev["wall_s"] / ev["ref_s"]


def _per_list(samples, stat):
    """A job-list total: sum over jobs of a statistic of each job's runs."""
    return sum(stat(v) for v in samples.values())


def _warm_median(runs):
    """Median of a job's runs after its first, or the first if it is alone.

    A job's first run in a process pays page faults that later runs do not.
    """
    return statistics.median(runs[1:] or runs)


def _layer_metrics(done, jobs, setups):
    """Per-layer metrics for one pass over the job list, from traced runs.

    Additive stats are averaged over the traced runs of each job and summed
    over the jobs; peak_mb is the largest peak seen.
    """
    traced = _by_job(jobs, True, "wall_s")
    untraced_wall = _per_list(_by_job(jobs, False, "wall_s"), _warm_median)
    totals = {}
    for j, layers in (done["layers"] if done else {}).items():
        for layer, stats in layers.items():
            total = totals.setdefault(layer, {})
            for stat, value in stats.items():
                if stat == "peak_mb":
                    total[stat] = max(total.get(stat, 0.0), value)
                else:
                    total[stat] = total.get(stat, 0.0) + value / len(traced[int(j)])
    values = {}
    for layer, stats in LAYER_STATS.items():
        got = totals.get(layer, {})
        for stat in stats:
            if stat == "retained_ratio":
                value = got["retained"] / got["dim"] if got.get("dim") else 0.0
            else:
                value = got.get(stat, 0.0)
            values[f"{layer}.{stat}"] = (value, STAT_UNITS[stat])
    run_values = {
        "cli.payload_bytes": _per_list(_by_job(jobs, True, "payload_bytes"), statistics.mean),
        "process.cpu_s": _per_list(_by_job(jobs, True, "cpu_s"), statistics.mean),
        "process.wall_s": untraced_wall,
        "process.setup_s": statistics.median(setups),
        "process.ref_s": statistics.median(ev["ref_s"] for ev in jobs) if jobs else 0.0,
        "trace.overhead_s": (_per_list(traced, statistics.median) - untraced_wall
                             if traced else 0.0),
    }
    values.update((name, (v, RUN_UNITS[name])) for name, v in run_values.items())
    return values


def run_once(workload: str, seed: int, seconds: float, trace: int,
             quick: bool = False) -> dict:
    """One benchmark run; returns the result with both metric sets."""
    begin = time.monotonic()
    tag = f"{workload}-s{seed}-t{trace}" + ("-quick" if quick else "")
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    results = os.path.join(WORK, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        events_path = os.path.join(workdir, "events.jsonl")
        log_path = os.path.join(workdir, "worker.log")
        cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir, "--events", events_path,
               "--spans", os.path.join(results, f"{tag}-spans.jsonl.gz")]
        if quick:
            cmd.append("--quick")
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    env={**os.environ, **dict.fromkeys(BLAS_ENV, "1")},
                                    preexec_fn=_limit_address_space)
            try:
                status = proc.wait(timeout=RUN_LIMIT_S - (time.monotonic() - begin))
            except subprocess.TimeoutExpired:
                status = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        events = []
        if os.path.exists(events_path):
            with open(events_path) as fh:
                events = [json.loads(line) for line in fh if line.strip()]
        with open(log_path) as fh:
            log_tail = fh.read()[-4000:]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds = {}
    for ev in events:
        kinds.setdefault(ev["event"], []).append(ev)
    if "setup" not in kinds:
        raise SetupError(f"workload process did not start (status {status}):\n{log_tail}")
    setups = [kinds["setup"][0]["imported_at"] - spawned]
    setups += [ev["setup_s"] for ev in kinds.get("probe", [])]
    done = kinds.get("done", [None])[0]
    jobs = kinds.get("job", [])
    # A worker that dies before its first job still counts one failed attempt.
    attempted = max(len(kinds.get("start", [])), 1)
    failed = attempted - sum(1 for j in jobs if j["ok"])
    untraced = _by_job(jobs, False, "wall_s")
    # Peak RSS after the first pass: a fresh process running the job list
    # once.  Later passes in the same process add heap fragmentation.
    passes = kinds.get("pass")
    peak = passes[0]["maxrss_mb"] if passes else \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # Set-up probes run in other processes, so they are scaled by the run's
    # median reference time rather than by the kernel beside each probe.
    ref = statistics.median(ev["ref_s"] for ev in jobs) if jobs else REF_NOMINAL_S
    e2e = {
        "norm_wall_s": REF_NOMINAL_S * _per_list(_by_job(jobs, False, _ref_ratio),
                                                 _warm_median),
        "setup_s": REF_NOMINAL_S * statistics.median(setups) / ref,
        "peak_rss_mb": peak,
        "pass_ratio": (attempted - failed) / attempted,
    }
    e2e = {name: (value, E2E_UNITS[name]) for name, value in e2e.items()}
    result = {
        "correct": done is not None and status == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": _layer_metrics(done, jobs, setups),
    }
    cmds = {e["job"]: e["cmd"] for e in jobs}
    record = {
        "fingerprint": fingerprint(workload, seed, seconds, done and done["versions"]),
        "trace": trace,
        "quick": quick,
        "worker_status": status,
        **{k: result[k] for k in ("correct", "attempted", "failed")},
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in {**e2e, **result["per_layer"]}.items()},
        "setup_samples_s": setups,
        "job_wall_s": {cmds[j]: w for j, w in sorted(untraced.items())},
        "job_ref_s": {cmds[j]: r for j, r in
                      sorted(_by_job(jobs, False, "ref_s").items())},
        "traced_job_wall_s": {cmds[j]: w for j, w in
                              sorted(_by_job(jobs, True, "wall_s").items())},
        "failures": [j for j in jobs if not j["ok"]][:20],
        "expected_by_design": done["notes"] if done else {},
    }
    if not result["correct"]:
        record["worker_log_tail"] = log_tail
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def result_line(result: dict, trace: int) -> str:
    metrics = result["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })


def summary(seed: int, seconds: float) -> int:
    """Run every workload once without tracing and print the metrics."""
    print(f"{'workload':<11} {'norm_wall_s':>11} {'wall_s':>8} {'setup_s':>9} "
          f"{'peak_rss_mb':>12} {'pass_ratio':>10} {'fail_ratio':>10}  "
          "attempted failed correct")
    print(f"{'':<11} {'(s)':>11} {'(s)':>8} {'(s)':>9} {'(MB)':>12} {'(ratio)':>10} "
          f"{'(ratio)':>10}")
    ok = True
    for name in WORKLOAD_NAMES:
        r = run_once(name, seed, seconds, 0)
        m = {k: v for k, (v, _) in r["end_to_end"].items()}
        wall = r["per_layer"]["process.wall_s"][0]
        print(f"{name:<11} {m['norm_wall_s']:>11.4f} {wall:>8.4f} {m['setup_s']:>9.4f} "
              f"{m['peak_rss_mb']:>12.1f} {m['pass_ratio']:>10.4f} "
              f"{r['failed'] / r['attempted']:>10.4f}  {r['attempted']:>9} "
              f"{r['failed']:>6} {str(r['correct']):>7}", flush=True)
        ok = ok and r["correct"]
    return 0 if ok else 1


def self_check() -> int:
    """Each workload once at reduced sizes under the tracer: every metric of
    BENCHMARK.json is emitted with its unit, every payload passes the
    correctness gate, and the bypassed layers are not called."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for name in WORKLOAD_NAMES:
        r = run_once(name, 0, 0.0, 1, quick=True)
        if not r["correct"]:
            problems.append(f"{name}: correctness gate failed "
                            f"({r['failed']} of {r['attempted']} jobs)")
        for group in ("end_to_end", "per_layer"):
            for metric in bench[group]:
                got = r[group].get(metric["name"])
                if got is None or got[1] != metric["unit"]:
                    problems.append(f"{name}: {group} metric {metric['name']} "
                                    f"missing or not in {metric['unit']}: {got}")
        for metric in BYPASSED[name]:
            if r["per_layer"][metric][0] != 0:
                problems.append(f"{name}: {metric} = {r['per_layer'][metric][0]}, "
                                "expected 0")
        print(f"{name}: {r['attempted']} jobs, {r['failed']} failed", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true")
    ap.add_argument("--self-check", action="store_true", dest="self_check")
    args = ap.parse_args(argv)
    if not os.path.isfile(PROGRAM):
        print(f"error: no frustra sources at {os.path.relpath(PROGRAM, ROOT)}",
              file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.summary:
            return summary(args.seed, args.seconds)
        if args.workload is None:
            ap.error("--workload is required")
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
