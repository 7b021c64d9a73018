"""One workload process: imports frustra.cli, runs the job list back to back.

Started by ``run.py``; not meant to be run by hand.  With the single
argument ``--probe`` it only imports ``frustra.cli`` and prints the
monotonic clock.  Otherwise it writes one JSON event per line to
``--events``: ``setup``, then ``start`` and ``job`` for every job run,
``probe`` for every set-up probe, ``pass`` after every whole pass, and
``done`` at the end.  Every ``job`` event carries ``ref_s``, the time of
the reference kernel around that job.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import frustra.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()

if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    print(repr(IMPORTED_AT))
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up probes: a few before and after the loop, and one after a job
# whenever this many seconds have passed since the last.  Machine speed
# drifts over seconds to minutes, so the samples are spread over the run.
EDGE_PROBES = 3
PROBE_EVERY_S = 2.0

# Reference kernel: fixed work that uses no frustra code, timed before the
# first job and after every job, in this process and so on the same core.
# Each core of the shared machine changes speed with what the rest of the
# host runs; the kernel tracks that speed (a Python loop for interpreter
# work, a popcount and a sort for memory-bound numpy work).
_REF_RNG = np.random.default_rng(0)
_REF_BITS = _REF_RNG.integers(0, 1 << 62, 1 << 20, dtype=np.uint64)
_REF_FLOATS = _REF_RNG.standard_normal(1 << 18)


def reference_s() -> float:
    """Wall time of one run of the reference kernel (about 50 ms)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(500_000):
        x += i
    for _ in range(2):
        np.bitwise_count(_REF_BITS).sum()
        np.argsort(_REF_FLOATS)
    return time.perf_counter() - t0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_version() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


class Run:
    def __init__(self, args):
        self.args = args
        self.jobs = workloads.job_list(args.workload, args.quick)
        self.goldens = workloads.load_goldens()
        self.oracles = workloads.Oracles()
        self.tracer = Tracer()
        self.notes = {}
        self.events = open(args.events, "w")
        self.last_probe = 0.0
        self.ref_s = 0.0

    def emit(self, **event):
        self.events.write(json.dumps(event) + "\n")
        self.events.flush()

    def probe(self):
        """Time a fresh process from spawn until it has imported frustra.cli."""
        spawned = time.monotonic()
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe"],
                             cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.last_probe = time.monotonic()
        if out.returncode == 0:
            self.emit(event="probe", setup_s=float(out.stdout) - spawned)

    def job(self, p: int, j: int, traced: bool, seed: int) -> float:
        """Run job j of pass p; returns its wall time (the check excluded)."""
        cmd = self.jobs[j]
        outdir = os.path.join(self.args.workdir, f"p{p}-j{j}")
        os.makedirs(outdir)
        out = os.path.join(outdir, "out")
        argv = cmd.split() + ["--seed", str(seed), "--output", out]
        self.emit(event="start", passno=p, job=j)
        error = None
        cpu0 = _cpu_s()
        if traced:
            self.tracer.job = j
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            rc = self.tracer.call_main(cli.main, argv) if traced else cli.main(argv)
            if rc != 0:
                error = f"exit code {rc}"
        except Exception as exc:  # a failed job is counted, not fatal
            error = "".join(traceback.format_exception_only(exc)).strip()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        cpu = _cpu_s() - cpu0
        ref_before, self.ref_s = self.ref_s, reference_s()
        errors = [error] if error else workloads.check(
            cmd, out, self.goldens, self.oracles, self.notes)
        self.emit(event="job", passno=p, job=j, cmd=cmd, seed=seed, traced=traced,
                  wall_s=wall, ref_s=(ref_before + self.ref_s) / 2, cpu_s=cpu,
                  ok=not errors, errors=errors[:5],
                  payload_bytes=0 if errors else workloads.payload_bytes(cmd, out))
        shutil.rmtree(outdir)
        return wall

    def loop(self):
        """Closed loop, one client: passes over the job list, back to back.

        A traced run alternates untraced and traced passes, so the tracing
        overhead is measured in the same process.  A job starts only if its
        slowest earlier run of the same kind would still end within
        --seconds; the first pass of each kind always runs whole.  Every
        pass gives every job the run's --seed, so the repeats of a job are
        the same work and their times can be compared.
        """
        args = self.args
        for _ in range(EDGE_PROBES):
            self.probe()
        reference_s()  # the first run pays page faults
        self.ref_s = reference_s()
        start = time.monotonic()
        walls = {}
        p = 0
        while True:
            traced = bool(args.trace) and p % 2 == 1
            for j in range(len(self.jobs)):
                past = walls.setdefault((traced, j), [])
                if past and time.monotonic() - start + max(past) > args.seconds:
                    return
                past.append(self.job(p, j, traced, args.seed))
                if time.monotonic() - self.last_probe >= PROBE_EVERY_S:
                    self.probe()
            self.emit(event="pass", passno=p, maxrss_mb=_maxrss_mb())
            p += 1

    def finish(self):
        for _ in range(EDGE_PROBES):
            self.probe()
        stats = {j: {layer: dict(values) for layer, values in layers.items()}
                 for j, layers in self.tracer.stats.items()}
        if self.args.trace:
            self.tracer.write_spans(self.args.spans)
        self.emit(
            event="done",
            layers=stats,
            notes=self.notes,
            versions={
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas": _blas_version(),
            },
        )
        self.events.close()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--events", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    run = Run(args)
    run.emit(event="setup", imported_at=IMPORTED_AT)
    run.loop()
    run.finish()


if __name__ == "__main__":
    main()
