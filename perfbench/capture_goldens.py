"""Record the payloads of the deterministic jobs as goldens.json.

    python3 perfbench/capture_goldens.py

Run this only at a commit whose payloads are the reference: the benchmark
fails every job whose payload drifts from these values by more than 1e-9.
"""
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import frustra.cli as cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    tmp = os.path.join(ROOT, ".perfbench_work", "goldens")
    shutil.rmtree(tmp, ignore_errors=True)
    goldens = {}
    for spec in workloads.WORKLOADS.values():
        for cmd in spec["full"] + spec["quick"]:
            if workloads.is_seeded(cmd) or cmd in goldens:
                continue
            out = os.path.join(tmp, f"job{len(goldens)}")
            if cli.main(cmd.split() + ["--output", out]) != 0:
                print(f"failed: {cmd}", file=sys.stderr)
                return 1
            goldens[cmd] = workloads.read_payload(cmd, out)
    shutil.rmtree(tmp)
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} goldens written to {os.path.relpath(workloads.GOLDENS, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
