"""Regenerate golden.json from the current library.

    python3 perfbench/make_golden.py

Runs every job of every workload once on each relabeling variant, with all
invariant checks and cross-checks, and records the digest of each uniquely
determined output.  Only run it when the library's outputs are meant to
change; a golden file rewritten to match a wrong output hides the defect.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    golden = {}
    (workloads.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=workloads.ROOT / ".perfbench_work"))
    try:
        for workload in workloads.WORKLOADS.values():
            table: dict[str, str] = {}
            for variant in range(workloads.VARIANTS):
                lib = workloads.load_library()
                variants = [variant] * len(workload.slots)
                jobs = workloads.build_jobs(
                    lib, workload, variants, variant, workdir, inprocess=True
                )
                loop = run.run_cycles(jobs, 0, 0, table, record=True)
                if loop.failures:
                    print("\n".join(loop.failures), file=sys.stderr)
                    return 1
            golden[workload.name] = dict(sorted(table.items()))
            print(f"{workload.name}: {len(table)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
