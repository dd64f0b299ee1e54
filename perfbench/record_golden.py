"""Record the output digests that run.py compares every pass against.

    python3 perfbench/record_golden.py FIRST LAST

Runs one untraced pass of every workload for each seed FIRST..LAST and
rewrites perfbench/golden.json.  Record only at a commit whose outputs are
trusted: a later run counts every operation whose output digest differs as
failed.  Seeds outside the recorded range are still checked across passes
and against the oracles, but not against recorded digests.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    work = run.ROOT / ".perfbench_work" / "golden"
    golden = {}
    try:
        for workload in sorted(run.WHY):
            for seed in range(first, last + 1):
                files, script = run.generate(workload, seed)
                result = run.run_pass(work / f"{workload}-{seed}", 0, files, script, False)
                bad = [op for op in result["ops"] if op["rc"] != 0 or op["errors"]]
                if bad:
                    print(f"{workload}/{seed}: refusing to record failed operations {bad}",
                          file=sys.stderr)
                    return 1
                golden[f"{workload}/{seed}"] = {
                    "ops": [op["digest"] for op in result["ops"]],
                    "files": result["files"],
                }
                print(f"recorded {workload}/{seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
