"""Record the output digest of each benchmark workload at a range of seeds.

    python3 perfbench/record_digests.py [first_seed] [last_seed] [workload ...]

Writes perfbench/reference_digests.json: per workload (all of them, or
the ones named; the entries of the others are kept), the SHA-256 over
the output digests of the operation run at each seed (threads 1, no
tracer).  run.py compares every operation against it and reports how
many differ, so a change in output bytes between commits shows up; a
difference is reported, not counted as a failed operation.  Regenerate
only together with a documented change of outputs.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(argv: list[str]) -> int:
    first = int(argv[0]) if argv else 0
    last = int(argv[1]) if len(argv) > 1 else 63
    names = argv[2:] or list(run.WORKLOADS)
    os.chdir(run.ROOT)
    ginisim = run.import_ginisim()
    run.WORK.mkdir(exist_ok=True)
    kept = json.loads(run.REFERENCE_DIGESTS.read_text()) if run.REFERENCE_DIGESTS.is_file() else {}
    digests: dict[str, dict[str, str]] = {k: v for k, v in kept.items() if k in run.WORKLOADS}
    for name in names:
        workload = run.WORKLOADS[name](ginisim)
        digests[name] = {}
        for seed in range(first, last + 1):
            op = workload.run(seed, 1, False)
            workload.check(op)
            if op.problem:
                print(f"{name} seed {seed}: OUTPUT CHECK FAILED: {op.problem}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = op.digest
            print(f"{name} seed {seed}: {'failed' if op.failed else 'ok'} {op.digest[:16]}",
                  flush=True)
    run.REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
