"""Record the output digests that the benchmark checks against.

    python3 perfbench/pin.py

Writes perfbench/pins.json: the sha256 of reproduce_paper_json's bytes and,
for each of the scan workload's state pools, the digest of every state's
(split, status, method) rows.  A pool is pinned only after every verdict
passed the benchmark's own oracle checks.  Run it on a commit whose outputs are known
to be right; the benchmark treats any later difference as a failure.
"""

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import hashlib
import json

from run import HERE, import_cvmodes
from workloads import Reproduce, Scan


def main():
    cv = import_cvmodes()
    pins = {"reproduce_json_sha256": None, "scan_sha256": {}}
    reproduce = Reproduce(0, None, {"reproduce_json_sha256": None})
    reproduce.bind(cv)
    outcome, payload = reproduce.op(cv, 0)
    reproduce.check_cov(outcome)
    pins["reproduce_json_sha256"] = hashlib.sha256(payload).hexdigest()
    for pool in range(Scan.POOLS):
        scan = Scan(pool, None, pins)
        scan.bind(cv)
        for i in range(scan.STATES):
            scan.check(i, scan.op(cv, i))
        pins["scan_sha256"][str(pool)] = scan.digest()
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
