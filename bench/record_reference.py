"""Record the oracle expectations for the default seed in reference.json.

    python3 bench/record_reference.py

At the recorded seed a workload process compares its freshly computed
oracle expectations with this file, and fails every op if they differ, so a
change that moves the oracle paths themselves cannot pass unnoticed.  Run
this only when such a change is intended, and say so in the change.
"""

import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 0


def main():
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import child
    import workloads

    expected = {}
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        work = tempfile.mkdtemp(prefix="reference-",
                                dir=os.path.join(HERE, ".out"))
        try:
            params = workload.inputs(SEED)
            workload.setup(params, work)
            expected[name] = workload.oracle(params, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    document = {
        "seed": SEED,
        "recorded_with": dict(child.library_versions(),
                              python=platform.python_version()),
        "expected": expected,
    }
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
