"""Time one benchmark set-up in a fresh process and print the seconds.

Set-up is everything before the first timed cell can begin: importing
``repro`` (which fills the scheduler and workload registries),
building and validating the workload's spec and, on ``sweep-store``,
opening the run store with its migrations.  ``run.py`` starts this
script several times per run and reports the median as ``setup_s``.

Usage (from the root of a checkout): ``python3 perfbench/setup_probe.py
WORKLOAD SEED``
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import suite  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    bench = suite.setup(workload, seed, Path.cwd() / suite.OUT_DIR)
    elapsed = time.perf_counter() - STARTED
    bench.close()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
