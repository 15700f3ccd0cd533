"""Peak resident memory of a fresh process running one cycle of a workload.

    python3 bench/rss_probe.py WORKLOAD SEED

Prints the peak RSS in MB as the last output word.  bench/run.py starts it;
the package is loaded and the driver chosen by run.py's own functions.
"""

import resource
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(workload, seed):
    api = run.load_package()
    ops = workloads.Stream(workload, seed).next_cycle()
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as workdir:
        driver = run.make_driver(api, workload, Path(workdir))
        driver.run(driver.prepare(ops))
    # ru_maxrss is in KiB on Linux
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
