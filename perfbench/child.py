"""One cold repeat of one workload: ``python3 child.py '<spec json>'``.

The spec names the workload, size, seed, repeat index, whether to
trace, the ``lifetime`` chip seeds, a scratch directory and the file
the summary is written to.  The parent times the process from spawn to
exit; this side stamps when it started, when its imports finished, and
the workload's own marks.
"""

import time

MAIN_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    spec = json.loads(sys.argv[1])
    import workloads

    import_end = time.monotonic()
    summary = workloads.run(
        spec["workload"],
        spec["size"],
        spec["seed"],
        spec["repeat"],
        spec["workdir"],
        spec["trace"],
        spec.get("chip_seeds"),
    )
    summary["main_start"] = MAIN_START
    summary["import_end"] = import_end
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(summary, handle)


if __name__ == "__main__":
    main()
