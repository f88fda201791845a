"""Time one workload's set-up in this fresh process; print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing ahalg (and ahalg.cli for the cli workload) and building
the workload's FieldSpec/AhContext objects.  The raw inputs are drawn from
the seed before the clock starts, so input generation is not included.
"""

import importlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    module = importlib.import_module(f"workloads.{workload}")
    plan = module.plan(seed)
    sys.path.insert(0, str(HERE.parent / "src"))
    start = time.perf_counter()
    for name in module.SETUP_MODULES:
        importlib.import_module(name)
    module.contexts(plan)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
