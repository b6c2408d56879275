"""The performance benchmark: pinned workloads, end-to-end metrics, layer trace.

Run it from the repository root::

    python3 -m perf run --all --seed 1            # every workload, full record
    python3 -m perf run --workload ws_lookup --seed 1 --seconds 12 --trace 0
    python3 -m perf compare A.json B.json

``perf/README.md`` explains the workloads, the metrics and how they interact.
"""

import sys
from pathlib import Path

# The program under test lives in ../src; the benchmark is started as
# ``python3 -m perf`` from a bare checkout, with no PYTHONPATH set.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
