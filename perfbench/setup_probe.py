"""One cold start of a workload's set-up, timed by ``run.py``.

Run as ``python3 perfbench/setup_probe.py <workload> <scratch-dir>``
from the repository root.  It does what a user's first command pays
before its first operation -- interpreter start, imports, scenario
catalog, the ``code_version()`` source digest, and for the store
workloads the result store or the service -- and prints the time of
each step as JSON.  ``ready`` is the :func:`time.perf_counter` reading
when set-up ended; that clock is system-wide, so the parent subtracts
its own reading from before the launch.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(workload: str, scratch: str) -> None:
    steps = {}
    start = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import repro.experiments.campaign  # noqa: F401
    import repro.experiments.export  # noqa: F401
    from repro.experiments.scenario import scenario_names
    from repro.store import code_version, open_store
    if workload == "serve-fig7":
        import repro.service.client  # noqa: F401
        from repro.service.http import ServerThread
    steps["import_s"] = time.perf_counter() - start

    mark = time.perf_counter()
    scenario_names()
    steps["catalog_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    code_version()
    steps["code_version_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    store = os.path.join(scratch, "store")
    if workload == "campaign-fig7":
        open_store(store)
    elif workload == "serve-fig7":
        server = ServerThread(store, workers=2)
        server.start()
    steps["ready"] = time.perf_counter()
    steps["start_s"] = steps["ready"] - mark
    if workload == "serve-fig7":
        server.stop()
    print(json.dumps(steps))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
