"""Set-up probe: a fresh interpreter imports xrlayout and parses every bundled
fixture, then prints one JSON line and exits.

The line is stamped with perf_counter when import and parse are done (on
Linux that clock is shared by all processes), so the parent can time process
start to that moment (``setup_s``).  The line also carries
the import and parse split (``setup.import_s``, ``setup.parse_s``) and the
module path, so the parent can check which xrlayout was imported.
"""

import json
import time

t0 = time.perf_counter()
import xrlayout  # noqa: E402

t1 = time.perf_counter()
scenarios = [xrlayout.load_bundled(n) for n in xrlayout.bundled_scenario_names()]
t2 = time.perf_counter()
print(
    json.dumps(
        {
            "import_s": t1 - t0,
            "parse_s": t2 - t1,
            "scenarios": len(scenarios),
            "module": xrlayout.__file__,
            "ready_at": time.perf_counter(),
        }
    ),
    flush=True,
)
