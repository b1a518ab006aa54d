"""Host speed, measured next to the program so timings can be scaled by it.

The shared virtual machines this benchmark runs on change speed on their
own, by up to half, in spells that last from about a minute to ten
minutes. A spell is longer than a run, so no statistic over one run's
samples removes it. What helps: between timed iterations, time a fixed
piece of work that depends on nothing in the package, and scale the
run's timings to the speed at which that work takes ``REFERENCE_PASS_S``.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import statistics
import time

# Seconds one calibration pass takes at the reference speed: about its
# median on the host where the benchmark was defined (Intel Xeon, 2.1 GHz,
# Python 3.11). Changing it rescales every reported timing.
REFERENCE_PASS_S = 0.040
# Endpoints in the calibration fleet: as many as the largest workload's,
# so the pass works on a few megabytes, like the program. A pass over
# 300 endpoints, which fits in a core's cache, missed the slow spells
# that the program and the set-up probes felt.
CALIBRATION_ENDPOINTS = 4_000


def calibration_pass() -> int:
    """A fixed piece of pure-Python work of the program's kind (dicts of
    endpoint attributes, a deep copy, canonical JSON, SHA-256, parsing and
    sorting), from the standard library only, so that no change to the
    package changes its cost."""
    fleet = {
        f"ep-{i:04d}": {"os": "win10", "smbv1": i % 3 == 0, "rules": [i % 7, i % 11], "patched": False}
        for i in range(CALIBRATION_ENDPOINTS)
    }
    for eid, attrs in fleet.items():
        attrs["patched"] = attrs["smbv1"] and eid[-1] in "13579"
    body = json.dumps(copy.deepcopy(fleet), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode()).hexdigest()
    back = json.loads(body)
    return len(sorted(back, key=lambda eid: (back[eid]["rules"][0], eid))) + len(digest)


def calibrate(seconds: float, passes: list[float]) -> None:
    """Run calibration passes for about ``seconds`` (at least one),
    appending the time of each to ``passes``. The garbage collector is
    off meanwhile, so the objects the program left alive do not change a
    pass's cost."""
    end = time.perf_counter() + seconds
    collecting = gc.isenabled()
    gc.disable()
    try:
        while True:
            t0 = time.perf_counter()
            calibration_pass()
            t1 = time.perf_counter()
            passes.append(t1 - t0)
            if t1 >= end:
                return
    finally:
        if collecting:
            gc.enable()


def scale(passes: list[float]) -> float:
    """Factor that turns a timing taken while ``passes`` were measured
    into one at the reference speed: below 1 on a slow host."""
    return REFERENCE_PASS_S / statistics.fmean(passes)
