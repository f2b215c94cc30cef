"""Tracing overhead and exactness: telemetry must observe, not perturb.

Two contracts from the telemetry subsystem's design:

* **Bit-identity** -- enabling ``SILKMOTH_TRACE`` changes nothing about
  results.  Asserted exactly (ids, scores
  and relatedness values compare equal).
* **Cheap when disabled, affordable when enabled** -- the disabled path
  is a single shared no-op object (no allocation); the enabled path
  targets <5% wall-clock overhead on the verification-heavy edit
  workload.  CI machines are noisy, so off and on rounds alternate,
  the best round of each side is compared, and the hard assertion is
  a generous 2x bound; the measured ratio is printed for the curious.
"""

import time

from repro.bench.trajectory import edit_workload
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.obs.trace import get_tracer, set_trace_enabled


def _search_all(sets, config):
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    engine = SilkMoth(collection, config)
    started = time.perf_counter()
    rows = []
    for record in collection.iter_live():
        for r in engine.search(record, skip_set=record.set_id):
            rows.append(
                (record.set_id, r.set_id, r.score, r.relatedness)
            )
    return rows, time.perf_counter() - started


#: Interleaved off/on rounds; the best of each side is compared, so one
#: scheduling hiccup on the shared box cannot decide the ratio.
ROUNDS = 3


def test_tracing_is_bit_identical_and_cheap():
    sets, config = edit_workload(scale=0.3)
    get_tracer().drain()
    off, on = [], []
    try:
        for _ in range(ROUNDS):
            set_trace_enabled(False)
            off.append(_search_all(sets, config))
            set_trace_enabled(True)
            on.append(_search_all(sets, config))
            get_tracer().drain()
    finally:
        set_trace_enabled(None)
        get_tracer().drain()
    rows_off = off[0][0]
    # Exactness: telemetry never touches the pipeline's arithmetic.
    assert all(rows == rows_off for rows, _ in off + on)
    assert rows_off, "workload produced no matches; overhead unmeasured"
    seconds_off = min(seconds for _, seconds in off)
    seconds_on = min(seconds for _, seconds in on)
    ratio = seconds_on / seconds_off if seconds_off > 0 else 1.0
    print(
        f"\ntrace overhead: off {seconds_off:.3f}s, "
        f"on {seconds_on:.3f}s, ratio {ratio:.3f} (target < 1.05; "
        f"best of {ROUNDS} interleaved rounds)"
    )
    # Generous CI bound; the 5% target is tracked via the printout.
    assert ratio < 2.0
