"""Golden violation for RL012: a second execution timer beside the spans."""

#! expect: RL012 @ 4
from repro.resilience.clock import perf_counter
#! expect: RL012 @ 6
from time import monotonic, perf_counter as tick


def run_kernel(fn, *args):
    started = perf_counter()
    result = fn(*args)
    return result, perf_counter() - started, tick, monotonic
