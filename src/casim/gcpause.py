"""Pausing the cyclic garbage collector around work that builds no cycles.

A scenario parse, a simulator run and a trace audit allocate tens of
thousands of objects, and each collection they trigger walks the live
ones and frees nothing: reference counting alone reclaims their memory,
so the pause defers no garbage.  The crash and seed sweeps pause it from
start to end: between the paused runs and audits they render each run's
trace, and each run is freed before the next starts, so what they leave
for the collector is their rows.
"""

import functools
import gc


def pause_cyclic_gc(fn):
    """Run `fn` with the cyclic collector disabled.  On every exit,
    normal or by an exception, the collector is enabled again only if it
    was enabled on entry, so the caller's setting is kept."""
    @functools.wraps(fn)
    def paused(*args, **kw):
        if not gc.isenabled():
            return fn(*args, **kw)
        gc.disable()
        try:
            return fn(*args, **kw)
        finally:
            gc.enable()
    return paused
