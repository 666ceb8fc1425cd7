"""Memory probes: a traced call, a traced window of a run, a child's RSS."""

import os
import pickle
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext


def traced_peak(call):
    """``call()`` and the peak memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextmanager
def window(variant, start=50, first=55, last=80):
    """Yield a ``compare_variants`` keeper that keeps nothing, and a dict:
    the ``peak`` traced over ``variant``'s blocks ``start`` to ``last``, and
    the growth ``per_row`` from block ``first`` on (those blocks are full)."""
    reading = {"blocks": 0}

    def sink(block):
        blocks = reading["blocks"] = reading["blocks"] + 1
        if blocks == start:
            tracemalloc.start()
        elif blocks == first:
            reading["first"] = tracemalloc.get_traced_memory()[0]
        elif blocks == last:
            current, reading["peak"] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            reading["per_row"] = (current - reading["first"]) / (
                (last - first) * len(block))

    try:
        yield (lambda shared: nullcontext(
            sink if shared[0] is variant else None)), reading
    finally:
        tracemalloc.stop()


_CHILD = ("import pickle, sys\n"
          "out, sys.stdout = sys.stdout.buffer, sys.stderr\n"
          "result = pickle.load(sys.stdin.buffer)()\n"
          "hwm = [l for l in open('/proc/self/status') if l[:6] == 'VmHWM:']\n"
          "pickle.dump((result, int(hwm[0].split()[1])), out)\n")


def child_peak_rss(call):
    """``call()`` pickled to a fresh process on src/, and its peak RSS in KiB:
    VmHWM, as ru_maxrss also counts the memory of the parent process."""
    src = os.path.abspath(os.path.join(__file__, "..", "..", "src"))
    proc = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True,
                          input=pickle.dumps(call),
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)
