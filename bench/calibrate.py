"""A fixed piece of work that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by a third over minutes and by up to twice within seconds.  ``worker.py``
times ``chunk()`` on both sides of every task (and, while a task waits on a
subprocess, during it) and divides the task's time by the slowdown those
chunks show against ``REFERENCE_CHUNK_S``.  So a pass run in a slow phase
and one run in a fast phase report comparable seconds.  The chunk uses
nothing from latpack, so a change to the program never changes it; it mixes
the operations latpack's hot paths spend their time on: bytecode dispatch
over small ints and lists, big-integer multiply and divide, float math.
"""
import math
import statistics
import time

# About one chunk's time on a 2-vCPU Xeon VM under Python 3.11.  It only
# sets the scale: scaled times read as seconds at that speed.
REFERENCE_CHUNK_S = 0.020
ROUNDS = 4500


def chunk():
    """Do the fixed work once; return a checksum so nothing is skipped."""
    small = 0
    rows = [[(i * j) % 97 for j in range(12)] for i in range(12)]
    big = 3 ** 300
    mod = 7 ** 320 + 5
    x = 0.5
    for r in range(ROUNDS):
        row = rows[r % 12]
        small = (small + sum(row[k] * row[11 - k] for k in range(12))) % 1000003
        big = (big * (r + 12345678901) + small) % mod
        q, rem = divmod(big, 10 ** 40 + r)
        x = math.sqrt(x * x + (rem % 1000) * 1e-3) * 0.5 + math.floor(x)
    return small ^ (q & 0xFFFF) ^ int(x * 1e6)


def timed_chunks(count):
    """Time ``count`` chunks; return their times in seconds."""
    times = []
    for _ in range(count):
        began = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - began)
    return times


def slowdown(times):
    """The host's slowdown against nominal speed, from chunk times: above 1
    is slower.  A time divided by it is the time at nominal speed."""
    return statistics.fmean(times) / REFERENCE_CHUNK_S
