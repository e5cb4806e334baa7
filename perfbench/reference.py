"""A fixed reference kernel, timed next to and during every item to track
the machine's speed.

The benchmark's machine is a few cores of a shared host. Its speed for
pure-Python code flips between a fast and a slow state, about 1.8 times
slower, within fractions of a second, and the share of slow time drifts
over minutes. Process CPU time moves with wall time, so it does not help.
The timed loop therefore times this kernel (a probe) before and after
every item and, through `Sampler`, every `INTERVAL_S` during it, and
reports item times scaled to a machine on which a probe takes
`NOMINAL_S` (see `Loop` in `run.py`).

The kernel is normalisation by evaluation of untyped lambda terms: it
multiplies two Church numerals and reads the result back, as a small
interpreter of the kind gctt is, but shares no code with gctt. It runs
with the cyclic garbage collector off, so that the heap gctt builds up
from pass to pass (see `peak_rss_mb`) does not slow the kernel and leaks
stay visible in the normalised times.
"""

from __future__ import annotations

import gc
import signal
import time

# A probe's time on the machine the bounds were set on (an Intel Xeon with
# 2 vCPUs on a shared host), between its fast state (0.5 ms) and its slow
# one (0.86 ms); a round number, so that the normalised times read close
# to the wall-clock times there.
NOMINAL_S = 0.0008
REPEATS = 8
FACTORS = (10, 10)
INTERVAL_S = 0.05

# terms: ("var", de Bruijn index), ("lam", body), ("app", fn, arg)


class Closure:
    __slots__ = ("env", "body")

    def __init__(self, env, body):
        self.env, self.body = env, body


def evaluate(term, env):
    tag = term[0]
    if tag == "var":
        return env[-1 - term[1]]
    if tag == "lam":
        return Closure(env, term[1])
    return apply(evaluate(term[1], env), evaluate(term[2], env))


def apply(fn, arg):
    if isinstance(fn, Closure):
        return evaluate(fn.body, fn.env + (arg,))
    return ("napp", fn, arg)


def read_back(value, level):
    if isinstance(value, Closure):
        return ("lam", read_back(apply(value, ("nvar", level)), level + 1))
    if value[0] == "nvar":
        return ("var", level - 1 - value[1])
    return ("app", read_back(value[1], level), read_back(value[2], level))


def church(n):
    body = ("var", 0)
    for _ in range(n):
        body = ("app", ("var", 1), body)
    return ("lam", ("lam", body))


def church_value(term) -> int:
    n, body = 0, term[1][1]
    while body[0] == "app":
        n, body = n + 1, body[2]
    return n


# \m n f. m (n f)
MUL = ("lam", ("lam", ("lam", ("app", ("var", 2),
                                ("app", ("var", 1), ("var", 0))))))


def kernel(m: int, n: int) -> int:
    term = ("app", ("app", MUL, church(m)), church(n))
    return church_value(read_back(evaluate(term, ()), 0))


def timed() -> float:
    """Seconds a probe takes now; raises if the kernel computes a wrong
    product."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            product = kernel(*FACTORS)
        seconds = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if product != FACTORS[0] * FACTORS[1]:
        raise AssertionError(f"reference kernel computed {product}")
    return seconds


class Sampler:
    """Times a probe every `INTERVAL_S` of wall time from a SIGALRM
    handler, between `begin` and `end`, so that an item that runs for
    seconds is scaled by the speed the machine had while it ran, not only
    at its ends. Python runs the handler in the main thread between two
    bytecodes of the item; `end` returns the probe times and the wall
    time the handler took, which the caller takes off the item's time."""

    def __init__(self):
        self.active = False
        self.probes = []
        self.stolen = 0.0
        self.previous = None

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _handler(self, signum, frame):
        if self.active:
            t0 = time.perf_counter()
            self.probes.append(timed())
            self.stolen += time.perf_counter() - t0

    def begin(self):
        self.probes, self.stolen = [], 0.0
        self.active = True

    def end(self):
        self.active = False
        return self.probes, self.stolen


def speed_factor(probes) -> float:
    """The factor that scales a time measured while `probes` were taken to
    a machine on which a probe takes `NOMINAL_S`: the mean of
    NOMINAL_S / probe, the machine's relative speed averaged over the
    moments the probes sampled."""
    return sum(NOMINAL_S / r for r in probes) / len(probes)
