"""Machine-speed calibration.

The benchmark host shares its cores with other tenants: the same fixed
pure-Python loop runs up to 40 % slower, at times twice as slow, for
stretches of seconds to minutes.
`kernel` is a fixed piece of pure-Python work in the style of the library
(slotted scalars with overloaded operators, tuple-of-tuple matrix products,
tuple-keyed dicts, Fractions, integer polynomial products) that does not
touch weilmod.  A run times it every few milliseconds, also in the middle
of an operation; each reported time is the operation's wall time (less the
sampling) times REFERENCE_S / (median kernel time during and around it):
the time the work takes on this host at its usual speed.  Raw wall times
are kept in the result file.
"""

import bisect
import gc
import signal
import time
from fractions import Fraction

# the median warm kernel time during benchmark runs on the reference host
# (2 shared cores, Python 3.11.7); its uncontended time is about 0.4 ms
REFERENCE_S = 0.6e-3
PERIOD_S = 0.015        # wall time between two samples
WINDOW_S = 0.05         # how far from an operation a sample still counts
MIN_NEAR = 9            # samples per operation, at the least


class _Elt:
    __slots__ = ("p", "i")

    def __init__(self, p, i):
        self.p = p
        self.i = i

    def __add__(self, other):
        return _Elt(self.p, (self.i + other.i) % self.p)

    def __mul__(self, other):
        return _Elt(self.p, self.i * other.i % self.p)

    def __eq__(self, other):
        return self.i == other.i

    def __hash__(self):
        return hash((self.p, self.i))


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    out = []
    for row in a:
        r = []
        for col in cols:
            it = iter(zip(row, col))
            x, y = next(it)
            acc = x * y
            for x, y in it:
                acc = acc + x * y
            r.append(acc)
        out.append(tuple(r))
    return tuple(out)


_A = tuple(tuple(_Elt(7, (3 * i + 5 * j + 1) % 7) for j in range(4))
           for i in range(4))


def kernel():
    """Fixed work of about half a millisecond; returns something that
    depends on all of it."""
    seen = {}
    m = _A
    for k in range(6):
        m = _mat_mul(m, _A)
        seen[m] = k
    q = Fraction(0)
    for k in range(1, 40):
        q += Fraction(k, k + 2)
    poly = [1, 2, 3, 4, 5, 6]
    acc = [0] * 11
    for i, x in enumerate(poly):
        for j, y in enumerate(poly):
            acc[i + j] += x * y
    return len(seen), q, acc[5]


class Calibrator:
    """Times the kernel every PERIOD_S of wall time, from a SIGALRM handler
    that runs between bytecodes, so long operations are sampled while they
    run; turns each operation's wall time into reference time using the
    samples taken during it and near it."""

    def __init__(self):
        self.at = []                    # sample end times
        self.samples = []               # sample durations
        self.busy = []                  # (start, end) of each handler run
        self._old = None
        self._sampling = False

    def sample(self, *_):
        # warm the caches and hold the collector, so that neither the
        # program's cache footprint nor its heap size shows in the sample
        if self._sampling:      # a signal that arrived during a sample
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        kernel()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t1)
        self.samples.append(t1 - t0)
        self.busy.append((begin, time.perf_counter()))
        self._sampling = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def work(self, start, end):
        """Wall seconds in [start, end] that were not spent sampling."""
        spent = 0.0
        k = bisect.bisect_left(self.busy, (start,))
        if k and self.busy[k - 1][1] > start:
            k -= 1
        while k < len(self.busy) and self.busy[k][0] < end:
            b0, b1 = self.busy[k]
            spent += min(b1, end) - max(b0, start)
            k += 1
        return end - start - spent

    def scale(self, start, end):
        """Factor that turns wall seconds spent in [start, end] into
        reference seconds: REFERENCE_S over the median kernel time within
        WINDOW_S of the interval (at least the MIN_NEAR nearest samples)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_NEAR and (lo > 0 or hi < len(self.at)):
            # widen towards the nearer side
            if lo > 0 and (hi == len(self.at) or
                           start - self.at[lo - 1] < self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        near = sorted(self.samples[lo:hi])
        return REFERENCE_S / near[len(near) // 2]
