"""Host speed sampling, so that times read the same on a busy shared host.

On a shared host one process can run up to 1.7x slower for spells that last
from a fraction of a second to minutes (CPU time grows with wall time, so
this is not time spent waiting).  Such a spell moves a wall time far more
than a code change would.  `Sampler` measures the host's speed throughout a
stretch of work: from a SIGALRM handler in the main thread it runs a fixed
reference kernel every INTERVAL_S seconds and records how long it took.
`Sampler.scaled` then scales each stretch of work between two samples by
REF_S over the mean kernel time at the two samples, which gives the time the
work would have taken on a host that runs the kernel in REF_S seconds.  The
time spent in the samples themselves is left out.  The kernel time at a
sample is the median of the five samples around it: a sample during which
the process was descheduled for a scheduler tick reads 4x too long, and
would otherwise scale down the work around it.

The kernel is pure Python arithmetic, so the sampler can start before numpy
or maglab is imported and cover set-up too.  On the 2-core host the
benchmark was tuned on, scaling by this kernel cut the spread of one
operation's time at a fixed seed from 0.11-0.22 to 0.03-0.07 (quartile
distance over median); a kernel that reads a list of 256 k floats at random
cut it only to 0.13-0.15, so the spells slow the core rather than memory.
"""

import math
import signal
import statistics
import time

clock = time.monotonic

# Duration of one kernel run on the reference host: a fixed scale, between
# the 1.0 ms the kernel takes on a quiet 2.1 GHz Xeon core under CPython 3.11
# and the 1.5 ms it takes there during a slow spell, so that scaled times on
# that host read close to raw times.  A sample every 0.1 s costs about 1.2%
# of the work and follows spells of a fraction of a second.
REF_S = 0.0012
INTERVAL_S = 0.1
KERNEL_N = 10000


def kernel(n=KERNEL_N):
    """Fixed floating-point interpreter work, like maglab's inner loops."""
    s, x = 0.0, 0.3
    for i in range(n):
        x = x * 1.0000001 + 1e-9
        s += math.sqrt(x * i + 1.0)
    return s


class Sampler:
    """Kernel timings (start, duration) taken every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t0 = clock()
        kernel()
        self.samples.append((t0, clock() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, lo, hi):
        """(scaled s, raw s) of the work done in [lo, hi], samples left out.

        Work before the first sample or after the last one is scaled by the
        kernel time at that sample; work between two samples by the mean of
        the kernel times at the two.
        """
        ss = self.samples
        durs = [d for _, d in ss]
        ref = [statistics.median(durs[max(i - 2, 0):i + 3]) for i in range(len(ss))]
        pieces = [(-math.inf, ss[0][0], ref[0])]
        pieces += [(ss[i][0] + ss[i][1], ss[i + 1][0], 0.5 * (ref[i] + ref[i + 1]))
                   for i in range(len(ss) - 1)]
        pieces.append((ss[-1][0] + ss[-1][1], math.inf, ref[-1]))
        scaled = raw = 0.0
        for start, end, kernel_s in pieces:
            seg = min(end, hi) - max(start, lo)
            if seg > 0.0:
                raw += seg
                scaled += seg * REF_S / kernel_s
        return scaled, raw
