"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same work can take 25-40 % longer
from one second to the next, and process CPU time moves with wall time, so
neither hides the drift. While a measured block runs, a timer signal runs a
fixed probe kernel every ``PROBE_INTERVAL_S`` seconds in the main thread,
between the block's own bytecodes. An interval's time is then its wall time
minus the probes that ran inside it, rescaled by ``PROBE_REF_S`` over the
mean probe time inside it: reference seconds, the time the interval would
take on a machine where one probe takes ``PROBE_REF_S``. The probe is the
benchmark's own code, so a change to ssflow moves the measured intervals and
never the probe.
"""

import contextlib
import math
import signal
import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# median probe duration on the 2-vCPU Xeon VM the first baseline was taken
# on (Python 3.11, numpy 2.4); a fixed scale, so reference seconds compare
# across runs and commits
PROBE_REF_S = 0.0034

# wall time between the end of one probe and the start of the next; about
# 6 % of the block's run time goes to probes, none of it to the intervals
PROBE_INTERVAL_S = 0.05


def probe_kernel(n=40):
    """Fixed mix in the shape of the workloads' own: interpreter work, small
    ufunc calls and a batched 2x2 solve as in one flow right-hand side, and a
    26x26 LU solve every fifth pass as in one integrator step."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0.5, 1.5, (10, 2))
    t = rng.uniform(-1.0, 1.0, 6)
    w = np.eye(26) + 0.01 * rng.standard_normal((26, 26))
    y = rng.uniform(0.0, 1.0, 26)
    acc = 0.0
    for i in range(n):
        p = np.power(10.0, t)
        out = np.empty_like(a)
        out[:, 0] = p[0] * (p[4] - a[:, 0]) - p[1] * a[:, 0]
        out[:, 1] = (a[:, 0] + p[2]) * (p[5] - a[:, 1]) - p[3] * a[:, 1]
        jx = np.zeros((10, 2, 2))
        jx[:, 0, 0] = 3.0 - out[:, 0]
        jx[:, 1, 0] = 0.2
        jx[:, 1, 1] = 2.0 + out[:, 1] ** 2
        jt = np.zeros((10, 2, 6))
        jt[:, 0, 0] = out[:, 0]
        jt[:, 1, 5] = out[:, 1]
        if not (np.all(np.isfinite(jx)) and np.all(np.isfinite(jt))):
            raise FloatingPointError("probe kernel produced a non-finite value")
        s_hat = -np.linalg.solve(jx, jt)
        g = np.einsum("ixt,ix->t", s_hat, out)
        v = np.concatenate([g, (s_hat @ g + 20.0 * out).ravel()])
        yp = y.copy()
        yp[i % 26] += 1e-8
        if i % 5 == 0:
            acc += float(lu_solve(lu_factor(w, check_finite=False), v, check_finite=False)[0])
        acc += float(np.linalg.norm(v)) + yp[0]
    return acc


class SpeedLog:
    """Probe samples ``(start, duration)`` taken along a run."""

    def __init__(self, kernel=probe_kernel):
        self.kernel = kernel
        self.samples = []
        # called with each probe's duration, e.g. to keep it out of spans
        self.on_probe = None
        kernel()  # first call allocates; keep it out of the samples

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        d = time.perf_counter() - t0
        self.samples.append((t0, d))
        if self.on_probe is not None:
            self.on_probe(d)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_INTERVAL_S from SIGALRM while the block runs.

        The timer is re-armed after each probe, so probes never run back to
        back however slow the machine is. Main thread only.
        """

        def on_alarm(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, start, end):
        return [d for t, d in self.samples if start <= t < end]

    def net(self, start, end):
        """Wall time of ``[start, end]`` without the probes that ran in it."""
        return end - start - math.fsum(self._inside(start, end))

    def to_ref(self, start, end):
        """Net time of ``[start, end]`` in reference seconds.

        Rescaled by the probes inside the interval, or for an interval too
        short to hold one, by the last probe before it and the first after.
        """
        probes = self._inside(start, end)
        if not probes:
            before = [d for t, d in self.samples if t < start][-1:]
            after = [d for t, d in self.samples if t >= end][:1]
            probes = before + after
        return self.net(start, end) * PROBE_REF_S / statistics.fmean(probes)
