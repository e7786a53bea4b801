"""Host-speed probe: rescale a timed workload run to a reference host speed.

The benchmark runs on a few cores of a shared host, whose speed changes by
half or more within seconds and drifts over minutes.  Repeating the workload
averages out the quick changes, but not the drift.  So while a run is timed,
a timer signal interrupts it every `INTERVAL_S` seconds and the handler times
a fixed piece of pure-Python work, the probe.  The stretch of workload before
each probe is then counted in probe units, its host seconds divided by that
probe's seconds.  The sum over the run, times `REF_PROBE_S`, is the run's
time on a host where the probe takes `REF_PROBE_S`: the reference-speed time.

`run.py` puts each timed repetition under a probe, and each set-up child
too.  The probe is the same code on every commit, and it touches nothing of
the program.  The handler runs in the workload's own thread, between two
bytecodes, so it sees the host speed the workload sees at that moment.  Its
own time is left out of the work.  The probe allocates no container, so it
never starts a garbage collection.
"""

import signal
import time

INTERVAL_S = 0.02
PROBE_LOOPS = 3000
# probe seconds on the reference host; a fixed scale, round by choice: the
# probe took 0.4 to 0.9 ms on a shared 2-core Xeon VM
REF_PROBE_S = 0.0005

_TABLE = {i: i for i in range(256)}


def probe_work() -> int:
    table = _TABLE
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += table[(i * 7) & 255]
        table[i & 255] = acc & 1023
    return acc


class SpeedProbe:
    """Context manager around one timed run; see the module docstring.

    After exit, `work_s` lists the host seconds of each stretch of workload
    and `probe_s` the seconds of the probe that followed it.
    """

    def __init__(self):
        self.work_s = []
        self.probe_s = []
        self._last = 0.0
        self._previous = None

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.work_s.append(start - self._last)
        self.probe_s.append(end - start)
        self._last = end

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()   # closes the last stretch

    @property
    def host_s(self) -> float:
        """Host seconds of the workload, probes left out."""
        return sum(self.work_s)

    @property
    def ref_s(self) -> float:
        """The workload's seconds at the reference host speed."""
        return REF_PROBE_S * sum(w / p for w, p in zip(self.work_s,
                                                       self.probe_s))
