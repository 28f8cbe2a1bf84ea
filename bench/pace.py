"""Processor time rescaled to a fixed reference speed.

On a shared host the processor's speed is not steady: on the 2-vCPU VM of
the README's baseline a fixed loop runs in one of two regimes about 1.8x
apart, each lasting from tens of milliseconds to about a second, and the
share of time spent in the slow one changes from minute to minute. A raw
timing then measures the neighbours as much as the program.

:class:`Pace` samples the host's speed while a run works. A wall-clock
timer (``ITIMER_REAL``, so ``time.process_time`` keeps its resolution; a
processor-time timer makes it tick-granular on that VM) interrupts the
program every ``EVERY`` seconds, and the handler times :func:`reference`,
a fixed kernel of interpreter work, SHA-256 and one Ed25519 check, the
mix the program spends its time on. It owns its own key, so no change to
the program changes the kernel. Of the kernels tried (see README.md),
this one left the least spread between stretches of the same work.

An operation's processor time, less the time spent in the handler, is then
rescaled by ``REFERENCE_MS / r``, where ``r`` is the harmonic mean of the
kernel times sampled while the operation ran (at least ``NEAREST`` of the
latest samples). Samples are uniform in time, so weighting them by speed,
which the harmonic mean does, gives the speed averaged over the
operation's work. The result reads as milliseconds on a host where the
kernel takes ``REFERENCE_MS``, about the fast regime of that VM.

When the sampler is not running, :meth:`Pace.ms` returns raw processor
milliseconds (the traced run uses that).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import signal
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

EVERY = 0.005        # seconds between samples
REFERENCE_MS = 0.25  # the kernel's nominal time
NEAREST = 4          # fewest samples one rescaling uses
PRIME = 16           # samples taken when sampling starts

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"dietchain-bench reference kernel"
_SIGNATURE = _KEY.sign(_MESSAGE)

clock = time.process_time


def reference() -> int:
    """A fixed amount of work; its time measures the host's current speed."""
    total = 0
    table = {}
    digest = b"pace"
    for i in range(300):
        total += i * i % 7
        table[i & 63] = total
        if i % 10 == 0:
            digest = hashlib.sha256(hashlib.sha256(digest).digest()).digest()
    _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    return total + len(table) + digest[0]


class Pace:
    def __init__(self):
        self.at: list[float] = []    # sample start, on the now() clock
        self.took: list[float] = []  # kernel time of that sample, s
        self.spent = 0.0             # processor time spent sampling
        self.running = False

    def now(self) -> float:
        """Processor seconds, less the time spent sampling."""
        while True:  # retry if a sample lands between the two reads
            spent = self.spent
            reading = clock()
            if spent == self.spent:
                return reading - spent

    def _sample(self, *_) -> None:
        start = clock()
        reference()
        took = clock() - start
        self.at.append(start - self.spent)
        self.took.append(took)
        self.spent += took

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host's speed for the duration of the block."""
        for _ in range(PRIME):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        self.running = True
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.running = False

    def ms(self, start: float, end: float) -> float:
        """Milliseconds from ``start`` to ``end`` (``now()`` readings),
        rescaled to the reference speed while sampling."""
        raw = (end - start) * 1e3
        if not self.running:
            return raw
        last = bisect.bisect_right(self.at, end)
        first = min(bisect.bisect_left(self.at, start), max(0, last - NEAREST))
        window = self.took[first:last]
        harmonic = len(window) / sum(1 / max(t, 1e-9) for t in window)
        return raw * REFERENCE_MS / (harmonic * 1e3)

    def summary(self) -> dict[str, float]:
        """Sample count, median kernel time (ms) and share of processor time spent."""
        ordered = sorted(self.took)
        return {
            "samples": len(ordered),
            "reference_ms_p50": ordered[len(ordered) // 2] * 1e3 if ordered else 0.0,
            "share": self.spent / clock() if clock() else 0.0,
        }
