"""A fixed reference workload that samples how fast one vCPU runs.

    python3 e2ebench/speedprobe.py --cpu 0

Pinned to ``--cpu``, the probe prints ``READY``, then every
``INTERVAL_S`` seconds until SIGTERM times a few small units of work,
and at the end prints its samples as one JSON line:
``[[wall-clock start, CPU seconds per unit], ...]``.

Why: on a shared host a vCPU's speed drifts by half within minutes
(other tenants' load on the same physical cores), and the same detect
pass then reads 7 s in one run and 11 s in the next.  Run beside a pass
on the same vCPU, the probe is slowed by the same contention, so
:func:`speed_factor` can restate the pass's time at one fixed reference
speed.  The unit is shaped like the read path that takes ~90% of that
pass (CSV rows parsed, fields converted, five columns projected into
lists that are dropped at the segment size), but it is the benchmark's
own code on fixed rows: it does not change when the program does.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import signal
import subprocess
import sys
import time
from statistics import harmonic_mean
from typing import List, Optional, Sequence, Tuple

#: Pause between samples: the probe takes ~1.5% of its vCPU.
INTERVAL_S = 0.02
#: Units timed per sample, after one untimed unit.  A unit timed right
#: after the pass held the vCPU measures refilling caches, which
#: follows the pass's speed far less closely than a warm unit does.
TIMED_UNITS = 3
#: Rows parsed per unit.
UNIT_ROWS = 16
#: Rows kept before the projected columns are dropped (the program's
#: default segment size).
SEGMENT_ROWS = 262_144
#: One warm unit's CPU time at the reference speed: about the fastest
#: seen beside a detect pass on the 2-vCPU host the benchmark was tuned
#: on, so corrected times read near an uncontended pass's wall time.
#: Only the scale of corrected times depends on it.
REFERENCE_UNIT_S = 50e-6
#: Fewest samples an interval needs before it can be corrected.
MIN_SAMPLES = 10

_STATES = {"est": True, "rst": False, "timeout": False}


def _rows(n: int = 4096) -> List[str]:
    """Fixed Argus-like CSV lines (same on every run and every seed)."""
    rng = random.Random(0)
    lines = []
    for _ in range(n):
        start = rng.uniform(0, 21600)
        payload = bytes(rng.randrange(256) for _ in range(rng.choice(
            (0, 0, 0, 16, 48)))).hex()
        lines.append(
            f"{start!r},{start + rng.uniform(0, 30)!r},"
            f"{rng.choice(('tcp', 'udp'))},10.1.{rng.randrange(8)}."
            f"{rng.randrange(256)},{rng.randrange(1024, 65536)},"
            f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
            f"{rng.randrange(256)}.{rng.randrange(256)},"
            f"{rng.choice((53, 80, 443, 6881, 4662))},{rng.randrange(1, 9)},"
            f"{rng.randrange(0, 9)},{rng.randrange(40, 9000)},"
            f"{rng.randrange(0, 90000)},{rng.choice(tuple(_STATES))},"
            f"{payload}")
    return lines


class _Unit:
    """Parse the next ``UNIT_ROWS`` fixed rows into projected columns."""

    def __init__(self) -> None:
        self.lines = _rows()
        self.pos = 0
        self.columns: Tuple[list, ...] = ([], [], [], [], [])

    def __call__(self) -> None:
        lines, pos = self.lines, self.pos
        self.pos = (pos + UNIT_ROWS) % (len(lines) - UNIT_ROWS)
        src, dst, starts, sizes, ok = self.columns
        for row in csv.reader(lines[pos:pos + UNIT_ROWS]):
            (start, _end, _proto, s, sport, d, dport, _sp, _dp,
             sbytes, _db, state, payload) = row
            record = (s, d, int(sport), int(dport), float(start),
                      int(sbytes), _STATES[state], bytes.fromhex(payload))
            src.append(record[0])
            dst.append(record[1])
            starts.append(record[4])
            sizes.append(record[5])
            ok.append(record[6])
        if len(starts) >= SEGMENT_ROWS:
            for column in self.columns:
                column.clear()


def speed_factor(samples: Sequence[Sequence[float]], start: float,
                 end: float) -> float:
    """What turns a time spent from wall-clock ``start`` to ``end`` into
    the time the same work takes at the reference speed.

    Work is the time integral of speed, and the probe's unit time is
    inverse to speed, so the factor is the mean of
    ``REFERENCE_UNIT_S / unit`` over the samples inside the interval.
    """
    units = [cpu for wall, cpu in samples if start <= wall <= end and cpu > 0]
    if len(units) < MIN_SAMPLES:
        raise RuntimeError(
            f"speed probe: {len(units)} samples in a {end - start:.3f} s "
            f"interval, fewer than {MIN_SAMPLES}")
    return REFERENCE_UNIT_S / harmonic_mean(units)


class Probe:
    """A probe process pinned to ``cpu`` for the length of a ``with``
    block; afterwards ``samples`` holds its samples.  The process is
    stopped and reaped on the way out, also on error."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: List[Tuple[float, float]] = []
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--cpu", str(self.cpu)],
            stdout=subprocess.PIPE, text=True)
        try:
            if self._proc.stdout.readline().strip() != "READY":
                raise RuntimeError(
                    f"speed probe on cpu {self.cpu} did not start")
        except BaseException:
            self._stop(collect=False)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop(collect=exc_type is None)

    def _stop(self, collect: bool) -> None:
        proc = self._proc
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM if collect else signal.SIGKILL)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if collect:
            if proc.returncode != 0:
                raise RuntimeError(f"speed probe exited {proc.returncode}")
            self.samples = [tuple(x) for x in
                            json.loads(out.strip().splitlines()[-1])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    unit = _Unit()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    print("READY", flush=True)
    while not stopping:
        wall = time.time()
        unit()  # refills the caches the pass beside it emptied
        t0 = time.thread_time()
        for _ in range(TIMED_UNITS):
            unit()
        samples.append((wall, (time.thread_time() - t0) / TIMED_UNITS))
        time.sleep(INTERVAL_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
