'''One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass and once per set-up probe, with
g2calc's sources on PYTHONPATH, and reads the JSON it writes to --result:

  python3 perfbench/child.py --probe --result R.json [--speed]
  python3 perfbench/child.py --workload W --seed S --workdir D --result R.json
                             [--speed | --spans SPANS.json.gz]

--probe only imports g2calc.cli (the set-up time).  --spans traces the pass
and writes its spans there.  --speed runs a `SpeedProbe` for the child's
whole life: each time is then reported at the reference speed, and also
unscaled (`*_raw_*`).
'''
from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

#: nominal duration of one reference chunk: the chunk's typical time on the
#: 2-core KVM guest the README.md baseline was measured on
REF_CHUNK_S = 600e-6
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.25              # chunks this close to an interval set its speed


def _reference_chunk():
    """Fixed pure-Python work of the kind g2calc does: Fraction arithmetic
    and small tuple-keyed dicts."""
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
        table[(i % 7, i % 5)] = acc
    return acc


class SpeedProbe:
    """Measures how fast this machine runs right now, while the pass runs.

    Every SAMPLE_EVERY_S a SIGALRM handler times one reference chunk.  The
    host's speed drifts by tens of percent over seconds to minutes, and the
    chunk's mean time follows the drift.  `now` is a clock that leaves out
    the handler's own time; `speed_factor` turns seconds on that clock into
    seconds at the nominal speed (REF_CHUNK_S per chunk).
    """

    def __init__(self):
        self.stamps: list[float] = []     # `now()` at each chunk
        self.chunks: list[float] = []     # each chunk's duration
        self.stolen = 0.0

    def _tick(self, signum=None, frame=None):
        self.stamps.append(self.now())
        t0 = perf_counter()
        _reference_chunk()
        dt = perf_counter() - t0
        self.chunks.append(dt)
        self.stolen += dt

    def now(self) -> float:
        return perf_counter() - self.stolen

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_factor(self, start=None, end=None) -> float:
        """For the whole life of the probe, or for the interval [start, end]
        of `now()` readings, widened by WINDOW_S on each side."""
        chunks = self.chunks
        if start is not None:
            lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
            chunks = self.chunks[lo:hi] or self.chunks
        return REF_CHUNK_S / statistics.fmean(chunks)


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--speed", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--workdir")
    p.add_argument("--spans")
    args = p.parse_args(argv)

    speed = SpeedProbe() if args.speed else None
    clock = speed.now if speed else perf_counter
    if speed:
        speed.start()
    t0 = clock()
    import g2calc.cli  # noqa: F401  (set-up: module-level tables, numpy)
    t1 = clock()
    import numpy

    rec = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    res = {"samples": []}
    if not args.probe:
        from workloads import PASSES
        tracer = None
        if args.spans:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            res = PASSES[args.workload](args.seed, args.workdir, tracer, clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
        res.pop("outputs", None)
        if tracer is not None:
            from tracer import layer_metrics
            rec["layers"] = layer_metrics(tracer)
            tracer.write(args.spans)
    if speed:
        speed.stop()
        factor = speed.speed_factor
    else:
        def factor(start=None, end=None):
            return 1.0
    samples = res.pop("samples")
    rec.update(res)
    rec.update({
        "setup_s": (t1 - t0) * factor(t0, t1), "setup_raw_s": t1 - t0,
        "samples_ms": [1e3 * (b - a) * factor(a, b) for a, b in samples],
        "samples_raw_ms": [1e3 * (b - a) for a, b in samples],
        "speed_factor": factor(),
    })
    if "run_s" in res:
        rec["run_raw_s"], rec["run_s"] = res["run_s"], res["run_s"] * factor()
    rec["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
