"""One benchmark job: a fresh process that sets up and runs one workload.

Run by ``run.py``, never imported by it. Prints one JSON line:
``setup_s`` (process spawn until the config is resolved and fickit is
imported), ``wall_s`` (the ``cmd_*`` call until its CSVs are written,
less the yardstick units run inside it), ``peak_rss_mb``, the
yardstick's unit times before (``setup_units_s``) and during
(``wall_units_s``) the command and, when traced, the per-layer metrics.
Coarse spans of a traced job go to ``spans.json`` beside its CSVs.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Yardstick units timed right after set-up, and the wall-clock period of
# the units timed while the command runs.
SETUP_UNITS = 40
SAMPLE_PERIOD_S = 0.1


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ``ru_maxrss`` also keeps the high-water mark of the parent's memory
    from before ``exec``, so the kernel's per-image ``VmHWM`` is read
    where it exists.
    """
    try:
        status = Path("/proc/self/status").read_text(encoding="utf-8")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kib = next(line.split()[1] for line in status.splitlines()
               if line.startswith("VmHWM:"))
    return int(kib) / 1024.0


def _step(i):
    return (i * 7 + 3) % 11


class Yardstick:
    """A fixed piece of work, timed to measure the host's speed.

    The host's speed drifts by tens of percent for minutes at a time
    under other tenants' load. ``run.host_scale`` scales each time a
    job measures by the median unit time of the same job, so that most
    of the drift cancels. A unit (about 4 ms) is four equal parts that imitate
    fickit's mix without fickit's code: interpreted calls, ufuncs on
    arrays of 100, FFTs and sorts of arrays of 512, and normal draws.
    The host's slowdowns hit each part differently, and the workloads
    mix them differently, so the parts are weighted alike. The arrays
    are small and made once, so peak memory stays the workload's; the
    FFT length is no workload's, so no cache a workload uses is warmed.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal(100)
        self.x = rng.standard_normal(512)
        self.draws = np.empty(20_000)
        self.times = []

    def unit(self, *_):
        np, small, x = self.np, self.small, self.x
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(10_000):
            acc += _step(i)
        for _ in range(200):
            r = (small - 0.3) / 0.9
            acc += float(-0.5 * np.sum(r * r) - np.log(0.9))
        for _ in range(35):
            spec = np.fft.rfft(x)
            order = np.lexsort((np.abs(spec), spec.real))
            acc += float(np.fft.irfft(spec[order], 512)[0])
        rng = np.random.default_rng(12345)
        for _ in range(3):
            rng.standard_normal(out=self.draws)
            acc += float(self.draws.max())
        self.times.append(time.perf_counter() - t0)

    def run_sampled(self, fn):
        """Call ``fn()`` with a unit every SAMPLE_PERIOD_S of wall time,
        run from a SIGALRM handler, so that the units meet the host as
        ``fn`` does. Returns the wall time of ``fn`` less the units'."""
        first = len(self.times)
        previous = signal.signal(signal.SIGALRM, self.unit)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return elapsed - sum(self.times[first:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--replicates", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import fickit.cli
    from workloads import WORKLOADS

    if not Path(fickit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fickit imported from outside the checkout: {fickit.__file__}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg = workload.resolved(args.seed, args.replicates)
    config = fickit.cli.ExperimentConfig(out_dir=args.out, **cfg)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = {"setup_s": time.time() - args.spawned_at}
    yardstick = Yardstick()
    for _ in range(SETUP_UNITS):
        yardstick.unit()
    result["setup_units_s"] = yardstick.times[:]
    if args.setup_only:
        print(json.dumps(result))
        return 0

    command = getattr(fickit.cli, workload.command)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(fickit)
        command = tracer.wrap("cli.cmd", command, span=True)

    def call():
        try:
            command(config)
            result["oracle_failure"] = None
        except fickit.cli.OracleFailure as exc:
            # Expected for some seeds: the CSV is written and its pass
            # column is checked against the reference like any other
            # field.
            result["oracle_failure"] = str(exc)

    result["wall_s"] = yardstick.run_sampled(call)
    result["peak_rss_mb"] = peak_rss_mb()
    result["wall_units_s"] = yardstick.times[SETUP_UNITS:]
    if tracer is not None:
        result["layers"] = tracer.metrics()
        (Path(args.out) / "spans.json").write_text(
            json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
