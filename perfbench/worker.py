"""Run one workload in this fresh process and print its measurements.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> [--setup-only]

perfbench/run.py starts this script; the last line of its output is a JSON
object with raw timings. Set-up (interpreter start, `import fwt`, input
generation) ends when `ready` is stamped on the monotonic clock, which the
parent compares with the instant it started the process; the reference
kernel is timed right after, to rescale it.
"""
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_fwt():
    """Import the program from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import fwt
    import fwt.checks
    import fwt.cli
    import fwt.mechanism
    import fwt.model
    import fwt.sim
    import fwt.user_game
    if Path(fwt.__file__).resolve() != SRC / "fwt" / "__init__.py":
        raise ImportError(f"fwt imported from {fwt.__file__}, not from {SRC}")
    return fwt


# The host changes speed by up to 1.6x within seconds. A fixed kernel,
# which no change to the program can alter, is timed between items, at
# least every REF_EVERY_S, and after set-up; run.py rescales each time by
# it. Spacing the samples leaves most items to run warm, after the item
# before them.
REF_NOMINAL_S = 0.010    # the kernel's time at the speed times are reported at
REF_EVERY_S = 0.2


class ReferenceKernel:
    """Interpreter arithmetic, small-object churn and small and medium numpy
    calls, the kinds of work the program does, so the kernel slows down with
    the host the way the items do."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._small = np.arange(64, dtype=float)
        self._medium = np.random.default_rng(0).random(100_000)

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(70_000):
            total += i * i
        for i in range(3_000):
            record = {"a": i, "b": (i, i + 1), "c": [i] * 3}
            record["a"] += 1
        for _ in range(700):
            float(np.sum(np.sqrt(self._small * 2.0 + 1.0)))
        for _ in range(3):
            float(np.sum(self._medium * self._medium))
        return time.perf_counter() - start


def run_pass(workload, kernel, tracer=None, perturb=None):
    """Run every item once.

    Returns the item times, for each item the mean time of the two kernel
    samples around it, and the check results.
    """
    latencies, before, results = [], [], []
    samples = [kernel()]
    sampled = time.perf_counter()
    for item in workload.items:
        if time.perf_counter() - sampled >= REF_EVERY_S:
            samples.append(kernel())
            sampled = time.perf_counter()
        before.append(len(samples) - 1)
        if tracer is not None:
            tracer.item = item.ident
        start = time.perf_counter()
        result = item.call()
        latencies.append(time.perf_counter() - start)
        results.append(result)
    samples.append(kernel())
    around = [(samples[k] + samples[k + 1]) / 2.0 for k in before]
    if perturb is not None:
        perturb(results)
    return latencies, around, workload.check_pass(results)


def measure(fwt, workload, kernel, seconds: float, trace: bool):
    """Repeat passes until the next one would overrun `seconds`.

    Each pass is (item times, kernel times). Untraced passes give the
    end-to-end timings. With `trace`, traced and untraced passes alternate,
    each traced pass under a fresh tracer.
    """
    from spans import Tracer

    untraced, traced, tracers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            tracer = Tracer(fwt)
            with tracer.installed():
                latencies, around, ok = run_pass(workload, kernel, tracer)
            traced.append((latencies, around))
            tracers.append(tracer)
        else:
            latencies, around, ok = run_pass(workload, kernel)
            untraced.append((latencies, around))
        attempted += len(ok)
        failed += ok.count(False)
        elapsed = time.perf_counter() - start
        passes = len(untraced) + len(traced)
        if trace and len(traced) < len(untraced):
            continue
        if elapsed + elapsed / passes > seconds:
            break
    return untraced, traced, tracers, attempted, failed


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    t0 = time.perf_counter()
    fwt = import_fwt()
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[name](fwt, seed)
    t2 = time.perf_counter()
    ready = time.monotonic()
    kernel = ReferenceKernel()
    out = {"ready": ready, "import_s": t1 - t0, "inputs_s": t2 - t1,
           "kernel_s": sorted(kernel() for _ in range(3))[1],
           "items": [item.ident for item in workload.items]}
    if not setup_only:
        untraced, traced, tracers, attempted, failed = measure(
            fwt, workload, kernel, seconds, trace)
        out.update(untraced=untraced, traced=traced, attempted=attempted, failed=failed,
                   peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if trace:
            out["layers"] = [t.layer_summary() for t in tracers]
            out["counts"] = [{k: dict(v) for k, v in t.counts.items()} for t in tracers]
            trace_dir = Path(__file__).resolve().parent / "out"
            trace_dir.mkdir(exist_ok=True)
            for i, tracer in enumerate(tracers):
                tracer.dump(trace_dir / f"spans-{name}-seed{seed}-pass{i}.jsonl")
    print(json.dumps(out))


if __name__ == "__main__":
    os.chdir(ROOT)
    main(sys.argv[1:])
