"""dcan benchmark: five closed-loop workloads, timed from outside src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, one after another

Run it from the repository root; it imports dcan from ./src and nothing
else.  One caller in one process drives each workload: it sets the workload
up three times (the median is `setup_s`), runs one untimed warm-up
operation, then runs operations back to back for S seconds, checking each
one's outputs.  With --trace 0 the last line of stdout is a JSON object
holding every end-to-end metric; with --trace 1 the run measures half the
seconds untraced, then installs the span tracer, sets up again, measures the
other half traced, and reports the per-layer metrics, the tracing overhead
and (on infer) an informational thread comparison.  Spans are written to
.perfbench_traces/<workload>-seed<N>.csv.gz.  Scratch files live under
.perfbench_work/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from tracer import REQUEST, Tracer, per_layer_metrics, percentile  # noqa: E402

SETUP_REPEATS = 3
THREAD_PROBE_PASSES = 5


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _threads(value, nproc: int) -> int:
    return nproc if value == "nproc" else int(value)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p


# ---------------------------------------------------------------------------
# host information


def _blas_library():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            return get, put
    return None, None


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def host_block(root: Path, workload: str, seed: int, blas_get) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_get() if blas_get else None},
        "dca_threads": int(os.environ["DCA_THREADS"]),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Operations attempted and failed, with the timed part of each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds: list[float] = []
        self.items = 0
        self.failures: list[str] = []

    def items_per_s(self) -> float:
        return self.items / sum(self.seconds)

    def latency_ms(self, q: int) -> float:
        return percentile([s * 1000.0 for s in self.seconds], q)


def _attempt(wl, state, i, tally: Tally, timed: bool, tracer=None) -> None:
    REQUEST.set(str(i))
    tally.attempted += 1
    try:
        if tracer is None:
            outcome = wl.op(state, i)
            problems = wl.check(state, i, outcome)
        else:
            with tracer.span("bench.measure" if timed else "bench.warmup"):
                outcome = wl.op(state, i)
            with tracer.span("bench.check"):
                problems = wl.check(state, i, outcome)
    except Exception as exc:  # a failing operation is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
        outcome = None
    if problems:
        tally.failed += 1
        tally.failures.extend(f"op {i}: {p}" for p in problems)
    elif timed:
        tally.seconds.append(outcome.seconds)
        tally.items += outcome.items


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library lacks it.  Run
    between operations, outside the timed part, so that pages the allocator
    kept from earlier operations do not count in the next one's RSS."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    return (lambda: trim(0)) if trim is not None else (lambda: None)


# Runs in its own process, so sampling takes no turns on this process's
# interpreter lock: it reads the benchmark's resident pages every PERIOD_S
# until its stdin closes, then prints the largest count.
_RSS_SAMPLER = """
import select, sys
path, period, peak = sys.argv[1], float(sys.argv[2]), 0
while True:
    with open(path) as fh:
        peak = max(peak, int(fh.read().split()[1]))
    if select.select([sys.stdin], [], [], period)[0]:
        break
print(peak)
"""


class PeakRss:
    """Peak resident set size while the timed operations run, sampled from
    /proc/<pid>/statm every 50 ms by a helper process.

    The process high-water mark (ru_maxrss) also covers set-up and the
    warm-up operation; on eval it read about 37 MB higher in some runs than
    in others.  Sampling only the measured phase keeps the figure to what
    the timed operations hold, set-up buffers they keep included."""

    PERIOD_S = 0.05

    def __init__(self):
        self.peak_bytes = 0
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-c", _RSS_SAMPLER, f"/proc/{os.getpid()}/statm",
             str(self.PERIOD_S)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        out, _ = self._proc.communicate(timeout=60)  # closing stdin stops it
        if self._proc.returncode == 0:
            self.peak_bytes = int(out) * os.sysconf("SC_PAGE_SIZE")


def closed_loop(wl, state, seconds: float, tracer=None, warm_up=True,
                measuring=contextlib.nullcontext()) -> Tally:
    """One untimed warm-up operation, then operations back to back until
    `seconds` have passed (at least one timed operation), inside the
    `measuring` context."""
    tally = Tally()
    trim = _malloc_trim()
    if warm_up:
        _attempt(wl, state, 0, tally, timed=False, tracer=tracer)
        trim()
    with measuring:
        deadline = time.perf_counter() + seconds
        i = 1
        while True:
            _attempt(wl, state, i, tally, timed=True, tracer=tracer)
            trim()
            i += 1
            if time.perf_counter() >= deadline:
                return tally


def _timed_setup(wl, directory: Path):
    t0 = time.perf_counter()
    state = wl.setup(directory)
    return time.perf_counter() - t0, state


def run_untraced(wl, work: Path, seconds: float) -> tuple[dict, Tally]:
    setups = []
    for k in range(SETUP_REPEATS):
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
        elapsed, state = _timed_setup(wl, work / f"setup{k}")
        setups.append(elapsed)
    rss = PeakRss()
    tally = closed_loop(wl, state, seconds, measuring=rss)
    metrics = {}
    if tally.seconds:
        metrics = {
            "items_per_s": tally.items_per_s(),
            "latency_ms_p50": tally.latency_ms(50),
            "latency_ms_p90": tally.latency_ms(90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss.peak_bytes / 2**20,
        }
    return metrics, tally


def thread_comparison(wl, state, nproc: int, blas_get, blas_put) -> dict:
    """infer images/s for DCA_THREADS=1 x BLAS nproc against DCA_THREADS=nproc
    x BLAS 1; informational, not an end-to-end metric."""
    from dcan import train
    if blas_put is None:
        return {"skipped": "BLAS thread count cannot be set at run time"}
    before = blas_get()
    out = {}
    try:
        for dca, blas in ((1, nproc), (nproc, 1)):
            blas_put(blas)
            train.predict_proba(state["model"], state["x"], 32, dca)  # warm-up
            times = []
            for _ in range(THREAD_PROBE_PASSES):
                t0 = time.perf_counter()
                train.predict_proba(state["model"], state["x"], 32, dca)
                times.append(time.perf_counter() - t0)
            out[f"dca{dca}_blas{blas}.infer_images_per_s"] = (
                len(state["x"]) / statistics.median(times))
    finally:
        blas_put(before)
    return out


def run_traced(wl, work: Path, seconds: float, trace_file: Path,
               blas=(None, None)) -> tuple[dict, Tally, dict]:
    """Half the seconds untraced (the baseline for the overhead), then the
    tracer installed, a traced set-up and half the seconds traced.  The
    untraced half has warmed the process, so the traced loop starts timing
    at once."""
    state = wl.setup(work / "untraced")
    untraced = closed_loop(wl, state, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(work / "traced")
        tally = closed_loop(wl, state, seconds / 2, tracer, warm_up=False)
    finally:
        tracer.uninstall()
    metrics = {}
    if tally.seconds and untraced.seconds:
        metrics = per_layer_metrics(tracer.spans, len(tally.seconds), wl.images_per_op)
        metrics["trace.overhead_pct"] = (untraced.items_per_s() / tally.items_per_s()
                                         - 1.0) * 100.0
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file)
    extra = {}
    if wl.name == "infer":
        extra["threads"] = thread_comparison(wl, state, _nproc(), *blas)
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.failures += untraced.failures
    return metrics, tally, extra


def measure(wl, work: Path, seconds: float, trace: bool, trace_file: Path,
            blas=(None, None)) -> tuple[dict, Tally, dict]:
    """Run one workload; returns the result object printed as the last line,
    the tally of operations and informational extras."""
    if trace:
        values, tally, extra = run_traced(wl, work, seconds, trace_file, blas)
        names = [(n, u) for n, u, _, _ in spec.PER_LAYER]
    else:
        (values, tally), extra = run_untraced(wl, work, seconds), {}
        names = [(n, u) for n, u, _, _ in spec.END_TO_END]
    metrics = {n: {"value": values[n], "unit": u} for n, u in names if n in values}
    result = {"correct": tally.failed == 0 and len(metrics) == len(names),
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, tally, extra


# ---------------------------------------------------------------------------
# reporting


ALIASES = {  # the end-to-end metric as a user of each workload names it
    "train": {"items_per_s": "samples_per_s"},
    "eval": {"items_per_s": "images_per_s"},
    "infer": {"items_per_s": "infer_images_per_s"},
    "explain": {"items_per_s": "images_per_s"},
    "gradcheck": {"items_per_s": "audits_per_s", "latency_ms_p50": "wall_s x 1000"},
}


def single(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "dcan" / "__init__.py").is_file():
        print(f"error: no dcan package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = _nproc()
    _, blas_cfg, dca_cfg = spec.WORKLOADS[args.workload]
    blas_threads, dca_threads = _threads(blas_cfg, nproc), _threads(dca_cfg, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)  # read once, when numpy loads BLAS
    os.environ["DCA_THREADS"] = str(dca_threads)
    sys.path.insert(0, str(src))
    import dcan
    if Path(dcan.__file__).resolve().parent != (src / "dcan").resolve():
        print(f"error: imported dcan from {dcan.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    blas = _blas_library()
    host = host_block(root, args.workload, args.seed, blas[0])
    wl = workloads.WORKLOAD_CLASSES[args.workload](workloads.Sizes(), args.seed,
                                                    dca_threads, src)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    trace_file = root / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.csv.gz"
    try:
        result, tally, extra = measure(wl, work, args.seconds, bool(args.trace), trace_file,
                                       blas)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("host " + json.dumps(host))
    for name, m in result["metrics"].items():
        alias = ALIASES[args.workload].get(name)
        print(f"  {name:<52} {m['value']:>16.6f} {m['unit']:<8}"
              + (f" ({alias})" if alias else ""))
    print(f"  timed operations: {len(tally.seconds)}")
    for key, value in extra.get("threads", {}).items():
        print(f"  informational threads.{key} = {value}")
    for line in tally.failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else single(args)


if __name__ == "__main__":
    sys.exit(main())
