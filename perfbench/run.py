"""medcascade benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload grid_mock --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed, sets the workload up
several times before the first pass and after each pass (the median is
``setup_s``), and runs passes of the workload until the next one would end
after ``--seconds``, and at least one.  With
``--trace 0`` every pass is untraced and the last line of stdout is the
end-to-end result.  With ``--trace 1`` untraced and traced passes alternate;
the traced ones wrap the program's layer functions (see ``bench_trace``) and
the last line carries the per-layer metrics and the tracing overhead.

Output checks run on every pass: every CLI call exits 0, the workload's own
consistency checks hold, and the output digest is the same for every pass
and every run of the same program and benchmark sources, seed and BLAS
thread count.  The digests of earlier runs, the spans and a full result
file live under ``.bench_work/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

SETUP_ROUND = 8
WORK = ".bench_work"


def _pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))
    return nproc


def _blas_info() -> dict:
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas_info(), "seed": seed, "machine": platform.machine()}


def _tree_hash(*roots: str) -> str:
    """Digest of the program and benchmark sources, which fix the outputs."""
    import hashlib
    h = hashlib.sha256()
    for root in roots:
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _check_digest(store: str, key: str, digest: str) -> str | None:
    """Record the output digest of (source, seed); report a mismatch."""
    known = {}
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            known = json.load(fh)
    if key in known and known[key] != digest:
        return f"output digest {digest[:12]} differs from an earlier run's {known[key][:12]}"
    known[key] = digest
    tmp = f"{store}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, store)
    return None


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    n = len(values)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def _time_setups(workload, seed: int, base: str, setup_times: list[float], count: int):
    """Set the workload up ``count`` more times; return the last set-up."""
    for k in range(count):
        directory = os.path.join(base, f"setup{len(setup_times)}")
        started = time.perf_counter()
        setup = workload.setup(directory, seed)
        setup_times.append(time.perf_counter() - started)
        if k < count - 1:
            setup.close()
    return setup


def measure(workload, seed: int, seconds: float, trace: bool, base: str):
    """Set-ups are timed in rounds before the first pass and after each one,
    so ``setup_s`` is a median over the whole run, not over one short window."""
    import bench_trace

    setup_times: list[float] = []
    setup = _time_setups(workload, seed, base, setup_times, SETUP_ROUND)
    passes, tracers = [], []
    try:
        started = time.perf_counter()
        longest = 0.0
        while True:
            index = len(passes)
            traced = trace and index % 2 == 1
            workdir = os.path.join(base, f"pass{index}")
            tracer = bench_trace.Tracer(f"{workload.name}-s{seed}-p{index}") if traced else None
            saved = bench_trace.install(tracer) if traced else []
            pass_started = time.perf_counter()
            try:
                result = workload.run_pass(setup, workdir, tracer)
            finally:
                bench_trace.uninstall(saved)
            longest = max(longest, time.perf_counter() - pass_started)
            passes.append((traced, result))
            if traced:
                tracers.append((tracer, result))
            shutil.rmtree(workdir, ignore_errors=True)
            _time_setups(workload, seed, base, setup_times, SETUP_ROUND).close()
            done = len(passes) >= (2 if trace else 1)
            if done and time.perf_counter() - started + longest > seconds:
                break
    finally:
        setup.close()
    return setup_times, passes, tracers


def _layer_report(passes, tracers, units: dict[str, str]) -> tuple[dict, dict]:
    """Per-layer metrics and self time per layer, medians over traced passes."""
    import bench_trace
    ok = [(t, r) for t, r in tracers if not r.problems]
    cli = [name for name in units if name.startswith("cli.")]
    layer_passes = [bench_trace.layer_metrics(t.spans, r.ledger_entries, cli) for t, r in ok]
    detail = {}
    if layer_passes:
        for name in units:
            if name != "trace.overhead_frac":
                detail[name] = summarize([m[name] for m in layer_passes])
    # each traced pass against the untraced pass just before it
    overhead = [t.wall_s / u.wall_s - 1.0 for (_, u), (traced, t) in zip(passes, passes[1:])
                if traced and not u.problems and not t.problems]
    if overhead:
        detail["trace.overhead_frac"] = summarize(overhead)
    self_time: dict[str, list[float]] = {}
    for t, _ in tracers:
        for name, seconds in bench_trace.self_times(t.spans).items():
            self_time.setdefault(name, []).append(seconds)
    return detail, {k: statistics.median(v) for k, v in self_time.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _pin_blas_threads()
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import bench_trace
        import bench_workloads
        import medcascade
    except ImportError as e:
        print(f"perfbench: cannot import the program from {src}: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.realpath(medcascade.__file__))) \
            != os.path.realpath(src):
        print(f"perfbench: medcascade was imported from {medcascade.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}

    workload = bench_workloads.WORKLOADS[args.workload]()
    env = _environment(nproc, args.seed)
    base = os.path.join(root, WORK, f"{workload.name}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    try:
        setup_times, passes, tracers = measure(workload, args.seed, args.seconds,
                                               bool(args.trace), base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, attempted, failed = [], 0, 0
    digests = {r.digest for _, r in passes if r.digest}
    for index, (_, r) in enumerate(passes):
        attempted += len(r.calls)
        failed += sum(c.rc != 0 for c in r.calls)
        problems += [f"pass {index}: {p}" for p in r.problems]
    if len(digests) > 1:
        problems.append(f"passes produced {len(digests)} different output digests")
    if digests and not problems:
        sources = _tree_hash(src, os.path.dirname(os.path.abspath(__file__)))
        key = (f"{workload.name}:seed{args.seed}:src{sources[:16]}"
               f":blas{env['blas']['threads']}")
        mismatch = _check_digest(os.path.join(root, WORK, "digests.json"), key, digests.pop())
        if mismatch:
            problems.append(mismatch)
    correct = not problems
    if not correct and failed == 0:
        failed = 1

    units = bench_workloads.E2E_UNITS
    untraced = [r for traced, r in passes if not traced and not r.problems]
    detail = {"setup_s": summarize(setup_times), "peak_rss_mb": summarize([peak_rss_mb])}
    if untraced:
        detail["wall_s"] = summarize([r.wall_s for r in untraced])
        for name in sorted({m for r in untraced for m in r.metrics}):
            detail[name] = summarize([r.metrics[name] for r in untraced])
    notes = passes[0][1].notes if passes else {}

    layer_detail, self_time = {}, {}
    if args.trace:
        layer_detail, self_time = _layer_report(passes, tracers, layer_units)
        spans_dir = os.path.join(root, WORK, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        bench_trace.write_spans(os.path.join(spans_dir, f"{workload.name}-s{args.seed}.jsonl"),
                                [t for t, _ in tracers])

    # -- report ------------------------------------------------------------------
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{workload.name} seed={args.seed} passes={len(passes)} "
          f"traced={len(tracers)} correct={correct}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    if notes:
        print(f"  notes {json.dumps(notes, sort_keys=True)}")
    for name, stats in detail.items():
        print(f"  {name:<32} {stats['median']:>14.6g} {units[name]:<8} "
              f"(median of {stats['n']}, min {stats['min']:.6g}, max {stats['max']:.6g})")
    for name, stats in layer_detail.items():
        print(f"  {name:<32} {stats['median']:>14.6g} {layer_units[name]:<8} "
              f"(median of {stats['n']})")
    if self_time:
        print("  self time per layer (s, median over traced passes):")
        for name, s in sorted(self_time.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<30} {s:>10.4f}")

    if args.trace:
        metrics = {n: {"value": layer_detail[n]["median"], "unit": unit}
                   for n, unit in layer_units.items() if n in layer_detail}
    else:
        gated = [m["name"] for m in declared["end_to_end"]]
        metrics = {n: {"value": detail[n]["median"], "unit": units[n]}
                   for n in gated if n in detail}
    results_dir = os.path.join(root, WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload.name}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": workload.name, "correct": correct,
                   "problems": problems, "end_to_end": detail, "per_layer": layer_detail,
                   "self_time_s": self_time, "notes": notes}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report a harness crash without printing a result line
        traceback.print_exc()
        sys.exit(1)
