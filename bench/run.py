"""Benchmark of hopforder: time to a verified verdict, per workload.

    python3 bench/run.py --workload {ladder,induce,enum} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` and every input is generated from `fixtures/` and the seed.  One
closed-loop client with one thread runs passes over the workload's
fixed task list for about S seconds (see workloads.py and WORKLOADS.md)
and checks every output.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports per-layer metrics from the tracer
(tracer.py), whose spans are written under `.bench_work/`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit status is 0 exactly when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 5  # fresh processes timed from start to first task, per run
PROBE_TIMEOUT_S = 60


def _layout_error():
    if not (SRC / "hopforder" / "__init__.py").is_file():
        return f"no package at {SRC / 'hopforder'}"
    if not (ROOT / "fixtures").is_dir():
        return f"no fixtures at {ROOT / 'fixtures'}"
    return None


def make_workload(name: str, seed: int, workdir: Path):
    """Import the package from this checkout and generate the inputs."""
    sys.path.insert(0, str(SRC))
    import hopforder

    if Path(hopforder.__file__).resolve().parent != (SRC / "hopforder").resolve():
        raise RuntimeError(f"imported hopforder from {hopforder.__file__}, not {SRC}")
    import workloads

    return workloads.WORKLOADS[name](ROOT, seed, workdir)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the point where it
    could start its first timed task (imports, parsing, inputs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, PROBE_TIMEOUT_S)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with status {proc.returncode}")
    return elapsed


def setup_samples(workload: str, seed: int):
    """SETUP_PROBES probe times, and their scale to reference speed."""
    import calibrate

    reference = calibrate.Reference()
    times = []
    for _ in range(SETUP_PROBES):
        times.append(setup_probe(workload, seed))
        reference.after_call(times[-1])
    return times, reference.scale()


def measure(wl, seconds: float, traced: bool):
    """Passes while fewer than `seconds` have gone by; the last one may
    run past.  Traced runs alternate untraced and traced passes, and run
    at least one of each."""
    from tracer import Tracer

    tracer = Tracer() if traced else None
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        use = tracer if traced and k % 2 == 1 else None
        passes.append((wl.run_pass(k, use), use is not None))
        if traced and len(passes) < 2:
            continue
        if time.perf_counter() - start >= seconds:
            break
    return passes, tracer


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def end_to_end(passes, setup_times, setup_scale):
    """{name: (value, unit, samples, value as measured)}.  Each pass's
    times are scaled to reference speed by the pass's own kernel samples
    (calibrate.py), the setup times by those taken around the probes."""
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    tasks = [(t.seconds, r.scale, t.kind) for r, _ in passes for t in r.tasks]
    timings = {
        "setup_s": (statistics.median, [(t, setup_scale) for t in setup_times]),
        "wall_s": (statistics.median, [(r.wall_s, r.scale) for r, _ in passes]),
        "task_p50_ms": (statistics.median, [(t, s) for t, s, _ in tasks]),
        "task_p90_ms": (_p90, [(t, s) for t, s, _ in tasks]),
        "task_a_ms": (statistics.median, [(t, s) for t, s, kind in tasks if kind == "A"]),
        "task_b_ms": (statistics.median, [(t, s) for t, s, kind in tasks if kind == "B"]),
    }
    out = {}
    for name, (stat, samples) in timings.items():
        factor = 1e3 if name.endswith("_ms") else 1.0
        scaled = stat([x * s for x, s in samples]) * factor
        out[name] = (scaled, name.rpartition("_")[2], len(samples), stat([x for x, _ in samples]) * factor)
    out["peak_rss_mb"] = (rss_kb / 1024, "MB", 1, rss_kb / 1024)
    return out


def src_lines():
    pkg = SRC / "hopforder"
    count = lambda p: len(p.read_text(encoding="utf-8").splitlines()) if p.is_file() else 0
    from tracer import MODULES

    out = {f"src_lines.{m}": count(pkg / f"{m}.py") for m in MODULES}
    out["src_lines.total"] = sum(count(p) for p in pkg.rglob("*.py"))
    return out


def per_layer(passes):
    """Per-task calls and self time of every traced function, from the
    traced passes only."""
    from tracer import MODULES, SPAN_NAMES, merge

    total = {}
    n_tasks = 0
    for r, traced in passes:
        if traced and r.layers is not None:
            merge(total, r.layers)
            n_tasks += len(r.tasks)
    funcs = total.get("functions", {})
    if total.get("missing"):
        print(f"bench: not traced, missing from src/: {', '.join(total['missing'])}", file=sys.stderr)
    n = max(n_tasks, 1)
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = funcs.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (self_s / n, "s")
    for m in MODULES:
        out[f"{m}.self_s"] = (sum(funcs.get(s, (0, 0.0))[1] for s in SPAN_NAMES if s.startswith(m + ".")) / n, "s")
    candidates = total.get("candidates", 0)
    out["freeness.search.hit_ratio"] = (total.get("found", 0) / candidates if candidates else 0.0, "ratio")
    walls = {flag: [r.wall_s * r.scale for r, traced in passes if traced == flag] for flag in (False, True)}
    out["trace.overhead_ratio"] = (statistics.median(walls[True]) / statistics.median(walls[False]), "ratio")
    tasks = [t for r, _ in passes for t in r.tasks]
    out["failed_ratio"] = (sum(not t.ok for t in tasks) / len(tasks), "ratio")
    for name, lines in src_lines().items():
        out[name] = (lines, "lines")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hopforder benchmark")
    parser.add_argument("--workload", required=True, choices=("ladder", "induce", "enum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    error = _layout_error()
    if error:
        print(f"bench: {error}; run from the root of a hopforder checkout", file=sys.stderr)
        return 2

    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            make_workload(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setups = ([], 1.0) if args.trace else setup_samples(args.workload, args.seed)
        wl = make_workload(args.workload, args.seed, workdir)
        passes, tracer = measure(wl, args.seconds, bool(args.trace))
        if tracer is not None and tracer.spans:
            tracer.write(workdir / "spans.json")
    finally:
        for f in workdir.iterdir():
            if not f.name.startswith("spans"):
                f.unlink()
        if args.setup_probe or not any(workdir.iterdir()):
            shutil.rmtree(workdir, ignore_errors=True)

    tasks = [t for r, _ in passes for t in r.tasks]
    failed = [t for t in tasks if not t.ok]
    for t in failed[:20]:
        print(f"bench: failed {args.workload} task ({t.kind}): {t.error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, *setups)
    for name, (value, unit, *extra) in metrics.items():
        line = f"{name} = {value:.6g} {unit}"
        if extra:
            n, raw = extra
            line += f"  (n={n}, as measured {raw:.6g} {unit})"
        print(line)
    result = {
        "correct": not failed,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
