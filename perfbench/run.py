"""scenkit benchmark: four workloads, end-to-end and per-layer metrics.

One workload, its end-to-end metrics (``--trace 0``) or its per-layer
metrics (``--trace 1``), as a JSON object on the last line of stdout:

    python3 perfbench/run.py --workload trace-monitoring --seed 1 --seconds 25 --trace 0

Every workload, each in a fresh process, as a table:

    python3 perfbench/run.py --seed 1 --seconds 25

The scenkit under test is the one in ``src/`` next to this directory.
All outputs go to a temporary directory inside the checkout, removed at
the end. See README.md for the workloads, metrics and known faults.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import clock
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-ups per run; setup_s is the median of their scaled times.
SETUP_REPEATS = 9

#: Every module the workloads and the tracer reach.
MODULES = ("core", "traceio", "dynamics", "logical", "formulas", "logic", "monitoring",
           "rural", "dsl", "cli", "fixtures")

UNITS = {"setup_s": "s", "scenes_per_s": "scenes/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mib": "MiB", "trace.overhead_pct": "%"}


def _scenkit_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "scenkit" or n.startswith("scenkit.")}


def import_scenkit():
    """A fresh import of scenkit's modules, so each set-up pays for it."""
    for name in _scenkit_modules():
        del sys.modules[name]
    ns = argparse.Namespace()
    for mod in MODULES:
        setattr(ns, mod, importlib.import_module(f"scenkit.{mod}"))
    return ns


def timed_setup(wl, seed: int, inputs: Path, clk):
    """Import scenkit afresh and build the workload's inputs; returns the
    interval taken (``clk.since``), the module namespace and the workload
    state."""
    mark = clk.mark()
    sk = import_scenkit()
    state = wl.setup(sk, ROOT, seed, inputs)
    return clk.since(mark), sk, state


def repeat_setup(wl, seed: int, inputs: Path, clk) -> tuple[float, int, int]:
    """A further set-up, timed only: afterwards sys.modules holds the
    modules the rounds use again, so lazy imports inside scenkit keep
    resolving to them."""
    saved = _scenkit_modules()
    try:
        return timed_setup(wl, seed, inputs, clk)[0]
    finally:
        for name in _scenkit_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def run_rounds(wl, sk, state, rec, tmp: Path, seconds: float, on_round=None) -> list[float]:
    """Whole rounds until the next one would end after ``seconds``; at
    least one. Returns the operation time of each round, scaled by the
    clock's calibrations during the round; ``on_round`` gets that scale.
    ``seconds`` is reckoned without the time calibrations take.

    Every round writes the same files into one directory: overwriting
    in place keeps file-system create/unlink latency out of the figures
    (on ext4 mounted with ``discard`` on a virtual disk it made the same
    CLI call about three times slower and far noisier).
    """
    clk = rec.clock
    start = clk.now()
    op_times = []
    work = tmp / "round"
    work.mkdir(exist_ok=True)
    while True:
        mark, spent = clk.mark(), rec.spent
        rec.start_round()
        wl.round(sk, state, rec, work)
        last, lo, hi = clk.since(mark)
        scale = clk.scale(lo, hi)
        op_times.append((rec.spent - spent) * scale)
        if on_round is not None:
            on_round(scale)
        if clk.now() - start + last > seconds:
            return op_times


def end_to_end(rec, setup_times) -> dict[str, float]:
    """Every timing scaled by the clock; call once it is closed."""
    lat = list(rec.latencies().values())
    scale = rec.clock.scale
    return {
        "setup_s": statistics.median(taken * scale(lo, hi) for taken, lo, hi in setup_times),
        "scenes_per_s": sum(rec.scenes.values()) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, sk, state, rec, tmp: Path, seconds: float) -> dict[str, float]:
    """One untraced round, then traced rounds; medians over traced rounds.
    Times are scaled by the clock's calibrations during their round."""
    start = rec.clock.now()
    plain = run_rounds(wl, sk, state, rec, tmp, 0)[0]
    tr = tracing.Tracer(rec.clock.now)
    rounds = []
    undo = tracing.install(tr, sk)
    try:
        def collect(scale):
            rounds.append({k: v * scale if k in tracing.TIME_METRICS else v
                           for k, v in tr.metrics().items()})
            tr.reset()

        traced = run_rounds(wl, sk, state, rec, tmp, seconds - (rec.clock.now() - start),
                            on_round=collect)
    finally:
        tracing.uninstall(undo)
    out = {name: statistics.median(r[name] for r in rounds) for name in tracing.TIME_METRICS}
    out.update({name: statistics.median_low(r[name] for r in rounds)
                for name in tracing.COUNT_METRICS})
    out["trace.overhead_pct"] = (statistics.median(traced) / plain - 1) * 100
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    clk = clock.Clock()
    try:
        setup_s, sk, state = timed_setup(wl, seed, tmp / "inputs", clk)
        oracle_problems = wl.selfcheck(sk, state)
        rec = workloads.Recorder(clk)
        if trace:
            metrics = per_layer(wl, sk, state, rec, tmp, seconds)
        else:
            # The further set-ups are spread over the run, between rounds,
            # so setup_s samples the machine at several moments.
            setup_times = [setup_s]
            start = clk.now()

            def between_rounds(_scale):
                due = len(setup_times) * seconds / SETUP_REPEATS
                if len(setup_times) < SETUP_REPEATS and clk.now() - start >= due:
                    setup_times.append(repeat_setup(wl, seed, tmp / "setup", clk))

            run_rounds(wl, sk, state, rec, tmp, seconds, on_round=between_rounds)
            while len(setup_times) < SETUP_REPEATS:
                setup_times.append(repeat_setup(wl, seed, tmp / "setup", clk))
    finally:
        clk.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    if not trace:
        metrics = end_to_end(rec, setup_times)
    for problem in oracle_problems + rec.unexpected:
        print(f"{name}: {problem}", file=sys.stderr)
    for (kind, fault, problem), count in rec.failures.items():
        if fault is not None:
            print(f"{name}: known fault {fault} ({workloads.FAULTS[fault]}): {kind}: {problem} "
                  f"(x{count})", file=sys.stderr)
    result = {
        "correct": not oracle_problems and not rec.unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or _layer_unit(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    return "s" if name in tracing.TIME_METRICS else "count"


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; a table of what they print."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<28} {m['value']:>16.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scenkit" / "__init__.py").is_file():
        print(f"no scenkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
