"""The four benchmark workloads.

Each workload has a ``setup`` that builds its inputs from the seed, a
``round`` that runs a fixed list of operations on them (every round of a
run repeats the same operations on the same inputs, so counts and failed
shares repeat exactly), and a ``selfcheck`` that shows its oracle can
fail. scenkit is reached only through the module namespace ``sk`` that
the runner imports, through public functions and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

#: Known faults of the program. An operation marked with one of these may
#: fail without making the run incorrect; any other failure does.
FAULTS = {
    "rural-speed-cap": "rural world formula bounds |vx| and |vy| separately, so a "
    "27.84 m/s red passes the 27.78 m/s cap",
    "dsl-prefix-revoked": "DSL reach prefixes of 199 and 200 samples get FALSE, yet the "
    "full trace is accepted",
    "trace-formula-recursion": "evaluate3 raises RecursionError on a 600-sample trace_formula",
}


class Recorder:
    """Times operations and counts attempts, failures and scenes.

    Every round repeats the same operations, so an operation is known by
    a key (by default its position in the round) and executed several
    times in a run. Each execution's wall time is scaled to the fixed
    host speed of ``clock`` (see clock.py), and an operation's latency
    is the median of its executions' scaled times. Attempts and failures
    count every execution.
    """

    def __init__(self, clock):
        self.clock = clock
        self.runs: dict = {}
        self.scenes: dict = {}
        self.spent = 0.0
        self.position = 0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple[str, str | None, str], int] = {}

    def start_round(self) -> None:
        self.position = 0

    def op(self, kind: str, fn: Callable, check: Callable, scenes: int,
           fault: str | None = None, key=None):
        """Run ``fn`` timed, then ``check`` its result untimed.

        ``check`` returns a description of what is wrong, or None.
        """
        key = (kind, self.position) if key is None else key
        self.position += 1
        self.attempted += 1
        result = None
        mark = self.clock.mark()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is a failed one
            problem = f"{type(exc).__name__}: {str(exc)[:120]}"
            scenes = 0
        else:
            problem = None
        dt, lo, hi = self.clock.since(mark)
        self.spent += dt
        self.runs.setdefault(key, []).append((dt, lo, hi))
        self.scenes[key] = scenes
        if problem is None:
            problem = check(result)
        if problem:
            self.failed += 1
            failure = (kind, fault, problem)
            self.failures[failure] = self.failures.get(failure, 0) + 1
        return result

    def latencies(self) -> dict:
        """Each operation's median scaled time, in seconds. Call it once
        the clock is closed."""
        scale = self.clock.scale
        return {key: statistics.median(dt * scale(lo, hi) for dt, lo, hi in runs)
                for key, runs in self.runs.items()}

    @property
    def unexpected(self) -> list[str]:
        return [f"{k}: {p} (x{c})" for (k, f, p), c in self.failures.items() if f is None]


def cli(sk, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns the exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sk.cli.main(argv)
    return code, buf.getvalue()


def _payload(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    round: Callable
    selfcheck: Callable


# --- logical-sampling -----------------------------------------------------------

#: Per round: SPEED_BATCHES cheap speed_choices batches, SLOPE_BATCHES
#: slope batches, then INVERTS inverts of traces those batches wrote. With
#: as many inverts as speed batches (k) and 3k + 4 slope batches, the
#: median operation falls mid-way through the slope batches and the 90th
#: percentile mid-way through the inverts, away from the jumps in cost
#: between kinds, so neither flips between kinds from run to run; k = 20
#: gives 104 operations, ten of them above the 90th percentile.
SPEED_BATCHES = 20
SLOPE_BATCHES = 64
INVERTS = 20
BATCH_COUNT = 5
INVERT_TOL = 1e-6
SLOPE_ROWS = 101  # 10 s at 0.1 s
SPEED_ROWS = 5  # 2 s at 0.5 s


def logical_setup(sk, root: Path, seed: int, tmp: Path) -> dict:
    assets = root / "src" / "scenkit" / "assets"
    slope, straight = assets / "slope_drive.scn", assets / "straight_drive.scn"
    if "slope_drive" not in sk.dsl.load(slope.read_text(encoding="utf-8")).logicals:
        raise RuntimeError("slope_drive.scn has no slope_drive scenario")
    if "speed_choices" not in sk.dsl.load(straight.read_text(encoding="utf-8")).logicals:
        raise RuntimeError("straight_drive.scn has no speed_choices scenario")
    rng = random.Random(seed)
    slope_seeds = [rng.randrange(2**31) for _ in range(SLOPE_BATCHES)]
    speed_seeds = [rng.randrange(2**31) for _ in range(SPEED_BATCHES)]
    inverts = [(b, rng.randrange(BATCH_COUNT)) for b in rng.sample(range(SLOPE_BATCHES), INVERTS)]
    return {"slope": str(slope), "straight": str(straight), "slope_seeds": slope_seeds,
            "speed_seeds": speed_seeds, "inverts": inverts}


def _check_batch(out: Path, result, rows: int, header: list[str], lines_of) -> str | None:
    code, text = result
    if code != 0 or _payload(text).get("count") != BATCH_COUNT:
        return f"exit {code}: {text.strip()[:120]}"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if len(manifest["samples"]) != BATCH_COUNT:
        return f"manifest lists {len(manifest['samples'])} samples"
    for entry in manifest["samples"]:
        lines = lines_of(entry["x"])
        if isinstance(lines, str):
            return lines
        problem = oracles.linear_trace_problem(
            *oracles.read_csv(out / entry["trace"]), header, rows, lines
        )
        if problem:
            return f"{entry['trace']}: {problem}"
    return None


def _slope_lines(x):
    """pos(t) = rate * t for a rate drawn from [1, 3]."""
    rate = x["rate"]
    return {"pos": (rate, 0.0)} if 1.0 <= rate <= 3.0 else f"rate {rate} outside [1, 3]"


def _speed_lines(x):
    """x(t) = v * t from the origin, v in {5, 10, 15}. The model drives
    only x and y, so vx and vy keep their start value 0."""
    v = x["v"]
    if v not in (5.0, 10.0, 15.0):
        return f"speed {v} not in {{5, 10, 15}}"
    return {"x": (v, 0.0), "y": (0.0, 0.0), "vx": (0.0, 0.0), "vy": (0.0, 0.0)}


def _check_invert(trace: Path, result) -> str | None:
    code, text = result
    payload = _payload(text)
    if code != 0 or not payload.get("found"):
        return f"exit {code}: {text.strip()[:120]}"
    manifest = json.loads((trace.parent / "manifest.json").read_text(encoding="utf-8"))
    rate = next(e["x"]["rate"] for e in manifest["samples"] if e["trace"] == trace.name)
    got = payload["x"]["rate"]
    return _expect(abs(got - rate) <= INVERT_TOL, f"recovered rate {got} vs drawn {rate}")


def logical_round(sk, st: dict, rec: Recorder, work: Path) -> None:
    for b, seed in enumerate(st["speed_seeds"]):
        out = work / f"speed-{b}"
        argv = ["sample-logical", st["straight"], "--scenario", "speed_choices", "--count",
                str(BATCH_COUNT), "--seed", str(seed), "--out-dir", str(out)]
        rec.op("sample-logical speed", partial(cli, sk, argv),
               partial(_check_batch, out, rows=SPEED_ROWS, header=["t", "x", "y", "vx", "vy"],
                       lines_of=_speed_lines),
               BATCH_COUNT * SPEED_ROWS)
    for b, seed in enumerate(st["slope_seeds"]):
        out = work / f"slope-{b}"
        argv = ["sample-logical", st["slope"], "--scenario", "slope_drive", "--count",
                str(BATCH_COUNT), "--seed", str(seed), "--out-dir", str(out)]
        rec.op("sample-logical slope", partial(cli, sk, argv),
               partial(_check_batch, out, rows=SLOPE_ROWS, header=["t", "pos"],
                       lines_of=_slope_lines),
               BATCH_COUNT * SLOPE_ROWS)
    for b, j in st["inverts"]:
        trace = work / f"slope-{b}" / f"sample-{j:05d}.csv"
        argv = ["invert", st["slope"], "--scenario", "slope_drive", "--trace", str(trace),
                "--tol", str(INVERT_TOL)]
        rec.op("invert", partial(cli, sk, argv), partial(_check_invert, trace), SLOPE_ROWS)


def logical_selfcheck(sk, st: dict) -> list[str]:
    rows = [[i * 0.1, 2.0 * i * 0.1] for i in range(SLOPE_ROWS)]
    lines = {"pos": (2.0, 0.0)}
    good = oracles.linear_trace_problem(["t", "pos"], rows, ["t", "pos"], SLOPE_ROWS, lines)
    rows[50][1] += 1e-8
    bad = oracles.linear_trace_problem(["t", "pos"], rows, ["t", "pos"], SLOPE_ROWS, lines)
    return [] if good is None and bad else ["slope oracle misses a 1e-8 deviation"]


# --- rural-synthesis ------------------------------------------------------------

RURAL_N, RURAL_M = 3, 2
#: Per round: RURAL_CHOICES choices, a perturbed copy after every
#: PERTURB_EVERY-th, and SYNTH_CLI_CALLS CLI synth-rural calls of
#: SYNTH_CLI_LIMIT choices each (the same work through the CLI, about twice
#: a choice's cost). A round stays near two seconds, so each operation runs
#: about ten times in a run; the median falls among the choices and the
#: 90th percentile among the CLI calls, not on the luckiest tail of
#: near-identical choices, which moved with the host's slow phases.
RURAL_CHOICES = 40
PERTURB_EVERY = 10
SYNTH_CLI_CALLS = 12
SYNTH_CLI_LIMIT = 2
SPEEDING_RED0 = (27.77, 2.0)  # |v| = 27.84 m/s, over the 27.78 m/s cap


def rural_setup(sk, root: Path, seed: int, tmp: Path) -> dict:
    cfg = sk.rural.RuralConfig(n=RURAL_N, m=RURAL_M)
    grid = sk.rural.suggested_grid(cfg)
    scenario = sk.rural.rural_formula(cfg, grid)
    choices = sk.rural.enumerate_choices(RURAL_N, RURAL_M)
    expected = math.factorial(RURAL_N) ** 2 * math.comb(RURAL_M + RURAL_N, RURAL_N)
    problems = [] if len(choices) == expected else [
        f"enumerate_choices gave {len(choices)} choices, (n!)^2*C(m+n, n) = {expected}"
    ]
    caps = {"v_tractor_max": cfg.v_tractor_max, "v_car_max": cfg.v_car_max,
            "gap_min": cfg.gap_min, "lane_we_y": cfg.lane_we_y}
    picked = random.Random(seed).sample(choices, RURAL_CHOICES)
    return {"cfg": cfg, "grid": grid, "scenario": scenario, "picked": picked,
            "cli_choices": choices[:SYNTH_CLI_LIMIT], "caps": caps,
            "setup_problems": problems, "passed": {}, "flagged": {}}


def _triple(choice):
    return choice.overtake_order, choice.blue_passes, choice.final_order


def _trajectory_columns(traj) -> dict[str, list[float]]:
    names = traj.schema.names
    return {name: [s.values[i] for s in traj.samples] for i, name in enumerate(names)}


def _perturbed(sk, traj):
    """Copy of a rural trajectory with red0 speeding at the middle sample."""
    mid = len(traj.samples) // 2
    scene = traj.samples[mid]
    vx, vy = SPEEDING_RED0
    samples = list(traj.samples)
    samples[mid] = scene.replace(red0_vx=vx, red0_vy=vy)
    return sk.core.Trajectory(traj.schema, traj.grid, tuple(samples))


def _synth_monitor_write(sk, st, choice, path):
    traj = sk.rural.synthesize(choice, st["cfg"], st["grid"])
    verdict = sk.monitoring.monitor_word(traj, st["scenario"])
    sk.traceio.write_trace(traj, path)
    return traj, verdict.value


def _check_choice(st, key, choice, path, result) -> str | None:
    """Full property check of the written trace. A later round writes the
    same bytes for the same choice, so a trace whose digest matches one
    that passed is accepted on the digest: the check stays complete and
    costs little, which leaves time for more rounds."""
    _, verdict = result
    if verdict != "accepted":
        return f"synthesized trace {verdict}"
    return _check_rural_csv(st, key, choice, path)


def _check_rural_csv(st, key, choice, path) -> str | None:
    digest = hashlib.sha256(path.read_bytes()).digest()
    if st["passed"].get(key) == digest:
        return None
    header, rows = oracles.read_csv(path)
    if len(rows) != st["grid"].count:
        return f"{len(rows)} rows written, grid has {st['grid'].count}"
    problems = oracles.rural_problems(oracles.columns(header, rows), RURAL_N, RURAL_M,
                                      st["caps"], _triple(choice))
    if problems:
        return "; ".join(problems)
    st["passed"][key] = digest
    return None


def _check_synth_cli(st, j, out, result) -> str | None:
    code, text = result
    want = {"n": RURAL_N, "m": RURAL_M, "synthesized": SYNTH_CLI_LIMIT,
            "accepted": SYNTH_CLI_LIMIT}
    if code != 0 or _payload(text) != want:
        return f"synth-rural exit {code}: {text.strip()[:120]}"
    names = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["traces"]
    if len(names) != SYNTH_CLI_LIMIT:
        return f"manifest lists {len(names)} traces"
    for k, (name, choice) in enumerate(zip(names, st["cli_choices"])):
        problem = _check_rural_csv(st, ("cli", j, k), choice, out / name)
        if problem:
            return f"{name}: {problem}"
    return None


def _check_perturbed(expected: str, verdict) -> str | None:
    return _expect(verdict.value == expected, f"perturbed trace {verdict.value}, expected {expected}")


def rural_round(sk, st: dict, rec: Recorder, work: Path) -> None:
    scenes = st["grid"].count
    for i, choice in enumerate(st["picked"]):
        path = work / f"choice-{i:03d}.csv"
        result = rec.op("synthesize+monitor+write", partial(_synth_monitor_write, sk, st, choice, path),
                        partial(_check_choice, st, i, choice, path), scenes)
        if result is None or i % PERTURB_EVERY != PERTURB_EVERY - 1:
            continue
        bad = _perturbed(sk, result[0])
        if i not in st["flagged"]:
            st["flagged"][i] = bool(oracles.rural_problems(
                _trajectory_columns(bad), RURAL_N, RURAL_M, st["caps"], _triple(choice)))
        expected = "rejected" if st["flagged"][i] else "accepted"
        rec.op("monitor perturbed", partial(sk.monitoring.monitor_word, bad, st["scenario"]),
               partial(_check_perturbed, expected), scenes, fault="rural-speed-cap")
    for j in range(SYNTH_CLI_CALLS):
        out = work / f"cli-{j}"
        argv = ["synth-rural", "--n", str(RURAL_N), "--m", str(RURAL_M),
                "--limit", str(SYNTH_CLI_LIMIT), "--out-dir", str(out)]
        rec.op("cli synth-rural", partial(cli, sk, argv), partial(_check_synth_cli, st, j, out),
               SYNTH_CLI_LIMIT * scenes)


def rural_selfcheck(sk, st: dict) -> list[str]:
    choice = st["picked"][0]
    traj = sk.rural.synthesize(choice, st["cfg"], st["grid"])
    clean = oracles.rural_problems(_trajectory_columns(traj), RURAL_N, RURAL_M,
                                   st["caps"], _triple(choice))
    flagged = oracles.rural_problems(_trajectory_columns(_perturbed(sk, traj)), RURAL_N,
                                     RURAL_M, st["caps"], _triple(choice))
    out = [f"rural oracle rejects a synthesized trace: {clean}"] if clean else []
    if not any(p.startswith("red0 speed") for p in flagged):
        out.append("rural oracle misses the speeding red0")
    return out + st["setup_problems"]


# --- trace-monitoring -----------------------------------------------------------

DRIVE_START = (-50.0, 100.0, 10.0, -5.0)
TARGETS = ((150.0, 0.0, 10.0, -5.0), (0.0, 0.0, 0.0, 0.0))
FULL_LENGTH = 201
#: Seeded prefix lengths: one per stratum of 2..198, so their sum (the
#: scenes read) hardly moves with the seed; 199 and 200 are always fed.
PREFIX_STRATA = 8
FIXED_PREFIXES = (199, 200)
LONG_WORD = 600


def _constant_velocity(sk, start, velocity, count):
    """Trace x += vx * 0.1 per step, the quantized instance's own arithmetic."""
    schema = sk.fixtures.planar_schema()
    x, y = start
    vx, vy = velocity
    samples = []
    for _ in range(count):
        samples.append(sk.core.Scene(schema, (x, y, vx, vy)))
        x, y = x + vx * 0.1, y + vy * 0.1
    return sk.core.Trajectory(schema, sk.core.TimeGrid(0.1, count), tuple(samples))


def monitoring_setup(sk, root: Path, seed: int, tmp: Path) -> dict:
    spec = root / "src" / "scenkit" / "assets" / "straight_drive.scn"
    if "reach" not in sk.dsl.load(spec.read_text(encoding="utf-8")).abstracts:
        raise RuntimeError("straight_drive.scn has no reach scenario")
    rng = random.Random(seed)
    fx = sk.fixtures
    streams = {"straight": fx.straight_drive_trajectory(),
               "stop": fx.stop_at_origin_trajectory(),
               "wrong-start": fx.wrong_start_trajectory()}
    tmp.mkdir(parents=True, exist_ok=True)
    width = (198 - 2 + 1) / PREFIX_STRATA
    lengths = [rng.randint(2 + math.ceil(k * width), 1 + math.ceil((k + 1) * width))
               for k in range(PREFIX_STRATA)] + list(FIXED_PREFIXES)
    straight = streams["straight"]
    prefixes = {}
    for k in lengths:
        path = tmp / f"prefix-{k:03d}.csv"
        sk.traceio.write_trace(sk.core.prefix(straight, straight.grid.t(k - 1)), path)
        prefixes[k] = path
    fulls = []
    for name, traj in streams.items():
        path = tmp / f"full-{name}.csv"
        sk.traceio.write_trace(traj, path)
        fulls.append((name, path))
    velocity = (rng.randint(-20, 20) / 2, rng.randint(-20, 20) / 2)
    words = [_constant_velocity(sk, (rng.randint(-50, 50), rng.randint(-50, 50)), velocity,
                                FULL_LENGTH),
             _constant_velocity(sk, (0.0, 0.0), (5.0, -2.5), LONG_WORD)]
    expected = {name: oracles.expected_stream_verdicts(
        [s.values for s in traj.samples], DRIVE_START, TARGETS) for name, traj in streams.items()}
    return {"spec": str(spec), "scenario": fx.reach_or_stop_scenario(), "streams": streams,
            "expected": expected, "prefixes": prefixes, "fulls": fulls, "words": words}


def _check_prefix(k: int, result) -> str | None:
    code, text = result
    payload = _payload(text)
    ok = code == 2 and payload.get("verdict") == "unknown" and payload.get("fed") == k
    return _expect(ok, f"prefix of {k}: exit {code} {payload}, expected unknown")


def _check_full(name: str, result) -> str | None:
    code, text = result
    payload = _payload(text)
    if name == "wrong-start":
        ok = (code == 1 and payload.get("verdict") == "rejected"
              and payload.get("first_violation_time") == 0)
    else:
        ok = code == 0 and payload.get("verdict") == "accepted"
    return _expect(ok, f"{name}: exit {code} {payload}")


def _word_check(sk, traj):
    inst = sk.logic.quantized_motion_instance(
        traj.schema, accels=(-2.0, 0.0, 2.0), step=0.1, horizon=len(traj.samples) - 1,
        probe_scenes=(traj.samples[0],))
    scenario = sk.logic.AbstractScenario(sk.logic.trace_formula(traj), (), inst)
    return sk.monitoring.monitor_word(traj, scenario)


class _Stream:
    """A StreamMonitor over one fixture trace, fed in chunks of operations."""

    def __init__(self, sk, st: dict, name: str):
        self.name = name
        self.samples = st["streams"][name].samples
        self.expected = st["expected"][name]
        self.mon = sk.monitoring.StreamMonitor(st["scenario"])
        self.last = None
        self.fed = 0

    def feed(self, rec: Recorder, upto: int) -> None:
        """Feed scenes up to ``upto``; step i of a trace is one operation
        whichever monitor over that trace takes it."""
        for i in range(self.fed, upto):
            rec.op(f"stream step ({self.name})", partial(self.mon.step, self.samples[i]),
                   partial(self._check, self.expected[i]), 1, key=(self.name, i))
        self.fed = upto

    def _check(self, expected: str, verdict) -> str | None:
        got, before = verdict.value, self.last
        self.last = got
        if before in ("true", "false") and got != before:
            return f"verdict left {before} for {got}"
        return _expect(got == expected, f"verdict {got}, expected {expected}")


def monitoring_round(sk, st: dict, rec: Recorder, work: Path) -> None:
    """The cheap stream steps, whose cost grows with the prefix and which
    set p50 and p90, run several times at moments spread over the ~30 s
    round, between the heavy operations (the 199-sample prefix and the
    explorations at straight steps 195-198): the stop-at-origin stream
    is fed to four monitors, and the straight stream up to step 194 to
    three, one of which goes on to the end."""
    def prefix(k):
        argv = ["monitor", st["spec"], "--scenario", "reach", "--trace", str(st["prefixes"][k])]
        rec.op("monitor prefix", partial(cli, sk, argv), partial(_check_prefix, k), k,
               fault="dsl-prefix-revoked" if k in FIXED_PREFIXES else None)

    straight = _Stream(sk, st, "straight")
    _Stream(sk, st, "stop").feed(rec, FULL_LENGTH)
    straight.feed(rec, 100)
    _Stream(sk, st, "straight").feed(rec, 195)
    for k in st["prefixes"]:
        if k not in FIXED_PREFIXES:
            prefix(k)
    for name, path in st["fulls"]:
        argv = ["monitor", st["spec"], "--scenario", "reach", "--trace", str(path)]
        rec.op("monitor full", partial(cli, sk, argv), partial(_check_full, name), FULL_LENGTH)
    prefix(199)
    _Stream(sk, st, "stop").feed(rec, FULL_LENGTH)
    straight.feed(rec, 195)
    for traj in st["words"]:
        n = len(traj.samples)
        rec.op(f"trace_formula word ({n})", partial(_word_check, sk, traj),
               lambda v: _expect(v.value == "accepted", f"own trace_formula {v.value}"), n,
               fault="trace-formula-recursion" if n == LONG_WORD else None)
    straight.feed(rec, 196)
    _Stream(sk, st, "stop").feed(rec, FULL_LENGTH)
    _Stream(sk, st, "straight").feed(rec, 195)
    straight.feed(rec, FULL_LENGTH)
    _Stream(sk, st, "stop").feed(rec, FULL_LENGTH)
    prefix(200)
    _Stream(sk, st, "wrong-start").feed(rec, FULL_LENGTH)


def monitoring_selfcheck(sk, st: dict) -> list[str]:
    rule = oracles.expected_stream_verdicts
    still = [DRIVE_START] * 5
    reach = still[:3] + [TARGETS[0]] + still[:1]
    near = [tuple(v + 2e-6 * (i == 0) for i, v in enumerate(TARGETS[0]))]
    out = []
    if rule(reach, DRIVE_START, TARGETS) != ["unknown"] * 3 + ["true"] * 2:
        out.append("verdict rule misplaces the step a target is observed")
    if rule(still[:3] + near + still[:1], DRIVE_START, TARGETS) != ["unknown"] * 5:
        out.append("verdict rule accepts a target 2e-6 away")
    if rule([TARGETS[1]] + reach, DRIVE_START, TARGETS) != ["false"] * 6:
        out.append("verdict rule misses a wrong start")
    return out


# --- abstract-enumeration -------------------------------------------------------

BINARY_NS = range(1, 17)
WALK_HORIZON = 8
WALK_DELTAS = (-1.0, 0.0, 1.0)
#: Seeded sample_abstract calls: strategy -> (calls, walks drawn per call),
#: and DEMO_CALLS CLI demo-spec-complexity calls at n = DEMO_N. The 90
#: cheap uniform-branch calls form the cluster the median operation falls
#: in, and the demo calls with binary(11) the cluster the 90th percentile
#: falls in (seven operations cost more), so neither sits on a jump in
#: cost, such as the doubling from one binary enumeration to the next.
#: A uniform-branch call draws ten walks, not five: a call's cost depends
#: on the walks it draws, and at five the cluster's median moved with the
#: seed.
SAMPLES = {"uniform-leaf": (1, 20), "uniform-branch": (90, 10), "rejection": (10, 5)}
DEMO_N = 11
DEMO_CALLS = 10


def _in_box(v: float) -> bool:
    return -3.0 <= v <= 3.0


def _at_goal(v: float) -> bool:
    return v == 2.0


def enumeration_setup(sk, root: Path, seed: int, tmp: Path) -> dict:
    spec = root / "src" / "scenkit" / "assets" / "straight_drive.scn"
    if "speed_choices" not in sk.dsl.load(spec.read_text(encoding="utf-8")).logicals:
        raise RuntimeError("straight_drive.scn has no speed_choices scenario")
    core, f = sk.core, sk.formulas
    schema = core.schema_of(("d0", "dimensionless"))
    inst = sk.logic.delta_step_instance(
        schema, [(d,) for d in WALK_DELTAS], 1.0, WALK_HORIZON,
        [core.Scene(schema, (0.0,))], id="walk")
    constraint = f.And(f.Always(f.pred(d0=(-3.0, 3.0))), f.Eventually(f.pred(d0=(2.0, 2.0))))
    rng = random.Random(seed)
    samples = [(s, draws, rng.randrange(2**31)) for s, (calls, draws) in SAMPLES.items()
               for _ in range(calls)]
    leaves = oracles.count_paths([0.0], lambda v: [v + d for d in WALK_DELTAS],
                                 WALK_HORIZON + 1, _in_box, _at_goal)
    return {"spec": str(spec), "walk": sk.logic.AbstractScenario(constraint, (), inst),
            "walk_leaves": leaves, "samples": samples}


def _check_binary(n: int, leaves) -> str | None:
    keys = {tuple(s.values[0] for s in t.samples) for t in leaves}
    ok = len(leaves) == len(keys) == 2**n and all(
        len(k) == n and set(k) <= {0.0, 1.0} for k in keys)
    return _expect(ok, f"binary n={n}: {len(leaves)} leaves, {len(keys)} distinct")


def _check_walks(count: int | None, trajs) -> str | None:
    keys = [tuple(s.values[0] for s in t.samples) for t in trajs]
    if count is not None and (len(keys) != count or len(set(keys)) != count):
        return f"{len(keys)} leaves ({len(set(keys))} distinct), dynamic program says {count}"
    for k in keys:
        problem = oracles.delta_path_problem(k, 0.0, WALK_DELTAS, WALK_HORIZON + 1,
                                             _in_box, _at_goal)
        if problem:
            return problem
    return None


def _check_encode(result) -> str | None:
    code, text = result
    p = _payload(text)
    ok = (code == 0 and p.get("match") is True and p.get("scenario_count") == 3
          and p.get("x_count") == 3)
    return _expect(ok, f"encode-logical exit {code} {p}")


def _check_demo(result) -> str | None:
    code, text = result
    p = _payload(text)
    return _expect(code == 0 and p == {"n": DEMO_N, "leaves": 2**DEMO_N},
                   f"demo-spec-complexity exit {code} {p}")


def enumeration_round(sk, st: dict, rec: Recorder, work: Path) -> None:
    logic = sk.logic
    for n in BINARY_NS:
        rec.op(f"enumerate binary({n})",
               lambda n=n: logic.enumerate_scenarios(logic.binary_scenarios(n)),
               partial(_check_binary, n), 2**n * n)
    walk_len = WALK_HORIZON + 1
    rec.op("enumerate walk", partial(logic.enumerate_scenarios, st["walk"]),
           partial(_check_walks, st["walk_leaves"]), st["walk_leaves"] * walk_len)
    for strategy, draws, seed in st["samples"]:
        rec.op(f"sample_abstract {strategy}",
               partial(logic.sample_abstract, st["walk"], draws, strategy, seed),
               lambda trajs, draws=draws: _expect(len(trajs) == draws, f"{len(trajs)} samples")
               or _check_walks(None, trajs), draws * walk_len)
    rec.op("cli encode-logical",
           partial(cli, sk, ["encode-logical", st["spec"], "--scenario", "speed_choices"]),
           _check_encode, 3 * SPEED_ROWS)
    for _ in range(DEMO_CALLS):
        rec.op("cli demo-spec-complexity",
               partial(cli, sk, ["demo-spec-complexity", "--n", str(DEMO_N)]),
               _check_demo, 2**DEMO_N * DEMO_N)


def enumeration_selfcheck(sk, st: dict) -> list[str]:
    out = []
    for n in BINARY_NS:
        if oracles.count_paths([0.0, 1.0], lambda v: (0.0, 1.0), n, lambda v: True) != 2**n:
            out.append(f"path count for the unconstrained binary({n}) is not 2^{n}")
    brute = 0
    for steps in itertools.product(WALK_DELTAS, repeat=WALK_HORIZON):
        values = list(itertools.accumulate(steps, initial=0.0))
        brute += all(map(_in_box, values)) and any(map(_at_goal, values))
    if brute != st["walk_leaves"]:
        out.append(f"walk path count {st['walk_leaves']} != brute force {brute}")
    if oracles.count_paths([0.0], lambda v: [v + d for d in WALK_DELTAS], WALK_HORIZON + 1,
                           lambda v: True) != 3**WALK_HORIZON:
        out.append("unconstrained walk count is not 3^horizon")
    return out


#: Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("logical-sampling", logical_setup, logical_round, logical_selfcheck),
        Workload("rural-synthesis", rural_setup, rural_round, rural_selfcheck),
        Workload("trace-monitoring", monitoring_setup, monitoring_round, monitoring_selfcheck),
        Workload("abstract-enumeration", enumeration_setup, enumeration_round,
                 enumeration_selfcheck),
    )
}
