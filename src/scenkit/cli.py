"""Command-line surface tying the modules together.

Every command prints one machine-readable summary JSON object on stdout;
files land under --out-dir. Exit codes: 0 success (for monitor: verdict
accepted/definitely-true), 1 rejected/false or domain error, 2 unknown
verdict, 64 usage errors, 65 spec diagnostics, 66 unreadable input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

from . import dsl, rural, traceio
from .errors import ScenarioError
from .formulas import TrueFormula, Verdict3
from .logic import (
    AbstractScenario,
    binary_scenarios,
    count_scenarios,
    encode_logical,
    enumerate_scenarios,
    sample_abstract,
)
from .logical import invert, realize, sample, Found
from .monitoring import Verdict, monitor_prefix, monitor_word, monitor_word_report

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is >= 64
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """An argument that counts things: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {n}")
    return n


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _fail(code: int, error: str, **extra) -> int:
    _emit({"error": error, **extra})
    return code


class _UnknownScenario(Exception):
    """``--scenario`` names no scenario of the spec."""


def _scenario(args, table: dict):
    """The scenario of ``table`` that ``--scenario`` names."""
    if args.scenario not in table:
        raise _UnknownScenario(args.scenario)
    return table[args.scenario]


def _load_spec(path: str) -> dsl.ResolvedSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError(str(exc)) from exc
    return dsl.load(text)


def _cmd_validate(args) -> int:
    # Unreadable files and diagnostics are reported by main's handlers.
    spec = _load_spec(args.spec)
    _emit(
        {
            "ok": True,
            "schemas": sorted(spec.schemas),
            "logicals": sorted(spec.logicals),
            "abstracts": sorted(spec.abstracts),
            "fixtures": sorted(spec.fixtures),
        }
    )
    return 0


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_traces(out: Path, stem: str, trajs) -> list[str]:
    """Write each trajectory as it comes, to ``<stem>-00000.csv``, … under
    ``out``; the file names."""
    names = []
    for i, traj in enumerate(trajs):
        names.append(f"{stem}-{i:05d}.csv")
        traceio.write_trace(traj, out / names[-1])
    return names


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _cmd_sample_logical(args) -> int:
    spec = _load_spec(args.spec)
    scenario = _scenario(args, spec.logicals)
    dist = spec.distributions.get(args.scenario)
    out = _out_dir(args)
    draws = sample(scenario, dist, args.count, args.seed)
    names = _write_traces(out, "sample", (traj for _, traj in draws))
    axis_names = [a.name for a in scenario.space.axes]
    samples = [{"x": dict(zip(axis_names, x)), "trace": n} for (x, _), n in zip(draws, names)]
    _write_json(out / "manifest.json", {"seed": args.seed, "samples": samples})
    _emit({"count": len(draws), "manifest": str(out / "manifest.json"), "seed": args.seed})
    return 0


def _cmd_sample_abstract(args) -> int:
    scenario = _scenario(args, _load_spec(args.spec).abstracts)
    out = _out_dir(args)
    traces = sample_abstract(scenario, args.count, args.strategy, args.seed)
    names = _write_traces(out, "sample", traces)
    _write_json(
        out / "manifest.json", {"seed": args.seed, "strategy": args.strategy, "samples": names}
    )
    _emit({"count": len(traces), "seed": args.seed, "strategy": args.strategy})
    return 0


def _cmd_enumerate(args) -> int:
    scenario = _scenario(args, _load_spec(args.spec).abstracts)
    out = _out_dir(args)
    leaves = enumerate_scenarios(scenario)
    _write_json(out / "index.json", {"scenarios": _write_traces(out, "scenario", leaves)})
    _emit({"count": len(leaves), "index": str(out / "index.json")})
    return 0


def _cmd_monitor(args) -> int:
    scenario = _scenario(args, _load_spec(args.spec).abstracts)
    try:
        trace = traceio.read_trace(args.trace, schema=scenario.instance.schema)
    except OSError as exc:
        return _fail(EX_NOINPUT, "io", detail=str(exc))
    full = scenario.instance.full_length()
    if len(trace.samples) == full:
        report = monitor_word_report(trace, scenario)
        violation = report.violation_index
        _emit(
            {
                "verdict": report.verdict.value,
                "first_violation_time": None
                if violation is None
                else violation * scenario.instance.step,
                "reason": report.reason,
            }
        )
        return 0 if report.verdict is Verdict.ACCEPTED else 1
    verdict = monitor_prefix(trace, scenario)
    _emit({"verdict": verdict.value, "fed": len(trace.samples), "full_length": full})
    if verdict is Verdict3.TRUE:
        return 0
    if verdict is Verdict3.FALSE:
        return 1
    return 2


def _cmd_invert(args) -> int:
    scenario = _scenario(args, _load_spec(args.spec).logicals)
    try:
        trace = traceio.read_trace(args.trace)
    except OSError as exc:
        return _fail(EX_NOINPUT, "io", detail=str(exc))
    result = invert(scenario, trace, args.tol)
    axis_names = [a.name for a in scenario.space.axes]
    if isinstance(result, Found):
        _emit(
            {
                "found": True,
                "x": dict(zip(axis_names, result.x)),
                "residual": result.residual,
            }
        )
    else:
        _emit(
            {
                "found": False,
                "best_x": dict(zip(axis_names, result.best_x)),
                "best_residual": result.best_residual,
            }
        )
    return 0


def _cmd_encode_logical(args) -> int:
    scenario = _scenario(args, _load_spec(args.spec).logicals)
    instance = encode_logical(scenario)
    leaves = enumerate_scenarios(AbstractScenario(TrueFormula(), (), instance))
    xs = sorted(itertools.product(*(a.values for a in scenario.space.axes)))
    realized = sorted(realize(scenario, x).sort_key() for x in xs)
    match = realized == sorted(t.sort_key() for t in leaves)
    _emit({"match": match, "x_count": len(xs), "scenario_count": len(leaves)})
    return 0 if match else 1


def _cmd_demo_complexity(args) -> int:
    _emit({"n": args.n, "leaves": count_scenarios(binary_scenarios(args.n))})
    return 0


def _cmd_count_rural(args) -> int:
    closed = rural.count_lower_bound(args.n, args.m)
    payload = {"n": args.n, "m": args.m, "closed_form": closed}
    if closed <= 1_000_000:
        payload["enumerated"] = len(rural.enumerate_choices(args.n, args.m))
    _emit(payload)
    return 0


def _cmd_synth_rural(args) -> int:
    cfg = rural.RuralConfig(n=args.n, m=args.m)
    grid = rural.suggested_grid(cfg)
    if args.limit is None:
        choices = rural.enumerate_choices(args.n, args.m)
    else:
        # Only the choices synthesized are built, so no guard applies.
        choices = itertools.islice(rural.iter_choices(args.n, args.m), args.limit)
    out = _out_dir(args)
    scenario = rural.rural_formula(cfg, grid)
    accepted = 0

    def synthesized():
        # Each trace is written as soon as it is synthesized, then monitored.
        nonlocal accepted
        for choice in choices:
            traj = rural.synthesize(choice, cfg, grid)
            yield traj
            accepted += monitor_word(traj, scenario) is Verdict.ACCEPTED

    names = _write_traces(out, "choice", synthesized())
    _write_json(out / "manifest.json", {"n": args.n, "m": args.m, "traces": names})
    _emit({"n": args.n, "m": args.m, "synthesized": len(names), "accepted": accepted})
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and then shared by every
    ``main`` call: a new one per call would be cyclic garbage."""
    parser = _Parser(prog="scenkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, func, help):
        """A command on one scenario of a spec file: ``spec --scenario NAME``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("spec")
        p.add_argument("--scenario", required=True)
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("validate", help="parse and resolve a spec file")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = scenario_command(
        "sample-logical", _cmd_sample_logical, "push-forward sampling of a logical scenario"
    )
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)

    p = scenario_command(
        "sample-abstract", _cmd_sample_abstract, "sample concrete scenarios from an abstract one"
    )
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--strategy",
        choices=("uniform-leaf", "uniform-branch", "rejection"),
        required=True,
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)

    p = scenario_command("enumerate", _cmd_enumerate, "enumerate an abstract scenario's set")
    p.add_argument("--out-dir", required=True)

    p = scenario_command("monitor", _cmd_monitor, "decide membership of a trace")
    p.add_argument("--trace", required=True)

    p = scenario_command("invert", _cmd_invert, "inverse-image analysis of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--tol", type=float, required=True)

    scenario_command(
        "encode-logical",
        _cmd_encode_logical,
        "encode a finite logical scenario and verify set equality",
    )

    p = sub.add_parser("demo-spec-complexity", help="binary branching scenario counts")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_demo_complexity)

    p = sub.add_parser("count-rural", help="rural overtaking choice counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_count_rural)

    p = sub.add_parser("synth-rural", help="synthesize rural overtaking trajectories")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--limit", type=_count, default=None)
    p.set_defaults(func=_cmd_synth_rural)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(EX_NOINPUT, "io", detail=str(exc))
    except _UnknownScenario:
        return _fail(1, "UnknownScenario", scenario=args.scenario)
    except dsl.ResolutionError as exc:
        _emit({"ok": False, "diagnostics": [d.render() for d in exc.diagnostics]})
        return EX_DATAERR
    except ScenarioError as exc:
        return _fail(1, type(exc).__name__, detail=str(exc))


if __name__ == "__main__":
    sys.exit(main())
