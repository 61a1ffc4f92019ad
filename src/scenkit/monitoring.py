"""Decision procedures for membership of concrete in abstract scenarios.

The word problem follows the given trajectory through the instance's
start set and successor relation instead of enumerating the scenario
set, and checks the conjoined formula, the only acceptance condition, on
the full trace. A rejected word's violation index is the last index of
its shortest prefix that holds an inadmissible scene or on which the
formula is FALSE; the CLI prints it, times the grid step, as
``first_violation_time``.

The prefix problem quantifies over all instance-valid horizon-length
completions of the prefix, with the formula as the acceptance condition,
which makes its TRUE and FALSE verdicts irrevocable under any
continuation the world permits. Exploration decides only worlds the
successors cover: no explicit ``allows`` and, for the empty prefix, a
finite start set. Elsewhere, as in the box worlds of the DSL and the
rural study, the verdict is the formula's own, UNKNOWN while it is
undecided. A TRUE verdict in explored worlds also needs one full-length
completion to exist, since a successor set may be empty. The stream
monitor latches accordingly.

Formula verdicts on a given trace come from one ``evaluate3`` pass: the
word problem's check of the full trace, the prefix problem's verdict on
the prefix, and each stream step, which decides the prefix fed so far.
Exploration below a prefix progresses the prefix once and carries the
residual formula in every tree node (see ``formulas.progress``), so a
node costs one scene. The stream monitor does not keep a residual
between steps yet: a step still costs a pass over the prefix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import Scene, Trajectory
from .errors import HorizonError, LengthError
from .formulas import FalseFormula, Formula, TrueFormula, Verdict3, evaluate3, progress
from .logic import (
    AbstractScenario,
    Node,
    Path,
    ScenarioLogicInstance,
    _check_conforms,
    _residual,
)

#: Node budget for prefix-tree exploration; exhaustion yields UNKNOWN.
DEFAULT_EXPLORE_BUDGET = 100_000


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass(frozen=True)
class WordReport:
    verdict: Verdict
    violation_index: int | None
    reason: str


def _verdict(inst: ScenarioLogicInstance, conj: Formula, samples: Path) -> Verdict3:
    """The formula's verdict on a prefix of one of the instance's paths,
    in one evaluate3 pass."""
    return evaluate3(conj, samples, inst.horizon, scene_tol=inst.scene_tol)


def _first_inadmissible(samples: Path, scenario: AbstractScenario) -> int | None:
    """Index of the first scene the instance does not admit, or None."""
    inst = scenario.instance
    if samples and not inst.allows_initial(samples[0]):
        return 0
    for i in range(1, len(samples)):
        if not inst.allows_step(samples[:i], samples[i]):
            return i
    return None


def _first_false(inst: ScenarioLogicInstance, conj: Formula, samples: Path) -> int:
    """Last index of the shortest FALSE prefix of a FALSE ``samples``,
    found by bisection: the verdict is monotone in the prefix."""
    lo, hi = 1, len(samples)
    while lo < hi:
        mid = (lo + hi) // 2
        if _verdict(inst, conj, samples[:mid]) is Verdict3.FALSE:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


def _word_report(c: Trajectory, scenario: AbstractScenario) -> WordReport:
    inst = scenario.instance
    _check_conforms(scenario, c)
    if len(c.samples) != inst.full_length():
        raise LengthError(
            f"word problem needs the full horizon length {inst.full_length()}, "
            f"got {len(c.samples)}"
        )
    samples = c.samples
    bad = _first_inadmissible(samples, scenario)
    # The formula may already reject the admissible part. With every step
    # admissible that is the full trace, whose verdict is two-valued.
    seen = samples if bad is None else samples[:bad]
    conj = scenario.conjoined()
    if _verdict(inst, conj, seen) is Verdict3.FALSE:
        first = _first_false(inst, conj, seen)
        return WordReport(Verdict.REJECTED, first, "constraint formula not satisfied")
    if bad is not None:
        what = f"transition at step {bad}" if bad else "starting scene"
        return WordReport(Verdict.REJECTED, bad, f"{what} not admissible")
    return WordReport(Verdict.ACCEPTED, None, "accepted")


def monitor_word(c: Trajectory, scenario: AbstractScenario) -> Verdict:
    """Decide whether a full-length trajectory belongs to the scenario."""
    return _word_report(c, scenario).verdict


def monitor_word_report(c: Trajectory, scenario: AbstractScenario) -> WordReport:
    """Word verdict plus, for a rejection, the first violation's index."""
    return _word_report(c, scenario)


def _explore(
    scenario: AbstractScenario,
    samples: Path,
    conj: Formula,
    budget: int,
) -> Verdict3:
    """Bounded DFS over the instance tree under a prefix.

    The tree grows through the raw successor relation; the conjoined
    formula acts as the acceptance condition on full-length leaves, so a
    TRUE verdict means every instance-valid continuation is accepted and
    cannot be revoked by feeding more scenes. The prefix is progressed
    once, and every stack entry carries its residual, so a child costs
    one scene. Returns UNKNOWN as soon as both an accepted and a
    rejected completion are witnessed or the node budget runs out
    (inconclusive); obviously oversized trees are declared inconclusive
    up front instead of crawling the budget.
    """
    inst = scenario.instance
    remaining = inst.full_length() - len(samples)
    fanout = len(tuple(inst.successors(samples))) if remaining else 0
    if fanout > 1 and remaining * math.log(fanout) > math.log(max(budget, 2)):
        return Verdict3.UNKNOWN
    found_accept = False
    found_reject = False
    nodes = 0
    stack: list[Node] = [(samples, _residual(inst, conj, samples))]
    while stack:
        nodes += 1
        if nodes > budget:
            return Verdict3.UNKNOWN
        p, residual = stack.pop()
        if len(p) == inst.full_length():
            if isinstance(residual, TrueFormula):
                found_accept = True
            else:
                found_reject = True
        else:
            kids = tuple(inst.successors(p))
            if not kids:
                found_reject = True
            else:
                # Prune subtrees whose verdict is already settled by the
                # monotone formula status: FALSE subtrees only reject.
                position = len(p)
                for cand in kids:
                    r = progress(residual, cand, position, inst.horizon, inst.scene_tol)
                    if isinstance(r, FalseFormula):
                        found_reject = True
                    elif isinstance(r, TrueFormula):
                        found_accept = True
                    else:
                        stack.append((p + (cand,), r))
        if found_accept and found_reject:
            return Verdict3.UNKNOWN
    if found_accept:
        return Verdict3.TRUE
    return Verdict3.FALSE


def _completes(inst: ScenarioLogicInstance, starts: list[Path], budget: int) -> Verdict3:
    """TRUE if a full-length path through the successors extends one of
    ``starts``, FALSE if none does, UNKNOWN past ``budget`` nodes. The
    search is depth-first and stops at the first full-length path; it
    keeps one lazy level of siblings per depth, not all of them."""
    levels = [iter(starts)]
    nodes = 0
    while levels:
        p = next(levels[-1], None)
        if p is None:
            levels.pop()
            continue
        nodes += 1
        if nodes > budget:
            return Verdict3.UNKNOWN
        if len(p) == inst.full_length():
            return Verdict3.TRUE
        levels.append(p + (cand,) for cand in inst.successors(p))
    return Verdict3.FALSE


def monitor_prefix(
    c: Trajectory | None,
    scenario: AbstractScenario,
    explore_budget: int = DEFAULT_EXPLORE_BUDGET,
) -> Verdict3:
    """Three-valued verdict for a partial trace.

    TRUE iff every reachable horizon-length extension is accepted and
    one exists, FALSE iff none is accepted. The monotone formula verdict
    on the prefix, one evaluate3 pass, decides most prefixes outright;
    otherwise a bounded tree exploration settles the rest and reports
    UNKNOWN when its node budget runs out. Worlds the successors do not
    cover are not explored (see the module docstring).

    ``c=None`` stands for the empty prefix (nothing observed yet).
    """
    inst = scenario.instance
    if c is None:
        samples: Path = ()
    else:
        _check_conforms(scenario, c)
        if len(c.samples) > inst.full_length():
            raise LengthError(
                f"prefix longer than the horizon length {inst.full_length()}"
            )
        samples = c.samples
    if _first_inadmissible(samples, scenario) is not None:
        return Verdict3.FALSE
    conj = scenario.conjoined()
    status = _verdict(inst, conj, samples)
    if status is Verdict3.FALSE:
        return Verdict3.FALSE
    if inst.allows is not None or (not samples and inst.initial_scenes is None):
        # The successors do not cover the admissible steps or starts, so
        # exploring them could claim a verdict a continuation revokes.
        # A monotone TRUE cannot flip; it stands unless no start exists.
        return status if samples or inst.initial_scenes != () else Verdict3.UNKNOWN
    starts = [samples] if samples else [(s,) for s in inst.initial_scenes]
    if status is Verdict3.TRUE:
        # Monotone TRUE cannot flip, so every completion is accepted; the
        # verdict needs one to exist, as a successor set may be empty.
        return _completes(inst, starts, explore_budget)
    verdicts = {_explore(scenario, p, conj, explore_budget) for p in starts}
    if len(verdicts) == 1:
        return verdicts.pop()
    return Verdict3.UNKNOWN if verdicts else Verdict3.FALSE


class StreamMonitor:
    """Single-owner stateful monitor fed one scene per grid step.

    After each step the verdict equals the prefix verdict of everything
    fed so far; TRUE and FALSE are terminal.
    """

    def __init__(
        self,
        scenario: AbstractScenario,
        explore_budget: int = DEFAULT_EXPLORE_BUDGET,
    ):
        self.scenario = scenario
        self.explore_budget = explore_budget
        self._samples: list[Scene] = []
        self._verdict = monitor_prefix(None, scenario, explore_budget)
        self._latched = self._verdict in (Verdict3.TRUE, Verdict3.FALSE)

    @property
    def verdict(self) -> Verdict3:
        return self._verdict

    @property
    def fed(self) -> int:
        return len(self._samples)

    def step(self, scene: Scene) -> Verdict3:
        inst = self.scenario.instance
        if len(self._samples) >= inst.full_length():
            raise HorizonError("stream already consumed the full horizon")
        self._samples.append(scene)
        if self._latched:
            return self._verdict
        traj = Trajectory(
            inst.schema, inst.grid(len(self._samples)), tuple(self._samples)
        )
        self._verdict = monitor_prefix(traj, self.scenario, self.explore_budget)
        if self._verdict in (Verdict3.TRUE, Verdict3.FALSE):
            self._latched = True
        return self._verdict


def monitor_stream(scenario: AbstractScenario, **kwargs) -> StreamMonitor:
    return StreamMonitor(scenario, **kwargs)
