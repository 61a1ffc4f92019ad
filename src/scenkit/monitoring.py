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

A given trace is decided in one forward pass: each scene is admitted
(the start set for the first, the successors or ``allows`` after that)
and the formula is progressed by it (see ``formulas.progress``). The
pass stops at the first inadmissible scene or the first FALSE residual,
which is the word problem's violation index, and otherwise hands its
residual to the prefix problem. Exploration below the prefix starts
from that residual and carries one in every tree node, so a node costs
one scene. The stream monitor does not keep the pass's state between
steps yet: a step still costs a pass over the prefix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import Scene, Trajectory
from .errors import HorizonError, LengthError
from .formulas import FalseFormula, Formula, TrueFormula, Verdict3, progress, settle
from .logic import AbstractScenario, Node, Path, ScenarioLogicInstance, _check_conforms

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


def _scan(scenario: AbstractScenario, samples: Path) -> tuple[int | None, str, Formula]:
    """One forward pass over a prefix of a path: admit each scene and
    progress the formula by it. Returns the index of the first scene
    that is inadmissible or leaves a FALSE residual, with the reason, or
    None and ``"accepted"``; and the residual after the scenes passed.
    A scene both inadmissible and falsifying is reported inadmissible."""
    inst = scenario.instance
    r = settle(scenario.conjoined(), inst.horizon)
    for i, scene in enumerate(samples):
        # Only a formula FALSE before any scene is FALSE here: it rejects
        # at the first scene, whatever that scene is.
        if not isinstance(r, FalseFormula):
            if not (inst.allows_step(samples[:i], scene) if i else inst.allows_initial(scene)):
                what = f"transition at step {i}" if i else "starting scene"
                return i, f"{what} not admissible", r
            r = progress(r, scene, i, inst.horizon, inst.scene_tol)
        if isinstance(r, FalseFormula):
            return i, "constraint formula not satisfied", r
    return None, "accepted", r


def _word_report(c: Trajectory, scenario: AbstractScenario) -> WordReport:
    inst = scenario.instance
    _check_conforms(scenario, c)
    if len(c.samples) != inst.full_length():
        raise LengthError(
            f"word problem needs the full horizon length {inst.full_length()}, "
            f"got {len(c.samples)}"
        )
    # At full length the residual has folded, so a pass with no violation
    # ends TRUE.
    index, reason, _ = _scan(scenario, c.samples)
    verdict = Verdict.ACCEPTED if index is None else Verdict.REJECTED
    return WordReport(verdict, index, reason)


def monitor_word(c: Trajectory, scenario: AbstractScenario) -> Verdict:
    """Decide whether a full-length trajectory belongs to the scenario."""
    return _word_report(c, scenario).verdict


def monitor_word_report(c: Trajectory, scenario: AbstractScenario) -> WordReport:
    """Word verdict plus, for a rejection, the first violation's index."""
    return _word_report(c, scenario)


def _explore(scenario: AbstractScenario, root: Node, budget: int) -> Verdict3:
    """Bounded DFS over the instance tree under a prefix and its residual.

    The tree grows through the raw successor relation; the conjoined
    formula acts as the acceptance condition on full-length leaves, so a
    TRUE verdict means every instance-valid continuation is accepted and
    cannot be revoked by feeding more scenes. Every stack entry carries
    its residual, so a child costs one scene. Returns UNKNOWN as soon as
    both an accepted and a rejected completion are witnessed or the node
    budget runs out (inconclusive); obviously oversized trees are
    declared inconclusive up front instead of crawling the budget.
    """
    inst = scenario.instance
    samples = root[0]
    remaining = inst.full_length() - len(samples)
    fanout = len(tuple(inst.successors(samples))) if remaining else 0
    if fanout > 1 and remaining * math.log(fanout) > math.log(max(budget, 2)):
        return Verdict3.UNKNOWN
    found_accept = False
    found_reject = False
    nodes = 0
    stack: list[Node] = [root]
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
    one exists, FALSE iff none is accepted. One forward pass admits the
    prefix and progresses the formula over it; the residual's monotone
    verdict decides most prefixes outright. Otherwise a bounded tree
    exploration from that residual settles the rest and reports UNKNOWN
    when its node budget runs out. Worlds the successors do not
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
    index, _, residual = _scan(scenario, samples)
    if index is not None or isinstance(residual, FalseFormula):
        return Verdict3.FALSE
    status = Verdict3.TRUE if isinstance(residual, TrueFormula) else Verdict3.UNKNOWN
    if inst.allows is not None or (not samples and inst.initial_scenes is None):
        # The successors do not cover the admissible steps or starts, so
        # exploring them could claim a verdict a continuation revokes.
        # A monotone TRUE cannot flip; it stands unless no start exists.
        return status if samples or inst.initial_scenes != () else Verdict3.UNKNOWN
    if samples:
        roots = [(samples, residual)]
    else:
        roots = [
            ((s,), progress(residual, s, 0, inst.horizon, inst.scene_tol))
            for s in inst.initial_scenes
        ]
    if status is Verdict3.TRUE:
        # Monotone TRUE cannot flip, so every completion is accepted; the
        # verdict needs one to exist, as a successor set may be empty.
        return _completes(inst, [p for p, _ in roots], explore_budget)
    verdicts = {_explore(scenario, root, explore_budget) for root in roots}
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
