"""Decision procedures for membership of concrete in abstract scenarios.

The word problem follows the given trajectory through the instance's
start set and successor relation instead of enumerating the scenario
set, and checks the conjoined formula, the only acceptance condition, on
the full trace. A rejected word's violation index is the last index of
its shortest prefix that holds an inadmissible scene or on which the
formula is FALSE; the CLI prints it, times the grid step, as
``first_violation_time``.

The prefix problem quantifies over all instance-valid horizon-length
completions of the prefix, with the formula as the acceptance condition.
The search decides only worlds the successors cover: no explicit
``allows`` and, for the empty prefix, a finite start set. Elsewhere, as
in the box worlds of the DSL and the rural study, the verdict is the
formula's own, UNKNOWN while it is undecided.

A given trace is decided in one forward pass: each scene is admitted
(the start set for the first, the successors or ``allows`` after that)
and the formula is progressed by it (see ``formulas.progress``).
Successors yield value tuples, and a scene is admitted by comparing its
values with them (``formulas._values_match``), so the pass builds no
Scene: an equal tuple admits it unmeasured, a candidate more than
``scene_tol`` off in one coordinate is ruled out unmeasured (``hypot``
is never below its largest |argument|), and only the rest have their
distance measured. The pass stops at the first inadmissible scene or
the first FALSE residual, which is the word problem's violation index,
and otherwise hands its residual to the prefix problem. One bounded
depth-first search below the prefix decides the rest. It starts from
that residual and carries one in every node, so a node costs one scene:
each candidate it progresses is built as a Scene, and a candidate
holding NaN or an infinity raises SchemaError there. A FALSE residual is
a rejection; an acceptance is a path that reaches full length, so TRUE
needs a completion to exist. A dead end (a path short of full length with no
successors) below an undecided residual counts against TRUE; one below
a TRUE residual does not, since every completion there is accepted and
the search only looks for one. So in a world with dead ends a TRUE
prefix can still run into one: with start 0, 0 → {1, 2}, 1 → {3},
2 → {}, horizon 2 and the formula ``true``, the prefix (0) is TRUE and
its admissible extension (0, 2) is FALSE. FALSE is irrevocable under any
continuation the world permits, and so is TRUE in worlds without dead
ends. The stream monitor latches both. It does not keep the pass's state
between steps yet: a step still costs a pass over the prefix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import Scene, Trajectory
from .errors import HorizonError, LengthError, SchemaError
from .formulas import FalseFormula, Formula, TrueFormula, Verdict3, progress, settle
from .logic import AbstractScenario, Node, Path, ScenarioLogicInstance, _check_conforms

#: Node budget of the one search below a prefix: one budget per call,
#: shared by the starts of the empty prefix, read when the search starts.
#: Exhaustion yields UNKNOWN.
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


def monitor_word(c: Trajectory, scenario: AbstractScenario) -> Verdict:
    """Decide whether a full-length trajectory belongs to the scenario."""
    return monitor_word_report(c, scenario).verdict


def monitor_word_report(c: Trajectory, scenario: AbstractScenario) -> WordReport:
    """Word verdict plus, for a rejection, the first violation's index."""
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


def _decide(inst: ScenarioLogicInstance, roots: list[Node]) -> Verdict3:
    """Bounded depth-first search over the (path, residual) nodes below
    ``roots``. A FALSE residual is a rejection, and so is a dead end
    below an undecided one; an acceptance is a path that reaches full
    length. Below a TRUE residual every completion is accepted, so the
    search there only looks for one: its dead ends are skipped, and once
    an acceptance is seen no TRUE node is expanded. UNKNOWN as soon as
    both have been seen, past ``DEFAULT_EXPLORE_BUDGET`` nodes, or up
    front when an undecided root's tree is obviously larger than that."""
    budget = DEFAULT_EXPLORE_BUDGET
    full = inst.full_length()
    stack = [node for node in roots if not isinstance(node[1], FalseFormula)]
    reject = len(stack) < len(roots)
    for p, r in stack:
        remaining = full - len(p)
        if remaining and not isinstance(r, TrueFormula):
            fanout = len(inst.successors(p))
            if fanout > 1 and remaining * math.log(fanout) > math.log(max(budget, 2)):
                return Verdict3.UNKNOWN
    accept = False
    nodes = 0
    while stack:
        p, residual = stack.pop()
        settled = isinstance(residual, TrueFormula)
        if settled and accept:
            continue
        nodes += 1
        if nodes > budget:
            return Verdict3.UNKNOWN
        position = len(p)
        if position == full:
            # A full-length residual has folded, and FALSE is never pushed.
            accept = True
        else:
            kids = inst.successors(p)
            if not kids and not settled:
                reject = True
            trues = []
            for values in kids:
                cand = Scene(inst.schema, values)
                r = progress(residual, cand, position, inst.horizon, inst.scene_tol)
                if isinstance(r, FalseFormula):
                    reject = True
                elif not isinstance(r, TrueFormula):
                    stack.append((p + (cand,), r))
                elif not accept:
                    trues.append((p + (cand,), r))
            # Settled children go on top: one path down any of them
            # reaches an acceptance without backtracking unless it meets
            # a dead end.
            stack += trues
        if accept and reject:
            return Verdict3.UNKNOWN
    return Verdict3.TRUE if accept else Verdict3.FALSE


def monitor_prefix(c: Trajectory | None, scenario: AbstractScenario) -> Verdict3:
    """Three-valued verdict for a partial trace.

    TRUE when a horizon-length completion exists and every one is
    accepted, FALSE when none is accepted, UNKNOWN otherwise or when the
    search gives up. One forward pass admits the prefix and progresses
    the formula over it; a FALSE residual decides at once. Otherwise one
    bounded depth-first search below the prefix decides (``_decide``):
    below a TRUE residual it looks for one completion, and below an
    undecided one it looks for an acceptance and a rejection, where a
    dead end counts as a rejection. ``DEFAULT_EXPLORE_BUDGET`` bounds the
    nodes of that one search, shared by the starts of the empty prefix;
    past it, or when the tree below an undecided start is obviously
    larger, the verdict is UNKNOWN. Worlds the successors do not cover
    are not searched (see the module docstring).

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
    if inst.allows is not None or (not samples and inst.initial_scenes is None):
        # The successors do not cover the admissible steps or starts, so
        # searching them could claim a verdict a continuation revokes.
        # A monotone TRUE cannot flip; it stands unless no start exists.
        status = Verdict3.TRUE if isinstance(residual, TrueFormula) else Verdict3.UNKNOWN
        return status if samples or inst.initial_scenes != () else Verdict3.UNKNOWN
    if samples:
        roots = [(samples, residual)]
    else:
        roots = [
            ((s,), progress(residual, s, 0, inst.horizon, inst.scene_tol))
            for s in inst.initial_scenes
        ]
    return _decide(inst, roots)


class StreamMonitor:
    """Single-owner stateful monitor fed one scene per grid step.

    After each step the verdict equals the prefix verdict of everything
    fed so far; TRUE and FALSE are terminal.
    """

    def __init__(self, scenario: AbstractScenario):
        self.scenario = scenario
        self._samples: Path = ()
        self._verdict = monitor_prefix(None, scenario)

    @property
    def verdict(self) -> Verdict3:
        return self._verdict

    @property
    def fed(self) -> int:
        return len(self._samples)

    def step(self, scene: Scene) -> Verdict3:
        """Feed the next scene and return the verdict; a step that raises
        (past the horizon, another schema, a failed search) changes nothing."""
        inst = self.scenario.instance
        if len(self._samples) >= inst.full_length():
            raise HorizonError("stream already consumed the full horizon")
        if scene.schema is not inst.schema:
            raise SchemaError("sample schema differs from trajectory schema")
        samples = self._samples + (scene,)
        if self._verdict is Verdict3.UNKNOWN:
            traj = Trajectory(inst.schema, inst.grid(len(samples)), samples)
            self._verdict = monitor_prefix(traj, self.scenario)
        self._samples = samples
        return self._verdict


def monitor_stream(scenario: AbstractScenario) -> StreamMonitor:
    return StreamMonitor(scenario)
