"""Branching scenario-logic engine.

A logic instance fixes a schema, a grid step, a finite horizon, a set of
starting scenes and a finitely-branching successor relation.
An abstract scenario pairs constraint and world-model formulas with an
instance; its semantics is the tree grown by expanding prefixes through
the successor relation while pruning branches whose formula verdict is
already FALSE. Expansion satisfies the identity, composition, prefix and
conjunction-as-intersection axioms by construction; check_axioms probes
them anyway so externally supplied semantics can be validated too.

Every walk (expansion, enumeration, sampling, the axiom and determinism
probes) carries each node's residual formula (see ``formulas.progress``)
and progresses it by the one new scene, so a child costs one scene, not
a re-walk of its prefix. A child is pruned when its residual is
FalseFormula; a full-length residual is TrueFormula or FalseFormula.

Expansion, enumeration, counting and uniform-leaf sampling share one
walk, ``_count_dag``, which counts the leaves below each state. On a
Markov instance (successors that read only the last scene) a node's
completions depend only on its residual, last scene and depth, so equal
nodes merge and each state is progressed once (``_States``). Formulas
are hash-consed, so equal residuals are one object and merge by
identity. Paths are read off the DAG split at its middle level
(``_paths``): a middle state that several prefixes reach has its
suffixes read once and shared, so each of its leaves is one
``prefix + suffix``; one that a single prefix reaches is walked
depth-first straight from it. The paths are wrapped as trajectories on
one grid with the cyclic collector paused (``_leaves``), a draw
unranks its index through the counts, and enumeration's guard
bounds the accepted leaves before any trajectory is built. The
uniform-branch and rejection samplers walk state records that hold
their kids, so a step is one random index into a kid list. On a Markov
instance they merge by the same rule, consulting the table once per
state; the table lives as long as the ``AbstractScenario``, and each
call may add count × (horizon + 1) states.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    ALIGN_TOL,
    Scene,
    SceneSchema,
    TimeGrid,
    Trajectory,
    _trusted_trajectory,
    is_prefix,
)
from .errors import (
    ComplexityError,
    GridAlignmentError,
    HorizonError,
    RangeError,
    RejectionBudgetError,
    SchemaError,
    UnsatisfiableError,
)
from .formulas import (
    And,
    FalseFormula,
    Formula,
    Next,
    SceneConst,
    TrueFormula,
    _values_match,
    conjoin,
    progress,
    settle,
)
from .logical import DiscreteAxis, derive_seed, realize

Path = tuple[Scene, ...]
Values = tuple[float, ...]  # a scene's values in its schema's order

#: Bound on a DAG's states, and enumerate's default bound on its leaves.
ENUMERATION_GUARD = 10_000_000


@dataclass(frozen=True)
class ScenarioLogicInstance:
    """One finitely-branching executable member of the scenario-logic class.

    The world is what can start and what can follow. ``initial_scenes``
    is the start set, a finite tuple or None for any scene; a start is
    admissible when its values match one of theirs: an equal tuple
    matches without a distance, and otherwise one within ``scene_tol``
    by ``scene_distance`` (``formulas._values_match``). ``successors``
    maps a prefix (tuple of scenes) to the finite set of candidate next
    value tuples, in schema order; a step is admitted when its values
    match one the same way, and no candidate becomes a Scene. A NaN or
    negative ``scene_tol`` is refused with RangeError. A candidate holding
    NaN or an infinity never matches, and a walk that builds it as a
    child raises SchemaError. A box world (see ``box_step``) admits steps
    by ``allows`` instead: a world sets ``allows`` exactly when it sets no
    successors.
    Monitoring does not search box worlds, and the walks that need
    successors refuse them.
    The formula is the only acceptance condition. Full-length paths have
    horizon+1 samples. ``markov`` declares that ``successors`` reads only
    the last scene of a prefix, which lets expansion, enumeration and
    counting merge prefixes that end alike.
    """

    id: str
    schema: SceneSchema
    step: float
    horizon: int
    initial_scenes: tuple[Scene, ...] | None
    successors: Callable[[Path], Sequence[Values]] | None
    allows: Callable[[Path, Scene], bool] | None = None
    scene_tol: float = 0.0
    one_step_override: Callable[["AbstractScenario", Path], Sequence[Path]] | None = None
    markov: bool = False

    def __post_init__(self):
        if self.horizon < 0:
            raise RangeError("horizon must be >= 0 steps")
        if not self.scene_tol >= 0:
            raise RangeError(f"scene_tol must not be NaN or negative, got {self.scene_tol}")

    def grid(self, count: int) -> TimeGrid:
        return TimeGrid(self.step, count)

    def full_length(self) -> int:
        return self.horizon + 1

    def allows_initial(self, scene: Scene) -> bool:
        if self.initial_scenes is None:
            return True
        starts = [s.values for s in self.initial_scenes]
        return _values_match(scene.values, starts, self.scene_tol)

    def allows_step(self, prefix: Path, nxt: Scene) -> bool:
        if self.allows is not None:
            return self.allows(prefix, nxt)
        return _values_match(nxt.values, self.successors(prefix), self.scene_tol)


@dataclass(frozen=True)
class AbstractScenario:
    """Constraint formula plus world-model formulas over a logic instance."""

    constraints: Formula
    world: tuple[Formula, ...]
    instance: ScenarioLogicInstance

    def conjoined(self) -> Formula:
        """The constraints and world formulas as one formula, built once and
        kept, so that the progressions it memoizes live with the scenario."""
        f = self.__dict__.get("_conjoined")
        if f is None:
            f = self.__dict__["_conjoined"] = conjoin((self.constraints, *self.world))
        return f


def _check_conforms(scenario: AbstractScenario, c: Trajectory) -> None:
    inst = scenario.instance
    if c.schema is not inst.schema:
        raise SchemaError("trajectory schema does not match the logic instance")
    # A one-point grid has no step to compare.
    if c.grid.count > 1 and abs(c.grid.step - inst.step) > ALIGN_TOL * inst.step:
        raise GridAlignmentError(
            f"trajectory step {c.grid.step} differs from instance step {inst.step}"
        )


def _residual(inst: ScenarioLogicInstance, conj: Formula, samples: Path) -> Formula:
    """The formula's residual after a prefix, progressed scene by scene."""
    r = settle(conj, inst.horizon)
    for i, scene in enumerate(samples):
        r = progress(r, scene, i, inst.horizon, inst.scene_tol)
    return r


#: A tree node of the walks: a path and its formula's residual after it.
Node = tuple[Path, Formula]


def _sorted_unique(paths: list[Path]) -> list[Path]:
    seen = {}
    for p in paths:
        seen[tuple(s.values for s in p)] = p
    return [seen[k] for k in sorted(seen)]


def _extend(inst: ScenarioLogicInstance, node: Node, cands: Iterable[Values]) -> list[Node]:
    """The node extended by each candidate whose residual is not FALSE,
    distinct and ordered by the candidate; each is built as a Scene."""
    samples, residual = node
    position = len(samples)
    out = {}
    for values in cands:
        cand = Scene(inst.schema, values)
        r = progress(residual, cand, position, inst.horizon, inst.scene_tol)
        if not isinstance(r, FalseFormula):
            out[cand.values] = (samples + (cand,), r)
    return [out[k] for k in sorted(out)]


def _successors(inst: ScenarioLogicInstance, path: Path) -> Sequence[Values]:
    """The candidate next values of a path; ComplexityError on a box world."""
    if inst.allows is not None:
        raise ComplexityError(f"instance {inst.id!r} declares no successors to expand")
    return inst.successors(path)


def _children(inst: ScenarioLogicInstance, node: Node) -> list[Node]:
    """Filtered one-step extensions of a node, ordered by their last scene."""
    return _extend(inst, node, _successors(inst, node[0]))


def _roots(inst: ScenarioLogicInstance, conj: Formula) -> list[Node]:
    """Filtered one-scene nodes from the finite start set, sorted and distinct."""
    if inst.initial_scenes is None:
        raise ComplexityError(
            f"instance {inst.id!r} declares no finite initial scene set"
        )
    starts = [s.values for s in inst.initial_scenes]
    return _extend(inst, ((), settle(conj, inst.horizon)), starts)


def expand(
    scenario: AbstractScenario, c: Trajectory, steps: int
) -> tuple[Trajectory, ...]:
    """All admissible steps-long extensions of c, canonically ordered.

    steps=0 returns (c,); multi-step expansion composes one-step
    expansions, so the composition axiom holds by construction. The paths
    are read off the DAG of ``steps`` levels below c (``_count_dag``), or
    grown by the instance's one-step override, whose paths come from
    outside and are checked. Read off the DAG, split at its middle level
    (``_paths``), the extensions share one grid and are wrapped with the
    cyclic collector paused (``_leaves``):
    they hold no reference cycle, so a collection could free none of
    them. The pause is process-wide, so another thread's allocations go
    uncollected for its length; scenkit starts no threads.
    """
    if steps < 0:
        raise RangeError("steps must be >= 0")
    _check_conforms(scenario, c)
    inst = scenario.instance
    if len(c.samples) - 1 + steps > inst.horizon:
        raise HorizonError(
            f"{steps} steps from length {len(c.samples)} exceed horizon {inst.horizon}"
        )
    if steps == 0:
        return (c,)
    if inst.one_step_override is not None:
        frontier = [c.samples]
        for _ in range(steps):
            nxt: list[Path] = []
            for p in frontier:
                nxt.extend(tuple(q) for q in inst.one_step_override(scenario, p))
            frontier = _sorted_unique(nxt)
        return tuple(Trajectory(inst.schema, inst.grid(len(p)), p) for p in frontier)
    root = (c.samples, _residual(inst, scenario.conjoined(), c.samples))
    return _leaves(inst, _count_dag(inst, [root], steps), c.samples[:-1])


def box_step(bounds: Iterable[tuple[float, float]]) -> Callable[[Path, Scene], bool]:
    """``allows`` of a box world: in one step, value i changes by [lo_i, hi_i]."""
    bounds = tuple(bounds)

    def allows(samples: Path, nxt: Scene) -> bool:
        for a, b, (lo, hi) in zip(samples[-1].values, nxt.values, bounds):
            if not lo <= b - a <= hi:
                return False
        return True

    return allows


class _States:
    """The merge rule for Markov states. A node is ``(path, *residuals)``,
    its path a tuple or list of Scenes; on a Markov instance its
    completions depend only on its depth, its last scene and its
    residuals, so nodes equal in all three are one state, and a value
    stored for one serves every other. Residuals are
    hash-consed (``formulas.HashConsed``), so equal residuals are one
    object and a state's key compares them by identity. Counting stores
    a state's number; the samplers store its walk record (``_Record``),
    looked up once, when the state is first met as a kid. At most
    ``cap`` states are stored."""

    def __init__(self, cap: int):
        self.cap = cap
        # (depth, last scene values, *residuals) -> value
        self.memo: dict[tuple, object] = {}

    def lookup(self, node: tuple, make: Callable[[tuple], object]):
        """The value of ``node``'s state. On a miss it is ``make(node)``,
        stored while fewer than ``cap`` states are."""
        path = node[0]
        key = (len(path), path[-1].values, *node[1:])
        value = self.memo.get(key)
        if value is None:
            value = make(node)
            if len(self.memo) < self.cap:
                self.memo[key] = value
        return value


class _Dag(NamedTuple):
    """The scenario tree with equal subtrees merged. States are numbered
    level by level in canonical order; ``kids[i]`` lists state i's child
    states in canonical order (states of the last level have none), and
    ``counts[i]`` is the number of leaves below state i."""

    roots: range
    kids: list[list[int]]
    scenes: list[Scene]
    counts: list[int]

    def total(self) -> int:
        return sum(self.counts[j] for j in self.roots)


def _count_dag(
    inst: ScenarioLogicInstance, level: list[Node], steps: int, guard: int = ENUMERATION_GUARD
) -> _Dag:
    """The tree below the nodes of ``level`` grown ``steps`` levels, with
    the leaves below every state counted. On a Markov instance nodes merge
    by ``_States``' rule (depth, residual, last scene), so equal subtrees
    merge; otherwise each child is a new state, as its parent and last
    scene identify it. ComplexityError past ``guard`` states."""
    states = _States(guard) if inst.markov else None
    scenes = [p[-1] for p, _ in level]
    roots = range(len(level))
    kids: list[list[int]] = []

    def new(node: Node) -> int:
        return len(scenes)

    for _ in range(steps):
        # The children of one node end on distinct scenes, so a level of
        # one node has nothing to merge.
        merge = states if len(level) > 1 else None
        nxt: list[Node] = []
        for node in level:
            out = []
            for child in _children(inst, node):
                j = len(scenes) if merge is None else merge.lookup(child, new)
                if j == len(scenes):
                    if j >= guard:
                        raise ComplexityError(
                            f"scenario count exceeded the guard of {guard} states"
                        )
                    scenes.append(child[0][-1])
                    nxt.append(child)
                out.append(j)
            kids.append(out)
        level = nxt
    # The last level's states are the leaves; at full length, accepted ones.
    counts = [1] * len(scenes)
    for i in range(len(kids) - 1, -1, -1):
        counts[i] = sum(map(counts.__getitem__, kids[i]))
    return _Dag(roots, kids, scenes, counts)


def _descend(dag: _Dag, roots: Iterable[int], path: list[Scene], out: list[Path]) -> list[Path]:
    """``out`` with every leaf's path below ``roots`` appended, each after
    ``path``, in canonical order: a depth-first walk in ``kids`` order
    that skips states with no leaf below, so no dead subtree is built. It
    keeps one path, a tuple of it per leaf."""
    counts, kids, scenes = dag.counts, dag.kids, dag.scenes
    inner = len(kids)
    stack = [iter(roots)]
    while stack:
        for j in stack[-1]:
            if counts[j]:
                path.append(scenes[j])
                if j < inner:
                    stack.append(iter(kids[j]))
                    break
                out.append(tuple(path))
                path.pop()
        else:
            stack.pop()
            del path[-1:]  # the roots' level pops a path scene or nothing
    return out


def _paths(dag: _Dag, base: Path) -> list[Path]:
    """Every leaf's path in canonical order after ``base``, read off the
    DAG split at its middle level, half way down its height (meet in the
    middle: Horowitz & Sahni, JACM 1974). The upper levels are read
    breadth first, in canonical order, into prefixes that each end
    before a state of the middle level. A middle state that several
    prefixes reach has its suffixes read once, depth-first
    (``_descend``), and kept only until the last of those prefixes has
    used them; each of its leaves is one ``prefix + suffix``. A middle
    state that one prefix reaches is walked depth-first straight from
    that prefix: a suffix list would serve one prefix, and each of its
    leaves would be built twice. When no middle state is shared, as on a
    tree (every non-Markov instance), the whole DAG is walked straight
    once, and no prefix is built."""
    counts, kids, scenes = dag.counts, dag.kids, dag.scenes
    live = [j for j in dag.roots if counts[j]]
    top = len(_unrank(dag, 0)) // 2 if live else 0
    # The middle state each prefix ends before, once per prefix.
    ends = live
    for _ in range(top):
        ends = [k for j in ends for k in kids[j] if counts[k]]
    reach = Counter(ends)
    if len(reach) == len(ends):
        return _descend(dag, live, list(base), [])
    level = [(base, j) for j in live]
    for _ in range(top):
        level = [(p + (scenes[j],), k) for p, j in level for k in kids[j] if counts[k]]
    out: list[Path] = []
    shared: dict[int, list[Path]] = {}
    for prefix, k in level:
        reach[k] -= 1
        if k in shared:
            suffixes = shared[k] if reach[k] else shared.pop(k)
        elif reach[k]:
            suffixes = shared[k] = _descend(dag, (k,), [], [])
        else:
            _descend(dag, (k,), list(prefix), out)
            continue
        out += map(prefix.__add__, suffixes)
    return out


def _leaves(inst: ScenarioLogicInstance, dag: _Dag, base: Path) -> tuple[Trajectory, ...]:
    """Every leaf's trajectory in canonical order after ``base``, all on
    one grid. The paths of ``_paths``, read off the DAG split at its
    middle level, hold the Scenes the walk built checked on the
    instance's schema, so none is checked again. They are wrapped with
    the cyclic collector paused (see ``enumerate_scenarios``); it is
    enabled again on the way out, also when wrapping raises, unless it
    was off on entry. The paths are read with it running: a pause over
    the split read-off too made the enumeration benchmark's
    ``scenes_per_s`` a quarter higher again, but raised its
    ``peak_rss_mib`` by over a tenth (55.6 to 62.6 MiB in a 10 s run),
    held as free blocks in the allocator's small-tuple pools until a
    full collection."""
    paths = _paths(dag, base)
    if not paths:
        return ()
    schema, grid = inst.schema, inst.grid(len(paths[0]))
    collecting = gc.isenabled()
    gc.disable()
    try:
        return tuple([_trusted_trajectory(schema, grid, p) for p in paths])
    finally:
        if collecting:
            gc.enable()


def enumerate_scenarios(
    scenario: AbstractScenario, guard: int = ENUMERATION_GUARD, force: bool = False
) -> tuple[Trajectory, ...]:
    """All accepted horizon-length trajectories, canonically ordered, read
    off the counted DAG. ComplexityError when more than ``guard`` leaves
    are accepted, read from the counts before any trajectory is built;
    ``force`` lifts that guard, not the DAG's bound of ENUMERATION_GUARD
    states. The paths are read off the DAG split at its middle level, a
    shared suffix read once for all the prefixes that reach it
    (``_paths``). The leaves share one grid and are wrapped with the cyclic
    collector paused (``_leaves``): they hold no reference cycle, so a
    collection could free none of them. The pause is process-wide, so
    another thread's allocations go uncollected for its length; scenkit
    starts no threads."""
    inst = scenario.instance
    dag = _count_dag(inst, _roots(inst, scenario.conjoined()), inst.horizon)
    total = dag.total()
    if total > guard and not force:
        raise ComplexityError(f"{total} accepted scenarios exceed the guard of {guard}")
    return _leaves(inst, dag, ())


def count_scenarios(scenario: AbstractScenario) -> int:
    """``len(enumerate_scenarios(scenario))``, counted without building a
    trajectory: one progression per state, not per leaf."""
    inst = scenario.instance
    return _count_dag(inst, _roots(inst, scenario.conjoined()), inst.horizon).total()


def _unrank(dag: _Dag, r: int) -> Path:
    """The path of the r-th accepted leaf in canonical order: descend
    through the sorted children, skipping r past each whole subtree
    (Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978)."""
    path = []
    states = dag.roots
    while states:
        for j in states:
            if r < dag.counts[j]:
                break
            r -= dag.counts[j]
        path.append(dag.scenes[j])
        states = dag.kids[j] if j < len(dag.kids) else ()
    return tuple(path)


def trace_formula(c: Trajectory) -> Formula:
    """A formula whose concrete-scenario set is exactly {c}.

    Built as a Next-chained conjunction of scene constants, one per grid
    position.
    """
    out: Formula = SceneConst(c.samples[-1])
    for s in reversed(c.samples[:-1]):
        out = And(SceneConst(s), Next(out))
    return out


# --- sampling ---------------------------------------------------------------


class _Record:
    """A state of a sampling walk. ``guide`` is the residual its kids are
    grown by and ``check`` the one its leaf is accepted by: the one
    formula for uniform-branch, the constraints' for rejection. Once
    expanded, ``kids`` lists ``(scene, child record)`` in ``_children``
    order. A record holds no path: it is expanded from the walk's."""

    __slots__ = ("guide", "check", "kids")

    def __init__(self, node: tuple):
        self.guide, self.check, self.kids = node[1], node[-1], None


def sample_abstract(
    scenario: AbstractScenario,
    count: int,
    strategy: str,
    rng_seed: int,
    max_attempts: int | None = None,
) -> list[Trajectory]:
    """Draw accepted concrete scenarios from an abstract scenario.

    uniform-leaf is exactly uniform over the enumeration without
    building it: draw i unranks a seeded index below ``count_scenarios``
    (memo lookups only), so it is the leaf the enumeration holds at that
    index. uniform-branch picks a uniformly random child at each
    expansion and is therefore biased toward shallow-branching paths.
    rejection walks the world model alone and accepts the leaves that
    satisfy the constraints, which cannot be guaranteed to succeed
    (surfaced as a budget error carrying the acceptance rate so far).
    ``max_attempts`` bounds the attempts of all draws together; by
    default it is 10,000 per requested draw.

    Attempt i walks with its own generator, seeded by
    ``derive_seed(rng_seed, i)``, over state records (``_Record``). A record
    is expanded on its first visit, from the path the walk holds, into its
    kids in the order ``_children`` gives them, so a step reads a kid list
    at one random index and a draw picks the child a walk that recomputes
    the children at every step would pick. Records hold no path, so the kept
    records cost about what kept kid lists would. On a Markov instance a
    kid's record comes from the merge rule that counting and enumeration use
    (``_States``: depth, residuals, last scene), consulted once, when the
    state is first met as a kid; on any other instance every kid is a fresh
    record. The table lives and dies with the scenario, and both strategies
    share it (a rejection state carries two residuals, so their keys never
    meet), so a repeated draw costs only its walk. A call adds at most
    count × (horizon + 1) states to the table and keeps the kids of at most
    as many records; past that, a record is expanded at each visit. A
    rejection walk carries the constraints' residual next to the world's,
    so a leaf is checked without progressing its path again. A walk grows
    its path as one list and builds its tuple once, for an accepted draw.
    """
    if count < 1:
        raise RangeError("count must be >= 1")
    if strategy not in ("uniform-leaf", "uniform-branch", "rejection"):
        raise RangeError(f"unknown strategy {strategy!r}")
    inst = scenario.instance
    conj = scenario.conjoined()
    if isinstance(settle(conj, inst.horizon), FalseFormula):
        raise UnsatisfiableError("the constraint formula is unsatisfiable")
    if inst.initial_scenes is None:
        raise ComplexityError("sampling needs a finite initial scene set")
    # A draw is a full-length path of Scenes that the walks built checked
    # on the schema: every draw shares one grid, and none is checked again.
    schema, grid = inst.schema, inst.grid(inst.full_length())

    if strategy == "uniform-leaf":
        dag = _count_dag(inst, _roots(inst, conj), inst.horizon)
        total = dag.total()
        if not total:
            raise UnsatisfiableError("the abstract scenario has no concrete scenarios")
        drawn: dict[int, Trajectory] = {}
        out = []
        for i in range(count):
            r = random.Random(derive_seed(rng_seed, i)).randrange(total)
            if r not in drawn:
                drawn[r] = _trusted_trajectory(schema, grid, _unrank(dag, r))
            out.append(drawn[r])
        return out

    # A walk node is (path, guide residual), and for rejection also the
    # constraints' residual, so the leaf check reads it off the record.
    if strategy == "uniform-branch":
        nodes = _roots(inst, conj)
    else:
        check = settle(scenario.constraints, inst.horizon)
        nodes = [
            (p, r, progress(check, p[0], 0, inst.horizon, inst.scene_tol))
            for p, r in _roots(inst, conjoin(scenario.world))
        ]
    if not nodes:
        raise UnsatisfiableError("no admissible starting scene")
    keep = count * inst.full_length()
    if inst.markov:
        states = scenario.__dict__.setdefault("_walks", _States(0))
        states.cap = len(states.memo) + keep

        def record(node: tuple) -> _Record:
            return states.lookup(node, _Record)
    else:
        record = _Record

    def expand(rec: _Record, path: list[Scene]) -> list[tuple[Scene, _Record]]:
        nonlocal keep
        position = len(path)
        kids = []
        for p, r in _children(inst, (tuple(path), rec.guide)):
            if strategy == "uniform-branch":
                node = (p, r)
            else:
                node = (p, r, progress(rec.check, p[-1], position, inst.horizon, inst.scene_tol))
            kids.append((p[-1], record(node)))
        if keep:
            rec.kids = kids
            keep -= 1
        return kids

    roots = [(node[0][0], record(node)) for node in nodes]
    budget = 10_000 * count if max_attempts is None else max_attempts
    out: list[Trajectory] = []
    attempts = 0
    while len(out) < count:
        if attempts >= budget:
            rate = len(out) / attempts
            raise RejectionBudgetError(
                f"gave up after {attempts} attempts (acceptance rate {rate:.3g})",
                acceptance_rate=rate,
            )
        rng = random.Random(derive_seed(rng_seed, attempts))
        attempts += 1
        scene, rec = roots[rng.randrange(len(roots))]
        path = [scene]
        for _ in range(inst.horizon):
            kids = rec.kids
            if kids is None:
                kids = expand(rec, path)
            if not kids:
                break
            scene, rec = kids[rng.randrange(len(kids))]
            path.append(scene)
        else:
            # At full length every residual has folded to TRUE or FALSE,
            # and the check decides.
            if isinstance(rec.check, TrueFormula):
                out.append(_trusted_trajectory(schema, grid, tuple(path)))
    return out


# --- axiom checking ---------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """The outcome of ``check_axioms``: the probes run and the counterexamples found."""
    instance_id: str
    probes: int
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _random_prefix(
    inst: ScenarioLogicInstance, rng: random.Random, max_depth: int
) -> Path:
    starts = inst.initial_scenes
    if not starts:
        raise RangeError(f"instance {inst.id!r} offers no scenes to probe from")
    path: Path = (starts[rng.randrange(len(starts))],)
    depth = rng.randint(0, min(max_depth, max(inst.horizon - 1, 0)))
    for _ in range(depth):
        cands = _successors(inst, path)
        if not cands:
            break
        path = path + (Scene(inst.schema, cands[rng.randrange(len(cands))]),)
    return path


def _keys(trajs: Sequence[Trajectory]) -> set:
    return {t.sort_key() for t in trajs}


def check_axioms(
    instance: ScenarioLogicInstance,
    formulas: Sequence[Formula],
    probes: int,
    rng_seed: int = 0,
) -> AxiomReport:
    """Randomized check of the semantics axioms on a logic instance.

    Per probe: identity at zero steps, composition over a random split,
    the prefix property of every expansion result, and conjunction as
    intersection. Report-only; counterexamples carry the probe context.
    A probed prefix starts at one of the instance's own start scenes, so
    its trajectory is checked.
    """
    if probes < 1:
        raise RangeError("probes must be >= 1")
    rng = random.Random(rng_seed)
    formulas = tuple(formulas) or (TrueFormula(),)
    bad: list[str] = []
    for k in range(probes):
        f = formulas[rng.randrange(len(formulas))]
        g = formulas[rng.randrange(len(formulas))]
        prefix_path = _random_prefix(instance, rng, max_depth=3)
        c = Trajectory(instance.schema, instance.grid(len(prefix_path)), prefix_path)
        scen = AbstractScenario(f, (), instance)
        ctx = f"probe {k}: prefix length {len(prefix_path)}"

        ident = expand(scen, c, 0)
        if len(ident) != 1 or ident[0].sort_key() != c.sort_key():
            bad.append(f"{ctx}: identity axiom violated")
            continue

        budget = instance.horizon - (len(prefix_path) - 1)
        t = min(2, budget)
        if t < 1:
            continue
        full = expand(scen, c, t)
        if any(not is_prefix(c, e) for e in full):
            bad.append(f"{ctx}: prefix property violated at t={t}")
            continue
        if t == 2:
            composed: list[Trajectory] = []
            for mid in expand(scen, c, 1):
                composed.extend(expand(scen, mid, 1))
            if _keys(composed) != _keys(full):
                bad.append(f"{ctx}: composition axiom violated")
                continue
        g_keys = _keys(expand(AbstractScenario(g, (), instance), c, t))
        both = _keys(expand(AbstractScenario(And(f, g), (), instance), c, t))
        if both != _keys(full) & g_keys:
            bad.append(f"{ctx}: conjunction-as-intersection violated")
            continue
        if len(both) > min(len(full), len(g_keys)):
            bad.append(f"{ctx}: conjunction cardinality violated")
    return AxiomReport(instance.id, probes, tuple(bad))


def prefix_breaking_mutant(instance: ScenarioLogicInstance) -> ScenarioLogicInstance:
    """A deliberately broken copy whose expansions forget the prefix axiom.

    Validation fixture for check_axioms: every one-step extension has its
    first sample shifted, so grown paths no longer extend their prefix.
    """

    def broken(scenario: AbstractScenario, samples: Path) -> list[Path]:
        inst = scenario.instance
        root = (samples, _residual(inst, scenario.conjoined(), samples))
        out = []
        for kid, _ in _children(inst, root):
            first = kid[0]
            shifted = Scene(first.schema, (first.values[0] + 1.0,) + first.values[1:])
            out.append((shifted,) + kid[1:])
        return out

    return dataclasses.replace(
        instance, id=instance.id + "-prefix-mutant", one_step_override=broken
    )


def is_deterministic(
    scenario: AbstractScenario, probes: int = 100, rng_seed: int = 0
) -> bool:
    """Query whether every probed prefix has at most one admissible child."""
    rng = random.Random(rng_seed)
    inst = scenario.instance
    conj = scenario.conjoined()
    for _ in range(probes):
        p = _random_prefix(inst, rng, max_depth=3)
        if len(p) - 1 >= inst.horizon:
            continue
        if len(_children(inst, (p, _residual(inst, conj, p)))) > 1:
            return False
    return True


# --- shipped instances -------------------------------------------------------


def binary_branching(n: int) -> ScenarioLogicInstance:
    """Length-n binary scenarios: every proper prefix branches into 0 and 1.

    The single formula ``true`` already admits 2^n concrete scenarios,
    the standard witness that a constant-size declarative specification
    can encode exponentially many behaviors.
    """
    if n < 1:
        raise RangeError("n must be >= 1")
    schema = SceneSchema((("bit", "dimensionless"),))
    bits = ((0.0,), (1.0,))
    return ScenarioLogicInstance(
        id=f"binary-branching-{n}",
        schema=schema,
        step=1.0,
        horizon=n - 1,
        initial_scenes=tuple(Scene(schema, v) for v in bits),
        successors=lambda samples: bits,
        markov=True,
    )


def binary_scenarios(n: int) -> AbstractScenario:
    """The unconstrained abstract scenario over binary_branching(n)."""
    return AbstractScenario(TrueFormula(), (), binary_branching(n))


def encode_logical(scenario) -> ScenarioLogicInstance:
    """Branching encoding of a finite logical scenario.

    The first expansion branches into the starting scenes of the finitely
    many parameter points; afterwards each prefix continues along the
    realized trajectories it still matches exactly. Enumerating the
    encoding recovers exactly the image of the logical scenario.
    """
    axes = scenario.space.axes
    if not all(isinstance(a, DiscreteAxis) for a in axes):
        raise ComplexityError(
            "encoding requires a finite parameter space (all axes discrete)"
        )
    xs = sorted(itertools.product(*(a.values for a in axes)))
    trajectories = [realize(scenario, x) for x in xs]
    horizon = trajectories[0].grid.count - 1
    initials = _sorted_unique([(t.samples[0],) for t in trajectories])

    def successors(samples: Path) -> tuple[Values, ...]:
        ln = len(samples)
        key = tuple(s.values for s in samples)
        nxt = set()
        for t in trajectories:
            if ln < len(t.samples) and tuple(s.values for s in t.samples[:ln]) == key:
                nxt.add(t.samples[ln].values)
        return tuple(sorted(nxt))

    return ScenarioLogicInstance(
        id=f"encoding-of-{scenario.name}",
        schema=trajectories[0].schema,
        step=trajectories[0].grid.step,
        horizon=horizon,
        initial_scenes=tuple(p[0] for p in initials),
        successors=successors,
    )


def delta_step_instance(
    schema: SceneSchema,
    deltas: Sequence[Sequence[float]],
    step: float,
    horizon: int,
    initial_scenes: Sequence[Scene],
    id: str = "step",
) -> ScenarioLogicInstance:
    """Quantized per-step motion: each action adds a fixed delta vector."""
    deltas = tuple(tuple(float(v) for v in d) for d in deltas)
    if not deltas:
        raise RangeError("need at least one action delta")
    for d in deltas:
        if len(d) != schema.k:
            raise SchemaError("delta length does not match the schema")

    def successors(samples: Path) -> tuple[Values, ...]:
        end = samples[-1].values
        return tuple(tuple(v + dv for v, dv in zip(end, d)) for d in deltas)

    return ScenarioLogicInstance(
        id=id,
        schema=schema,
        step=step,
        horizon=horizon,
        initial_scenes=tuple(initial_scenes),
        successors=successors,
        markov=True,
    )


def quantized_motion_instance(
    schema: SceneSchema,
    accels: Sequence[float],
    step: float,
    horizon: int,
    probe_scenes: Sequence[Scene],
    snap_tol: float = 1e-6,
    x: str = "x",
    y: str = "y",
    vx: str = "vx",
    vy: str = "vy",
    id: str = "quantized-motion",
) -> ScenarioLogicInstance:
    """Planar kinematics with a finite acceleration grid per step.

    ``probe_scenes`` is the start set. Successors advance position by the
    current velocity and velocity by one of the quantized accelerations.
    Starts and steps match within snap_tol, so trajectories produced by
    exact closed forms still monitor cleanly despite float drift.
    """
    ix, iy = schema.index(x), schema.index(y)
    ivx, ivy = schema.index(vx), schema.index(vy)
    pairs = tuple(itertools.product(accels, accels))

    def successors(samples: Path) -> tuple[Values, ...]:
        # Every successor shares the end scene's position step.
        v = samples[-1].values
        moved = list(v)
        moved[ix] = v[ix] + v[ivx] * step
        moved[iy] = v[iy] + v[ivy] * step
        out = []
        for ax, ay in pairs:
            moved[ivx] = v[ivx] + ax * step
            moved[ivy] = v[ivy] + ay * step
            out.append(tuple(moved))
        return tuple(out)

    return ScenarioLogicInstance(
        id=id,
        schema=schema,
        step=step,
        horizon=horizon,
        initial_scenes=tuple(probe_scenes),
        successors=successors,
        scene_tol=snap_tol,
        markov=True,
    )
