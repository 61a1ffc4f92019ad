"""Reference implementations that the tests hold the library to.

Each is kept once, verbatim from the code it replaced, so a differential
test compares the current code with what scenkit computed before a
faster path went in.
"""

import random

from scenkit import logic
from scenkit.core import Trajectory
from scenkit.errors import ComplexityError, RejectionBudgetError, UnsatisfiableError
from scenkit.formulas import FalseFormula, TrueFormula, conjoin, progress, settle
from scenkit.logic import _children, _residual, _roots
from scenkit.logical import derive_seed


# --- abstract sampling -------------------------------------------------------


def _per_node_walk(scenario, count, strategy, rng_seed, max_attempts=10_000):
    """uniform-branch and rejection as sampled before the state memo, kept
    as the reference: every step of every attempt computes its node's
    children again, and a rejection leaf progresses the whole formula
    over its path."""
    inst = scenario.instance
    conj = scenario.conjoined()
    if isinstance(settle(conj, inst.horizon), FalseFormula):
        raise UnsatisfiableError("the constraint formula is unsatisfiable")
    if inst.initial_scenes is None:
        raise ComplexityError("sampling needs a finite initial scene set")
    guide = conj if strategy == "uniform-branch" else conjoin(scenario.world)
    roots = _roots(inst, guide)
    if not roots:
        raise UnsatisfiableError("no admissible starting scene")
    out = []
    attempts = accepted = 0
    while len(out) < count:
        if attempts >= max_attempts:
            rate = accepted / attempts
            raise RejectionBudgetError(
                f"gave up after {attempts} attempts (acceptance rate {rate:.3g})",
                acceptance_rate=rate,
            )
        rng = random.Random(derive_seed(rng_seed, attempts))
        attempts += 1
        path, r = roots[rng.randrange(len(roots))]
        dead = False
        for _ in range(inst.horizon):
            kids = _children(inst, (path, r))
            if not kids:
                dead = True
                break
            path, r = kids[rng.randrange(len(kids))]
        if dead:
            continue
        if strategy == "rejection":
            r = _residual(inst, conj, path)
        if not isinstance(r, TrueFormula):
            continue
        accepted += 1
        out.append(Trajectory(inst.schema, inst.grid(len(path)), path))
    return out


def _tuple_path_walks(scenario, count, strategy, rng_seed, max_attempts=10_000):
    """uniform-branch and rejection as sampled before a walk kept its path
    in one list, kept verbatim as the reference: a step extends the path
    tuple by its new scene."""
    inst = scenario.instance
    conj = scenario.conjoined()
    if isinstance(settle(conj, inst.horizon), FalseFormula):
        raise UnsatisfiableError("the constraint formula is unsatisfiable")
    if inst.initial_scenes is None:
        raise ComplexityError("sampling needs a finite initial scene set")
    schema, grid = inst.schema, inst.grid(inst.full_length())
    if strategy == "uniform-branch":
        roots = _roots(inst, conj)
    else:
        check = settle(scenario.constraints, inst.horizon)
        roots = [
            (p, r, progress(check, p[0], 0, inst.horizon, inst.scene_tol))
            for p, r in _roots(inst, conjoin(scenario.world))
        ]
    if not roots:
        raise UnsatisfiableError("no admissible starting scene")

    def children(node: tuple) -> list[tuple]:
        path = node[0]
        kids = _children(inst, node[:2])
        if strategy == "uniform-branch":
            return [(p[-1], r) for p, r in kids]
        position, check = len(path), node[2]
        return [
            (p[-1], r, progress(check, p[-1], position, inst.horizon, inst.scene_tol))
            for p, r in kids
        ]

    states = None
    if inst.markov:
        states = scenario.__dict__.setdefault("_walks", logic._States(0))
        states.cap = len(states.memo) + count * inst.full_length()
    out = []
    attempts = 0
    while len(out) < count:
        if attempts >= max_attempts:
            rate = len(out) / attempts
            raise RejectionBudgetError(
                f"gave up after {attempts} attempts (acceptance rate {rate:.3g})",
                acceptance_rate=rate,
            )
        rng = random.Random(derive_seed(rng_seed, attempts))
        attempts += 1
        node = roots[rng.randrange(len(roots))]
        for _ in range(inst.horizon):
            kids = children(node) if states is None else states.lookup(node, children)
            if not kids:
                break
            scene, *residuals = kids[rng.randrange(len(kids))]
            node = (node[0] + (scene,), *residuals)
        else:
            if isinstance(node[-1], TrueFormula):
                out.append(logic._trusted_trajectory(schema, grid, node[0]))
    return out
