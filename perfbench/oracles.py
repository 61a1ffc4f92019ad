"""Independent checks of scenkit's outputs.

Everything here works on plain numbers (CSV text, floats, tuples) and
never calls scenkit, so a check cannot agree with the program merely
because it shares its code.
"""

from __future__ import annotations

import csv
import math

#: Tolerance for "a target scene is observed" (the spec's scene_tol).
SCENE_TOL = 1e-6


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a trace CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(c) for c in row] for row in rows[1:]]


def columns(header: list[str], rows: list[list[float]]) -> dict[str, list[float]]:
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


# --- logical sampling ---------------------------------------------------------


def linear_trace_problem(header, rows, expected_header, rows_expected, lines) -> str | None:
    """Every column must follow its line: ``lines`` maps each column but
    ``t`` to (rate, offset), and the value at time t must be
    offset + rate * t within 1e-9."""
    if header != expected_header:
        return f"header {header} != {expected_header}"
    if len(rows) != rows_expected:
        return f"{len(rows)} rows, expected {rows_expected}"
    for row in rows:
        t = row[0]
        for i, name in enumerate(header[1:], start=1):
            rate, offset = lines[name]
            if abs(row[i] - (offset + rate * t)) > 1e-9:
                return f"{name}={row[i]!r} at t={t} differs from {offset} + {rate}*t"
    return None


# --- rural overtaking ---------------------------------------------------------


def rural_problems(col: dict[str, list[float]], n: int, m: int, caps: dict, choice) -> list[str]:
    """Properties every synthesized overtaking trace must have.

    ``caps`` holds v_tractor_max, v_car_max, gap_min and lane_we_y;
    ``choice`` is (overtake_order, blue_passes, final_order).
    """
    overtake_order, _, final_order = choice
    out = []
    actors = [("tractor", caps["v_tractor_max"])]
    actors += [(f"red{k}", caps["v_car_max"]) for k in range(n)]
    actors += [(f"blue{j}", caps["v_car_max"]) for j in range(m)]
    for name, cap in actors:
        for i, (vx, vy) in enumerate(zip(col[f"{name}_vx"], col[f"{name}_vy"])):
            if math.hypot(vx, vy) > cap + 1e-9:
                out.append(f"{name} speed {math.hypot(vx, vy):.4f} > cap {cap:.4f} at row {i}")
                break
    tractor = col["tractor_x"]
    gap = caps["gap_min"]
    for k in range(n):
        if tractor[0] - col[f"red{k}_x"][0] < gap:
            out.append(f"red{k} starts less than {gap} m behind the tractor")
    ahead = [col[f"red{k}_x"][-1] - tractor[-1] for k in range(n)]
    if any(a < gap for a in ahead):
        out.append(f"a red ends less than {gap} m ahead of the tractor: {ahead}")
    if sorted(range(n), key=lambda k: ahead[k]) != list(final_order):
        out.append(f"final order {sorted(range(n), key=lambda k: ahead[k])} != {list(final_order)}")
    for j in range(m):
        if col[f"blue{j}_x"][-1] >= tractor[-1]:
            out.append(f"blue{j} has not passed the tractor at the end")
    lane = caps["lane_we_y"]
    left = []
    for k in range(n):
        ys = col[f"red{k}_y"]
        left.append(next((i for i, y in enumerate(ys) if abs(y - lane) > 1e-6), None))
    if None in left or sorted(range(n), key=lambda k: left[k]) != list(overtake_order):
        out.append(f"lane departures {left} do not follow overtake order {list(overtake_order)}")
    elif len(set(left)) != n:
        out.append(f"two reds leave the lane at the same row: {left}")
    return out


# --- monitoring ---------------------------------------------------------------


def _dist(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def expected_stream_verdicts(scenes, start, targets, tol: float = SCENE_TOL) -> list[str]:
    """Verdict after each fed scene for "start, then eventually a target".

    FALSE from the first scene on when the start is wrong; otherwise
    UNKNOWN until a target is observed within ``tol``, then TRUE.
    """
    state = "false" if _dist(scenes[0], start) > tol else "unknown"
    out = []
    for s in scenes:
        if state == "unknown" and any(_dist(s, t) <= tol for t in targets):
            state = "true"
        out.append(state)
    return out


# --- abstract enumeration -------------------------------------------------------


def count_paths(initial, successors, length: int, always, goal=None) -> int:
    """Number of value sequences of ``length`` scenes that start in
    ``initial``, step through ``successors``, satisfy ``always`` at every
    position and ``goal`` at some position (no goal: always satisfied).

    A dynamic program over (value, goal seen) per position.
    """
    def seen(v):
        return goal is None or goal(v)

    states: dict[tuple, int] = {}
    for v in initial:
        if always(v):
            key = (v, seen(v))
            states[key] = states.get(key, 0) + 1
    for _ in range(length - 1):
        nxt: dict[tuple, int] = {}
        for (v, s), c in states.items():
            for w in successors(v):
                if always(w):
                    key = (w, s or seen(w))
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return sum(c for (_, s), c in states.items() if s)


def delta_path_problem(values, start, deltas, length, always, goal) -> str | None:
    """A single delta-step path: right start, length, steps and constraint."""
    if len(values) != length:
        return f"length {len(values)} != {length}"
    if values[0] != start:
        return f"starts at {values[0]}, not {start}"
    for a, b in zip(values, values[1:]):
        if b - a not in deltas:
            return f"step {a} -> {b} is not an action"
    if not all(always(v) for v in values):
        return f"{values} leaves the box"
    if not any(goal(v) for v in values):
        return f"{values} never reaches the goal"
    return None
