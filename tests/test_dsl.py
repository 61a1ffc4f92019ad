import itertools
import random
import time
from pathlib import Path

import pytest

from scenkit import dsl
from scenkit.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Next,
    Or,
    SceneConst,
    TrueFormula,
)
from scenkit.core import Scene, Trajectory
from scenkit.fixtures import straight_drive_trajectory
from scenkit.logical import realize
from scenkit.monitoring import Verdict, monitor_word

ASSETS = Path(__file__).resolve().parents[1] / "src" / "scenkit" / "assets"


@pytest.fixture(scope="module")
def drive_spec():
    return (ASSETS / "straight_drive.scn").read_text()


@pytest.fixture(scope="module")
def slope_spec():
    return (ASSETS / "slope_drive.scn").read_text()


# --- parsing ---------------------------------------------------------------------


def test_shipped_specs_parse(drive_spec, slope_spec):
    for text in (drive_spec, slope_spec):
        result = dsl.parse(text)
        assert result.ok, result.diagnostics


def test_empty_input_diagnoses_expected_declaration():
    result = dsl.parse("")
    assert not result.ok
    assert result.document is None
    assert result.diagnostics[0].code == "PAR002"
    assert "declaration" in result.diagnostics[0].message


def test_diagnostics_carry_position_and_expected_set():
    result = dsl.parse("schema S { x 7 }")
    assert not result.ok
    d = result.diagnostics[0]
    assert d.line == 1 and d.col > 0
    assert d.expected


def test_unknown_character_is_lexical_diagnostic():
    result = dsl.parse("schema S { x: m } @")
    assert not result.ok
    assert any(d.code == "LEX001" for d in result.diagnostics)


def test_no_partial_document_on_error():
    result = dsl.parse("schema Good { x: m } schema Bad {")
    assert result.document is None


def test_multiple_declarations_recover_for_more_diagnostics():
    result = dsl.parse("schema A ( ) schema B ( )")
    assert len(result.diagnostics) >= 2


def test_units_convert_on_parse():
    text = """
    schema S { x: m, vx: m/s }
    logical L {
      start { S.x = 0, S.vx = 40 km/h }
      bind drift(x = 1)
      horizon 1 s step 0.5 s
    }
    """
    spec = dsl.load(text)
    traj = realize(spec.logicals["L"], ())
    assert traj.samples[0]["vx"] == pytest.approx(40.0 / 3.6)


# --- printing ---------------------------------------------------------------------


def test_print_parse_round_trip_on_shipped_fixtures(drive_spec, slope_spec):
    for text in (drive_spec, slope_spec):
        doc = dsl.parse(text).document
        printed = dsl.print_document(doc)
        again = dsl.parse(printed)
        assert again.ok
        assert again.document == doc
        assert dsl.print_document(again.document) == printed


def test_print_document_of_deep_formulas_round_trips():
    # The printer keeps an explicit stack and nodes compare by identity,
    # so nesting is not limited.
    nexts = "fixture f = " + "next " * 3000 + "true"
    mixed = (
        "fixture f = " + "always[<=2] (true or eventually (" * 1500
        + "false" + "))" * 1500
    )
    for text in (nexts, mixed):
        doc = dsl.parse(text).document
        printed = dsl.print_document(doc)
        again = dsl.parse(printed)
        assert again.ok
        assert again.document == doc
        assert dsl.print_document(again.document) == printed
    assert dsl.print_document(dsl.parse(nexts).document) == nexts + "\n"


# Documents at the edges of every bracketed list and every unit spelling,
# each with the printed document (parsed) or rendered diagnostics (refused).
# A comma after a list item is optional and a trailing one is allowed;
# set{} and weights() need a first number and take no trailing comma; a bare
# m before / is a unit only as m/s.
_GRAMMAR_EDGES = [
    ('fixture f = scene(x = 1 y = 2)', 'fixture f = scene(x = 1.0, y = 2.0)\n'),
    ('fixture f = scene(x = 1, y = 2,)', 'fixture f = scene(x = 1.0, y = 2.0)\n'),
    ('fixture f = scene(x = 1, y = 2', 'PAR002 at 1:31: expected a dimension name (expected ident)'),
    ('fixture f = scene(x = 1,', 'PAR002 at 1:25: expected a dimension name (expected ident)'),
    ('fixture f = scene()', 'fixture f = scene()\n'),
    ('fixture f = pred(x in [0, 1] y in [0, 2])', 'fixture f = pred(x in [0.0, 1.0], y in [0.0, 2.0])\n'),
    ('fixture f = pred(x - y in [0, 1],)', 'fixture f = pred(x - y in [0.0, 1.0])\n'),
    ('fixture f = pred(x in [0, 1]', 'PAR002 at 1:29: expected a dimension name (expected ident)'),
    ('fixture f = pred(x in [0', 'PAR002 at 1:25: expected , (expected ,)'),
    ('schema s { x: m y: s }', 'schema s { x: m, y: s }\n'),
    ('schema s { x: m/s^2, }', 'schema s { x: m/s^2 }\n'),
    ('schema s { x: m,', 'PAR002 at 1:17: expected a dimension name (expected ident)'),
    ('schema s { }', 'schema s {  }\n'),
    ('model d = drift(x = 1 y = 2)', 'model d = drift(x = 1.0, y = 2.0)\n'),
    ('model d = drift(x = 1,)', 'model d = drift(x = 1.0)\n'),
    ('model d = drift(x = 1', 'PAR002 at 1:22: expected an argument name (expected ident)'),
    ('model d = drift(,)', 'PAR001 at 1:17: expected an argument name (expected ident)'),
    ('logical l { start { s.x = 0 s.y = 1 } bind drift(x = 1) horizon 1 s step 0.1 s }', 'PAR001 at 1:30: expected a schema name (expected ident)'),
    ('logical l { start { s.x = 0, } bind drift(x = 1) horizon 1 s step 0.1 s }', 'logical l {\n  start { s.x = 0.0 }\n  bind drift(x = 1.0)\n  horizon 1.0 step 0.1\n}\n'),
    ('logical l { start { s.x = 0', 'PAR002 at 1:28: expected a schema name (expected ident)'),
    ('logical l { param p: set{} start { s.x = 0 } bind drift(x = 1) horizon 1 s step 0.1 s }', 'PAR001 at 1:26: expected a number (expected number)'),
    ('logical l { param p: set{1, 2,} start { s.x = 0 } bind drift(x = 1) horizon 1 s step 0.1 s }', 'PAR001 at 1:31: expected a number (expected number)'),
    ('logical l { param p: set{1 2} start { s.x = 0 } bind drift(x = 1) horizon 1 s step 0.1 s }', 'PAR001 at 1:28: expected } (expected })'),
    ('logical l { param p: set{1, 2} ~ weights() start { s.x = 0 } bind drift(x = 1) horizon 1 s step 0.1 s }', 'PAR001 at 1:42: expected a number (expected number)'),
    ('logical l { param p: set{1, 2} ~ weights(1, 3) start { s.x = 0 } bind drift(x = 1) horizon 1 s step 0.1 s }', 'logical l {\n  param p: set{1.0, 2.0} ~ weights(1.0, 3.0)\n  start { s.x = 0.0 }\n  bind drift(x = 1.0)\n  horizon 1.0 step 0.1\n}\n'),
    ('logical l { param p: set{1, 2} ~ weights(1,', 'PAR002 at 1:44: expected a number (expected number)'),
    ('logical l { param p: set{-5 km/h, 1 m/s', 'PAR002 at 1:40: expected } (expected })'),
    ('model d = drift(x = 3 m / 2)', 'PAR001 at 1:25: expected = (expected =)'),
    ('model d = drift(x = 3 m/s^3)', 'PAR001 at 1:26: expected an argument name (expected ident)'),
    ('model d = drift(x = 3 m/s^ 2.0)', 'PAR001 at 1:26: expected an argument name (expected ident)'),
    ('model d = drift(x = 3 s / 2)', 'model d = drift(x = 3.0 / 2.0)\n'),
    ('model d = drift(x = 36 km/h, y = 2 m/s^2, z = 4 m/s, w = 5 m)', 'model d = drift(x = 10.0, y = 2.0, z = 4.0, w = 5.0)\n'),
    ('model d = drift(x = 1 km/ 2)', 'PAR001 at 1:25: expected = (expected =)'),
    ('model d = drift(x = 1 km)', 'PAR001 at 1:25: expected = (expected =)'),
    ('logical l { param p: range(-36 km/h, 3 m/s^2) ~ normal(1 m, 2 s) start { s.x = 0 } bind drift(x = 1) horizon 1 km/ step 0.1 s }', "PAR001 at 1:112: expected 'step' (expected step)"),
    ('logical l { param p: range(-36 km/h, 3 m/s^2) ~ normal(1 m, 2 s) start { s.x = 0 } bind drift(x = 1) horizon 1 s step 0.1 s }', 'logical l {\n  param p: range(-10.0, 3.0) ~ normal(1.0, 2.0)\n  start { s.x = 0.0 }\n  bind drift(x = 1.0)\n  horizon 1.0 step 0.1\n}\n'),
    ('schema s { a: km/h, b: enum, c: dimensionless, d: m/s^2 }', 'schema s { a: m/s, b: enum-code, c: dimensionless, d: m/s^2 }\n'),
    ('schema s { x: m / }', 'PAR001 at 1:17: expected a dimension name (expected ident)'),
    ('schema s { x: km }', 'PAR001 at 1:15: expected a unit (expected dimensionless, enum, enum-code, km/h, m, m/s, m/s^2, s)'),
    ('abstract a { use s horizon 2 s step 36 km/h bound x 3 m bound y 1 m/s^2 constraint pred(x in [0 m, 1 km/h]) }', 'abstract a {\n  use s\n  horizon 2.0 step 10.0\n  bound x 3.0\n  bound y 1.0\n  constraint pred(x in [0.0, 0.2777777777777778])\n}\n'),
    # A window is a whole number of steps >= 1.
    ('fixture f = eventually[<=1e3] always[<=2.0] true', 'fixture f = eventually[<=1000] always[<=2] true\n'),
    ('fixture f = always[<=0] true', 'PAR001 at 1:22: expected a whole number of steps >= 1 (expected number)'),
    ('fixture f = always[<=2.7] true', 'PAR001 at 1:22: expected a whole number of steps >= 1 (expected number)'),
    ('fixture f = always[<=1e400] true', 'PAR001 at 1:22: expected a whole number of steps >= 1 (expected number)'),
    ('fixture f = always[<=-1] true', 'PAR001 at 1:22: expected a whole number of steps >= 1 (expected number)'),
    ('fixture f = always[<=1.2.3] true', "LEX002 at 1:22: malformed number '1.2.3'\nPAR001 at 1:22: expected a whole number of steps >= 1 (expected number)"),
    ('fixture f = always[<=', 'PAR002 at 1:22: expected a whole number of steps >= 1 (expected number)'),
    # Arithmetic prints with the fewest parentheses that parse back to it.
    ('model d = drift(x = 1 - (2 - 3) - 4 * (5 / 6) / (7 * 8), y = ((1 + 2) * 3 + 4) * 5, z = -(1 + 2) * --3 - -4)',
     'model d = drift(x = 1.0 - (2.0 - 3.0) - 4.0 * (5.0 / 6.0) / (7.0 * 8.0), y = ((1.0 + 2.0) * 3.0 + 4.0) * 5.0, z = -(1.0 + 2.0) * --3.0 - -4.0)\n'),
    ('model d = drift(x = 1.2.3)', "LEX002 at 1:21: malformed number '1.2.3'\nPAR001 at 1:21: expected an expression (expected number, identifier, ()"),
]


@pytest.mark.parametrize("text, expected", _GRAMMAR_EDGES)
def test_grammar_edges(text, expected):
    result = dsl.parse(text)
    if result.ok:
        assert dsl.print_document(result.document) == expected
    else:
        assert "\n".join(d.render() for d in result.diagnostics) == expected


@pytest.mark.parametrize(
    "text, other",
    [
        ("fixture f = " + "next " * 3000 + "true", "fixture f = " + "next " * 3000 + "false"),
        ("fixture f = " + "next " * 3000 + "true", "fixture f = " + "next " * 2999 + "true"),
        ("fixture f = " + " or ".join(f"g{i}" for i in range(3000)),
         "fixture f = " + " or ".join(f"g{i}" for i in range(2999)) + " or h"),
        ("fixture f = " + " or ".join(f"g{i}" for i in range(3000)),
         "fixture f = " + " and ".join(f"g{i}" for i in range(3000))),
    ],
)
def test_deep_documents_compare_and_hash_without_recursion_error(text, other):
    a, b, c = (dsl.parse(t).document for t in (text, text, other))
    assert a == b and hash(a) == hash(b)
    assert a != c and c != a


def test_formula_node_equality_is_structural():
    two = dsl.parse("fixture f = eventually[<=2] pred(x in [0, 1]) and next g").document
    node = two.decls[0].formula
    assert node == And(
        Eventually(dsl.FPred((("x", None, dsl.Num(0.0), dsl.Num(1.0)),)), 2),
        Next(dsl.FRef("g")),
    )
    assert node != Or(node.left, node.right)
    assert Eventually(TrueFormula(), 2) != Eventually(TrueFormula(), None)
    assert dsl.FRef("g") != dsl.FRef("h") and TrueFormula() != FalseFormula()
    assert TrueFormula() != "true"
    assert {node: 1}[dsl.parse(dsl.print_document(two)).document.decls[0].formula] == 1


def test_equal_document_formulas_are_one_node():
    text = "fixture f = eventually[<=2] pred(x in [0, 1 + 2]) and next (g or scene(x = -1))"
    node = dsl.parse(text).document.decls[0].formula
    assert dsl.parse(text).document.decls[0].formula is node
    assert And(
        Eventually(
            dsl.FPred((("x", None, dsl.Num(0.0), dsl.Bin("+", dsl.Num(1.0), dsl.Num(2.0))),)), 2
        ),
        Next(Or(dsl.FRef("g"), dsl.FScene((("x", dsl.Neg(dsl.Num(1.0))),)))),
    ) is node
    assert Eventually(node.left.sub, within=2) is node.left
    assert TrueFormula() is TrueFormula() and dsl.FRef("g") is not dsl.FRef("h")


def test_deep_document_formulas_hash_and_compare_without_recursion():
    ors = "fixture f = " + " or ".join(f"g{i}" for i in range(3000))
    sums = "fixture f = pred(x in [" + " + ".join(["1"] * 3000) + ", inf])"
    for text in (ors, sums):
        a, b = (dsl.parse(text).document.decls[0].formula for _ in range(2))
        assert a is b and a == b and hash(a) == hash(b)


# --- resolution --------------------------------------------------------------------


def test_a_second_load_holds_its_own_schema(drive_spec):
    first, second = dsl.load(drive_spec), dsl.load(drive_spec)
    plane = second.schemas["plane"]
    assert first.schemas["plane"] is plane
    # The second load gets back the first load's scene(...) nodes, and
    # their targets hold the second load's schema.
    reach = second.abstracts["reach"].constraints
    assert reach is first.abstracts["reach"].constraints
    stack, targets = [reach], []
    while stack:
        f = stack.pop()
        if isinstance(f, SceneConst):
            targets.append(f.target)
        stack += [v for v in f.__reduce__()[1] if isinstance(v, Formula)]
    assert len(targets) == 3 and all(t.schema is plane for t in targets)


def test_resolution_reports_unknown_schema():
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load("abstract A { use nowhere horizon 1 s step 0.5 s constraint true }")
    assert any(d.code == "RES001" for d in err.value.diagnostics)


def test_resolution_requires_complete_start():
    text = """
    schema S { x: m, y: m }
    logical L { start { S.x = 0 } bind drift(x = 1) horizon 1 s step 0.5 s }
    """
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load(text)
    assert any(d.code == "TYP002" for d in err.value.diagnostics)


def test_resolution_rejects_unknown_model_factory():
    text = """
    schema S { x: m }
    logical L { start { S.x = 0 } bind teleport(x = 1) horizon 1 s step 0.5 s }
    """
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load(text)
    assert any(d.code == "RES001" for d in err.value.diagnostics)


def test_scene_formula_must_cover_schema():
    text = """
    schema S { x: m, y: m }
    abstract A { use S horizon 1 s step 0.5 s constraint scene(x = 1) }
    """
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load(text)
    assert any(d.code == "TYP002" for d in err.value.diagnostics)


def test_duplicate_declaration_diagnosed():
    text = "schema S { x: m } schema S { x: m }"
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load(text)
    assert any(d.code == "RES002" for d in err.value.diagnostics)


def test_named_model_alias_resolves():
    text = """
    schema S { x: m }
    model crawl = drift(x = 0.5)
    logical L { start { S.x = 0 } bind crawl() horizon 1 s step 0.5 s }
    """
    spec = dsl.load(text)
    traj = realize(spec.logicals["L"], ())
    assert traj.samples[-1]["x"] == pytest.approx(0.5)


def test_fixture_reference_resolves_in_abstract(drive_spec):
    spec = dsl.load(drive_spec)
    scenario = spec.abstracts["reach"]
    formula = scenario.constraints
    assert isinstance(formula, And)
    assert isinstance(formula.left, SceneConst)
    assert isinstance(formula.right, Eventually)


def _abstract_with(constraint: str, fixtures: str = "") -> str:
    return f"""
    schema S {{ x: m }}
    {fixtures}
    abstract A {{ use S horizon 1 s step 0.5 s bound x 1 constraint {constraint} }}
    """


def test_deep_formulas_without_fixtures_resolve():
    # Nesting is resolved without recursion and is not limited.
    conjuncts = " and ".join(f"pred(x in [{-i}, {i}])" for i in range(40))
    nexts = "next " * 33 + "true"
    long_chain = " and ".join(["true"] * 3000)
    for constraint in (conjuncts, nexts, long_chain):
        spec = dsl.load(_abstract_with(constraint))
        assert "A" in spec.abstracts


@pytest.mark.parametrize(
    "bound", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"], ids=["parens", "minus"]
)
def test_deep_arithmetic_is_a_diagnostic(bound):
    text = f"schema s {{ x: m }}\nfixture f = pred(x in [{bound}, 2])\n"
    result = dsl.parse(text)
    assert not result.ok
    assert [d.code for d in result.diagnostics] == ["PAR001"]
    assert f"deeper than {dsl.MAX_EXPR_DEPTH}" in result.diagnostics[0].message
    with pytest.raises(dsl.ResolutionError):
        dsl.load(text)


def test_arithmetic_at_the_depth_bound_loads_and_prints():
    depth = dsl.MAX_EXPR_DEPTH
    for bound, value in (("(" * depth + "1" + ")" * depth, 1.0), ("-" * depth + "1", 1.0)):
        text = f"schema s {{ x: m }}\nfixture f = pred(x in [{bound}, 2])\n"
        doc = dsl.parse(text).document
        assert dsl.parse(dsl.print_document(doc)).document == doc
        (item,) = dsl.load(text).fixtures["f"].items
        assert dsl._eval_expr(item[2], {}, []) == value


@pytest.mark.parametrize("terms", [102, 3000])
def test_long_arithmetic_chains_load_and_round_trip(terms):
    # A chain is walked in a loop, and printed without the parentheses
    # that the parser bounds.
    text = _abstract_with("f", f"fixture f = pred(x in [0, {' + '.join(['1'] * terms)}])")
    doc = dsl.parse(text).document
    printed = dsl.print_document(doc)
    again = dsl.parse(printed)
    assert again.ok and again.document == doc
    assert dsl.print_document(again.document) == printed
    atom = dsl.load(text).abstracts["A"].constraints
    assert atom.predicate.bounds == (("x", 0.0, float(terms)),)


def test_deeply_nested_fixtures_parse_without_recursion():
    # Parentheses and prefix operators are parsed in a loop, not one
    # call per level.
    parens = "fixture f = " + "(" * 500 + "true" + ")" * 500
    spec = dsl.load(_abstract_with("f", parens))
    assert isinstance(spec.abstracts["A"].constraints, TrueFormula)

    nexts = "fixture f = " + "next " * 3000 + "true"
    node = dsl.load(_abstract_with("f", nexts)).abstracts["A"].constraints
    depth = 0
    while isinstance(node, Next):
        node, depth = node.sub, depth + 1
    assert depth == 3000 and isinstance(node, TrueFormula)

    mixed = "fixture f = " + "always (next (" * 400 + "true" + "))" * 400 + " and true"
    node = dsl.load(_abstract_with("f", mixed)).abstracts["A"].constraints
    assert isinstance(node, And) and isinstance(node.right, TrueFormula)
    node, depth = node.left, 0
    while isinstance(node, Always):
        assert isinstance(node.sub, Next)
        node, depth = node.sub.sub, depth + 1
    assert depth == 400 and isinstance(node, TrueFormula)


@pytest.mark.parametrize(
    "fixtures",
    ["fixture f = f and true", "fixture f = f and f", "fixture f = g or g\nfixture g = next f"],
)
def test_fixture_cycle_is_diagnosed_once(fixtures):
    text = _abstract_with("f", fixtures)
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load(text)
    # Reported at the abstract whose formulas name the fixture.
    line, col = _position(text, "abstract")
    assert [d.render() for d in err.value.diagnostics] == [
        f"RES001 at {line}:{col}: fixture 'f' refers to itself"
    ]


def _position(text: str, word: str) -> tuple[int, int]:
    """Line and column, from 1, of the first ``word`` in ``text``."""
    before = text[: text.index(word)]
    return before.count("\n") + 1, len(before) - before.rfind("\n")


def test_resolution_diagnostics_carry_their_declarations_position():
    text = """schema S { x: m }
    abstract A {
      use S horizon 1 s step 0.5 s
      bound q 1
      constraint true
    }
    abstract B { use S horizon 1 s step 0.5 s constraint pred(z in [0, 1]) }
    abstract C { use T horizon 1 s step 0.5 s constraint true }
      logical L { start { S.x = 0 } bind teleport(x = 1) horizon 1 s step 0.5 s }
    schema S { x: m }
    """
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load(text)
    assert [d.render() for d in err.value.diagnostics] == [
        "RES002 at 10:5: duplicate declaration 'S'",
        "RES003 at 2:5: bound on unknown dimension 'q'",
        "RES003 at 7:5: unknown dimension 'z' in pred()",
        "RES001 at 8:5: unknown schema 'T'",
        "RES001 at 9:7: unknown model factory 'teleport' "
        "(expected constant_velocity, constant_acceleration, drift)",
    ]
    # Positions are not part of the document.
    doc = dsl.parse(text).document
    assert dsl.parse(dsl.print_document(doc)).document == doc


def _logical(params="", start="0", bind="1", horizon="1 s", step="0.1 s"):
    return (
        "schema s { x: m }\n"
        f"logical l {{ {params} start {{ s.x = {start} }} bind drift(x = {bind}) "
        f"horizon {horizon} step {step} }}"
    )


def _abstract(constraint="true", horizon="1 s", step="0.1 s"):
    return (
        "schema s { x: m }\n"
        f"abstract a {{ use s horizon {horizon} step {step} bound x 1 constraint {constraint} }}"
    )


def _factory(bind):
    return (
        "schema s { x: m, y: m, vx: m/s, vy: m/s }\n"
        "logical l { start { s.x = 0, s.y = 0, s.vx = 0, s.vy = 0 } "
        f"bind {bind} horizon 1 s step 0.1 s }}"
    )


@pytest.mark.parametrize(
    "text, rendered",
    [
        (_logical(start="1 / 0"), "RES003 at 2:1: division by zero"),
        (_logical(bind="1 / (2 - 2)"), "RES003 at 2:1: division by zero"),
        (_abstract("pred(x in [0, 1 / 0])"), "RES003 at 2:1: division by zero"),
        (_logical("param r: range(3, 1)", bind="r"), "RES003 at 2:1: 'l': axis 'r': lo 3.0 > hi 1.0"),
        ("schema s { }", "RES003 at 1:1: 's': a schema needs at least one dimension"),
        (_logical(step="-0.1 s"), "RES003 at 2:1: 'l': grid step must be positive, got -0.1"),
        (_logical(horizon="-1 s"), "RES003 at 2:1: 'l': grid count must be >= 1, got -9"),
        (_abstract("scene(x = inf)"), "RES003 at 2:1: 'a': non-finite value inf in dimension 'x'"),
        (_logical(step="0 s"), "RES003 at 2:1: 'l': float division by zero"),
        (_abstract(step="0 s"), "RES003 at 2:1: 'a': float division by zero"),
        (_abstract(horizon="1e400 s"), "RES003 at 2:1: 'a': cannot convert float infinity to integer"),
        (_abstract(horizon="1e400 s", step="1e400 s"),
         "RES003 at 2:1: 'a': horizon inf over step inf is not a number"),
        (_logical(horizon="1e400 s", step="1e400 s"),
         "RES003 at 2:1: 'l': horizon inf over step inf is not a number"),
        # An abstract world refuses what a logical grid refuses.
        (_abstract(step="-0.1 s"), "RES003 at 2:1: 'a': grid step must be positive, got -0.1"),
        (_abstract(horizon="-1 s"), "RES003 at 2:1: 'a': grid count must be >= 1, got -9"),
        (_logical("param r: set{1, 2} ~ weights(1)", bind="r"),
         "RES003 at 2:1: 'l': axis 'r': weight count mismatch"),
        # A parameter axis is finite, so every draw lies in the space.
        (_logical("param r: range(1, 1e400)", bind="r"),
         "RES003 at 2:1: 'l': axis 'r': non-finite bound inf"),
        (_logical("param r: set{1, 1e400}", bind="r"),
         "RES003 at 2:1: 'l': axis 'r': non-finite value inf"),
        (_logical("param r: range(-1e308, 1e308)", bind="r"),
         "RES003 at 2:1: 'l': axis 'r': width 1e+308 - -1e+308 is not finite"),
        # The binder's own wording is kept.
        (_logical(start="inf"), "RES003 at 2:1: scenario 'l': non-finite value inf in dimension 'x'"),
        # A NaN bound is an empty interval.
        (_abstract("always pred(x in [0 * inf, 0 * inf])"),
         "RES003 at 2:1: 'a': bound on 'x': lo nan > hi nan"),
        (_abstract("pred(x - x in [0, 0 * inf])"), "RES003 at 2:1: 'a': bound on x-x: lo 0.0 > hi nan"),
        # A factory takes only its own arguments.
        (_factory("constant_velocity(vz = 3, speed = 9)"),
         "RES003 at 2:1: constant_velocity does not take ['vz', 'speed']"),
        (_factory("constant_acceleration(ax = 1, vx = 2)"),
         "RES003 at 2:1: constant_acceleration does not take ['vx']"),
        (_factory("drift(x = 1, q = 2)"), "RES003 at 2:1: drift on unknown dimensions ['q']"),
        # A horizon is a whole number of steps.
        (_logical(horizon="1.5 s", step="1 s"), "RES003 at 2:1: 'l': time 1.5 is not aligned to step 1.0"),
        (_logical(horizon="2.7 s", step="1 s"), "RES003 at 2:1: 'l': time 2.7 is not aligned to step 1.0"),
        (_abstract(horizon="0.5 s", step="1 s"), "RES003 at 2:1: 'a': time 0.5 is not aligned to step 1.0"),
        (_abstract(horizon="2.5 s", step="1 s"), "RES003 at 2:1: 'a': time 2.5 is not aligned to step 1.0"),
        # An infinite step is refused as an infinite horizon is.
        (_logical(horizon="10 s", step="1e400 s"), "RES003 at 2:1: 'l': grid step must be finite, got inf"),
        (_abstract(horizon="10 s", step="1e400 s"), "RES003 at 2:1: 'a': grid step must be finite, got inf"),
    ],
    ids=[
        "start-division", "bind-division", "pred-division", "reversed-range", "empty-schema",
        "negative-step", "negative-horizon", "infinite-scene", "zero-step", "abstract-zero-step",
        "abstract-infinite-horizon", "abstract-nan-grid", "logical-nan-grid",
        "abstract-negative-step", "abstract-negative-horizon",
        "weight-count", "infinite-range", "infinite-set", "wide-range", "binder-wording",
        "nan-bound", "nan-diff", "velocity-arguments", "acceleration-arguments", "drift-arguments",
        "logical-half-step", "logical-off-grid", "abstract-half-step", "abstract-off-grid",
        "logical-infinite-step", "abstract-infinite-step",
    ],
)
def test_library_errors_while_resolving_are_diagnostics(text, rendered):
    with pytest.raises(dsl.ResolutionError) as err:
        dsl.load(text)
    assert [d.render() for d in err.value.diagnostics] == [rendered]


def test_a_zero_abstract_horizon_is_one_step():
    inst = dsl.load(_abstract(horizon="0 s")).abstracts["a"].instance
    assert (inst.step, inst.horizon) == (0.1, 1)


def test_a_zero_divisor_at_sampling_time_is_a_resolution_error():
    scenario = dsl.load(_logical("param r: set{1, 2}", bind="1 / (r - 2)")).logicals["l"]
    realize(scenario, (1.0,))
    with pytest.raises(dsl.ResolutionError, match="division by zero"):
        realize(scenario, (2.0,))


def test_doubling_fixture_chain_resolves_to_shared_nodes():
    # f31 names 2**31 leaves; each fixture is resolved once, as one node.
    lines = ["fixture f0 = pred(x in [0, 1])"]
    lines += [f"fixture f{i} = f{i - 1} and f{i - 1}" for i in range(1, 32)]
    spec = dsl.load(_abstract_with("f31", "\n".join(lines)))
    node = spec.abstracts["A"].constraints
    for _ in range(31):
        assert isinstance(node, And) and node.left is node.right
        node = node.left
    assert isinstance(node, Atom)


def test_doubling_fixture_chain_monitors_in_milliseconds():
    # f31 names 2**31 leaves, and progression meets each shared node once.
    lines = ["fixture f0 = always pred(x in [0, 1])"]
    lines += [f"fixture f{i} = f{i - 1} and f{i - 1}" for i in range(1, 32)]
    A = dsl.load(_abstract_with("f31", "\n".join(lines))).abstracts["A"]
    schema = A.instance.schema
    words = [
        Trajectory(schema, A.instance.grid(3), tuple(Scene(schema, (x,)) for x in xs))
        for xs in ((0.0, 0.5, 1.0), (0.0, 0.5, 1.5))
    ]
    start = time.perf_counter()
    # Kept apart from the assertion, whose message would print A.
    verdicts = [monitor_word(w, A) for w in words]
    seconds = time.perf_counter() - start
    assert verdicts == [Verdict.ACCEPTED, Verdict.REJECTED]
    assert seconds < 1.0


def test_param_references_in_start_and_bind():
    text = """
    schema S { x: m, vx: m/s }
    logical L {
      param v: range(1, 3)
      start { S.x = 0, S.vx = v }
      bind drift(x = v)
      horizon 1 s step 0.5 s
    }
    """
    spec = dsl.load(text)
    traj = realize(spec.logicals["L"], (2.0,))
    assert traj.samples[0]["vx"] == 2.0
    assert traj.samples[-1]["x"] == pytest.approx(2.0)


def test_resolved_reach_scenario_monitors_drive(drive_spec):
    spec = dsl.load(drive_spec)
    drive = realize(spec.logicals["straight_drive"], ())
    assert drive == straight_drive_trajectory()
    assert monitor_word(drive, spec.abstracts["reach"]) is Verdict.ACCEPTED


def test_distributions_attach_to_logical():
    text = """
    schema S { x: m }
    logical L {
      param a: range(0, 1) ~ normal(0.5, 0.2)
      param b: set{1, 2} ~ weights(0.25, 0.75)
      start { S.x = a }
      bind drift(x = b)
      horizon 1 s step 0.5 s
    }
    """
    spec = dsl.load(text)
    dist = spec.distributions["L"]
    from scenkit.logical import DiscreteWeighted, TruncatedNormal

    assert isinstance(dist.marginals[0], TruncatedNormal)
    assert isinstance(dist.marginals[1], DiscreteWeighted)


# --- totality fuzzing -------------------------------------------------------------------


def test_parser_is_total_on_random_bytes():
    rng = random.Random(1234)
    pool = "schema logical abstract fixture {}()[]<=~.,:=+-*/ \n\t abc xyz 0123456789 # \"'"
    for _ in range(100_000):
        n = rng.randint(0, 40)
        text = "".join(rng.choice(pool) for _ in range(n))
        result = dsl.parse(text)
        assert (result.document is None) == bool(result.diagnostics) or result.ok


_SCHEMA = "schema s { x: m, y: m }\n"
_LOGICAL = _SCHEMA + "logical l { %s start { s.x = %s, s.y = 0 } bind drift(x = %s) horizon %s s step %s s }"
# Each template has one slot per %s, filled from the literals below.
_DECLARATION_TEMPLATES = [
    "fixture f = eventually[<=%s] always[<=%s] true",
    _SCHEMA + "abstract a { use s horizon %s s step %s s constraint true }",
    _SCHEMA + "abstract a { use s horizon 1 s step 1 s bound x %s bound y %s constraint true }",
    _SCHEMA + "abstract a { use s horizon 1 s step 1 s constraint pred(x in [%s, %s]) }",
    _SCHEMA + "abstract a { use s horizon 1 s step 1 s constraint pred(x - y in [%s, %s]) }",
    _SCHEMA + "abstract a { use s horizon 1 s step 1 s constraint scene(x = %s, y = %s) }",
    _SCHEMA + "abstract a { use s horizon 1 s step 1 s constraint always[<=%s] scene(x = %s, y = 0) }",
    _LOGICAL % ("", "%s", "%s", "1", "0.5"),
    _LOGICAL % ("", "0", "1", "%s", "%s"),
    _LOGICAL % ("param p: range(%s, %s)", "p", "p", "1", "0.5"),
    _LOGICAL % ("param p: set{%s, 1} ~ weights(%s, 1)", "p", "p", "1", "0.5"),
    _LOGICAL % ("param p: range(0, 1) ~ normal(%s, %s)", "p", "p", "1", "0.5"),
]
_EDGE_LITERALS = ["0", "-1", "2.5", "1e308", "1e400", "9" * 400, "inf", "1.2.3"]


def test_parser_is_total_on_grammar_shaped_documents():
    # Every declaration that takes a number, with every edge literal in
    # each of its slots: parse never raises, an accepted document prints
    # back to itself, and resolution fails only by diagnostics.
    for template in _DECLARATION_TEMPLATES:
        for literals in itertools.product(_EDGE_LITERALS, repeat=template.count("%s")):
            text = template % literals
            result = dsl.parse(text)
            assert result.ok != bool(result.diagnostics), text
            if not result.ok:
                continue
            printed = dsl.print_document(result.document)
            assert dsl.parse(printed).document == result.document, text
            try:
                dsl.resolve(result.document)
            except dsl.ResolutionError:
                pass


def test_parser_is_total_on_arbitrary_unicode():
    rng = random.Random(99)
    for _ in range(2_000):
        n = rng.randint(0, 64)
        text = "".join(chr(rng.randint(0, 0x10FFFF - 1)) for _ in range(n))
        try:
            result = dsl.parse(text)
        except Exception as exc:  # noqa: BLE001 - the whole point of the test
            pytest.fail(f"parser raised {exc!r} on {text!r}")
        assert result.ok or result.diagnostics
