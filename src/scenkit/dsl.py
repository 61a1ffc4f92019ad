"""Scenario specification DSL: lexer, parser, printer, resolver.

A spec document declares schemas, named model bindings, logical
scenarios (parameters, start scene, model binds, horizon), abstract
scenarios (instance bounds, world and constraint formulas) and named
formula fixtures. Parsing is total: any input yields either a document
or a list of diagnostics with line/column, offending token and expected
set, never an exception and never a partial document.

A document's formulas are library formulas (``formulas.And`` ...
``Always``) over three unresolved leaves: ``FScene`` and ``FPred``, which
need the abstract's schema, and ``FRef``, which names a fixture. A window
``[<=k]`` takes a whole number k >= 1.

Numbers accept unit suffixes m, s, m/s, m/s^2 and km/h; km/h is converted to
m/s at parse time, so printed documents are always in SI units.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .core import Scene, SceneSchema, TimeGrid, schema_of
from .dynamics import (
    DeterministicModel,
    combine,
    constant_acceleration,
    constant_velocity,
    drift,
)
from .errors import RangeError, ScenarioError
from .formulas import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    HashConsed,
    Next,
    Or,
    SceneConst,
    ScenePredicate,
    TrueFormula,
)
from .logic import AbstractScenario, ScenarioLogicInstance, box_step
from .logical import (
    ContinuousAxis,
    DiscreteAxis,
    DiscreteWeighted,
    LogicalScenario,
    ParameterDistribution,
    ParameterSpace,
    TruncatedNormal,
    Uniform,
)

KMH_PER_MS = 3.6

_UNIT_FACTORS = {"m": 1.0, "s": 1.0, "m/s": 1.0, "m/s^2": 1.0, "km/h": 1.0 / KMH_PER_MS}
#: Unit spellings as token texts, longest first. ``m /`` is no unit
#: unless ``m/s`` follows.
_UNIT_SPELLINGS = (
    (("m", "/", "s", "^", "2"), "m/s^2"),
    (("m", "/", "s"), "m/s"),
    (("km", "/", "h"), "km/h"),
    (("m", "/"), None),
    (("m",), "m"),
    (("s",), "s"),
)
_SCHEMA_UNITS = {"m", "m/s", "m/s^2", "s", "dimensionless", "enum", "enum-code", "km/h"}


# --- diagnostics -------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in a document: a code, its line and column, a
    message, and what was found and expected."""
    code: str
    line: int
    col: int
    message: str
    found: str = ""
    expected: tuple[str, ...] = ()

    def render(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.code} at {self.line}:{self.col}: {self.message}{exp}"


class ParseFailure(Exception):
    """Internal bail-out; surfaces as diagnostics, never escapes parse()."""


# --- tokens ------------------------------------------------------------------

_PUNCT = ("<=", "{", "}", "(", ")", "[", "]", ",", ".", "=", "~", "-", "+", "*", "/", "^", ":")


@dataclass(frozen=True)
class Token:
    """One lexical token of a document, with its line and column."""
    kind: str  # "ident" | "number" | "malformed number" | punct literal | "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            kind = "number"
            try:
                float(lexeme)
            except ValueError:
                # Not a number token, so the parser never converts it.
                kind = "malformed number"
                diags.append(
                    Diagnostic("LEX002", line, col, f"malformed number {lexeme!r}", lexeme)
                )
            tokens.append(Token(kind, lexeme, line, col))
            col += j - i
            i = j
            continue
        matched = None
        for p in _PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token(matched, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        diags.append(Diagnostic("LEX001", line, col, f"unexpected character {ch!r}", ch))
        i += 1
        col += 1
    tokens.append(Token("eof", "", line, col))
    return tokens, diags


# --- document AST ------------------------------------------------------------


class Expr(HashConsed):
    """An arithmetic expression of the document, hash-consed like its
    formulas, so a formula keyed by its expressions hashes them in O(1)."""


@dataclass(frozen=True, eq=False)
class Num(Expr):
    """A number literal of an expression."""
    value: float


@dataclass(frozen=True, eq=False)
class Ref(Expr):
    """A reference to a named parameter in an expression."""
    name: str


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    """The negation of an expression."""
    sub: Expr


@dataclass(frozen=True, eq=False)
class Bin(Expr):
    """A binary arithmetic operation on two expressions."""
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class FScene(Formula):
    """Unresolved leaf of a document formula; resolves to a ``SceneConst``."""
    items: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True, eq=False)
class FPred(Formula):
    """Unresolved leaf of a document formula; resolves to an ``Atom``. An
    item (dim, other, lo, hi) bounds dim, or dim - other unless None."""
    items: tuple[tuple[str, str | None, Expr, Expr], ...]


@dataclass(frozen=True, eq=False)
class FRef(Formula):
    """Unresolved leaf of a document formula; resolves to the named fixture."""
    name: str


@dataclass(frozen=True)
class SchemaDecl:
    """A ``schema`` declaration: its name and its (dimension, unit) pairs."""
    name: str
    dims: tuple[tuple[str, str], ...]
    # Line and column of the keyword token; not part of the document.
    at: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class ModelDecl:
    """A ``model`` declaration: its name, the model factory and its arguments."""
    name: str
    factory: str
    args: tuple[tuple[str, Expr], ...]
    at: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class ParamDecl:
    """A parameter of a logical scenario: a range or a set of values, and its distribution."""
    name: str
    kind: str  # "range" | "set"
    values: tuple[float, ...]  # (lo, hi) for range, members for set
    dist: tuple | None  # ("uniform",) | ("normal", mu, sigma) | ("weights", w...)


@dataclass(frozen=True)
class BindDecl:
    """A model that a logical scenario binds, with its arguments."""
    model: str
    args: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class LogicalDecl:
    """A ``logical`` scenario declaration: parameters, start values,
    bound models, horizon and step."""
    name: str
    params: tuple[ParamDecl, ...]
    start: tuple[tuple[str, str, Expr], ...]  # (schema_name, dim, expr)
    binds: tuple[BindDecl, ...]
    horizon: float
    step: float
    at: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class AbstractDecl:
    """An ``abstract`` scenario declaration: the schema it uses,
    horizon, step, bounds, world and constraint formulas."""
    name: str
    use: str
    horizon: float
    step: float
    bounds: tuple[tuple[str, float], ...]
    world: tuple[Formula, ...]
    constraint: Formula
    at: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class FixtureDecl:
    """A ``fixture`` declaration: a named formula."""
    name: str
    formula: Formula
    at: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


Decl = SchemaDecl | ModelDecl | LogicalDecl | AbstractDecl | FixtureDecl


@dataclass(frozen=True)
class SpecDocument:
    """A parsed document: its declarations in order."""
    decls: tuple[Decl, ...]


@dataclass(frozen=True)
class ParseResult:
    """The document a parse produced, or None, and the diagnostics it found."""
    document: SpecDocument | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.document is not None


# --- parser ------------------------------------------------------------------

_DECL_KEYWORDS = ("schema", "model", "logical", "abstract", "fixture")

#: Deepest nesting of unary minus and parentheses in arithmetic.
MAX_EXPR_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.expr_depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseFailure:
        tok = self.peek()
        code = "PAR002" if tok.kind == "eof" else "PAR001"
        self.diags.append(
            Diagnostic(code, tok.line, tok.col, message, tok.text, expected)
        )
        return ParseFailure()

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what or kind}", (kind,))
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"expected {word!r}", (word,))
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def items(self, close: str, item: Callable[[], Any]) -> tuple:
        """``item`` up to the ``close`` token; the comma after an item is
        optional, so a trailing one is allowed."""
        out = []
        while self.peek().kind != close:
            out.append(item())
            if self.peek().kind == ",":
                self.advance()
        self.expect(close)
        return tuple(out)

    def numbers(self, close: str) -> tuple[float, ...]:
        """One or more comma-separated numbers up to the ``close`` token."""
        values = [self.parse_number_with_unit()]
        while self.peek().kind == ",":
            self.advance()
            values.append(self.parse_number_with_unit())
        self.expect(close)
        return tuple(values)

    def sync_to_decl(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "ident" and tok.text in _DECL_KEYWORDS:
                return
            self.advance()

    # -- numbers, units, expressions -----------------------------------------

    def parse_unit(self) -> str | None:
        """Consume the longest unit spelling at the cursor and return it."""
        texts = tuple(t.text for t in self.tokens[self.pos : self.pos + 5])
        for spelling, unit in _UNIT_SPELLINGS:
            if texts[: len(spelling)] == spelling:
                if unit is not None:
                    self.pos += len(spelling)
                return unit
        return None

    def parse_number(self) -> float:
        """A number or ``inf`` (which the printer writes for a literal past
        the float range) and its optional unit, scaled to SI."""
        if self.at_keyword("inf"):
            self.advance()
            value = math.inf
        else:
            value = float(self.expect("number", "a number").text)
        return value * _UNIT_FACTORS.get(self.parse_unit(), 1.0)

    def parse_number_with_unit(self) -> float:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_number()
        return self.parse_number()

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_term()
            left = Bin(op, left, right)
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            right = self.parse_factor()
            left = Bin(op, left, right)
        return left

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("-", "("):
            # Bounded nesting: no walk of the expression runs out of stack.
            if self.expr_depth == MAX_EXPR_DEPTH:
                raise self.error(f"arithmetic nested deeper than {MAX_EXPR_DEPTH} levels")
            self.advance()
            self.expr_depth += 1
            e = Neg(self.parse_factor()) if tok.kind == "-" else self.parse_expr()
            if tok.kind == "(":
                self.expect(")")
            self.expr_depth -= 1
            return e
        if tok.kind == "number" or self.at_keyword("inf"):
            return Num(self.parse_number())
        if tok.kind == "ident":
            self.advance()
            return Ref(tok.text)
        raise self.error("expected an expression", ("number", "identifier", "("))

    # -- formulas --------------------------------------------------------------

    def parse_formula(self) -> Formula:
        """``or`` over ``and`` over prefixed operands, left-associative.
        Parsed in a loop with one frame per open parenthesis (its pending
        prefix operators and the ``and`` and ``or`` chains built so far),
        so nesting is not bounded by the Python stack."""
        frames = []
        conj = disj = None
        while True:
            ops = self.parse_formula_unary()
            if self.peek().kind == "(":
                self.advance()
                frames.append((ops, conj, disj))
                conj = disj = None
                continue
            f = self.parse_formula_primary()
            while True:
                for op, within in reversed(ops):
                    f = Next(f) if op is Next else op(f, within)
                conj = f if conj is None else And(conj, f)
                if self.at_keyword("and"):
                    self.advance()
                    break
                disj = conj if disj is None else Or(disj, conj)
                conj = None
                if self.at_keyword("or"):
                    self.advance()
                    break
                if not frames:
                    return disj
                self.expect(")")
                f = disj
                ops, conj, disj = frames.pop()

    def parse_within(self) -> int | None:
        """``[<=k]`` for a whole number k >= 1, or nothing."""
        if self.peek().kind != "[":
            return None
        self.advance()
        self.expect("<=")
        k = float(self.peek().text) if self.peek().kind == "number" else 0.0
        if not (k >= 1 and k.is_integer()):
            raise self.error("expected a whole number of steps >= 1", ("number",))
        self.advance()
        self.expect("]")
        return int(k)

    def parse_formula_unary(self) -> list[tuple[type, int | None]]:
        """The prefix operators before an operand, outermost first, each
        with its ``within`` bound."""
        ops = []
        while True:
            if self.at_keyword("next"):
                self.advance()
                ops.append((Next, None))
            elif self.at_keyword("eventually") or self.at_keyword("always"):
                op = Eventually if self.advance().text == "eventually" else Always
                ops.append((op, self.parse_within()))
            else:
                return ops

    def parse_formula_primary(self) -> Formula:
        """An operand other than a parenthesized formula."""
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(
                "expected a formula", ("true", "false", "scene", "pred", "(")
            )
        if tok.text == "true":
            self.advance()
            return TrueFormula()
        if tok.text == "false":
            self.advance()
            return FalseFormula()
        if tok.text == "scene":
            self.advance()
            self.expect("(")
            return FScene(self.items(")", lambda: self.parse_binding("a dimension name")))
        if tok.text == "pred":
            self.advance()
            self.expect("(")
            return FPred(self.items(")", self.parse_bound))
        self.advance()
        return FRef(tok.text)

    def parse_binding(self, what: str) -> tuple[str, Expr]:
        """``name = expr``."""
        name = self.expect("ident", what).text
        self.expect("=")
        return name, self.parse_expr()

    def parse_bound(self) -> tuple[str, str | None, Expr, Expr]:
        """``dim in [lo, hi]`` or ``dim - other in [lo, hi]``."""
        name = self.expect("ident", "a dimension name").text
        other = None
        if self.peek().kind == "-":
            self.advance()
            other = self.expect("ident", "a dimension name").text
        self.expect_keyword("in")
        self.expect("[")
        lo = self.parse_expr()
        self.expect(",")
        hi = self.parse_expr()
        self.expect("]")
        return name, other, lo, hi

    # -- declarations ------------------------------------------------------------

    def parse_schema(self) -> SchemaDecl:
        kw = self.expect_keyword("schema")
        name = self.expect("ident", "a schema name").text
        self.expect("{")
        return SchemaDecl(name, self.items("}", self.parse_dimension), at=(kw.line, kw.col))

    def parse_dimension(self) -> tuple[str, str]:
        """``dim: unit``, the unit in its SI spelling."""
        dim = self.expect("ident", "a dimension name").text
        self.expect(":")
        unit_tok = self.peek()
        unit = self.parse_unit()
        if unit is None:
            if unit_tok.kind == "ident" and unit_tok.text in _SCHEMA_UNITS:
                unit = unit_tok.text
                self.advance()
            else:
                raise self.error("expected a unit", tuple(sorted(_SCHEMA_UNITS)))
        return dim, {"km/h": "m/s", "enum": "enum-code"}.get(unit, unit)

    def parse_model(self) -> ModelDecl:
        kw = self.expect_keyword("model")
        name = self.expect("ident", "a model name").text
        self.expect("=")
        factory = self.expect("ident", "a model factory").text
        args = self.parse_arglist()
        return ModelDecl(name, factory, args, at=(kw.line, kw.col))

    def parse_arglist(self) -> tuple[tuple[str, Expr], ...]:
        self.expect("(")
        return self.items(")", lambda: self.parse_binding("an argument name"))

    def parse_param(self) -> ParamDecl:
        self.expect_keyword("param")
        name = self.expect("ident", "a parameter name").text
        self.expect(":")
        tok = self.peek()
        if self.at_keyword("range"):
            self.advance()
            self.expect("(")
            lo = self.parse_number_with_unit()
            self.expect(",")
            hi = self.parse_number_with_unit()
            self.expect(")")
            kind, values = "range", (lo, hi)
        elif self.at_keyword("set"):
            self.advance()
            self.expect("{")
            kind, values = "set", self.numbers("}")
        else:
            raise self.error("expected a parameter domain", ("range", "set"))
        dist = None
        if self.peek().kind == "~":
            self.advance()
            dtok = self.expect("ident", "a distribution")
            if dtok.text == "uniform":
                dist = ("uniform",)
            elif dtok.text == "normal":
                self.expect("(")
                mu = self.parse_number_with_unit()
                self.expect(",")
                sigma = self.parse_number_with_unit()
                self.expect(")")
                dist = ("normal", mu, sigma)
            elif dtok.text == "weights":
                self.expect("(")
                dist = ("weights", *self.numbers(")"))
            else:
                raise self.error(
                    "unknown distribution", ("uniform", "normal", "weights")
                )
        return ParamDecl(name, kind, values, dist)

    def parse_logical(self) -> LogicalDecl:
        kw = self.expect_keyword("logical")
        name = self.expect("ident", "a scenario name").text
        self.expect("{")
        params = []
        while self.at_keyword("param"):
            params.append(self.parse_param())
        self.expect_keyword("start")
        self.expect("{")
        start = self.items("}", self.parse_start_item)
        binds = []
        while self.at_keyword("bind"):
            self.advance()
            model = self.expect("ident", "a model name").text
            binds.append(BindDecl(model, self.parse_arglist()))
        if not binds:
            raise self.error("a logical scenario needs at least one bind", ("bind",))
        self.expect_keyword("horizon")
        horizon = self.parse_number_with_unit()
        self.expect_keyword("step")
        step = self.parse_number_with_unit()
        self.expect("}")
        return LogicalDecl(
            name, tuple(params), start, tuple(binds), horizon, step, at=(kw.line, kw.col)
        )

    def parse_start_item(self) -> tuple[str, str, Expr]:
        """``schema.dim = expr``."""
        qual = self.expect("ident", "a schema name").text
        self.expect(".")
        return (qual, *self.parse_binding("a dimension name"))

    def parse_abstract(self) -> AbstractDecl:
        kw = self.expect_keyword("abstract")
        name = self.expect("ident", "a scenario name").text
        self.expect("{")
        self.expect_keyword("use")
        use = self.expect("ident", "a schema name").text
        self.expect_keyword("horizon")
        horizon = self.parse_number_with_unit()
        self.expect_keyword("step")
        step = self.parse_number_with_unit()
        bounds = []
        while self.at_keyword("bound"):
            self.advance()
            dim = self.expect("ident", "a dimension name").text
            bounds.append((dim, self.parse_number_with_unit()))
        world = []
        constraint = None
        while self.peek().kind != "}":
            if self.at_keyword("world"):
                self.advance()
                world.append(self.parse_formula())
            elif self.at_keyword("constraint"):
                self.advance()
                if constraint is not None:
                    raise self.error("duplicate constraint clause", ("}",))
                constraint = self.parse_formula()
            else:
                raise self.error("expected world or constraint", ("world", "constraint"))
        self.expect("}")
        if constraint is None:
            raise self.error("abstract scenario needs a constraint", ("constraint",))
        return AbstractDecl(
            name, use, horizon, step, tuple(bounds), tuple(world), constraint,
            at=(kw.line, kw.col),
        )

    def parse_fixture(self) -> FixtureDecl:
        kw = self.expect_keyword("fixture")
        name = self.expect("ident", "a fixture name").text
        self.expect("=")
        return FixtureDecl(name, self.parse_formula(), at=(kw.line, kw.col))

    def parse_document(self) -> SpecDocument | None:
        decls: list[Decl] = []
        tok = self.peek()
        if tok.kind == "eof":
            self.diags.append(
                Diagnostic("PAR002", tok.line, tok.col, "expected declaration", "", _DECL_KEYWORDS)
            )
            return None
        while self.peek().kind != "eof":
            try:
                tok = self.peek()
                if tok.kind != "ident" or tok.text not in _DECL_KEYWORDS:
                    raise self.error("expected declaration", _DECL_KEYWORDS)
                # Each keyword's declaration is read by parse_<keyword>.
                decls.append(getattr(self, f"parse_{tok.text}")())
            except ParseFailure:
                self.expr_depth = 0
                self.advance()
                self.sync_to_decl()
        if self.diags:
            return None
        return SpecDocument(tuple(decls))


def parse(text: str) -> ParseResult:
    """Parse a spec document; never raises on malformed input."""
    try:
        tokens, lex_diags = _lex(text)
        parser = _Parser(tokens)
        doc = parser.parse_document()
        diags = tuple(lex_diags + parser.diags)
        if diags:
            return ParseResult(None, diags)
        return ParseResult(doc, ())
    except ParseFailure:  # pragma: no cover - defensive
        return ParseResult(None, (Diagnostic("PAR001", 0, 0, "parse failed", ""),))


# --- printer -----------------------------------------------------------------


def _fmt_num(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return repr(v)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _print_expr(e: Expr) -> str:
    """Source text of ``e``, parenthesizing an operand only where its
    operator binds more loosely than its parent's (or as loosely, on the
    right) and a binary operand of unary minus, so it nests no deeper than
    the parsed text. A chain's left spine is walked in a loop."""
    spine = []
    while isinstance(e, Bin):
        spine.append(e)
        e = e.left
    if isinstance(e, Num):
        parts = [_fmt_num(e.value)]
    elif isinstance(e, Ref):
        parts = [e.name]
    elif isinstance(e, Neg):
        sub = _print_expr(e.sub)
        parts = [f"-({sub})" if isinstance(e.sub, Bin) else f"-{sub}"]
    else:
        raise TypeError(e)
    # Each left operand in parentheses wraps all that is printed so far.
    opens = 0
    for b in reversed(spine):
        if isinstance(b.left, Bin) and _PRECEDENCE[b.left.op] < _PRECEDENCE[b.op]:
            opens += 1
            parts.append(")")
        right = _print_expr(b.right)
        if isinstance(b.right, Bin) and _PRECEDENCE[b.right.op] <= _PRECEDENCE[b.op]:
            right = f"({right})"
        parts.append(f" {b.op} {right}")
    return "(" * opens + "".join(parts)


def _print_formula(f: Formula) -> str:
    """Source text of ``f``, from an explicit stack: nesting costs no frames."""
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            out.append(f)
        elif isinstance(f, (And, Or)):
            op = " and " if isinstance(f, And) else " or "
            stack += [")", f.right, op, f.left, "("]
        elif isinstance(f, Next):
            out.append("next ")
            stack.append(f.sub)
        elif isinstance(f, (Eventually, Always)):
            word = "eventually" if isinstance(f, Eventually) else "always"
            bound = f"[<={f.within}]" if f.within is not None else ""
            out.append(f"{word}{bound} ")
            stack.append(f.sub)
        elif isinstance(f, (TrueFormula, FalseFormula)):
            out.append("true" if isinstance(f, TrueFormula) else "false")
        elif isinstance(f, FScene):
            inner = ", ".join(f"{n} = {_print_expr(e)}" for n, e in f.items)
            out.append(f"scene({inner})")
        elif isinstance(f, FPred):
            parts = []
            for name, other, lo, hi in f.items:
                lhs = name if other is None else f"{name} - {other}"
                parts.append(f"{lhs} in [{_print_expr(lo)}, {_print_expr(hi)}]")
            out.append(f"pred({', '.join(parts)})")
        elif isinstance(f, FRef):
            out.append(f.name)
        else:
            raise TypeError(f)
    return "".join(out)


def print_document(doc: SpecDocument) -> str:
    """Canonical source text; parse(print_document(d)) == d structurally."""
    out: list[str] = []
    for d in doc.decls:
        if isinstance(d, SchemaDecl):
            dims = ", ".join(f"{n}: {u}" for n, u in d.dims)
            out.append(f"schema {d.name} {{ {dims} }}")
        elif isinstance(d, ModelDecl):
            args = ", ".join(f"{n} = {_print_expr(e)}" for n, e in d.args)
            out.append(f"model {d.name} = {d.factory}({args})")
        elif isinstance(d, LogicalDecl):
            out.append(f"logical {d.name} {{")
            for p in d.params:
                nums = ", ".join(_fmt_num(v) for v in p.values)
                dom = f"range({nums})" if p.kind == "range" else f"set{{{nums}}}"
                dist = ""
                if p.dist == ("uniform",):
                    dist = " ~ uniform"
                elif p.dist is not None:
                    dist = f" ~ {p.dist[0]}({', '.join(_fmt_num(v) for v in p.dist[1:])})"
                out.append(f"  param {p.name}: {dom}{dist}")
            starts = ", ".join(f"{q}.{dim} = {_print_expr(e)}" for q, dim, e in d.start)
            out.append(f"  start {{ {starts} }}")
            for b in d.binds:
                args = ", ".join(f"{n} = {_print_expr(e)}" for n, e in b.args)
                out.append(f"  bind {b.model}({args})")
            out.append(f"  horizon {_fmt_num(d.horizon)} step {_fmt_num(d.step)}")
            out.append("}")
        elif isinstance(d, AbstractDecl):
            out.append(f"abstract {d.name} {{")
            out.append(f"  use {d.use}")
            out.append(f"  horizon {_fmt_num(d.horizon)} step {_fmt_num(d.step)}")
            for dim, v in d.bounds:
                out.append(f"  bound {dim} {_fmt_num(v)}")
            for w in d.world:
                out.append(f"  world {_print_formula(w)}")
            out.append(f"  constraint {_print_formula(d.constraint)}")
            out.append("}")
        elif isinstance(d, FixtureDecl):
            out.append(f"fixture {d.name} = {_print_formula(d.formula)}")
    return "\n".join(out) + "\n"


# --- resolution ---------------------------------------------------------------


class ResolutionError(ScenarioError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        super().__init__("; ".join(d.render() for d in diagnostics))
        self.diagnostics = tuple(diagnostics)


#: Each model factory and the arguments it takes; None: any schema dimension.
_MODEL_FACTORIES = {
    "constant_velocity": (("vx", "vy"), constant_velocity),
    "constant_acceleration": (("ax", "ay"), constant_acceleration),
    "drift": (None, drift),
}


@dataclass
class ResolvedSpec:
    """A document resolved into schemas, logical scenarios,
    distributions, abstract scenarios and fixtures, by name."""
    document: SpecDocument
    schemas: dict[str, SceneSchema] = field(default_factory=dict)
    logicals: dict[str, LogicalScenario] = field(default_factory=dict)
    distributions: dict[str, ParameterDistribution] = field(default_factory=dict)
    abstracts: dict[str, AbstractScenario] = field(default_factory=dict)
    fixtures: dict[str, Formula] = field(default_factory=dict)


def _eval_expr(e: Expr, env: dict[str, float], diags: list[Diagnostic]) -> float:
    """The value of ``e``; a chain's left spine is walked in a loop."""
    spine = []
    while isinstance(e, Bin):
        spine.append(e)
        e = e.left
    if isinstance(e, Num):
        value = e.value
    elif isinstance(e, Ref):
        if e.name in env:
            value = env[e.name]
        else:
            diags.append(Diagnostic("RES001", 0, 0, f"unresolved reference {e.name!r}", e.name))
            value = 0.0
    elif isinstance(e, Neg):
        value = -_eval_expr(e.sub, env, diags)
    else:
        raise TypeError(e)
    for b in reversed(spine):
        rv = _eval_expr(b.right, env, diags)
        if b.op == "/" and rv == 0:
            diags.append(Diagnostic("RES003", 0, 0, "division by zero"))
            value = 0.0
        else:
            value = _ARITHMETIC[b.op](value, rv)
    return value


def _build_model(
    factory: str,
    args: dict[str, float],
    schema: SceneSchema,
    diags: list[Diagnostic],
    model_id: str,
) -> DeterministicModel | None:
    if factory not in _MODEL_FACTORIES:
        message = f"unknown model factory {factory!r}"
        diags.append(Diagnostic("RES001", 0, 0, message, factory, tuple(_MODEL_FACTORIES)))
        return None
    takes, build = _MODEL_FACTORIES[factory]
    bad = [k for k in args if k not in (schema.names if takes is None else takes)]
    if bad:
        what = "on unknown dimensions" if takes is None else "does not take"
        diags.append(Diagnostic("RES003", 0, 0, f"{factory} {what} {bad}", str(bad)))
        return None
    # A factory's own arguments default to 0; drift takes its rates as given.
    given = (args,) if takes is None else (args.get(k, 0.0) for k in takes)
    return build(schema, *given, id=model_id)


def _resolve_formula(
    node: Formula,
    schema: SceneSchema,
    fixtures: dict[str, Formula],
    diags: list[Diagnostic],
    resolved: dict[str, Formula],
) -> Formula:
    """Resolve ``node``'s leaves and rebuild the connectives above them,
    with an explicit stack, so nesting costs no Python frames; ``true``
    and ``false`` stay as they are. Each fixture is resolved once per
    abstract and kept in ``resolved``, so a fixture referenced many times
    becomes one shared node; a fixture met again while its own body is
    being resolved is a cycle, reported once (RES001) and read as true."""
    out: list[Formula] = []
    active: set[str] = set()
    # A task is a node to visit, a connective's class, other fields and
    # operand count to build from the operands on top of ``out``, or the
    # name of a fixture whose body is on top of ``out``.
    stack: list[tuple[str, Any]] = [("visit", node)]
    while stack:
        task, n = stack.pop()
        if task == "fixture":
            active.discard(n)
            resolved.setdefault(n, out[-1])
        elif task == "build":
            cls, rest, k = n
            out[-k:] = [cls(*out[-k:], *rest)]
        elif isinstance(n, (FScene, FPred)):
            out.append(_resolve_atom(n, schema, diags))
        elif isinstance(n, FRef):
            if n.name not in fixtures:
                diags.append(
                    Diagnostic("RES001", 0, 0, f"unresolved fixture {n.name!r}", n.name)
                )
                out.append(TrueFormula())
            elif n.name in resolved:
                out.append(resolved[n.name])
            elif n.name in active:
                diags.append(
                    Diagnostic("RES001", 0, 0, f"fixture {n.name!r} refers to itself", n.name)
                )
                resolved[n.name] = TrueFormula()
                out.append(resolved[n.name])
            else:
                active.add(n.name)
                stack += [("fixture", n.name), ("visit", fixtures[n.name])]
        else:
            # A node reduces to its class and fields (``HashConsed``), and
            # a connective's k operands are its first fields.
            cls, fields = n.__reduce__()
            k = sum(isinstance(v, Formula) for v in fields)
            if k:
                stack.append(("build", (cls, fields[k:], k)))
                stack += [("visit", v) for v in reversed(fields[:k])]
            else:
                out.append(n)
    return out[0]


def _resolve_atom(node: FScene | FPred, schema: SceneSchema, diags: list[Diagnostic]) -> Formula:
    if isinstance(node, FScene):
        given = {n: _eval_expr(e, {}, diags) for n, e in node.items}
        missing = [n for n in schema.names if n not in given]
        extra = [n for n in given if not schema.has(n)]
        if missing or extra:
            diags.append(
                Diagnostic(
                    "TYP002",
                    0,
                    0,
                    f"scene() must give every dimension exactly once "
                    f"(missing {missing}, unknown {extra})",
                )
            )
            return TrueFormula()
        return SceneConst(Scene(schema, tuple(given[n] for n in schema.names)))
    bounds = []
    diffs = []
    for name, other, lo_e, hi_e in node.items:
        lo = _eval_expr(lo_e, {}, diags)
        hi = _eval_expr(hi_e, {}, diags)
        for dim in (name, other) if other else (name,):
            if not schema.has(dim):
                diags.append(
                    Diagnostic("RES003", 0, 0, f"unknown dimension {dim!r} in pred()", dim)
                )
                return TrueFormula()
        if other is None:
            bounds.append((name, lo, hi))
        else:
            diffs.append((name, other, lo, hi))
    return Atom(ScenePredicate(tuple(bounds), tuple(diffs)))


def _grid(horizon: float, step: float) -> TimeGrid:
    """The grid of a logical scenario and of an abstract world alike; it
    refuses a step <= 0, a negative horizon, a ratio that is NaN and a
    horizon that is not a whole number of steps."""
    ratio = horizon / step
    if math.isnan(ratio):
        raise RangeError(f"horizon {horizon} over step {step} is not a number")
    grid = TimeGrid(step, int(round(ratio)) + 1)
    grid.index_of(horizon)
    return grid


def _bounded_step_instance(
    decl: AbstractDecl, schema: SceneSchema, diags: list[Diagnostic]
) -> ScenarioLogicInstance:
    """Per-dimension step-bound world: any scene starts, and a step
    changes each bounded dimension by at most its bound and leaves the
    unbounded ones frozen. It is a box world, with ``allows`` and no
    successors: monitoring decides its prefixes by the formula alone,
    and the walks that need successors refuse it."""
    bound_by_dim = dict(decl.bounds)
    for dim in bound_by_dim:
        if not schema.has(dim):
            diags.append(Diagnostic("RES003", 0, 0, f"bound on unknown dimension {dim!r}", dim))
    # A zero horizon still means one step.
    grid = _grid(decl.horizon, decl.step)
    slack = 1e-9
    reach = [bound_by_dim.get(name, 0.0) + slack for name in schema.names]

    return ScenarioLogicInstance(
        id=f"dsl-{decl.name}",
        schema=schema,
        step=grid.step,
        horizon=max(grid.count - 1, 1),
        initial_scenes=None,
        successors=None,
        allows=box_step((-r, r) for r in reach),
        scene_tol=1e-6,
    )


def resolve(doc: SpecDocument) -> ResolvedSpec:
    """Build library objects from a document; raises ResolutionError with
    collected diagnostics when anything fails to resolve."""
    diags: list[Diagnostic] = []
    spec = ResolvedSpec(doc)
    models: dict[str, ModelDecl] = {}
    seen: set[tuple[type, str]] = set()
    for d in doc.decls:
        key = (type(d), d.name)
        if key in seen:
            diags.append(Diagnostic("RES002", *d.at, f"duplicate declaration {d.name!r}", d.name))
        seen.add(key)
        if isinstance(d, SchemaDecl):
            try:
                spec.schemas[d.name] = schema_of(*d.dims)
            except ScenarioError as exc:
                diags.append(Diagnostic("RES003", *d.at, f"{d.name!r}: {exc}"))
        elif isinstance(d, ModelDecl):
            models[d.name] = d
        elif isinstance(d, FixtureDecl):
            spec.fixtures[d.name] = d.formula

    for d in doc.decls:
        # The helpers below report at 0:0; their diagnostics, and a library
        # error that building the declaration raises, take the position of
        # the declaration being resolved.
        first = len(diags)
        try:
            if isinstance(d, LogicalDecl):
                _resolve_logical(d, spec, models, diags)
            elif isinstance(d, AbstractDecl):
                _resolve_abstract(d, spec, diags)
        except (ScenarioError, ArithmeticError) as exc:
            diags.append(Diagnostic("RES003", 0, 0, f"{d.name!r}: {exc}"))
        line, col = d.at
        diags[first:] = [dataclasses.replace(x, line=line, col=col) for x in diags[first:]]
    if diags:
        raise ResolutionError(diags)
    return spec


def _resolve_abstract(d: AbstractDecl, spec: ResolvedSpec, diags: list[Diagnostic]) -> None:
    schema = spec.schemas.get(d.use)
    if schema is None:
        diags.append(Diagnostic("RES001", 0, 0, f"unknown schema {d.use!r}", d.use))
        return
    resolved: dict[str, Formula] = {}
    world = tuple(_resolve_formula(w, schema, spec.fixtures, diags, resolved) for w in d.world)
    constraint = _resolve_formula(d.constraint, schema, spec.fixtures, diags, resolved)
    instance = _bounded_step_instance(d, schema, diags)
    spec.abstracts[d.name] = AbstractScenario(constraint, world, instance)


def _resolve_logical(
    d: LogicalDecl,
    spec: ResolvedSpec,
    models: dict[str, ModelDecl],
    diags: list[Diagnostic],
) -> None:
    qualifiers = {q for q, _, _ in d.start}
    if len(qualifiers) != 1:
        diags.append(
            Diagnostic("RES003", 0, 0, f"start block must use exactly one schema, got {sorted(qualifiers)}")
        )
        return
    schema_name = next(iter(qualifiers))
    schema = spec.schemas.get(schema_name)
    if schema is None:
        diags.append(Diagnostic("RES001", 0, 0, f"unknown schema {schema_name!r}", schema_name))
        return
    start_dims = [dim for _, dim, _ in d.start]
    missing = [n for n in schema.names if n not in start_dims]
    unknown = [n for n in start_dims if not schema.has(n)]
    if missing or unknown:
        diags.append(
            Diagnostic(
                "TYP002", 0, 0,
                f"start block must assign every dimension exactly once "
                f"(missing {missing}, unknown {unknown})",
            )
        )
        return
    axes = []
    marginals = []
    for p in d.params:
        if p.kind == "range":
            axes.append(ContinuousAxis(p.name, p.values[0], p.values[1]))
        else:
            axes.append(DiscreteAxis(p.name, p.values))
        if p.dist is None or p.dist[0] == "uniform":
            marginals.append(Uniform())
        elif p.dist[0] == "normal":
            marginals.append(TruncatedNormal(p.dist[1], p.dist[2]))
        else:
            marginals.append(DiscreteWeighted(tuple(p.dist[1:])))
    space = ParameterSpace(tuple(axes))
    dist = ParameterDistribution(tuple(marginals))
    dist.validate_against(space)
    param_names = [p.name for p in d.params]
    grid = _grid(d.horizon, d.step)
    start_items = tuple((dim, e) for _, dim, e in d.start)
    binds = d.binds

    # Validate the binder once at resolution time so diagnostics surface
    # here rather than at first realize().
    probe_env = {}
    for p, axis in zip(d.params, axes):
        probe_env[p.name] = axis.lo if isinstance(axis, ContinuousAxis) else axis.values[0]

    def binder(x):
        env = dict(zip(param_names, x))
        local: list[Diagnostic] = []
        values = {dim: _eval_expr(e, env, local) for dim, e in start_items}
        start = Scene(schema, tuple(values[n] for n in schema.names))
        members = []
        for b in binds:
            decl = models.get(b.model)
            factory = decl.factory if decl else b.model
            args = dict(decl.args) if decl else {}
            args.update(dict(b.args))
            arg_values = {k: _eval_expr(e, env, local) for k, e in args.items()}
            model = _build_model(factory, arg_values, schema, local, model_id=b.model)
            if model is not None:
                members.append(model)
        if local:
            raise ResolutionError(local)
        return start, combine(members, epsilon=grid.step)

    try:
        binder(tuple(probe_env[n] for n in param_names))
    except ResolutionError as exc:
        diags.extend(exc.diagnostics)
        return
    except ScenarioError as exc:
        diags.append(Diagnostic("RES003", 0, 0, f"scenario {d.name!r}: {exc}"))
        return
    spec.logicals[d.name] = LogicalScenario(space, binder, grid, name=d.name)
    spec.distributions[d.name] = dist


def load(text: str) -> ResolvedSpec:
    """Parse and resolve in one step; raises ResolutionError on failure."""
    result = parse(text)
    if not result.ok:
        raise ResolutionError(result.diagnostics)
    return resolve(result.document)
