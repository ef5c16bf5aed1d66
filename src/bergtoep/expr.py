"""Small arithmetic expression language for symbol definitions.

Grammar (whitespace-insensitive):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

"^" binds tightest and is right-associative; known functions are
sin, cos, exp, log, sqrt, abs.  Evaluation works elementwise on numpy
arrays as well as on scalars.
"""

from __future__ import annotations

import operator
import re

import numpy as np

from .indexing import Record

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


class EvalError(ValueError):
    def __init__(self, message: str, subexpr: "Expr"):
        self.subexpr = subexpr
        super().__init__(f"{message} in {to_source(subexpr)!r}")


class Num(Record):
    value: float


class Var(Record):
    name: str


class Neg(Record):
    operand: "Expr"


class BinOp(Record):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


class Call(Record):
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?|\.\d+)|(?P<ident>[a-z][a-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(source) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"unexpected token {val or 'end of input'!r}",
                             off, (op,))
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", off,
                             ("+", "-", "*", "/", "^", "end of input"))
        return e

    def expr(self) -> Expr:
        return self.chain("+-", self.term)

    def term(self) -> Expr:
        return self.chain("*/", self.factor)

    def chain(self, ops: str, operand) -> Expr:
        """operand (op operand)*, left-associative, op one of ops."""
        node = operand()
        while (tok := self.peek())[0] == "op" and tok[1] in ops:
            self.advance()
            node = BinOp(tok[1], node, operand())
        return node

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.power())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", off,
                                     tuple(sorted(FUNCTIONS)))
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val or 'end of input'!r}", off,
                         ("NUMBER", "IDENT", "(", "-"))


def parse(source: str) -> Expr:
    """Parse source text into an AST."""
    return _Parser(source).parse()


def evaluate(e: Expr, env: dict):
    """Evaluate e with variables bound by env (scalars or numpy arrays)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Neg):
        return -evaluate(e.operand, env)
    if isinstance(e, BinOp):
        lhs = evaluate(e.left, env)
        rhs = evaluate(e.right, env)
        if e.op in _ARITHMETIC:
            return _ARITHMETIC[e.op](lhs, rhs)
        if e.op == "/":
            if np.any(rhs == 0):
                raise EvalError("division by zero", e)
            return lhs / rhs
        # '^'
        with np.errstate(invalid="raise", divide="raise"):
            try:
                return lhs**rhs
            except FloatingPointError:
                raise EvalError("invalid power", e) from None
    if isinstance(e, Call):
        arg = evaluate(e.arg, env)
        if e.func == "log" and np.any(arg <= 0):
            raise EvalError("log of non-positive argument", e)
        if e.func == "sqrt" and np.any(arg < 0):
            raise EvalError("sqrt of negative argument", e)
        return FUNCTIONS[e.func](arg)
    raise TypeError(f"not an expression node: {e!r}")


def variables(e: Expr) -> set[str]:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Call):
        return variables(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# the most terms split_terms multiplies one subexpression out into, a
# bound on the expansion's own work; whether the terms are worth using
# is the caller's choice.  _POWERS, 1..MAX_TERMS, are the powers it expands
MAX_TERMS = 64
_POWERS = {Num(float(k)) for k in range(1, MAX_TERMS + 1)}


def split_terms(e: Expr) -> list[tuple[float, list[tuple[Expr, int]]]]:
    """e as a sum of terms c * prod atom^k, each a pair (c, [(atom, k)])
    with integer k, k < 0 for a divisor.

    + - * / and powers to an integer literal k, 1 <= |k| <= MAX_TERMS,
    are multiplied out (x^-k as 1/(x^k)), like terms merged; every other
    node, and any node that would expand past MAX_TERMS terms, is an atom.
    A divisor stays a divisor and is never cancelled against a numerator
    atom, so that `monomial` still divides by it and `evaluate` still
    checks it for zero: its atoms when it is one term with a nonzero
    coefficient and no divisor of its own, else the whole divisor.
    """
    return [(c, [*num.items(), *((a, -k) for a, k in den.items())])
            for c, num, den in _expand(e)]


def _expand(e: Expr) -> list:
    """The terms (c, num, den) of e, num and den as {atom: exponent}."""
    if isinstance(e, Num):
        return [(e.value, {}, {})]
    if isinstance(e, Neg):
        return [(-c, num, den) for c, num, den in _expand(e.operand)]
    terms = []
    if isinstance(e, BinOp):
        left = _expand(e.left)
        if e.op in "+-":
            sign = 1.0 if e.op == "+" else -1.0
            terms = _collect(left + [(sign * c, num, den)
                                     for c, num, den in _expand(e.right)])
        elif e.op == "*":
            terms = _times(left, _expand(e.right))
        elif e.op == "/":
            right = _expand(e.right)
            c, num, den = right[0] if len(right) == 1 else (0.0, {}, {})
            inverse = ((1.0 / c, {}, num) if c and not den
                       else (1.0, {}, {e.right: 1}))
            terms = _times(left, [inverse])
        elif isinstance(e.right, Neg) and e.right.operand in _POWERS:
            power = BinOp("^", e.left, e.right.operand)
            terms = _expand(BinOp("/", Num(1.0), power))  # x^-k is 1/(x^k)
        elif e.right in _POWERS:
            terms = [(1.0, {}, {})]
            for _ in range(int(e.right.value)):
                terms = _times(terms, left)
                if len(terms) > MAX_TERMS:
                    break
    if 0 < len(terms) <= MAX_TERMS:
        return terms
    return [(1.0, {e: 1}, {})]


def _times(xs: list, ys: list) -> list:
    """The terms of the product of two sums of terms."""
    def merged(a: dict, b: dict) -> dict:
        out = dict(a)
        for atom, k in b.items():
            out[atom] = out.get(atom, 0) + k
        return out

    return _collect([(c * d, merged(xn, yn), merged(xd, yd))
                     for c, xn, xd in xs for d, yn, yd in ys])


def _collect(terms: list) -> list:
    """terms with the same exponents (num, den) merged into the first of
    them, its coefficient their sum."""
    out = {}
    for c, num, den in terms:
        key = (frozenset(num.items()), frozenset(den.items()))
        first = out.setdefault(key, (0.0, num, den))
        out[key] = (first[0] + c, *first[1:])
    return list(out.values())


def dirichlet_monomial(factors, roots: dict):
    """prod atom^k over the pairs (atom, k) of a `split_terms` term as
    (c, exps), the term being c prod_i x_i^exps_i, exps_i real, over the
    coordinates x of a simplex (sum x = 1) when each variable v of roots is
    prod_i x_i^roots[v][i] (roots[v] an array); None unless every atom is
    a variable of roots, or a sum c sum_i x^(m + unit_i) over every
    coordinate i, which is c x^m: with r_j^2 = x_j / x_0, c + c sum_j r_j^2
    is c / x_0."""
    size = len(next(iter(roots.values())))
    c, exps = 1.0, np.zeros(size)
    for atom, k in factors:
        if isinstance(atom, Var) and atom.name in roots:
            got = 1.0, roots[atom.name]
        elif (got := _dirichlet_sum(atom, roots, size)) is None:
            return None
        c, exps = c * got[0] ** k, exps + k * got[1]
    return c, exps


def _dirichlet_sum(atom: Expr, roots: dict, size: int):
    """(c, m) with atom = c sum_i x^(m + unit_i) = c x^m, or None."""
    terms = split_terms(atom)
    if len(terms) != size or not all(isinstance(a, Var) and a.name in roots
                                     for _, f in terms for a, _ in f):
        return None
    xs = np.array([sum((k * roots[a.name] for a, k in f), np.zeros(size))
                   for _, f in terms])
    low, coefficients = xs.min(axis=0), {c for c, _ in terms}
    if (len(coefficients) == 1 and 0.0 not in coefficients
            and sorted(map(tuple, xs - low)) == sorted(map(tuple,
                                                           np.eye(size)))):
        return coefficients.pop(), low
    return None


def dirichlet_form(e: Expr, roots: dict):
    """(monomials, rest): the `split_terms` terms of e that
    `dirichlet_monomial` writes as c prod x^exps, exps real, as (c, exps),
    summed by exps and nonzero; the other terms as one, rest: e itself when
    no term is a monomial, None when all are."""
    monomials, rest = {}, None
    for c, factors in split_terms(e):
        if (got := dirichlet_monomial(factors, roots)) is not None:
            exps = tuple(got[1].tolist())
            monomials[exps] = monomials.get(exps, 0.0) + c * got[0]
            continue
        term = monomial(factors)
        term = Num(c) if term is None else term if c == 1 else \
            BinOp("*", Num(c), term)
        rest = term if rest is None else BinOp("+", rest, term)
    return ([(c, exps) for exps, c in monomials.items() if c],
            e if not monomials else rest)


def monomial(factors) -> Expr | None:
    """prod atom^k over the pairs (atom, k) of a `split_terms` term, the
    k < 0 ones as one divisor; None for the empty product."""
    def product(pairs):
        out = None
        for atom, k in pairs:
            f = atom if k == 1 else BinOp("^", atom, Num(float(k)))
            out = f if out is None else BinOp("*", out, f)
        return out

    num = product((a, k) for a, k in factors if k > 0)
    den = product((a, -k) for a, k in factors if k < 0)
    if den is None:
        return num
    return BinOp("/", Num(1.0) if num is None else num, den)


def subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variables by expressions throughout e."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(subst(e.operand, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, subst(e.left, mapping), subst(e.right, mapping))
    if isinstance(e, Call):
        return Call(e.func, subst(e.arg, mapping))
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expr) -> str:
    """Render e back to source text; parse(to_source(e)) == e."""
    return _render(e, 0)


# precedence levels: 0 add, 1 mul, 2 unary minus, 3 power, 4 atom
def _render(e: Expr, context: int) -> str:
    if isinstance(e, Num):
        v = e.value
        text = repr(int(v)) if v == int(v) and v >= 0 else repr(v)
        if v < 0:
            # negative literals do not survive the grammar; render via Neg
            return _render(Neg(Num(-v)), context)
        return text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = f"-{_render(e.operand, 3)}"
        return f"({inner})" if context > 2 else inner
    if isinstance(e, BinOp):
        if e.op in "+-":
            level = 0
            text = f"{_render(e.left, 0)} {e.op} {_render(e.right, 1)}"
        elif e.op in "*/":
            level = 1
            text = f"{_render(e.left, 1)} {e.op} {_render(e.right, 2)}"
        else:
            level = 3
            # right operand of ^ is a factor, so same-precedence recursion
            text = f"{_render(e.left, 4)}^{_render(e.right, 3)}"
        return f"({text})" if context > level else text
    raise TypeError(f"not an expression node: {e!r}")
