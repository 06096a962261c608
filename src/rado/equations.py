"""Equation DSL: parsing, validation, and canonical normal form.

Grammar (ASCII, whitespace insignificant)::

    equation := side '=' side
    side     := term ('+' term)*
    term     := [uint] var ['^' ('1'|'2')]
    var      := ['~'] ident
    ident    := letter (letter|digit)*

A ``~`` prefix marks a variable as *free*: it must take some positive
integer value but is not required to share the solution's color.  An
omitted exponent means 1, an omitted coefficient means 1.  The exponent
(degree) is global to the equation; mixing degrees is rejected.

An optional leading ``distinct:`` marker requires all constrained values
of a solution to be pairwise distinct.  It is an extension of the base
grammar so that the flag survives the render/parse round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

# Keep every side sum comfortably inside 64-bit arithmetic.
COEFFICIENT_CAP = 10**6
VARIABLE_CAP = 64

DISTINCT_MARKER = "distinct:"


class EquationError(ValueError):
    """Semantic problem with an equation (degrees, variables, coefficients)."""


class ParseError(EquationError):
    """Syntax error; carries the offending position in the input text."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at position {position}: expected {expected}")


@dataclass(frozen=True, order=True)
class Term:
    coefficient: int
    variable: str

    def __post_init__(self):
        if self.coefficient < 1:
            raise EquationError(f"coefficient must be >= 1, got {self.coefficient}")
        if self.coefficient > COEFFICIENT_CAP:
            raise EquationError(
                f"coefficient {self.coefficient} exceeds cap {COEFFICIENT_CAP}"
            )
        if not _is_ident(self.variable):
            raise EquationError(f"invalid variable name {self.variable!r}")


@dataclass(frozen=True)
class Equation:
    """A normalized equation sum(a_i * v_i^d) = sum(b_j * w_j^d).

    Within each side terms are sorted by (coefficient, variable name); the
    side with more terms (tie: lexicographically smaller term key) is the
    lhs.  Construction normalizes and validates; instances are immutable.
    """

    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    degree: int
    free_vars: frozenset[str] = frozenset()
    distinct_required: bool = False

    def __post_init__(self):
        lhs = tuple(sorted(self.lhs))
        rhs = tuple(sorted(self.rhs))
        if not lhs or not rhs:
            raise EquationError("each side needs at least one term")
        if self.degree not in (1, 2):
            raise EquationError(f"degree must be 1 or 2, got {self.degree}")
        if _side_order_key(rhs) < _side_order_key(lhs):
            lhs, rhs = rhs, lhs
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "free_vars", frozenset(self.free_vars))

        names = [t.variable for t in lhs + rhs]
        seen = set()
        for name in names:
            if name in seen:
                raise EquationError(f"duplicate variable {name!r}")
            seen.add(name)
        if len(names) > VARIABLE_CAP:
            raise EquationError(f"too many variables ({len(names)} > {VARIABLE_CAP})")
        unknown = self.free_vars - seen
        if unknown:
            raise EquationError(f"free variables not in equation: {sorted(unknown)}")
        if self.free_vars >= seen:
            raise EquationError("all variables are free; at least one must be constrained")
        lhs_free = any(t.variable in self.free_vars for t in lhs)
        rhs_free = any(t.variable in self.free_vars for t in rhs)
        if lhs_free and rhs_free:
            raise EquationError("free variables on both sides are not supported")

    def __hash__(self):
        # the dataclass field hash, kept after its first use: the solver
        # looks the equation's set-up up at every n.  It is left out of a
        # pickle, since another process hashes strings with another seed.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.lhs, self.rhs, self.degree, self.free_vars, self.distinct_required))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    @property
    def variables(self) -> tuple[str, ...]:
        """All variable names in canonical (lhs then rhs) order."""
        return tuple(t.variable for t in self.lhs + self.rhs)

    @property
    def constrained_variables(self) -> tuple[str, ...]:
        return tuple(v for v in self.variables if v not in self.free_vars)

    def is_free(self, name: str) -> bool:
        return name in self.free_vars

    def weight(self, coefficient: int, value: int) -> int:
        """Contribution of one term: coefficient * value**degree."""
        return coefficient * value**self.degree

    def side_max_sum(self, n: int) -> int:
        """The larger of the two side sums with every variable at n."""
        return max(
            sum(t.coefficient * n**self.degree for t in side)
            for side in (self.lhs, self.rhs)
        )

    def holds(self, assignment: dict[str, int]) -> bool:
        """Exact integer check of the equation under a full assignment."""
        lhs = sum(self.weight(t.coefficient, assignment[t.variable]) for t in self.lhs)
        rhs = sum(self.weight(t.coefficient, assignment[t.variable]) for t in self.rhs)
        return lhs == rhs

    def render(self) -> str:
        """Canonical DSL string; parse(render(eq)) == eq."""
        text = f"{_render_side(self.lhs, self)}={_render_side(self.rhs, self)}"
        if self.distinct_required:
            return f"{DISTINCT_MARKER} {text}"
        return text

    def __str__(self) -> str:
        return self.render()


def _side_order_key(side: tuple[Term, ...]):
    # more terms first, then lexicographically smaller (coefficient, name) run
    return (-len(side), tuple((t.coefficient, t.variable) for t in side))


def _render_side(side: tuple[Term, ...], eq: Equation) -> str:
    parts = []
    for t in side:
        coef = "" if t.coefficient == 1 else str(t.coefficient)
        tilde = "~" if t.variable in eq.free_vars else ""
        exp = f"^{eq.degree}" if eq.degree == 2 else ""
        parts.append(f"{coef}{tilde}{t.variable}{exp}")
    return "+".join(parts)


def decimal_int(token: str) -> int:
    """int(token) for a token of the form -?[0-9]+ alone, which is all the
    certificate and DIMACS writers write; int() also reads other Unicode
    digits, "_", "+" and spaces.  Raises ValueError naming the token."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _is_ident(s: str) -> bool:
    return bool(s) and s[0].isalpha() and s.isalnum() and s.isascii()


class _Scanner:
    """Character scanner over the DSL text, whitespace-insensitive."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def take_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit() and self.text[self.pos].isascii():
            self.pos += 1
        return int(self.text[start : self.pos])

    def take_ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum() and self.text[self.pos].isascii():
            self.pos += 1
        return self.text[start : self.pos]


def parse_equation(text: str, distinct: bool = False) -> Equation:
    """Parse the DSL into a normalized Equation.

    Raises ParseError for syntax problems (with position) and
    EquationError for semantic ones (mixed degrees, duplicate variables,
    all variables free, bad coefficients).
    """
    sc = _Scanner(text)
    sc.skip_ws()
    if text.startswith(DISTINCT_MARKER, sc.pos):
        distinct = True
        sc.pos += len(DISTINCT_MARKER)

    lhs, lhs_free, lhs_exps = _parse_side(sc)
    if sc.peek() != "=":
        raise ParseError(sc.pos, "'='")
    sc.take()
    rhs, rhs_free, rhs_exps = _parse_side(sc)
    if sc.peek() != "":
        raise ParseError(sc.pos, "end of input")

    exponents = {e for e in lhs_exps + rhs_exps if e is not None}
    if len(exponents) > 1:
        raise EquationError("mixed degrees: all terms must share one exponent")
    explicit = exponents.pop() if exponents else None
    implicit = any(e is None for e in lhs_exps + rhs_exps)
    if explicit is not None and implicit and explicit != 1:
        raise EquationError("mixed degrees: all terms must share one exponent")
    degree = explicit if explicit is not None else 1

    return Equation(
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        degree=degree,
        free_vars=frozenset(lhs_free + rhs_free),
        distinct_required=distinct,
    )


def _parse_side(sc: _Scanner):
    terms, free, exps = [], [], []
    while True:
        term, is_free, exp = _parse_term(sc)
        terms.append(term)
        exps.append(exp)
        if is_free:
            free.append(term.variable)
        if sc.peek() != "+":
            return terms, free, exps
        sc.take()


def _parse_term(sc: _Scanner):
    ch = sc.peek()
    coefficient = 1
    if ch.isdigit() and ch.isascii():
        coefficient = sc.take_uint()
        if coefficient == 0:
            raise EquationError("coefficient must be >= 1, got 0")
        ch = sc.peek()
    is_free = False
    if ch == "~":
        sc.take()
        is_free = True
        ch = sc.peek()
    if not (ch.isalpha() and ch.isascii()):
        raise ParseError(sc.pos, "variable name")
    name = sc.take_ident()
    exponent = None
    if sc.peek() == "^":
        sc.take()
        ch = sc.peek()
        if ch not in ("1", "2"):
            raise ParseError(sc.pos, "exponent 1 or 2")
        sc.take()
        exponent = int(ch)
    return Term(coefficient, name), is_free, exponent


def family_equation(k: int) -> Equation:
    """The k-squares equation x1^2 + ... + xk^2 = z^2, all constrained."""
    if k < 2:
        raise EquationError(f"family equation needs k >= 2, got {k}")
    return Equation(
        lhs=tuple(Term(1, f"x{i}") for i in range(1, k + 1)),
        rhs=(Term(1, "z"),),
        degree=2,
    )
