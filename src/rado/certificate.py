"""Published coloring certificates: a small text format plus a verifier
that re-enumerates solutions instead of trusting any solver state.

The verifier asks the enumerator (solutions._iter_reps) for the
monochromatic representatives only: each side is filtered to one color
before the join, so its cost follows the monochromatic sides, not every
solution in [1, n].  It shares the enumerator with the search and the
CNF export, so it is independent of the solver, not of the enumerator.

Format (LF line endings)::

    rado-cert v1
    e <canonical equation DSL string>
    n <N>
    r <R>
    k <colors>          one or more lines, at most 50 values each

An optional ``claim`` line between ``r`` and the ``k`` lines records what
the certificate is evidence for ("colorable" or "rado-exact N").
"""

from __future__ import annotations

from dataclasses import dataclass

from .equations import EquationError, decimal_int, parse_equation
from .solutions import (
    OverflowGuardError,
    SolutionCapError,
    SolutionTuple,
    _iter_reps,
    _plan,
    _to_solutions,
    iter_canonical_solutions,  # noqa: F401  unused here; perfbench/tracer.py wraps it
)
from .solver import Coloring

VALID = "valid"
INVALID = "invalid"
MALFORMED = "malformed"

VALUES_PER_LINE = 50


class CertificateError(ValueError):
    """Text that does not parse as a certificate."""


@dataclass
class Certificate:
    equation: str
    n: int
    r: int
    colors: tuple[int, ...]
    claim: str | None = None

    @classmethod
    def from_coloring(
        cls, equation: str, coloring: Coloring, claim: str | None = None
    ) -> "Certificate":
        return cls(equation, coloring.n, coloring.r, coloring.colors, claim)


@dataclass
class Verdict:
    status: str
    violation: SolutionTuple | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.status == VALID


def write_certificate(cert: Certificate) -> str:
    """Byte-deterministic serialization; parse(write(cert)) == cert."""
    lines = [
        "rado-cert v1",
        f"e {cert.equation}",
        f"n {cert.n}",
        f"r {cert.r}",
    ]
    if cert.claim is not None:
        lines.append(f"claim {cert.claim}")
    for i in range(0, len(cert.colors), VALUES_PER_LINE):
        chunk = cert.colors[i : i + VALUES_PER_LINE]
        lines.append("k " + " ".join(str(c) for c in chunk))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "rado-cert v1":
        raise CertificateError("missing 'rado-cert v1' header")
    fields: dict[str, str] = {}
    colors: list[int] = []
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        tag, _, rest = line.partition(" ")
        if tag in ("e", "n", "r", "claim"):
            if tag in fields:
                raise CertificateError(f"duplicate '{tag}' line")
            fields[tag] = rest.strip()
        elif tag == "k":
            try:
                colors.extend(map(decimal_int, rest.split()))
            except ValueError as exc:
                raise CertificateError(f"bad color value in {line!r}: {exc}") from None
        else:
            raise CertificateError(f"unknown line {line!r}")
    for tag in ("e", "n", "r"):
        if tag not in fields:
            raise CertificateError(f"missing '{tag}' line")
    try:
        n = decimal_int(fields["n"])
        r = decimal_int(fields["r"])
    except ValueError as exc:
        raise CertificateError(f"n and r must be integers: {exc}") from None
    return Certificate(fields["e"], n, r, tuple(colors), fields.get("claim"))


def verify(cert: Certificate) -> Verdict:
    """Re-parse the equation, re-enumerate all solutions in [1, n], and
    accept iff none is monochromatic under the certificate's coloring.

    The enumeration yields only monochromatic representatives, each side
    filtered to one color before they are paired, in the order of the
    full scan; the first one is the violation reported.

    Never raises: malformed certificates (n, r or a color that is no
    int, a bool included) yield a malformed verdict, and a rejected one
    reports a concrete violating solution.
    """
    try:
        eq = parse_equation(cert.equation)
    except EquationError as exc:
        return Verdict(MALFORMED, reason=f"equation: {exc}")
    if type(cert.n) is not int or type(cert.r) is not int:
        return Verdict(MALFORMED,
                       reason=f"n and r must be integers, got {cert.n!r} and {cert.r!r}")
    if cert.n < 0:
        return Verdict(MALFORMED, reason=f"negative n {cert.n}")
    if cert.r < 1:
        return Verdict(MALFORMED, reason=f"r must be >= 1, got {cert.r}")
    if len(cert.colors) != cert.n:
        return Verdict(
            MALFORMED,
            reason=f"{len(cert.colors)} colors for n={cert.n}",
        )
    if not set(map(type, cert.colors)) <= {int}:
        return Verdict(MALFORMED, reason="colors must be integers")
    if cert.colors and not 1 <= min(cert.colors) <= max(cert.colors) <= cert.r:
        return Verdict(MALFORMED, reason="color out of range 1..r")

    if cert.n == 0:
        return Verdict(VALID)
    try:
        rep = next(_iter_reps(eq, cert.n, color=(0, *cert.colors)), None)
    except (SolutionCapError, OverflowGuardError) as exc:
        return Verdict(MALFORMED, reason=f"cannot enumerate [1, {cert.n}]: {exc}")
    if rep is None:
        return Verdict(VALID)
    # the one SolutionTuple built: the violation reported
    return Verdict(INVALID, violation=next(_to_solutions(*_plan(eq), [rep])))


def verify_text(text: str) -> Verdict:
    """Verify straight from certificate text (parse errors -> malformed)."""
    try:
        cert = parse_certificate(text)
    except CertificateError as exc:
        return Verdict(MALFORMED, reason=str(exc))
    return verify(cert)
