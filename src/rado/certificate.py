"""Published coloring certificates: a small text format plus a verifier
that re-enumerates solutions instead of trusting any solver state.

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
from itertools import chain, compress

from .equations import EquationError, parse_equation
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
                colors.extend(int(tok) for tok in rest.split())
            except ValueError:
                raise CertificateError(f"bad color value in {line!r}") from None
        else:
            raise CertificateError(f"unknown line {line!r}")
    for tag in ("e", "n", "r"):
        if tag not in fields:
            raise CertificateError(f"missing '{tag}' line")
    try:
        n = int(fields["n"])
        r = int(fields["r"])
    except ValueError:
        raise CertificateError("n and r must be integers") from None
    return Certificate(fields["e"], n, r, tuple(colors), fields.get("claim"))


def verify(cert: Certificate) -> Verdict:
    """Re-parse the equation, re-enumerate all solutions in [1, n], and
    accept iff none is monochromatic under the certificate's coloring.

    Never raises: malformed certificates yield a malformed verdict, and a
    rejected one reports a concrete violating solution.
    """
    try:
        eq = parse_equation(cert.equation)
    except EquationError as exc:
        return Verdict(MALFORMED, reason=f"equation: {exc}")
    if cert.n < 0:
        return Verdict(MALFORMED, reason=f"negative n {cert.n}")
    if cert.r < 1:
        return Verdict(MALFORMED, reason=f"r must be >= 1, got {cert.r}")
    if len(cert.colors) != cert.n:
        return Verdict(
            MALFORMED,
            reason=f"{len(cert.colors)} colors for n={cert.n}",
        )
    if any(not 1 <= c <= cert.r for c in cert.colors):
        return Verdict(MALFORMED, reason="color out of range 1..r")

    if cert.n == 0:
        return Verdict(VALID)
    chi = (0,) + cert.colors
    try:
        color = chi.__getitem__
        lhs, rhs = _plan(eq)
        keep = [not g.is_free for g in lhs + rhs]
        for rep in _iter_reps(eq, cert.n):
            if len(set(map(color, chain(*compress(rep[0] + rep[1], keep))))) == 1:
                # the one SolutionTuple built: the violation reported
                return Verdict(INVALID, violation=next(_to_solutions(lhs, rhs, [rep])))
    except (SolutionCapError, OverflowGuardError) as exc:
        return Verdict(MALFORMED, reason=f"cannot enumerate [1, {cert.n}]: {exc}")
    return Verdict(VALID)


def verify_text(text: str) -> Verdict:
    """Verify straight from certificate text (parse errors -> malformed)."""
    try:
        cert = parse_certificate(text)
    except CertificateError as exc:
        return Verdict(MALFORMED, reason=str(exc))
    return verify(cert)
