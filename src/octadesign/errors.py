"""Exception hierarchy.

Two families matter to callers: bad input (the request itself is malformed
or out of range) and internal consistency failures (a verified quantity came
out wrong, which means a bug, not a user error).  The CLI maps the first
family to exit code 3 and the second to exit code 2.
"""


class OctadesignError(Exception):
    """Base class for all package errors."""


class BadInput(OctadesignError):
    """The request is malformed or outside the supported range."""


class NotPrime(BadInput):
    """Expected a prime characteristic."""


class WrongDegree(BadInput):
    """A polynomial override has the wrong length or is not monic."""


class ReducibleModulus(BadInput):
    """A modulus override factors over the prime field."""


class InvalidGenerator(BadInput):
    """A generator override does not have full multiplicative order."""


class MissingFourthRoot(BadInput):
    """The field has no primitive fourth root of unity (q is not 1 mod 4)."""


class BadCongruence(BadInput):
    """The construction needs a prime power q with q = 1 (mod 4)."""


class ZeroVector(BadInput):
    """The zero vector has no projective class."""


class DivisionByZero(OctadesignError, ZeroDivisionError):
    """Division or inversion of the zero field element."""


class ConsistencyError(OctadesignError):
    """A quantity that the construction guarantees failed verification."""


class DegenerateBlock(ConsistencyError):
    """The basic block has fewer than six distinct points."""


class CountMismatch(ConsistencyError):
    """A counted quantity disagrees with its closed form."""

    def __init__(self, what: str, expected, got):
        super().__init__(f"{what}: expected {expected}, got {got}")
        self.what = what
        self.expected = expected
        self.got = got


class LabelClash(ConsistencyError):
    """A point pair received both an edge label and a diagonal label."""


class NotCoherent(ConsistencyError):
    """A pair coloring violates the coherence axioms."""

    def __init__(self, message: str, color=None, witnesses=None):
        super().__init__(message)
        self.color = color
        self.witnesses = witnesses or []


class NotEquitable(ConsistencyError):
    """A color class meets several distinct concurrence values."""

    def __init__(self, color: int, values):
        super().__init__(f"color {color} carries lambda values {sorted(values)}")
        self.color = color
        self.values = values


class RefinementViolation(ConsistencyError):
    """A coloring that must refine another fails to do so."""


class NonIntegerResult(ConsistencyError):
    """An orbit-counting sum did not come out an integer."""


class NotDivisor(ConsistencyError):
    """A divisibility relation guaranteed by the theory fails."""


class CheckFailed(ConsistencyError):
    """A named check of the analysis failed; `check` names it."""

    def __init__(self, check: str, cause: ConsistencyError):
        super().__init__(f"{check}: {cause}")
        self.check = check
        self.cause = cause
