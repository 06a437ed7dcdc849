"""Arithmetic in GF(p^alpha) with deterministic modulus and generator choices.

Elements are coefficient vectors over F_p in the polynomial basis, constant
term first.  Unless overridden, the modulus is the lexicographically smallest
monic irreducible polynomial of degree alpha (coefficients compared from the
constant term up) and the generator omega is the lexicographically smallest
element of multiplicative order q - 1.  Every run therefore sees the same
field presentation, and the total order on elements (lex on coefficient
tuples) is reproducible.
"""

from __future__ import annotations

import itertools

from .errors import (
    DivisionByZero,
    InvalidGenerator,
    MissingFourthRoot,
    NotPrime,
    ReducibleModulus,
    WrongDegree,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q as p**alpha or raise NotPrime."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        if q % p == 0:
            alpha = 0
            m = q
            while m % p == 0:
                m //= p
                alpha += 1
            if m != 1:
                raise NotPrime(f"{q} is not a prime power")
            return p, alpha
    raise NotPrime(f"{q} is not a prime power")


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...], p: int):
    """Quotient and remainder of dense coefficient tuples over F_p.

    Tuples store the constant term first and need not be normalized; den must
    have a nonzero leading coefficient after trimming.
    """
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = (num[-1] * inv_lead) % p
        quot[shift] = factor
        for k, c in enumerate(den):
            num[shift + k] = (num[shift + k] - factor * c) % p
        while num and num[-1] == 0:
            num.pop()
    return tuple(quot), tuple(num)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)//2.

    Any reducible polynomial has a monic factor of at most half its degree,
    so this is a complete test (and cheap at the degrees used here).
    """
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for cs in itertools.product(range(p), repeat=d):
            den = cs + (1,)
            _, rem = _poly_divmod(poly, den, p)
            if not rem:
                return False
    return True


def irreducible_moduli(p: int, alpha: int):
    """Monic irreducible polynomials of degree alpha over F_p, in lex order."""
    for cs in itertools.product(range(p), repeat=alpha):
        poly = cs + (1,)
        if _is_irreducible(poly, p):
            yield poly


class FieldElement:
    """An element of a Field, carried as a tuple of F_p coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "Field", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.key != self.field.key:
                raise ValueError("elements belong to different fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # a**(q-2) = a**(-1) by Lagrange in the multiplicative group.
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.field.key == other.field.key

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return self.coeffs < other.coeffs

    def __le__(self, other):
        return self.coeffs <= other.coeffs

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise DivisionByZero("zero has no multiplicative order")
        n = self.field.q - 1
        for ell in prime_factors(n):
            while n % ell == 0 and (self ** (n // ell)) == self.field.one:
                n //= ell
        return n

    def __repr__(self):
        if self.field.alpha == 1:
            return str(self.coeffs[0])
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"


class Field:
    """GF(p^alpha) in the polynomial basis with a fixed modulus and generator."""

    def __init__(self, p: int, alpha: int, modulus: tuple[int, ...]):
        self.p = p
        self.alpha = alpha
        self.q = p**alpha
        self.modulus = modulus
        self.key = (p, alpha, modulus)
        # x^k mod modulus for alpha <= k <= 2*alpha-2, used to fold products back
        # into the basis.
        self._xpow = {}
        for k in range(alpha, 2 * alpha - 1):
            xk = (0,) * k + (1,)
            _, rem = _poly_divmod(xk, modulus, p)
            self._xpow[k] = rem + (0,) * (alpha - len(rem))
        self.zero = FieldElement(self, (0,) * alpha)
        self.one = self.element(1)
        self.omega: FieldElement | None = None
        self.i_elem: FieldElement | None = None

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, alpha = self.p, self.alpha
        if alpha == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * alpha - 1)
        for k, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                prod[k + j] = (prod[k + j] + ca * cb) % p
        out = prod[:alpha]
        for k in range(alpha, 2 * alpha - 1):
            ck = prod[k]
            if ck:
                fold = self._xpow[k]
                for j in range(alpha):
                    out[j] = (out[j] + ck * fold[j]) % p
        return tuple(out)

    def element(self, value) -> FieldElement:
        """Make an element from an int (reduced mod p) or a coefficient tuple."""
        if isinstance(value, FieldElement):
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.alpha - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.alpha:
            raise WrongDegree(f"expected {self.alpha} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def elements(self):
        """All q elements in lex order on coefficient tuples."""
        for cs in itertools.product(range(self.p), repeat=self.alpha):
            yield FieldElement(self, cs)

    def __repr__(self):
        return f"GF({self.q})"


def generators(field: Field):
    """Generators of the multiplicative group (order q - 1), in lex order."""
    n = field.q - 1
    factors = prime_factors(n)
    for elt in field.elements():
        if elt.is_zero():
            continue
        if all((elt ** (n // ell)) != field.one for ell in factors):
            yield elt


def field_create(
    p: int,
    alpha: int,
    modulus_override: tuple[int, ...] | None = None,
    generator_override=None,
) -> Field:
    """Build GF(p^alpha), selecting modulus and generator deterministically.

    modulus_override must be a monic degree-alpha coefficient tuple (constant
    term first) that is irreducible over F_p.  generator_override may be an
    int or coefficient tuple and must have multiplicative order q - 1.
    Either override changes the presentation, never the isomorphism type.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if alpha < 1:
        raise WrongDegree("alpha must be at least 1")
    if modulus_override is not None:
        modulus = tuple(int(c) % p for c in modulus_override)
        if len(modulus) != alpha + 1:
            raise WrongDegree(
                f"modulus needs {alpha + 1} coefficients, got {len(modulus)}"
            )
        if tuple(modulus_override)[-1] != 1:
            raise WrongDegree("modulus must be monic")
        if alpha > 1 and not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"{modulus} factors over F_{p}")
    else:
        modulus = next(irreducible_moduli(p, alpha))
    field = Field(p, alpha, modulus)
    if generator_override is not None:
        omega = field.element(generator_override)
        if omega.is_zero() or omega.multiplicative_order() != field.q - 1:
            raise InvalidGenerator(f"{omega!r} does not generate GF({field.q})^*")
    else:
        omega = next(generators(field))
    field.omega = omega
    if field.q % 4 == 1:
        field.i_elem = omega ** ((field.q - 1) // 4)
    return field


def is_char5_identity(field: Field) -> bool:
    """Whether 1 + j equals -j for j = i or j = -i.

    1 + j = -j means j = -1/2, and (-1/2)^2 = -1 forces 5 = 0, so this
    happens exactly in characteristic 5, where -1/2 = 2 is one of the two
    primitive fourth roots of unity.  Which one the generator yields as i
    depends on the presentation, hence both are tried.
    """
    if field.i_elem is None:
        raise MissingFourthRoot(f"GF({field.q}) has no primitive fourth root of unity")
    return any(field.one + j == -j for j in (field.i_elem, -field.i_elem))


def parse_field_spec(text: str) -> tuple[int, int, tuple[int, ...]]:
    """Parse "p alpha c0 c1 ... c_alpha" into (p, alpha, modulus)."""
    parts = text.split()
    if len(parts) < 3:
        raise WrongDegree(f"field spec needs at least 3 integers: {text!r}")
    try:
        nums = [int(s) for s in parts]
    except ValueError as exc:
        raise WrongDegree(f"field spec must be integers: {text!r}") from exc
    p, alpha = nums[0], nums[1]
    coeffs = tuple(nums[2:])
    if len(coeffs) != alpha + 1:
        raise WrongDegree(
            f"field spec lists {len(coeffs)} coefficients, expected {alpha + 1}"
        )
    return p, alpha, coeffs

