"""Graded sparse multivariate polynomials over the coefficient modes used by
the engine: exact rationals, read inside Z_(5) when their denominators are
5-units, and F5.  A rational coefficient is stored in one normal form, an
`int` when it is integral and otherwise a `fractions.Fraction` with
denominator > 1; an F5 coefficient is its residue in range(5).  Only ints,
numpy integers and Fractions are accepted as coefficients.  Work mod 5^K
runs on integer arrays, not on these polynomials.

Monomials are exponent tuples aligned with the ring's generators.  All
per-degree enumeration is in graded-lexicographic order with the first
generator largest, so leading terms and basis orderings are reproducible.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .coefficients import v5

Monomial = Tuple[int, ...]

MODE_LOCAL = "Z_local5"
MODE_F5 = "F5"


class RingMismatch(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class InhomogeneousInput(ValueError):
    pass


class _RingSpec(NamedTuple):
    names: Tuple[str, ...]
    degrees: Tuple[int, ...]
    mode: str = MODE_LOCAL


class RingSpec(_RingSpec):
    """Graded polynomial ring: generator names, even positive degrees, and a
    coefficient mode."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.names) != len(self.degrees):
            raise ValueError("names/degrees length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        if any(d <= 0 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        if self.mode not in (MODE_LOCAL, MODE_F5):
            raise ValueError(f"unknown coefficient mode {self.mode!r}")
        return self

    @property
    def modulus(self) -> Optional[int]:
        return 5 if self.mode == MODE_F5 else None

    def coeff(self, value) -> object:
        """Normalize an int, numpy integer or Fraction into this ring's
        domain; TypeError on anything else (a float is never truncated)."""
        m = self.modulus
        if type(value) is not int:
            from fractions import Fraction
            if not isinstance(value, Fraction):
                value = operator.index(value)
            elif value.denominator == 1:
                value = value.numerator
            elif m is None:
                return value
            elif value.denominator % m == 0:
                raise ValueError("coefficient not 5-integral")
            else:
                return value.numerator * pow(value.denominator, -1, m) % m
        return value if m is None else value % m

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))


def _mono_sort_key(mono: Monomial) -> Tuple[int, ...]:
    # graded-lex with the first generator biggest; leading term sorts first
    return tuple(-e for e in mono)


class Polynomial:
    """Sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Optional[Mapping[Monomial, object]] = None):
        self.ring = ring
        self.terms: Dict[Monomial, object] = {}
        if terms:
            for mono, c in terms.items():
                c = ring.coeff(c)
                if c:
                    self.terms[mono] = c

    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls(ring)

    @classmethod
    def constant(cls, ring: RingSpec, c) -> "Polynomial":
        return cls(ring, {(0,) * len(ring.names): c})

    @classmethod
    def generator(cls, ring: RingSpec, name: str) -> "Polynomial":
        i = ring.names.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(ring.names)))
        return cls(ring, {mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        out = dict(self.terms)
        ring = self.ring
        for mono, c in other.terms.items():
            acc = out.get(mono)
            acc = c if acc is None else ring.coeff(acc + c)
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        res = Polynomial.__new__(Polynomial)
        res.ring = ring
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        res = Polynomial.__new__(Polynomial)
        res.ring = self.ring
        m = self.ring.modulus
        if m is None:
            res.terms = {mono: -c for mono, c in self.terms.items()}
        else:
            res.terms = {mono: (-c) % m for mono, c in self.terms.items()}
        return res

    def scale(self, c) -> "Polynomial":
        c = self.ring.coeff(c)
        if not c:
            return Polynomial.zero(self.ring)
        ring = self.ring
        out = {}
        for mono, v in self.terms.items():
            w = ring.coeff(v * c)
            if w:
                out[mono] = w
        res = Polynomial.__new__(Polynomial)
        res.ring = ring
        res.terms = out
        return res

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        ring = self.ring
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = out.get(mono)
                prod = c1 * c2
                acc = prod if acc is None else acc + prod
                out[mono] = acc
        res = Polynomial(ring)
        for mono, c in out.items():
            c = ring.coeff(c)
            if c:
                res.terms[mono] = c
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("a polynomial power needs a nonnegative exponent")
        out = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def degree(self) -> Optional[int]:
        """Common degree of all terms, or None for 0; raises if mixed."""
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousInput(f"degrees {sorted(degs)} present")
        return degs.pop()

    def content_valuation(self) -> int:
        """Minimum 5-adic valuation over the coefficients."""
        if not self.terms:
            raise ZeroPolynomial("content valuation of 0 is undefined")
        if self.ring.mode != MODE_LOCAL:
            raise ValueError("content valuation needs exact rational coefficients")
        return min(v5(c) for c in self.terms.values())

    def map_coefficients(self, target: RingSpec) -> "Polynomial":
        """Same generators, new coefficient mode (e.g. reduce mod 5)."""
        if target.names != self.ring.names or target.degrees != self.ring.degrees:
            raise RingMismatch("generator data must agree")
        return Polynomial(target, self.terms)

    def sorted_terms(self) -> List[Tuple[Monomial, object]]:
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


@lru_cache(maxsize=None)
def _graded_basis_cached(degrees: Tuple[int, ...], t: int) -> Tuple[Monomial, ...]:
    out: List[Monomial] = []

    def rec(i: int, remaining: int, prefix: Tuple[int, ...]):
        if i == len(degrees):
            if remaining == 0:
                out.append(prefix)
            return
        d = degrees[i]
        # highest power of the most significant generator first (graded-lex)
        for e in range(remaining // d, -1, -1):
            rec(i + 1, remaining - e * d, prefix + (e,))

    rec(0, t, ())
    return tuple(out)


def graded_piece_basis(ring: RingSpec, t: int) -> List[Monomial]:
    """All monomials of exact degree t, graded-lex order, deterministic."""
    if t < 0:
        return []
    return list(_graded_basis_cached(ring.degrees, t))


# --- canonical text form and parsing -------------------------------------

def format_polynomial(p: Polynomial) -> str:
    """Canonical text: terms in monomial order, e.g. "-2*a1^2 + 5*a2"."""
    if not p.terms:
        return "0"
    parts: List[str] = []
    for mono, c in p.sorted_terms():
        factors = []
        for name, e in zip(p.ring.names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        ctxt = str(c)
        neg = ctxt.startswith("-")
        if neg:
            ctxt = ctxt[1:]
        if factors and ctxt == "1":
            body = "*".join(factors)
        elif factors:
            body = ctxt + "*" + "*".join(factors)
        else:
            body = ctxt
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


_TOKEN = r"\s*([+-]|\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\(|\))"


def parse_polynomial(ring: RingSpec, text: str) -> Polynomial:
    """Parse the canonical text form (sums of coefficient*monomial terms)."""
    from fractions import Fraction
    token = re.compile(_TOKEN)
    pos = 0
    tokens: List[str] = []
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    out = Polynomial.zero(ring)
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            break
        coeff = 1
        expo = [0] * len(ring.names)
        saw = False
        while i < n:
            tok = tokens[i]
            if tok in "+-":
                break
            if tok == "*":
                i += 1
                continue
            if "/" in tok:
                num, den = map(int, tok.split("/"))
                if den == 0:
                    raise ValueError(f"zero denominator in {tok!r}")
                coeff = coeff * Fraction(num, den)
                i += 1
            elif tok.isdigit():
                coeff = coeff * int(tok)
                i += 1
            else:
                if tok not in ring.names:
                    raise ValueError(f"unknown generator {tok!r}")
                e = 1
                if i + 2 < n and tokens[i + 1] == "^":
                    e = int(tokens[i + 2])
                    i += 2
                elif i + 2 == n and tokens[i + 1:] == ["^"]:
                    raise ValueError("dangling ^")
                expo[ring.names.index(tok)] += e
                i += 1
            saw = True
        if not saw:
            raise ValueError("empty term")
        out = out + Polynomial(ring, {tuple(expo): coeff * sign})
    return out
