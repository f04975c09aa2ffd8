"""Exact arithmetic underlying the curve-family checkers.

Three layers, bottom up:

* ``Scalar``   -- the field of fractions of polynomials with integer
  coefficients in named transcendental symbols.  A "generic" symbol stands
  for a sufficiently general complex number, so a Scalar is zero exactly
  when its numerator is the zero polynomial.  That convention turns
  "nonzero for a generic choice of coefficients" into a decidable test.
* ``Poly``     -- sparse multivariate polynomials over Scalar with a fixed
  ordered tuple of variable names.  The two-variable case over ``(a, t)``
  is the workhorse (``a`` the family parameter, ``t`` the curve parameter);
  ambient-space equations use longer variable tuples.
* ``SeriesT``  -- truncated power series over Scalar, with composition
  and reversion by Lagrange inversion, used for exact reparametrizations.

Underneath, ``_add_terms``, ``_mul_terms`` and ``_pow_terms`` are the one
sum, product and power of term dicts {monomial: coefficient}: of ints in a
Scalar's numerator and denominator, Scalars in a Poly, and ints and Fractions
in the parser (``parse_poly`` makes its Scalars once).  A falsy coefficient
is zero and dropped; a result keeps its first operand's key order.

No floating point, no algebraic extensions: every operation stays inside
the fraction field.  Roots that would leave the field are refused by the
callers rather than approximated.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import comb, gcd as _int_gcd, lcm as _int_lcm
from operator import add as _int_add, attrgetter
from typing import Iterator, Mapping, NoReturn, Sequence

__all__ = [
    "Scalar",
    "Poly",
    "SeriesT",
    "Arc",
    "ParseError",
    "fresh_symbol",
    "symbol_run",
    "parse_poly",
    "substitute_arc",
    "series_reversion",
    "wedge3",
    "INFINITY",
]

INFINITY = float("inf")

# ---------------------------------------------------------------------------
# generic symbols
# ---------------------------------------------------------------------------

_symbol_lock = threading.Lock()
_symbol_counter = itertools.count(1)
_run_counter: ContextVar[Iterator[int]] = ContextVar("equising_symbol_run")


def fresh_symbol() -> "Scalar":
    """Allocate the next generic symbol g1, g2, ...

    Inside :func:`symbol_run` the numbers come from that run's own counter;
    outside any run, from one counter shared by the whole process.
    """
    counter = _run_counter.get(_symbol_counter)
    with _symbol_lock:
        n = next(counter)
    return Scalar.symbol(f"g{n}")


@contextmanager
def symbol_run() -> Iterator[None]:
    """Number generic symbols from g1 for the duration of a block.

    The counter lives in a context variable, so a run draws the same names
    whatever ran before it, in this thread or another.  A run opened inside
    another one keeps counting where the outer run is, so no name is
    handed out twice within one computation.
    """
    token = _run_counter.set(_run_counter.get(None) or itertools.count(1))
    try:
        yield
    finally:
        _run_counter.reset(token)


# ---------------------------------------------------------------------------
# term dicts (see the module docstring)
# ---------------------------------------------------------------------------


def _add_exps(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(_int_add, e1, e2))


def _neg_terms(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _add_terms(p: dict, q: dict) -> dict:
    """p + q: q's terms added to a copy of p's, in q's order."""
    r = dict(p)
    for m, c in q.items():
        if m in r:
            s = r[m] + c
            if s:
                r[m] = s
            else:
                del r[m]
        else:
            r[m] = c
    return r


def _mul_terms(p: dict, q: dict, mono=_add_exps) -> dict:
    """p * q, summing the term products over p's terms, then q's; ``mono``
    multiplies two keys (by default, exponent tuples add)."""
    r: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono(m1, m2)
            if m in r:
                s = r[m] + c1 * c2
                if s:
                    r[m] = s
                else:
                    del r[m]
            else:
                # a product of nonzero coefficients is nonzero
                r[m] = c1 * c2
    return r


def _pow_terms(p: dict, n: int, mono=_add_exps) -> dict:
    """p**n for n >= 1 by square and multiply, the result starting from
    the first factor it takes (p itself when n == 1)."""
    out = None
    while True:
        if n & 1:
            out = p if out is None else _mul_terms(out, p, mono)
        n >>= 1
        if not n:
            return out
        p = _mul_terms(p, p, mono)


# ---------------------------------------------------------------------------
# integer-coefficient polynomials in named symbols (numerators/denominators)
# ---------------------------------------------------------------------------
#
# A monomial is a sorted tuple of (name, exponent) pairs; a polynomial is a
# dict mapping monomials to nonzero ints.

Mono = tuple[tuple[str, int], ...]
SPoly = dict[Mono, int]

_ONE_M: Mono = ()
# the denominator of every Scalar whose denominator is 1: shared, so never
# mutated
_D1: SPoly = {_ONE_M: 1}


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1 and len(m2) == 1:
        (n1, e1), = m1
        (n2, e2), = m2
        if n1 == n2:
            # a quotient's exponents can cancel: c^2 * c^-2 is the monomial ()
            return ((n1, e1 + e2),) if e1 + e2 else _ONE_M
        return m1 + m2 if n1 < n2 else m2 + m1
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted((k, v) for k, v in d.items() if v))


def _mono_key(m: Mono):
    # graded order: total degree, then the name/exponent tuple
    return (sum(e for _, e in m), m)


def _lex_lead(p: SPoly) -> tuple[Mono, int]:
    """Leading term of a nonzero polynomial under lex order with names
    ascending from the most significant: a monomial order, which
    ``_mono_key``'s tie-break is not."""
    names = sorted({name for m in p for name, _ in m})
    lead = max(p, key=lambda m: [dict(m).get(name, 0) for name in names])
    return lead, p[lead]


def _sp_mul(p: SPoly, q: SPoly) -> SPoly:
    # a unit factor leaves the other operand's terms, in its order
    if q is _D1 or q == _D1:
        return dict(p)
    if p is _D1 or p == _D1:
        return dict(q)
    return _mul_terms(p, q, _mono_mul)


def _sp_const(c: int) -> SPoly:
    return {_ONE_M: c} if c else {}


def _sp_str(p: SPoly) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=_mono_key, reverse=True):
        c = p[m]
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        parts.append(("- " if c < 0 else "+ ") + term)
    out = " ".join(parts)
    return "-" + out[2:] if out.startswith("- ") else out[2:]


def _strip_common(num: SPoly, den: SPoly) -> tuple[SPoly, SPoly]:
    """Divide num and den by the largest monomial dividing all their terms."""
    monos = [dict(m) for m in itertools.chain(num, den)]
    common = {name: min(d.get(name, 0) for d in monos) for name in monos[0]}
    if not any(common.values()):
        return num, den

    def strip(m: Mono) -> Mono:
        # names stay sorted; a name whose exponent drops to 0 leaves
        return tuple((k, e - common.get(k, 0)) for k, e in m if e != common.get(k, 0))

    return {strip(m): c for m, c in num.items()}, {strip(m): c for m, c in den.items()}


class ParseError(ValueError):
    """Syntax or vocabulary error in a polynomial expression.

    Carries the byte offset of the offending token in ``offset``, and the
    message without it in ``message``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """Exact ratio of integer-coefficient polynomials in generic symbols.

    Numerator and denominator store jointly coprime int coefficients.  Zero
    testing looks only at the numerator; equality cross-multiplies, so no
    polynomial gcd is ever required.  Normalization is light: common
    monomial factors and integer content are cancelled and the denominator's
    leading coefficient is made positive, which keeps printing canonical.
    A rational enters through :meth:`from_fraction`.

    Every Scalar whose normalized denominator is 1, zero included, holds
    the one shared dict ``_D1`` as ``den``, so a unit denominator is
    tested with ``is``.  When both operands hold it, ``+``, ``*`` and
    ``==`` work on the numerators alone, and a product with 1 is the
    other factor itself: the general path would leave the same dicts, in
    the same key order.  ``_D1`` must never be mutated, and no Scalar's
    ``num`` or ``den`` either.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SPoly, den: SPoly | None = None):
        if den is None or den is _D1:
            # an int polynomial over 1 is already normalized
            self.num: SPoly = num
            self.den: SPoly = _D1
            return
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            self.num = {}
            self.den = _D1
            return
        # cancel the common monomial factor of num and den; there is none
        # when either holds the constant monomial
        if _ONE_M not in num and _ONE_M not in den:
            num, den = _strip_common(num, den)
        # integer content: make the coefficients jointly coprime, with a
        # positive leading coefficient in the denominator
        g = _int_gcd(*num.values(), *den.values())
        if den[max(den, key=_mono_key)] < 0:
            g = -g
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den = {m: c // g for m, c in den.items()}
        self.num = num
        self.den = _D1 if den == _D1 else den

    def __reduce__(self):
        # copies and pickles rebuild through __init__, which restores _D1
        return Scalar, (self.num, self.den)

    # -- constructors --

    @classmethod
    def from_fraction(cls, q) -> "Scalar":
        q = Fraction(q)
        return cls(_sp_const(q.numerator), _sp_const(q.denominator))

    @classmethod
    def symbol(cls, name: str) -> "Scalar":
        return cls({((name, 1),): 1})

    # -- predicates --

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_rational(self) -> bool:
        return all(m == _ONE_M for m in self.num) and all(m == _ONE_M for m in self.den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return Fraction(self.num.get(_ONE_M, 0), self.den[_ONE_M])

    # -- arithmetic --

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar(_sp_const(x))
        if isinstance(x, Fraction):
            return Scalar.from_fraction(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = other if other.__class__ is Scalar else Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den is _D1 and o.den is _D1:
            return Scalar(_add_terms(self.num, o.num), _D1)
        return Scalar(_add_terms(_sp_mul(self.num, o.den), _sp_mul(o.num, self.den)),
                      _sp_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(_neg_terms(self.num), self.den)

    def __sub__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = other if other.__class__ is Scalar else Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den is _D1 and o.den is _D1:
            # a unit factor: the general path would copy the other one
            if o.num == _D1:
                return self
            if self.num == _D1:
                return o
            return Scalar(_sp_mul(self.num, o.num), _D1)
        return Scalar(_sp_mul(self.num, o.num), _sp_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if o.den is _D1 and o.num == _D1:
            return self  # as in __mul__: the general path would copy it
        return Scalar(_sp_mul(self.num, o.den), _sp_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = Scalar._coerce(other)
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return _S1 / self ** (-n)
        if not n:
            return _S1
        den = self.den if self.den is _D1 else _pow_terms(self.den, n, _mono_mul)
        return Scalar(_pow_terms(self.num, n, _mono_mul), den)

    def __eq__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den is _D1 and o.den is _D1:
            return self.num == o.num
        return not _add_terms(_sp_mul(self.num, o.den), _neg_terms(_sp_mul(o.num, self.den)))

    def __hash__(self):
        # the ratio of the lex-leading terms of num and den: leading terms
        # multiply, so every representation of a value has the same ratio,
        # and a rational value hashes as its Fraction
        if not self.num:
            return hash(0)
        (n, cn), (d, cd) = _lex_lead(self.num), _lex_lead(self.den)
        mono = _mono_mul(n, tuple((name, -e) for name, e in d))
        return hash((Fraction(cn, cd), mono) if mono else Fraction(cn, cd))

    def subs(self, name: str, value: "Scalar | Fraction | int") -> "Scalar":
        """Substitute a rational or Scalar value for a symbol."""
        v = Scalar._coerce(value)

        def sub_poly(p: SPoly) -> Scalar:
            acc = _S0
            for m, c in p.items():
                term = Scalar(_sp_const(c))
                for sym, e in m:
                    term = term * (v if sym == name else Scalar.symbol(sym)) ** e
                acc = acc + term
            return acc

        if self.den is _D1:
            return sub_poly(self.num)
        return sub_poly(self.num) / sub_poly(self.den)

    def coeffs_in(self, name: str) -> list["Scalar"]:
        """Coefficients of the numerator as a polynomial in one symbol.

        Requires the denominator to be free of that symbol; the returned
        list is degree-indexed and each entry is divided by the denominator.
        """
        if any(s == name for m in self.den for s, _ in m):
            raise ValueError(f"denominator involves {name}")
        buckets: dict[int, SPoly] = {}
        for m, c in self.num.items():
            d = dict(m)
            e = d.pop(name, 0)
            # distinct monomials with one exponent of name differ in the rest
            buckets.setdefault(e, {})[tuple(sorted(d.items()))] = c
        deg = max(buckets, default=0)
        if self.den is _D1:
            return [Scalar(buckets.get(k, {})) for k in range(deg + 1)]
        den = Scalar(dict(self.den))
        return [Scalar(buckets.get(k, {})) / den for k in range(deg + 1)]

    def __str__(self):
        if self.is_rational():
            return str(self.as_fraction())
        ns = _sp_str(self.num)
        if self.den is _D1:
            return ns
        return f"({ns})/({_sp_str(self.den)})"

    __repr__ = __str__


_S0 = Scalar.from_fraction(0)
_S1 = Scalar.from_fraction(1)


def _as_scalar(x) -> Scalar:
    s = Scalar._coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as Scalar")
    return s


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------
#
# Degree-indexed coefficient lists over a field whose elements are falsy
# exactly at zero: Fraction for the Rolle certificates, Scalar for the arc
# coefficient polynomials of the Whitney sweep.


def dense_trim(c: list) -> list:
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while c and not c[-1]:
        c.pop()
    return c


def dense_divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero trimmed b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = dense_trim(list(a))
    db, lead = len(b) - 1, b[-1]
    q = [lead * 0] * max(len(r) - db, 1)
    while len(r) > db:
        k = len(r) - 1 - db
        f = r[-1] / lead
        q[k] = f
        # the leading coefficient cancels by construction
        r.pop()
        for i in range(db):
            r[k + i] = r[k + i] - f * b[i]
        dense_trim(r)
    return dense_trim(q), r


def dense_gcd(a: Sequence, b: Sequence) -> list:
    """Monic greatest common divisor; [] when both inputs are zero."""
    a, b = dense_trim(list(a)), dense_trim(list(b))
    while b:
        a, b = b, dense_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Scalar
# ---------------------------------------------------------------------------


class Poly:
    """Sparse polynomial over Scalar with a fixed tuple of variable names.

    Terms map exponent tuples (aligned with ``vars``) to nonzero Scalars.
    The two-variable instance over ``('a', 't')`` represents one entry of a
    family parametrization.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != len(self.vars):
                    raise ValueError("exponent tuple does not match variables")
                c = _as_scalar(c)
                if not c.is_zero():
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def _of(cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], Scalar]) -> "Poly":
        """A Poly holding ``terms`` as given: only for kernel results, whose
        exponent tuples already match ``variables`` and whose coefficients
        are nonzero Scalars."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    # -- constructors --

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Sequence[str], c) -> "Poly":
        return cls(variables, {(0,) * len(variables): _as_scalar(c)})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): _S1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], c=1) -> "Poly":
        return cls(variables, {tuple(exps): _as_scalar(c)})

    # -- predicates / views --

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def _check(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic --

    def _operand(self, other) -> "Poly | None":
        """other as a Poly over self's variables; None for a foreign type."""
        if isinstance(other, (int, Fraction, Scalar)):
            return Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return None
        self._check(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.vars, _add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.vars, _neg_terms(self.terms))

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.vars, _add_terms(self.terms, _neg_terms(other.terms)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Poly._of(self.vars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        if not n:
            return Poly.const(self.vars, 1)
        return Poly._of(self.vars, _pow_terms(self.terms, n))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.support() == other.support() and all(
            self.terms[e] == other.terms[e] for e in self.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms)))

    # -- structure --

    def min_deg(self, name: str) -> float:
        """Lowest exponent of a variable; +inf for the zero polynomial."""
        if not self.terms:
            return INFINITY
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def max_deg(self, name: str) -> int:
        if not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coeff_of(self, name: str, k: int) -> "Poly":
        """Coefficient of name**k, as a polynomial in the other variables."""
        i = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        terms: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            if e[i] == k:
                terms[e[:i] + e[i + 1:]] = c
        return Poly._of(rest, terms)

    def compose(self, values: Sequence["Poly | Scalar | int | Fraction"]) -> "Poly":
        """Substitute values[i] for vars[i].  Values must share one variable
        tuple (Scalars are promoted); the result lives on that tuple."""
        polys: list[Poly] = []
        target: tuple[str, ...] | None = None
        for v in values:
            if isinstance(v, Poly):
                target = v.vars
        if target is None:
            raise ValueError("at least one substitution value must be a Poly")
        for v in values:
            polys.append(v if isinstance(v, Poly) else Poly.const(target, v))
        if len(polys) != len(self.vars):
            raise ValueError("need one value per variable")
        # powers[i][k] = polys[i]^k, each the previous power times polys[i]
        one = (0,) * len(target)
        powers: list[list[Poly]] = []
        for i, p in enumerate(polys):
            pw = [Poly._of(target, {one: _S1})]
            for _ in range(max((e[i] for e in self.terms), default=0)):
                pw.append(pw[-1] * p)
            powers.append(pw)

        out = Poly._of(target, {})
        for e, c in self.terms.items():
            term = Poly._of(target, {one: c})
            for i, exp in enumerate(e):
                if exp:
                    term = term * powers[i][exp]
            out = out + term
        return out

    def exact_div(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self/divisor, or None when it is not a polynomial.

        Single-divisor division with respect to a graded order; the remainder
        is zero exactly when the divisor divides self.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")

        def key(e):
            return (sum(e), e)

        dlead = max(divisor.terms, key=key)
        dc = divisor.terms[dlead]
        rem = self
        quo = Poly(self.vars)
        while not rem.is_zero():
            rlead = max(rem.terms, key=key)
            diff = tuple(r - d for r, d in zip(rlead, dlead))
            if any(x < 0 for x in diff):
                return None
            q = Poly(self.vars, {diff: rem.terms[rlead] / dc})
            quo = quo + q
            rem = rem - q * divisor
        return quo

    def _text(self, explicit_unit: bool) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self.terms, key=lambda ee: (sum(ee), ee), reverse=True):
            c = self.terms[e]
            body = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e) if k
            )
            if c.is_rational():
                q = c.as_fraction()
                neg, mag = q < 0, abs(q)
                if not body:
                    text = str(mag)
                elif mag == 1 and not (explicit_unit and neg and not parts):
                    text = body
                else:
                    text = f"{mag}*{body}"
            else:
                neg = False
                text = f"({c})*{body}" if body else f"({c})"
            parts.append(("- " if neg else "+ ") + text)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __str__(self):
        return self._text(explicit_unit=False)

    def grammar_str(self) -> str:
        """Canonical text that reparses to the same polynomial.

        The leading term of a negative-first polynomial is written with an
        explicit ``-1*`` factor because the expression grammar has no unary
        minus.  Coefficients in generic symbols (a family centered on a
        generic point) are written in parentheses, as by ``str``; such text
        names the symbols but does not reparse over (a, t).
        """
        return self._text(explicit_unit=True)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------
#
#   expr     := term (('+' | '-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' nat)?
#   base     := rational | var | '(' expr ')'
#   rational := int ('/' nat)?
#
# Whitespace is insignificant.  There is no unary minus: a negative leading
# coefficient must be written as part of a rational, e.g. "-1*t^2".


# Caps on one power or product, checked before it is formed: the degree
# of the result, the bits of its largest coefficient, estimated as the sum
# of the operands' (n times the base's for a power), and the term products
# it takes, each weighted by the 64-bit words of the two coefficients it
# multiplies.  A product takes len(f)*len(g) term products; a power, those
# of the products its square-and-multiply loop takes.
_MAX_DEGREE = 10_000
_MAX_TERM_PRODUCTS = 100_000
_MAX_BITS = 1 << 16


def _extent(p: dict) -> tuple[int, int]:
    """Total degree of a parsed term dict and the bit length of its largest
    numerator or denominator."""
    deg = bits = 0
    for e, c in p.items():
        deg = max(deg, sum(e))
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return deg, bits


def _words(bits: int) -> int:
    return 1 + bits // 64


def _power_products(k: int, n: int) -> int:
    """Term products ``_pow_terms`` takes for b^n, b a sum of k terms, and
    one more, of 1 by its first factor: its square-and-multiply loop, with
    b^m bounded by C(m+k-1, k-1) terms, the ways to pick m of b's terms."""
    total, out, base = 0, 0, 1
    while n:
        if n & 1:
            total += comb(out + k - 1, k - 1) * comb(base + k - 1, k - 1)
            out += base
        n >>= 1
        if n:
            total += comb(base + k - 1, k - 1) ** 2
            base *= 2
    return total


class _Parser:
    """Recursive descent to int/Fraction term dicts, one method per rule:
    methods, not nested closures, so a parse leaves no reference cycle."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.variables = variables
        self.one = (0,) * len(variables)

    def error(self, msg: str) -> NoReturn:
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def digits(self):
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1

    def number(self, start: int) -> int:
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than the interpreter converts
            self.pos = start
            self.error("number too long")

    def read_nat(self) -> int:
        if self.peek() == "-":
            self.error("negative exponent")
        start = self.pos
        self.digits()
        if self.pos == start:
            self.error("expected a natural number")
        return self.number(start)

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        self.digits()
        if self.pos == digits:
            self.pos = start
            self.error("expected an integer")
        return self.number(start)

    def check_caps(self, at: int, op: str, degree: int, bits: int, products: int):
        """Refuse, at offset ``at``, a power or product over one of the caps."""
        for value, cap, what in ((degree, _MAX_DEGREE, "degree"),
                                 (bits, _MAX_BITS, "coefficient bits"),
                                 (products, _MAX_TERM_PRODUCTS, "term products")):
            if value > cap:
                self.pos = at
                self.error(f"{op} exceeds the cap of {cap} {what}")

    def base(self) -> tuple[dict, int, int]:
        """A base with its degree and the bit length of its largest
        coefficient: read off a number or a variable, scanned for a
        parenthesized sum."""
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return (inner, *_extent(inner))
        if ch.isdigit() or ch == "-":
            n = self.read_int()
            q, bits = n, n.bit_length()
            if self.peek() == "/":
                self.pos += 1
                d = self.read_nat()
                if d == 0:
                    self.error("zero denominator")
                q, bits = Fraction(n, d), max(bits, d.bit_length())
            return ({self.one: q} if q else {}), 0, bits
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.variables:
                self.pos = start
                self.error(f"unknown variable {name!r}")
            return {tuple([int(v == name) for v in self.variables]): 1}, 1, 1
        self.error("expected a number, variable or '('")

    def factor(self) -> tuple[dict, int, int]:
        """A factor with its degree and coefficient bits, as ``base``."""
        b, deg, bits = self.base()
        if self.peek() != "^":
            return b, deg, bits
        at = self.pos
        self.pos += 1
        n = self.read_nat()
        k = len(b)
        # a sum has positive degree, so past the degree check n is small
        products = (_power_products(k, n) * _words(bits * n) ** 2
                    if k > 1 and deg * n <= _MAX_DEGREE else 0)
        self.check_caps(at, "power", deg * n, bits * n, products)
        return (_pow_terms(b, n) if n else {self.one: 1}), deg * n, bits * n

    def term(self) -> dict:
        f, deg, bits = self.factor()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            g, dg, bg = self.factor()
            self.check_caps(at, "product", deg + dg, bits + bg,
                            len(f) * len(g) * _words(bits) * _words(bg))
            f, deg, bits = _mul_terms(f, g), deg + dg, bits + bg
        return f

    def expr(self) -> dict:
        acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = _add_terms(acc, self.term())
            elif ch == "-":
                # binary minus: a '-' that starts a rational belongs to term()
                self.pos += 1
                acc = _add_terms(acc, _neg_terms(self.term()))
            else:
                return acc


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse an expression into a Poly over the given ordered variables;
    the parsed ints and Fractions become Scalars once, here.

    Raises ParseError (with byte offset) on syntax errors, unknown variable
    names, or negative exponents.
    """
    parser = _Parser(text, tuple(variables))
    terms = parser.expr()
    if parser.peek():
        parser.error("trailing input")
    return Poly._of(parser.variables,
                    {e: _as_scalar(c) for e, c in terms.items()})


# ---------------------------------------------------------------------------
# (a, t) conveniences
# ---------------------------------------------------------------------------

AT = ("a", "t")


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


def _record_eq(a, b):
    return a._values == b._values if b.__class__ is a.__class__ else NotImplemented


def _record_hash(self) -> int:
    return hash(self._values)


def _record_repr(self) -> str:
    inner = ", ".join([f"{f}={v!r}" for f, v in zip(self._fields, self._values)])
    return f"{self.__class__.__qualname__}({inner})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _record(cls=None, *, frozen=True):
    """Class decorator for the result records, in place of ``dataclass``,
    whose import loads ``inspect``, ``ast``, ``dis`` and ``tokenize`` and
    which ``exec``s 5-6 methods a class.  Only ``__init__`` is generated: it
    takes the annotated fields (two or more; class values are defaults) and
    calls any ``__post_init__``.  Equality, hash, repr and ``frozen`` are shared."""
    if cls is None:
        return lambda c: _record(c, frozen=frozen)
    own = cls.__dict__
    fields = tuple(own["__annotations__"])
    params = ", ".join([f"{f}=_own[{f!r}]" if f in own else f for f in fields])
    body = [f"_set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_own": own, "_set": object.__setattr__}
    exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body)
         + f"\n__init__.__qualname__ = '{cls.__qualname__}.__init__'", namespace)
    methods = {"__init__": namespace["__init__"], "__eq__": _record_eq,
               "__repr__": _record_repr, "__hash__": _record_hash if frozen else None,
               "_fields": fields, "_values": property(attrgetter(*fields))}
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    for name in methods.keys() - own.keys():  # a method of the class is kept
        setattr(cls, name, methods[name])
    return cls


# ---------------------------------------------------------------------------
# test arcs
# ---------------------------------------------------------------------------


@_record
class Arc:
    """Test arc a = a0 + c1*t**theta1 + c2*t**theta2 + ...

    ``segments`` holds the (theta, c) pairs: absolute exponents, positive
    Fractions in strictly increasing order, checked on construction; no
    segments is the vertical arc a == a0.  Each ``c`` is an exact Scalar,
    or None for a symbolic generic coefficient (rendered c1, c2, ... by
    position).
    """

    segments: tuple[tuple[Fraction, Scalar | None], ...] = ()
    a0: Scalar = _S0

    def __post_init__(self):
        exps = [0] + [th for th, _ in self.segments]
        if any(lo >= hi for lo, hi in zip(exps, exps[1:])):
            raise ValueError("arc exponents must be positive and increasing")


def substitute_arc(p: Poly, arc: Arc) -> Poly:
    """Substitute the arc into a two-variable entry.

    Returns a polynomial in the single variable ``s`` where t = s**Q and
    a = a0 + sum of c_k * s**(e_k * Q), Q clearing all exponent denominators.
    Symbolic coefficients become Scalar symbols c1, c2, ...
    """
    segs = arc.segments
    q = _int_lcm(*(e.denominator for e, _ in segs))
    s = ("s",)
    if arc.a0.is_zero() and not segs:
        # the vertical arc a == 0 keeps the terms free of a, with t = s
        return Poly._of(s, {(j,): val for (i, j), val in p.terms.items() if not i})
    a_val = Poly.const(s, arc.a0)
    for k, (e, c) in enumerate(segs, start=1):
        coeff = Scalar.symbol(f"c{k}") if c is None else c
        a_val = a_val + Poly.monomial(s, (int(e * q),), coeff)
    t_val = Poly.monomial(s, (q,))
    return p.compose([a_val, t_val])


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


@_record
class SeriesT:
    """Power series over Scalar truncated at ``order`` (exclusive).

    coeffs[k] is the coefficient of the k-th power; len(coeffs) == order.
    A series is read from a polynomial, reversed by :func:`series_reversion`
    and composed; a composition carries the lower truncation order of its
    operands.

    Composition iterates over nonzero coefficients only, collected once per
    call, and adds its terms in the same order as a dense loop over the
    powers that skips zeros: every result coefficient is the same Scalar,
    with the same ``num``/``den`` key order, as that loop's.

    Coefficient tuples are built from lists, never from generators: a
    tuple built from a generator is allocated at a guessed length and
    resized, so freeing it grows the interpreter's tuple free list of
    another size, which only a full garbage collection empties.
    """

    coeffs: tuple[Scalar, ...]
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient list must have length == order")

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "SeriesT":
        if len(p.vars) != 1:
            raise ValueError("series source must be univariate")
        coeffs = [_S0] * order
        for (e,), c in p.terms.items():
            if e < order:
                coeffs[e] = c
        return cls(tuple(coeffs), order)

    def _terms(self, n: int) -> list[tuple[int, Scalar]]:
        """The nonzero coefficients below s^n as (k, coeffs[k]), k ascending."""
        return [(k, c) for k, c in enumerate(self.coeffs[:n]) if c.num]

    def compose(self, inner: "SeriesT") -> "SeriesT":
        """self(inner); the inner series must have zero constant term."""
        n = min(self.order, inner.order)
        if n and not inner.coeffs[0].is_zero():
            raise ValueError("composition needs inner valuation >= 1")
        right = inner._terms(n)
        if right == [(1, _S1)]:
            # inner is s: the loop would rebuild self's coefficients
            return self if n == self.order else SeriesT(self.coeffs[:n], n)
        out = [self.coeffs[0]] + [_S0] * (n - 1) if n else []
        gk = [(0, _S1)]
        # powers past the outer series' last nonzero coefficient add nothing
        last = next((k for k in range(n - 1, 0, -1) if self.coeffs[k].num), 0)
        for k in range(1, last + 1):
            gk = _mul_series_terms(gk, right, n)
            if not gk:  # valuation >= n
                break
            c = self.coeffs[k]
            if c.num:
                for j, g in gk:
                    out[j] = out[j] + g * c
        return SeriesT(tuple(out), n)

    def __str__(self):
        parts = [f"{c}*s^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(s^{self.order})"


def _mul_series_terms(left: list[tuple[int, Scalar]], right: list[tuple[int, Scalar]],
                      n: int) -> list[tuple[int, Scalar]]:
    """Nonzero terms below s^n of the product of two series given by their
    nonzero terms, k ascending.  Each coefficient starts from zero and adds
    its products in the order of a dense loop over i, then j."""
    out: dict[int, Scalar] = {}
    for i, ci in left:
        for j, cj in right:
            if i + j >= n:
                break
            out[i + j] = out.get(i + j, _S0) + ci * cj
    return sorted((k, c) for k, c in out.items() if c.num)


def series_reversion(u: SeriesT, m: int) -> SeriesT:
    """Given u(0) = 1, return w such that t(s) = s*w(s) solves t^m*u(t) = s^m.

    Lagrange inversion: the coefficient of s^k in t(s) is that of t^(k-1)
    in u^(-k/m), divided by k.  Each power p = u^(-k/m) comes from
    J. C. P. Miller's recurrence m*j*p_j = sum_i ((m-k)*i - m*j)*u_i*p_(j-i)
    over the nonzero terms of u (D. E. Knuth, TAOCP vol. 2, 4.7), so no
    series product, inverse or root is formed.  t(s) is exact modulo s^n
    for u of order n, so w is one order shorter.  When u is 1 up to its
    order, t = s and nothing is computed.
    """
    n = u.order
    if m < 1:
        raise ValueError("root index must be >= 1")
    if n == 0 or not (u.coeffs[0] == _S1):
        raise ValueError("reversion needs unit constant term")
    w = ([_S1] + [_S0] * (n - 2))[:n - 1]
    support = u._terms(n - 1)[1:]
    if not support:  # u is 1 below s^(n-1): t = s
        return SeriesT(tuple(w), n - 1)
    for k in range(2, n):
        p = [_S1]
        for j in range(1, k):
            acc = _S0
            for i, ui in support:
                if i > j:
                    break
                c = (m - k) * i - m * j
                if c and p[j - i].num:
                    acc = acc + ui * p[j - i] * c
            p.append(acc / (m * j) if acc.num else acc)
        w[k - 1] = p[k - 1] / k
    return SeriesT(tuple(w), n - 1)


# ---------------------------------------------------------------------------
# wedge membership
# ---------------------------------------------------------------------------


def wedge3(v: Sequence, omega: Mapping[tuple[int, int], object], dim: int) -> dict[tuple[int, int, int], object]:
    """Coordinates of v wedged with a 2-form, indexed by 1 <= i < j < k <= dim.

    For a decomposable 2-form representing a plane, all coordinates vanish
    exactly when the line spanned by v lies in the plane.  Entries may be
    Scalars or any ring elements supporting +, - and *; a coordinate whose
    three products all have a zero factor is that zero product, of the
    entries' own type.
    """
    if len(v) != dim:
        raise ValueError(f"vector has {len(v)} entries, expected {dim}")
    for (i, j) in omega:
        if not (1 <= i < j <= dim):
            raise ValueError(f"bad 2-form index ({i},{j})")

    # the zero flags of v and omega, read once: a product with a zero
    # Scalar factor is left out, and adding a zero Scalar leaves a Scalar's
    # stored form unchanged, so each coordinate prints the same
    live_v = [not (isinstance(x, Scalar) and not x.num) for x in v]
    live_om = {ij: y for ij, y in omega.items() if not (isinstance(y, Scalar) and not y.num)}
    out: dict[tuple[int, int, int], object] = {}
    for i, j, k in itertools.combinations(range(1, dim + 1), 3):
        # v_i*om(j,k) - v_j*om(i,k) + v_k*om(i,j)
        acc = None
        if live_v[i - 1] and (j, k) in live_om:
            acc = v[i - 1] * live_om[(j, k)]
        if live_v[j - 1] and (i, k) in live_om:
            p = v[j - 1] * -live_om[(i, k)]
            acc = p if acc is None else acc + p
        if live_v[k - 1] and (i, j) in live_om:
            p = v[k - 1] * live_om[(i, j)]
            acc = p if acc is None else acc + p
        if acc is None:
            # every product has a zero factor: of Scalars, the zero Scalar
            x, y = v[i - 1], omega.get((j, k), _S0)
            acc = _S0 if isinstance(x, Scalar) and isinstance(y, Scalar) else x * y
        out[(i, j, k)] = acc
    return out
