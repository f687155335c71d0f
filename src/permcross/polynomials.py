"""Exact integer polynomial arithmetic in q and in (y, q), plus truncated z-series.

QPoly is dense (distribution degrees stay small); YQPoly is sparse because the
y- and q-degrees grow independently.  Both follow one ring protocol,
:class:`_Ring`, which derives the rest of the arithmetic from each ring's
``_add``, ``__neg__``, ``_mul`` and ``const``, and one coercion rule,
``_coerce``: an int joins either ring, and a QPoly joins YQPoly.  ZSeries is a
truncated power series in z whose coefficients live in either ring; all
arithmetic is exact over the integers modulo z^(order+1).  Python ints are
arbitrary precision, so there is no overflow to guard against.

Continued fractions are expanded as weighted Motzkin paths, one row of path
weights per height (:func:`jfrac_expand`), never as series reciprocals.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Sequence


class _Value:
    """An immutable value held in its ``__slots__``, the base of every value
    class of the package (this module imports none of the others).  One
    ``attrgetter`` over the slots gives equality (within one class only),
    the hash of the tuple of slot values and a dataclass-style repr.
    Assignment and deletion raise AttributeError.  Copy and pickle rebuild a
    value through its class's constructor, so each subclass's ``__init__``
    takes its slots in order and sets them by ``_set`` or, where it is built
    often, by one ``object.__setattr__`` a slot."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)  # of one name, the bare value: hash it as a 1-tuple
        cls._values = get if len(cls.__slots__) > 1 else staticmethod(lambda self: (get(self),))

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class _Ring:
    """The arithmetic that follows from ``_add``, ``__neg__``, ``_mul``,
    ``const`` and ``_coerce``."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def _coerce(cls, value):
        """``value`` as an element of this ring, or None if it is none."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls.const(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._add(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._add(-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._mul(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out._mul(base)
            base = base._mul(base)
            n >>= 1
        return out


class QPoly(_Ring, _Value):
    """Integer polynomial in one variable, coefficients by ascending exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = tuple(map(int, coeffs))
        end = len(cs)
        while end and not cs[end - 1]:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    @classmethod
    def const(cls, c: int) -> "QPoly":
        return cls((c,))

    @classmethod
    def var(cls) -> "QPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "QPoly":
        return cls((0,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exp: int) -> int:
        return self.coeffs[exp] if 0 <= exp < len(self.coeffs) else 0

    def evaluate(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def _add(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(tuple(out))

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def _mul(self, other: "QPoly") -> "QPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(tuple(out))

    def div_exact(self, other: "QPoly") -> "QPoly":
        """Exact division over the integers; raises if any step fails or a
        remainder is left (a nonzero remainder signals a bug upstream)."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dd = other.degree
        qt = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            if c % lead:
                raise ValueError("polynomial division is not exact")
            f = c // lead
            qt[k - dd] = f
            for j, b in enumerate(other.coeffs):
                rem[k - dd + j] -= f * b
        if any(rem):
            raise ValueError("polynomial division leaves a remainder")
        return QPoly(tuple(qt))

    def to_text(self, var: str = "q") -> str:
        return _render_terms(
            [((e,), c) for e, c in enumerate(self.coeffs) if c], [var]
        )

    @classmethod
    def from_text(cls, text: str, var: str = "q") -> "QPoly":
        terms = _parse_terms(text, [var])
        out: dict[int, int] = {}
        for (e,), c in terms:
            out[e] = out.get(e, 0) + c
        size = max(out) + 1 if out else 0
        return cls(tuple(out.get(e, 0) for e in range(size)))

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "QPoly":
        return cls(tuple(int(c) for c in data))


class YQPoly(_Ring, _Value):
    """Integer polynomial in y and q, stored sparsely as (y_exp, q_exp, coeff)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[int, int, int]] = ()):
        merged: dict[tuple[int, int], int] = {}
        for ey, eq, c in terms:
            if c:
                if not type(ey) is type(eq) is type(c) is int:  # int() only what needs it
                    ey, eq, c = int(ey), int(eq), int(c)
                key = (ey, eq)
                merged[key] = merged.get(key, 0) + c
        normal = tuple(
            (ey, eq, c) for (ey, eq), c in sorted(merged.items()) if c
        )
        object.__setattr__(self, "terms", normal)

    @classmethod
    def _normal(cls, terms: tuple) -> "YQPoly":
        """The polynomial of ``terms`` that are already merged, sorted and nonzero."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def const(cls, c: int) -> "YQPoly":
        return cls(((0, 0, c),))

    @classmethod
    def y(cls) -> "YQPoly":
        return cls(((1, 0, 1),))

    @classmethod
    def q(cls) -> "YQPoly":
        return cls(((0, 1, 1),))

    @classmethod
    def monomial(cls, ey: int, eq: int, coeff: int = 1) -> "YQPoly":
        return cls(((ey, eq, coeff),))

    @classmethod
    def from_qpoly(cls, p: QPoly) -> "YQPoly":
        return cls(tuple((0, e, c) for e, c in enumerate(p.coeffs) if c))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, ey: int, eq: int) -> int:
        for a, b, c in self.terms:
            if (a, b) == (ey, eq):
                return c
        return 0

    def evaluate(self, y: int, q: int) -> int:
        return sum(c * y**ey * q**eq for ey, eq, c in self.terms)

    def substitute(self, y: int | None = None, q: int | None = None) -> "YQPoly":
        """Partially evaluate; remaining variables keep their exponents."""
        out = []
        for ey, eq, c in self.terms:
            if y is not None:
                c *= y**ey
                ey = 0
            if q is not None:
                c *= q**eq
                eq = 0
            out.append((ey, eq, c))
        return YQPoly(tuple(out))

    def to_qpoly(self, var: str = "q") -> QPoly:
        """Collapse to a one-variable polynomial; the other exponent must be 0."""
        out: dict[int, int] = {}
        for ey, eq, c in self.terms:
            kept, other = (eq, ey) if var == "q" else (ey, eq)
            if other:
                raise ValueError(f"polynomial still involves {'y' if var == 'q' else 'q'}")
            out[kept] = c
        size = max(out) + 1 if out else 0
        return QPoly(tuple(out.get(e, 0) for e in range(size)))

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, QPoly):
            return cls.from_qpoly(value)
        return super()._coerce(value)

    def _add(self, other: "YQPoly") -> "YQPoly":
        out: list[tuple[int, int, int]] = []
        for ey, eq, c in sorted(self.terms + other.terms):  # two runs: a key in both is adjacent
            if out and out[-1][0] == ey and out[-1][1] == eq:
                c += out.pop()[2]
            if c:
                out.append((ey, eq, c))
        return YQPoly._normal(tuple(out))

    def __neg__(self):
        return YQPoly._normal(tuple((ey, eq, -c) for ey, eq, c in self.terms))

    def _mul(self, other: "YQPoly") -> "YQPoly":
        return YQPoly(  # the constructor merges the products
            tuple(
                (ey + fy, eq + fq, c * d) for ey, eq, c in self.terms for fy, fq, d in other.terms
            )
        )

    def to_text(self) -> str:
        # q before y inside each term; terms ascend by (y_exp, q_exp)
        return _render_terms([((eq, ey), c) for ey, eq, c in self.terms], ["q", "y"])

    @classmethod
    def from_text(cls, text: str) -> "YQPoly":
        terms = _parse_terms(text, ["q", "y"])
        return cls(tuple((ey, eq, c) for (eq, ey), c in terms))

    def to_json(self) -> list[list[int]]:
        return [[ey, eq, c] for ey, eq, c in self.terms]

    @classmethod
    def from_json(cls, data) -> "YQPoly":
        return cls(tuple((int(a), int(b), int(c)) for a, b, c in data))


def _render_terms(terms, variables) -> str:
    """Canonical text: ascending terms joined by +, caret exponents, as in
    "16+9q+5q^2+2q^3"."""
    if not terms:
        return "0"
    chunks = []
    for exps, coeff in terms:
        vars_part = ""
        for e, v in zip(exps, variables):
            if e == 1:
                vars_part += v
            elif e > 1:
                vars_part += f"{v}^{e}"
        if not vars_part:
            body = str(coeff)
        elif coeff == 1:
            body = vars_part
        elif coeff == -1:
            body = "-" + vars_part
        else:
            body = f"{coeff}{vars_part}"
        chunks.append(body)
    text = chunks[0]
    for body in chunks[1:]:
        text += body if body.startswith("-") else "+" + body
    return text


def _parse_terms(text: str, variables) -> list[tuple[tuple[int, ...], int]]:
    text = text.replace(" ", "")
    if text in ("", "0"):
        return []
    var_re = "".join(
        f"(?:(?P<{v}>{v})(?:\\^(?P<{v}_e>\\d+))?)?" for v in variables
    )
    term_re = re.compile(f"(?P<sign>[+-]?)(?P<coeff>\\d+)?{var_re}")
    pos = 0
    out: list[tuple[tuple[int, ...], int]] = []
    while pos < len(text):
        m = term_re.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial text {text!r} at offset {pos}")
        if pos > 0 and not m.group("sign"):
            # adjacent terms must be joined by an explicit + or -
            raise ValueError(f"cannot parse polynomial text {text!r} at offset {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = m.group("coeff")
        exps = []
        for v in variables:
            if m.group(v):
                e = m.group(f"{v}_e")
                exps.append(int(e) if e else 1)
            else:
                exps.append(0)
        if coeff is None and not any(exps):
            raise ValueError(f"empty term in polynomial text {text!r}")
        out.append((tuple(exps), sign * (int(coeff) if coeff else 1)))
        pos = m.end()
    return out


# ---------------------------------------------------------------------------
# truncated series in z


class ZSeries(_Value):
    """Power series in z modulo z^(order+1); coefficients are QPoly or YQPoly."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: type, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self._set(ring, tuple(coeffs))

    @classmethod
    def constant(cls, ring: type, order: int) -> "ZSeries":
        return cls(ring, (ring.one(),) + (ring.zero(),) * order)

    @classmethod
    def from_coeffs(cls, ring: type, seq: Sequence, order: int) -> "ZSeries":
        cs = [_as_ring(ring, c) for c in seq[: order + 1]]
        cs += [ring.zero()] * (order + 1 - len(cs))
        return cls(ring, tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def times_z(self, k: int = 1) -> "ZSeries":
        cs = (self.ring.zero(),) * k + self.coeffs
        return ZSeries(self.ring, cs[: self.order + 1])

    def __add__(self, other):
        if not isinstance(other, ZSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return ZSeries(
            self.ring,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: order + 1],
        )

    def __neg__(self):
        return ZSeries(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ZSeries):
            # scalar from the coefficient ring (or an int)
            return ZSeries(self.ring, tuple(c * other for c in self.coeffs))
        order = min(self.order, other.order)
        out = [self.ring.zero()] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a.is_zero():
                continue
            for j in range(order + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return ZSeries(self.ring, tuple(out))

    __rmul__ = __mul__

    def reciprocal(self) -> "ZSeries":
        """Multiplicative inverse; the constant term must be the ring's one."""
        return rational_expand([self.ring.one()], self.coeffs, self.order)


def _as_ring(ring: type, value):
    out = ring._coerce(value)
    if out is None:
        raise TypeError(f"cannot view {value!r} as {ring.__name__}")
    return out


def jfrac_expand(b: Sequence, lam: Sequence, order: int) -> ZSeries:
    """Expand 1/(1 - b_0 z - λ_1 z^2/(1 - b_1 z - λ_2 z^2/(...))) truncated at
    z^order, ``lam[h - 1]`` being λ_h: z^t sums the Motzkin paths of length t
    (Flajolet), a level step at height h weighing b_h and a down step from h
    λ_h.  A row of path weights per height is stepped ``order`` times, keeping
    after step t the heights up to min(t, order - t), from which a path can
    still return; too few ``b`` or ``lam`` for that is an error."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(b) < (order + 1) // 2 or len(lam) < order // 2:
        raise ValueError(f"J-fraction depth {len(b)}, {len(lam)} is too shallow for order {order}")
    ring = type(b[0]) if b else QPoly
    row = [ring.one()]
    out = [row[0]]
    for t in range(1, order + 1):
        step = [row[h - 1] if h else ring.zero() for h in range(min(t, order - t) + 1)]
        for h in range(min(len(step), len(row))):
            step[h] += b[h] * row[h]
            if h + 1 < len(row):
                step[h] += lam[h] * row[h + 1]
        row = step
        out.append(row[0])
    return ZSeries(ring, tuple(out))


def cfrac_expand(levels: Sequence[QPoly], order: int) -> ZSeries:
    """Expand 1/(1 - a_1 z/(1 - a_2 z/(...))) truncated at z^order, as the
    J-fraction of its even contraction (:func:`jfrac_expand`): b_0 = a_1,
    b_h = a_(2h) + a_(2h+1) and λ_h = a_(2h-1)·a_(2h).  Every level carries
    one factor of z, so the first ``order`` levels determine the expansion;
    fewer levels than that is an error."""
    if len(levels) < order:
        raise ValueError(
            f"continued fraction depth {len(levels)} is insufficient for order {order}"
        )
    a = levels
    b = list(a[:1]) + [a[2 * h - 1] + a[2 * h] for h in range(1, (order + 1) // 2)]
    lam = [a[2 * h - 2] * a[2 * h - 1] for h in range(1, order // 2 + 1)]
    return jfrac_expand(b, lam, order)


def rational_expand(numerator: Sequence, denominator: Sequence, order: int) -> ZSeries:
    """Expand numerator/denominator in z via the induced linear recurrence on
    coefficients; the denominator's constant term must be 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not denominator:
        raise ValueError("denominator must be nonempty")
    ring = type(denominator[0])
    if ring is int:
        ring = QPoly
    den = [_as_ring(ring, c) for c in denominator]
    num = [_as_ring(ring, c) for c in numerator]
    if den[0] != ring.one():
        raise ValueError("rational expansion requires denominator constant term 1")
    out = []
    for k in range(order + 1):
        terms = (den[m] * out[k - m] for m in range(1, min(k, len(den) - 1) + 1))
        out.append(-sum(terms, -num[k] if k < len(num) else ring.zero()))  # num[k] - the terms
    return ZSeries(ring, tuple(out))
