"""Exact sparse polynomial arithmetic over the rationals.

A polynomial lives in a fixed ordered variable context, stored as integer
numerators over one denominator: ``num`` maps exponent tuples to nonzero
ints, ``den`` is a positive int, and gcd(den, every numerator) == 1. This
form is canonical, so ``__eq__`` and ``__hash__`` compare (context, num,
den). Every construction returns it and every arithmetic method reads
``num`` and ``den`` directly; ``terms``, exponent tuple -> ``Fraction``, is
built on each read, for printing and output. No floating point enters.

Term order conventions used throughout the package:

* "lex" compares exponent tuples left to right, so earlier context
  variables dominate.  Tuple comparison in Python is exactly this order,
  which is why leading terms are plain ``max()`` calls.
* Canonical unit normalization means: clear rational content so the
  coefficients are coprime integers, then flip the sign so the lex-leading
  coefficient is positive.  Gcds, factors, and denominators are always
  returned in this form.

Products and substitutions run on packed monomial keys: each exponent
tuple is packed into one int, the exponent of variable i in a field of
``w`` bits.  ``w`` is chosen per call from a proven bound B on every
exponent the call can produce, as the bit length of B: in ``__mul__`` B is
the largest exponent of one operand plus the largest of the other, in
``substitute`` it is deg(self) times the largest total degree of the
images.  No field then reaches 2**w, so adding two keys adds their
exponents field by field, and the product loop is one int addition, one
int product and one dict update per pair of terms.  ``__mul__`` unpacks
once and puts the product over the product of the two denominators.  A
one-term operand is an exponent shift instead, with no packing.

``substitute`` runs the same product loop on row maps, whose key packs
every target variable but the last and whose value is one big integer:
that key's coefficient, a polynomial in the last variable, at 2**W
(Kronecker substitution), so one CPython product multiplies a whole row.
The images, their cached powers and the Horner accumulator stay row maps,
and W comes from a height bound proven before any product (see
``substitute``), so the result is decoded once.  ``__mul__`` stays on
monomial keys: its operands are small and sparse, where rows cost more
than they save.

``poly_gcd`` takes a gcd of one-variable inputs as ``univariate.gcd_z``
of their dense integer coefficient lists; this covers the contents in the
main variable that every bivariate gcd splits off first.  On two-variable
inputs it tries the heuristic gcd, checked by exact division, before the
primitive pseudo-remainder sequence, which also handles every other case.
``exact_div`` runs on packed keys too, with one spare bit per field that
reveals, without unpacking, when a leading monomial does not divide a
remaining term; a one-term divisor is an exponent shift, as in
``__mul__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, lshift, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import univariate as uni
from .errors import (
    ContextMismatchError,
    ExactDivisionError,
    MissingAssignmentError,
    UnknownVariableError,
)

Exponent = tuple
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class VarContext:
    """An ordered, duplicate-free tuple of variable names."""

    names: tuple

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a variable context needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names!r}")
        for n in names:
            if not n or not (n[0].isalpha() or n[0] == "_"):
                raise ValueError(f"invalid variable name: {n!r}")
        object.__setattr__(self, "names", names)

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariableError(
                f"variable {name!r} not in context {self.names!r}"
            ) from None

    def __repr__(self) -> str:
        return f"VarContext({', '.join(self.names)})"


XY = VarContext(("x", "y"))
U12 = VarContext(("u1", "u2"))
U123 = VarContext(("u1", "u2", "u3"))


def _ratio(value: Scalar) -> tuple:
    """(numerator, denominator) of an int or Fraction, the denominator positive."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _layout(arity: int, bound: int):
    """(shifts, mask) of packed keys whose fields hold exponents up to bound:
    the bit offset of each variable's field, first variable highest, and
    the field mask."""
    w = max(bound, 1).bit_length()
    return tuple(w * i for i in range(arity - 1, -1, -1)), (1 << w) - 1


def _packed(numerators: dict, shifts: tuple) -> dict:
    """An integer term map with its exponent tuples packed into int keys."""
    return {sum(map(lshift, e, shifts)): c for e, c in numerators.items()}


def _unpacked(
    context: VarContext, numerators: dict, den: int, shifts: tuple, mask: int
) -> "Polynomial":
    """The polynomial numerators / den over packed keys; zeros are dropped."""
    return Polynomial._make(
        context,
        {tuple([k >> s & mask for s in shifts]): n for k, n in numerators.items() if n},
        den,
    )


def _rows(numerators: dict, shifts: tuple, width: int) -> dict:
    """A row map: the packed key of every variable but the last -> the sum
    of c * 2**(width * e_last) over the terms with that key."""
    out: dict = {}
    for e, c in numerators.items():
        k = sum(map(lshift, e, shifts))
        out[k] = out.get(k, 0) + (c << width * e[-1])
    return out


def _decoded(
    context: VarContext, rows: dict, den: int, shifts: tuple, mask: int, width: int
) -> "Polynomial":
    """The polynomial rows / den, each row read off as signed base-2**width
    digits, which must all lie below 2**(width-1) in absolute value."""
    top, half = (1 << width) - 1, 1 << width - 1
    num = {}
    for k, v in rows.items():
        head = tuple([k >> s & mask for s in shifts])
        e = 0
        while v:
            d = ((v & top) ^ half) - half
            if d:
                num[head + (e,)] = d
            v = (v - d) >> width
            e += 1
    return Polynomial._make(context, num, den)


def _mul_ints(a: dict, b: dict) -> dict:
    """Product of two packed integer term maps or row maps; cancelled terms
    stay as zeros."""
    if len(a) < len(b):
        a, b = b, a
    b = list(b.items())
    out: dict = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _sum(a: "Polynomial", b: "Polynomial", sign: int) -> "Polynomial":
    """a + sign * b, over the lcm of the two denominators."""
    g = math.gcd(a.den, b.den)
    fa, fb = b.den // g, sign * (a.den // g)
    out = {e: n * fa for e, n in a.num.items()} if fa != 1 else dict(a.num)
    for e, n in b.num.items():
        v = out.get(e, 0) + n * fb
        if v:
            out[e] = v
        else:
            del out[e]
    return Polynomial._make(a.context, out, a.den // g * b.den)


class Polynomial:
    """Immutable sparse polynomial over Q, stored as ``num`` over ``den``."""

    __slots__ = ("context", "num", "den", "_hash")

    def __new__(cls, context: VarContext, terms: Mapping[Exponent, Scalar]):
        arity = context.arity
        checked = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != arity or any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r} for arity {arity}")
            checked[exps] = coeff
        return cls._from_coeffs(context, checked)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _from_coeffs(cls, context: VarContext, coeffs: Mapping[Exponent, Scalar]) -> "Polynomial":
        """A term map with valid exponent tuples and int or Fraction values.
        Each value is in lowest terms, so over the lcm of the denominators
        the numerators have no factor in common with it."""
        ratios = [(e, *_ratio(c)) for e, c in coeffs.items()]
        den = math.lcm(*[d for _, _, d in ratios])
        return cls._raw(context, {e: n * (den // d) for e, n, d in ratios if n}, den)

    @classmethod
    def _raw(cls, context: VarContext, num: dict, den: int = 1) -> "Polynomial":
        """Fast path for numerators already in canonical form over den."""
        self = object.__new__(cls)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def _make(cls, context: VarContext, num: dict, den: int) -> "Polynomial":
        """num / den in canonical form, for nonzero int numerators and a
        nonzero int den."""
        if den < 0:
            num = {e: -n for e, n in num.items()}
            den = -den
        if den != 1:
            g = den
            for n in num.values():
                g = math.gcd(g, n)
                if g == 1:
                    break
            if g != 1:
                num = {e: n // g for e, n in num.items()}
                den //= g
        return cls._raw(context, num, den)

    @property
    def terms(self) -> dict:
        """Exponent tuple -> Fraction coefficient, built on each read."""
        return {e: Fraction(n, self.den) for e, n in self.num.items()}

    @classmethod
    def zero(cls, context: VarContext) -> "Polynomial":
        return cls._raw(context, {})

    @classmethod
    def constant(cls, context: VarContext, value: Scalar) -> "Polynomial":
        n, d = _ratio(value)
        if not n:
            return cls.zero(context)
        return cls._raw(context, {(0,) * context.arity: n}, d)

    @classmethod
    def variable(cls, context: VarContext, name: str) -> "Polynomial":
        i = context.index(name)
        exps = tuple(1 if j == i else 0 for j in range(context.arity))
        return cls._raw(context, {exps: 1})

    @classmethod
    def monomial(cls, context: VarContext, exps: Exponent, coeff: Scalar = 1) -> "Polynomial":
        return cls(context, {tuple(exps): coeff})

    # -- predicates and basic queries ------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.num)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(next(iter(self.num.values()), 0), self.den)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.num:
            return -1
        return max(sum(e) for e in self.num)

    def degree_in(self, name: str) -> int:
        i = self.context.index(name)
        if not self.num:
            return -1
        return max(e[i] for e in self.num)

    def variables_used(self) -> tuple:
        used = [False] * self.context.arity
        for exps in self.num:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.context.names, used) if u)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        return len(self.num)

    # -- arithmetic -------------------------------------------------------

    def _check_context(self, other: "Polynomial") -> None:
        if self.context != other.context:
            raise ContextMismatchError(
                f"contexts differ: {self.context.names!r} vs {other.context.names!r}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        return _sum(self, other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        return _sum(self, other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.context, {e: -n for e, n in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = _ratio(other)
            if not n:
                return Polynomial.zero(self.context)
            return Polynomial._make(
                self.context, {e: v * n for e, v in self.num.items()}, self.den * d
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        a, b = self.num, other.num
        if len(a) < len(b):
            a, b = b, a
        den = self.den * other.den
        if len(b) <= 1:
            if not b:
                return Polynomial.zero(self.context)
            ((e, c),) = b.items()
            return Polynomial._make(
                self.context, {tuple(map(add, e1, e)): v * c for e1, v in a.items()}, den
            )
        shifts, mask = _layout(
            self.context.arity, max(map(max, a)) + max(map(max, b))
        )
        product = _mul_ints(_packed(a, shifts), _packed(b, shifts))
        return _unpacked(self.context, product, den, shifts, mask)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / Fraction(scalar))

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.context, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.context, self.den, self.num) == (other.context, other.den, other.num)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.context, self.den, frozenset(self.num.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus and substitution ----------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one context variable."""
        i = self.context.index(name)
        out = {}
        for exps, n in self.num.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = n * e
        return Polynomial._make(self.context, out, self.den)

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Evaluate at polynomial images, one per context variable.

        All images must share a single target context; the result lives there.

        With self == num / den and image j == nums[j] / dens[j] in stored
        form, scaling each term c of num to c' = c * prod_j dens[j] **
        (degs[j] - e[j]) puts the whole result over the one denominator
        den * prod_j dens[j] ** degs[j], with integer numerator N = sum c' *
        prod_j nums[j] ** e[j].  Every value below is a row map: packed key
        of the target variables but the last -> the integer image of its
        coefficient, a polynomial in the last variable y, at y = 2**W.
        y -> 2**W is a ring homomorphism Z[...][y] -> Z[...], so powers,
        products and Horner steps of row maps are row maps of the same
        polynomials, and nothing is decoded until N is done.  N is read off
        by signed base-2**W digits, which is exact when every coefficient
        of N lies below 2**(W-1) in absolute value.  The l1 norm of a product
        is at most the product of the norms, so every coefficient of N is
        at most H = sum |c'| * prod_j ||nums[j]||_1 ** e[j], and
        W = bit_length(H) + 1 suffices.
        """
        missing = [n for n in self.context.names if n not in images]
        if missing:
            raise MissingAssignmentError(f"no image given for {missing!r}")
        imgs = [images[n] for n in self.context.names]
        target = imgs[0].context
        for im in imgs[1:]:
            if im.context != target:
                raise ContextMismatchError(
                    "substitution images live in different contexts"
                )
        if not self.num:
            return Polynomial.zero(target)
        den = self.den
        dens = [im.den for im in imgs]
        degs = [max(e[j] for e in self.num) for j in range(len(imgs))]
        h = degs.index(max(degs))
        norms = [sum(map(abs, im.num.values())) for im in imgs]
        height = 0
        num = {}
        for exps, c in self.num.items():
            for j, e in enumerate(exps):
                if dens[j] != 1:
                    c *= dens[j] ** (degs[j] - e)
            num[exps] = c
            height += abs(c) * math.prod(map(pow, norms, exps))
        width = height.bit_length() + 1
        # no exponent of a power, product or Horner step exceeds this bound
        shifts, mask = _layout(
            target.arity - 1,
            self.total_degree() * max(im.total_degree() for im in imgs),
        )
        nums = [_rows(im.num, shifts, width) for im in imgs]
        unit = {0: 1}
        powers = [[unit] for _ in imgs]

        def power(j: int, e: int) -> dict:
            cache = powers[j]
            while len(cache) <= e:
                cache.append(_mul_ints(cache[-1], nums[j]))
            return cache[e]

        # coeffs[k] is the coefficient of the h-th image to the power k
        coeffs: dict = {}
        for exps, c in num.items():
            mono = None
            for j, e in enumerate(exps):
                if e and j != h:
                    mono = power(j, e) if mono is None else _mul_ints(mono, power(j, e))
            if mono is None:
                mono = unit
            acc = coeffs.setdefault(exps[h], {})
            for m, v in mono.items():
                acc[m] = acc.get(m, 0) + c * v
        # Horner in the h-th image
        result: dict = {}
        for k in range(degs[h], -1, -1):
            if result:
                result = _mul_ints(result, nums[h])
            for m, v in coeffs.get(k, {}).items():
                result[m] = result.get(m, 0) + v
        for d, deg in zip(dens, degs):
            den *= d**deg
        return _decoded(target, result, den, shifts, mask, width)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point."""
        vals = []
        for n in self.context.names:
            if n not in point:
                raise MissingAssignmentError(f"no value given for {n!r}")
            vals.append(Fraction(*_ratio(point[n])))
        total = 0
        for exps, c in self.num.items():
            v = c
            for x, e in zip(vals, exps):
                if e:
                    v *= x**e
            total += v
        return Fraction(total, self.den)

    # -- normal forms -----------------------------------------------------

    def content_and_primitive(self):
        """Split off the rational content.

        Returns ``(content, primitive)`` with ``self == content * primitive``,
        where the primitive part has coprime integer coefficients and a
        positive lex-leading coefficient.  The zero polynomial returns
        ``(Fraction(0), self)``.
        """
        num = self.num
        if not num:
            return _ZERO, self
        g = math.gcd(*num.values())
        if num[max(num)] < 0:
            g = -g
        if g == 1 and self.den == 1:
            return Fraction(1), self
        prim = Polynomial._raw(self.context, {e: n // g for e, n in num.items()})
        return Fraction(g, self.den), prim

    def normalized(self) -> "Polynomial":
        """Canonical unit normalization (primitive, positive lex lead)."""
        return self.content_and_primitive()[1]

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact division; raises ExactDivisionError when it does not divide.

        With self == A / da and divisor == c * M / dm in stored form, M
        primitive, A is divided by M on packed keys, popping the
        lex-largest remaining term at each step.  If M divides A over Q,
        the quotient Q lies in Z[x] by Gauss's lemma: write Q = r * Q0 with
        r rational and Q0 primitive; Q0 * M is primitive, so r is the
        content of A up to sign, an integer.  Long division emits the terms
        of Q one by one, so a step whose coefficient is not a multiple of
        the leading coefficient of M proves that M does not divide A.  So
        does a quotient term above deg A - deg M in some variable, the
        degrees of an exact quotient.  The result is Q times the one scalar
        dm / (da * c).  A one-term divisor is an exponent shift instead,
        which divides exactly when every term of self is a multiple of its
        monomial.
        """
        if not isinstance(divisor, Polynomial):
            raise TypeError("exact_div expects a Polynomial divisor")
        self._check_context(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero():
            return self
        a, da = self.num, self.den
        m, dm = divisor.num, divisor.den
        if len(m) == 1:
            ((ed, cd),) = m.items()
            out = {}
            for e, n in a.items():
                q = tuple(map(sub, e, ed))
                if min(q) < 0:
                    raise ExactDivisionError(f"{divisor} does not divide exactly")
                out[q] = n * dm
            return Polynomial._make(self.context, out, da * cd)
        cm = math.gcd(*m.values())
        # an exact quotient has degree deg A - deg M in each variable, and
        # with its terms below that every key the remainder reaches stays
        # within the degrees of A
        tops = [max(col) for col in zip(*a)]
        room = [t - max(col) for t, col in zip(tops, zip(*m))]
        if min(room) < 0:
            raise ExactDivisionError(f"{divisor} does not divide exactly")
        # fields sized for twice the largest exponent have a spare top bit,
        # set in every field of guard: with it added, a field difference
        # never borrows from the next field, and it clears the bit exactly
        # when it is negative
        shifts, mask = _layout(self.context.arity, 2 * max(tops))
        guard = sum(map(lshift, [(mask + 1) >> 1] * len(shifts), shifts))
        room = sum(map(lshift, room, shifts)) + guard
        rest = _packed(a, shifts)
        tail = {k: c // cm for k, c in _packed(m, shifts).items()}
        lead = max(tail)
        lc = tail.pop(lead)
        tail = list(tail.items())
        out = {}
        get = rest.get
        while rest:
            k = max(rest)
            c = rest.pop(k)
            q = k + guard - lead
            if q & guard != guard:
                break
            q -= guard
            qc, r = divmod(c, lc)
            if r or room - q & guard != guard:
                break
            out[q] = qc
            for e, d in tail:
                k = q + e
                v = get(k, 0) - qc * d
                if v:
                    rest[k] = v
                else:
                    del rest[k]
        else:
            if dm != 1:
                out = {k: qc * dm for k, qc in out.items()}
            return _unpacked(self.context, out, da * cm, shifts, mask)
        raise ExactDivisionError(f"{divisor} does not divide exactly")

    def divides(self, other: "Polynomial") -> bool:
        if self.is_zero():
            return other.is_zero()
        try:
            other.exact_div(self)
            return True
        except ExactDivisionError:
            return False

    # -- context plumbing ---------------------------------------------------

    def reindex(self, target: VarContext, rename: Optional[Mapping[str, str]] = None) -> "Polynomial":
        """Transport the polynomial into another context by variable name.

        Every variable actually used must map (via ``rename``, defaulting to
        the identity) to a name of the target context.
        """
        rename = rename or {}
        src = self.context.names
        pos = []
        for i, n in enumerate(src):
            tgt_name = rename.get(n, n)
            if tgt_name in target.names:
                pos.append(target.names.index(tgt_name))
            else:
                pos.append(-1)
        out = {}
        for exps, c in self.num.items():
            new = [0] * target.arity
            for i, e in enumerate(exps):
                if not e:
                    continue
                if pos[i] < 0:
                    raise UnknownVariableError(
                        f"variable {src[i]!r} has no home in context {target.names!r}"
                    )
                new[pos[i]] = e
            key = tuple(new)
            if key in out:
                raise ValueError("rename map collapses two used variables")
            out[key] = c
        return Polynomial._raw(target, out, self.den)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms if self.den != 1 else self.num
        if not terms:
            return "0"
        names = self.context.names
        pieces = []
        for exps in sorted(terms):
            c = terms[exps]
            mono = []
            for n, e in zip(names, exps):
                if e == 1:
                    mono.append(n)
                elif e > 1:
                    mono.append(f"{n}^{e}")
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = "*".join(mono)
            else:
                body = "*".join([str(mag)] + mono)
            pieces.append((c < 0, body))
        first_neg, first_body = pieces[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __repr__(self) -> str:
        return f"Poly[{', '.join(self.context.names)}]({self})"


@dataclass(frozen=True)
class JacobianInfo:
    """The Jacobian determinant of a plane map together with its shape.

    ``kind`` is one of "zero", "constant" (meaning a nonzero constant), or
    "nonconstant"; ``value`` carries the constant when kind == "constant".
    """

    det: Polynomial
    kind: str
    value: Optional[Fraction]


def jacobian_det(p: Polynomial, q: Polynomial) -> JacobianInfo:
    """Determinant of the Jacobian matrix of the pair (p, q).

    Both polynomials must share one two-variable context; the derivative
    rows are taken in context order.
    """
    if p.context != q.context:
        raise ContextMismatchError("jacobian_det needs a shared context")
    if p.context.arity != 2:
        raise ValueError("jacobian_det is defined for two-variable contexts")
    a, b = p.context.names
    det = p.diff(a) * q.diff(b) - p.diff(b) * q.diff(a)
    if det.is_zero():
        return JacobianInfo(det, "zero", None)
    if det.is_constant():
        return JacobianInfo(det, "constant", det.constant_value())
    return JacobianInfo(det, "nonconstant", None)


def _coeffs_in(p: Polynomial, i: int) -> dict:
    """View p as univariate in variable index i: degree -> coefficient poly."""
    out: dict = {}
    for exps, n in p.num.items():
        out.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1 :]] = n
    return {d: Polynomial._make(p.context, num, p.den) for d, num in out.items()}


def _from_list(context: VarContext, i: int, f: Sequence[int]) -> Polynomial:
    """The polynomial sum f[k] * x_i**k for a dense list of ints."""
    base = [0] * context.arity
    num = {}
    for k, c in enumerate(f):
        if c:
            base[i] = k
            num[tuple(base)] = c
    return Polynomial._raw(context, num)


def _from_rows(context: VarContext, i: int, j: int, rows: Sequence[list]) -> Polynomial:
    """The polynomial sum rows[a][b] * x_i**a * x_j**b for dense integer rows."""
    base = [0] * context.arity
    num = {}
    for a, row in enumerate(rows):
        base[i] = a
        for b, c in enumerate(row):
            if c:
                base[j] = b
                num[tuple(base)] = c
    return Polynomial._raw(context, num)


def _gcd_many(polys) -> Polynomial:
    it = iter(polys)
    g = next(it)
    for p in it:
        if g.is_constant() and abs(g.constant_value()) == 1:
            break
        g = _gcd_int(g, p)
    return g


def _gcd_int(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd of integer-coefficient polynomials, integer content included."""
    cg = math.gcd(*a.num.values(), *b.num.values())
    if a.is_zero() or b.is_zero():
        return (a + b).normalized() * cg
    return _gcd_prim(a.normalized(), b.normalized())[0] * cg


def _main_var(a: Polynomial, b: Polynomial) -> int:
    """Highest variable index occurring in either polynomial, or -1."""
    best = -1
    for p in (a, b):
        for exps in p.num:
            for i in range(p.context.arity - 1, best, -1):
                if exps[i]:
                    best = max(best, i)
                    break
    return best


def _prem(f: Polynomial, g: Polynomial, i: int) -> Polynomial:
    """Pseudo-remainder of f by g in variable index i (sloppy variant)."""
    ctx = f.context
    gc = _coeffs_in(g, i)
    dg = max(gc)
    lg = gc[dg]
    r = f
    while not r.is_zero():
        rc = _coeffs_in(r, i)
        dr = max(rc)
        if dr < dg:
            break
        lr = rc[dr]
        shift = Polynomial.monomial(
            ctx, tuple(dr - dg if j == i else 0 for j in range(ctx.arity))
        )
        r = lg * r - lr * shift * g
        c = math.gcd(*r.num.values())
        if c > 1:
            r = Polynomial._raw(ctx, {e: n // c for e, n in r.num.items()}, r.den)
    return r


def _split_var_content(p: Polynomial, i: int):
    """Content/primitive split of p seen as univariate in variable i.

    When every coefficient lives in one other variable j, the coefficients
    are read once as dense integer lists in j, and the content is the
    integer content times one ``uni.gcd_z`` fold over them (Gauss's
    lemma), with a positive lead. Coefficients in two or more variables
    take ``_gcd_many``.
    """
    num = p.num
    others = {k for e in num for k, n in enumerate(e) if n and k != i}
    if len(others) > 1:
        cont = _gcd_many(list(_coeffs_in(p, i).values()))
    else:
        # with at most one other variable j, sum(e) - e[i] is e[j]
        width = max(sum(e) - e[i] for e in num) + 1
        rows: dict = {}
        for e, c in num.items():
            rows.setdefault(e[i], [0] * width)[sum(e) - e[i]] = c
        g: list = []
        for row in rows.values():
            g = uni.gcd_z(g, uni.strip(row))
            if g == [1]:
                break
        k = math.gcd(*num.values())
        cont = _from_list(p.context, others.pop() if others else i, [k * c for c in g])
    if cont.is_constant() and abs(cont.constant_value()) == 1:
        return Polynomial.constant(p.context, 1), p
    prim = p.exact_div(cont)
    return cont, prim


def _gcd_prim(a: Polynomial, b: Polynomial):
    """gcd of primitive integer polynomials, canonically normalized, with
    the cofactors a / gcd and b / gcd where the route proved them by
    division on the way, else None for both."""
    if a.is_constant() or b.is_constant():
        return Polynomial.constant(a.context, 1), a, b
    i = _main_var(a, b)
    if all(e[i] == sum(e) for p in (a, b) for e in p.num):
        # one variable: every other exponent is 0, so the image at 1 is the
        # dense coefficient list, and gcd_z is primitive with a positive lead
        h = uni.gcd_z(_eval_others(a.num, i, 1), _eval_others(b.num, i, 1))
        return _from_list(a.context, i, h), None, None
    ca, pa = _split_var_content(a, i)
    cb, pb = _split_var_content(b, i)
    gamma = _gcd_int(ca, cb)
    others = {k for p in (pa, pb) for e in p.num for k, n in enumerate(e) if n and k != i}
    hit = _gcd_heu(pa, pb, i, others.pop()) if len(others) == 1 else None
    if hit is None:
        return (gamma * _gcd_prs(pa, pb, i)).normalized(), None, None
    g, qa, qb = hit
    if gamma.is_constant():
        return g, ca * qa, cb * qb
    # gamma and g are primitive with positive lex leads, so is their product
    return gamma * g, ca.exact_div(gamma) * qa, cb.exact_div(gamma) * qb


def _gcd_prs(f: Polynomial, g: Polynomial, i: int) -> Polynomial:
    """gcd of two polynomials primitive in variable i, by the primitive PRS."""
    if f.degree_in(f.context.names[i]) < g.degree_in(g.context.names[i]):
        f, g = g, f
    while not g.is_zero():
        r = _prem(f, g, i)
        if r.is_zero():
            f, g = g, r
            break
        _, r = _split_var_content(r.normalized(), i)
        f, g = g, r
    return f.normalized()


def _gcd_heu(a: Polynomial, b: Polynomial, i: int, j: int):
    """gcd of two polynomials primitive in variable i, with j the only other.

    The heuristic gcd of Char, Geddes and Gonnet (1989), tried at the
    points of ``uni._xi_points``; returns (g, a / g, b / g), g canonically
    normalized and the quotients those of its proof by exact division, or
    None when no point gives a candidate that divides both inputs.
    """
    ctx = a.context
    na, nb = a.num, b.num
    da = max(e[i] for e in na)
    db = max(e[i] for e in nb)
    for xi in uni._xi_points(max(map(abs, na.values())), max(map(abs, nb.values()))):
        ea = _eval_others(na, i, xi)
        eb = _eval_others(nb, i, xi)
        if len(ea) == da + 1 and len(eb) == db + 1:
            h = uni.gcd_z(ea, eb)
            if len(h) == 1:
                return Polynomial.constant(ctx, 1), a, b
            k = math.gcd(uni.content(ea), uni.content(eb))
            # the leading digits are not all zero, so deg_i cand = deg h
            # the polynomial in x_i, x_j whose image at x_j = xi is k * h,
            # read off the symmetric xi-adic digits of each coefficient
            cand = _from_rows(ctx, i, j, [uni._xi_digits(c * k, xi) for c in h])
            cand = _split_var_content(cand, i)[1].normalized()
            try:
                return cand, a.exact_div(cand), b.exact_div(cand)
            except ExactDivisionError:
                pass
    return None


def _eval_others(num: Mapping[Exponent, int], i: int, c: int) -> list:
    """Dense coefficient list in variable i of an integer term map, with
    every other variable set to the integer c."""
    out = [0] * (max(e[i] for e in num) + 1)
    for e, v in num.items():
        out[e[i]] += v * c ** (sum(e) - e[i])
    return uni.strip(out)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor over Q.

    The primitive part of the result is canonically normalized; the gcd of
    the two rational contents is kept as a scalar factor, so for instance
    integer inputs keep their shared integer content.

    The gcd is taken in the main variable x (the last context variable
    used). When no other variable occurs, the gcd of the two primitive
    parts is ``univariate.gcd_z`` of their dense integer coefficient lists.
    Otherwise the content in x, a gcd in the other variables, is split off
    first; with two variables that content is a gcd of one-variable
    polynomials, which takes the dense route. When exactly one other
    variable y remains, the heuristic gcd comes
    first (Char, Geddes and Gonnet, 1989): set y = xi, an integer above
    twice the smaller coefficient height of the two inputs, and require
    that deg_x of neither input drops. Take the gcd h of the two images in
    Z[x], scaled by the gcd of their integer contents, and read a candidate
    G off the symmetric xi-adic digits of its coefficients; keep the
    primitive part of G in x, so deg_x G = deg h. G is used only if it
    divides both inputs exactly, and then it is the gcd D: G divides D, and
    D(x, xi) divides both images with deg_x D(x, xi) = deg_x D, so
    deg_x D <= deg h = deg_x G; D / G is therefore free of x, and it is a
    constant because D is primitive in x. A point whose candidate fails is
    followed by a few larger ones, and then by the primitive PRS, which
    also handles every other case and is exact without a check.
    """
    if a.context != b.context:
        raise ContextMismatchError("gcd needs a shared context")
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    ca, pa = a.content_and_primitive()
    cb, pb = b.content_and_primitive()
    # gcd on Q: gcd of the numerators over the lcm of the denominators
    content = Fraction(
        math.gcd(ca.numerator, cb.numerator), math.lcm(ca.denominator, cb.denominator)
    )
    return content * _gcd_prim(pa, pb)[0]


def _gcd_cofactors(a: Polynomial, b: Polynomial):
    """(g, a / g, b / g) for nonzero a and b, with g the canonically
    normalized ``poly_gcd(a, b)``. The quotients of the heuristic gcd's
    proof are kept; other routes divide here."""
    ca, pa = a.content_and_primitive()
    cb, pb = b.content_and_primitive()
    g, qa, qb = _gcd_prim(pa, pb)
    if g.is_constant():
        return g, a, b
    if qa is None:
        qa, qb = pa.exact_div(g), pb.exact_div(g)
    return g, qa * ca, qb * cb


# -- plane endomorphisms --------------------------------------------------


class Endomorphism:
    """A polynomial self-map of the plane, stored by its coordinate images.

    The map sends (x, y) to (p(x, y), q(x, y)).  The Jacobian determinant
    is computed once at construction and cached.
    """

    __slots__ = ("p", "q", "jacobian", "_hash")

    def __init__(self, p: Polynomial, q: Polynomial):
        if p.context != q.context:
            raise ContextMismatchError("both coordinate images need one context")
        if p.context.arity != 2:
            raise ValueError("an endomorphism of the plane needs a 2-variable context")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "jacobian", jacobian_det(p, q))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Endomorphism is immutable")

    @property
    def context(self) -> VarContext:
        return self.p.context

    def is_keller(self) -> bool:
        """True when the Jacobian determinant is a nonzero constant."""
        return self.jacobian.kind == "constant"

    def degree(self) -> int:
        return max(self.p.total_degree(), self.q.total_degree())

    def apply(self, point: Mapping[str, Scalar]):
        return self.p.evaluate(point), self.q.evaluate(point)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.p, self.q))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Endomorphism(p={self.p}, q={self.q})"


def compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """The composite map sending a point t to f(g(t)).

    With this convention the chain rule reads: the Jacobian determinant of
    the composite equals the determinant of f evaluated at g, times the
    determinant of g.
    """
    if f.context != g.context:
        raise ContextMismatchError("composition needs a shared context")
    a, b = f.context.names
    images = {a: g.p, b: g.q}
    return Endomorphism(f.p.substitute(images), f.q.substitute(images))


def identity_map(context: VarContext = XY) -> Endomorphism:
    a, b = context.names
    return Endomorphism(
        Polynomial.variable(context, a), Polynomial.variable(context, b)
    )
