"""Exact sparse polynomial arithmetic over the rationals.

A polynomial is an immutable term map from exponent tuples to nonzero
`fractions.Fraction` coefficients, attached to a fixed ordered variable
context. Everything is exact; no floating point enters at any stage.

Term order conventions used throughout the package:

* "lex" compares exponent tuples left to right, so earlier context
  variables dominate.  Tuple comparison in Python is exactly this order,
  which is why leading terms are plain ``max()`` calls.
* Canonical unit normalization means: clear rational content so the
  coefficients are coprime integers, then flip the sign so the lex-leading
  coefficient is positive.  Gcds, factors, and denominators are always
  returned in this form.

Products and substitutions run on integers and packed monomial keys.
Each operand is cleared to integer numerators over the lcm of its
denominators, and each exponent tuple is packed into one int, the exponent
of variable i in a field of ``w`` bits.  ``w`` is chosen per call from a
proven bound B on every exponent the call can produce, as the bit length of
B: in ``__mul__`` B is the largest exponent of one operand plus the
largest of the other, in ``substitute`` it is deg(self) times the largest
total degree of the images.  No field then reaches 2**w, so adding two
keys adds their exponents field by field, and the product loop is one int
addition, one int product and one dict update per pair of terms.
``__mul__`` unpacks once and builds one ``Fraction(n, da * db)`` per output
term.  A one-term operand is an exponent shift instead, with no clearing
and no packing.

``substitute`` runs the same product loop on row maps, whose key packs
every target variable but the last and whose value is one big integer:
that key's coefficient, a polynomial in the last variable, at 2**W
(Kronecker substitution), so one CPython product multiplies a whole row.
The images, their cached powers and the Horner accumulator stay row maps,
and W comes from a height bound proven before any product (see
``substitute``), so the result is decoded once.  ``__mul__`` stays on
monomial keys: its operands are small and sparse, where rows cost more
than they save.  The term map stays exponent tuple -> ``Fraction`` outside
these two methods.

``poly_gcd`` takes a gcd of one-variable inputs as ``univariate.gcd_z``
of their dense integer coefficient lists; this covers the contents in the
main variable that every bivariate gcd splits off first.  On two-variable
inputs it tries the heuristic gcd, checked by exact division, before the
primitive pseudo-remainder sequence, which also handles every other case.
``exact_div`` runs on integer numerators and packed keys too, with one
spare bit per field that reveals, without unpacking, when a leading
monomial does not divide a remaining term; a one-term divisor is an
exponent shift, as in ``__mul__``.
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
_ONE = Fraction(1)


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


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _cleared(terms: Mapping[Exponent, Fraction]):
    """(numerators, den): integer numerators over the lcm of the denominators."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = den // math.gcd(den, d) * d
    if den == 1:
        return {e: c.numerator for e, c in terms.items()}, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


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
    return Polynomial._raw(
        context,
        {
            tuple([k >> s & mask for s in shifts]): Fraction(n, den)
            for k, n in numerators.items()
            if n
        },
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
    terms = {}
    for k, v in rows.items():
        head = tuple([k >> s & mask for s in shifts])
        e = 0
        while v:
            d = ((v & top) ^ half) - half
            if d:
                terms[head + (e,)] = Fraction(d, den)
            v = (v - d) >> width
            e += 1
    return Polynomial._raw(context, terms)


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


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("context", "terms", "_hash")

    def __init__(self, context: VarContext, terms: Mapping[Exponent, Scalar]):
        clean = {}
        arity = context.arity
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != arity or any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r} for arity {arity}")
            c = _coerce(coeff)
            if c:
                clean[exps] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, context: VarContext, clean_terms: dict) -> "Polynomial":
        """Fast path for internally constructed, already-clean term maps."""
        self = object.__new__(cls)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean_terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def zero(cls, context: VarContext) -> "Polynomial":
        return cls._raw(context, {})

    @classmethod
    def constant(cls, context: VarContext, value: Scalar) -> "Polynomial":
        c = _coerce(value)
        if not c:
            return cls.zero(context)
        return cls._raw(context, {(0,) * context.arity: c})

    @classmethod
    def variable(cls, context: VarContext, name: str) -> "Polynomial":
        i = context.index(name)
        exps = tuple(1 if j == i else 0 for j in range(context.arity))
        return cls._raw(context, {exps: _ONE})

    @classmethod
    def monomial(cls, context: VarContext, exps: Exponent, coeff: Scalar = 1) -> "Polynomial":
        return cls(context, {tuple(exps): coeff})

    # -- predicates and basic queries ------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()), _ZERO)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.context.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def variables_used(self) -> tuple:
        used = [False] * self.context.arity
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.context.names, used) if u)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, _ZERO) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial._raw(self.context, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, _ZERO) - c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial._raw(self.context, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.context, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return Polynomial.zero(self.context)
            return Polynomial._raw(
                self.context, {e: v * c for e, v in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) <= 1:
            if not b:
                return Polynomial.zero(self.context)
            ((e, c),) = b.items()
            return Polynomial._raw(
                self.context, {tuple(map(add, e1, e)): v * c for e1, v in a.items()}
            )
        a, da = _cleared(a)
        b, db = _cleared(b)
        shifts, mask = _layout(
            self.context.arity, max(map(max, a)) + max(map(max, b))
        )
        product = _mul_ints(_packed(a, shifts), _packed(b, shifts))
        return _unpacked(self.context, product, da * db, shifts, mask)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = _coerce(scalar)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

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
        return self.context == other.context and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.context, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus and substitution ----------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one context variable."""
        i = self.context.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if not e:
                continue
            reduced = exps[:i] + (e - 1,) + exps[i + 1 :]
            v = out.get(reduced, _ZERO) + c * e
            if v:
                out[reduced] = v
            else:
                out.pop(reduced, None)
        return Polynomial._raw(self.context, out)

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Evaluate at polynomial images, one per context variable.

        All images must share a single target context; the result lives there.

        With self == num / den and image j == nums[j] / dens[j] cleared to
        integers, scaling each term c of num to c' = c * prod_j dens[j] **
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
        if not self.terms:
            return Polynomial.zero(target)
        num, den = _cleared(self.terms)
        nums, dens = zip(*(_cleared(im.terms) for im in imgs))
        degs = [max(e[j] for e in num) for j in range(len(imgs))]
        h = degs.index(max(degs))
        norms = [sum(map(abs, n.values())) for n in nums]
        height = 0
        for exps in num:
            c = num[exps]
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
        nums = [_rows(n, shifts, width) for n in nums]
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
        total = _ZERO
        names = self.context.names
        vals = []
        for n in names:
            if n not in point:
                raise MissingAssignmentError(f"no value given for {n!r}")
            vals.append(_coerce(point[n]))
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(vals, exps):
                if e:
                    v *= x**e
            total += v
        return total

    # -- normal forms -----------------------------------------------------

    def content_and_primitive(self):
        """Split off the rational content.

        Returns ``(content, primitive)`` with ``self == content * primitive``,
        where the primitive part has coprime integer coefficients and a
        positive lex-leading coefficient.  The zero polynomial returns
        ``(Fraction(0), self)``.
        """
        if not self.terms:
            return _ZERO, self
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        if self.terms[max(self.terms)] < 0:
            num_gcd = -num_gcd
        # c / content = n * (den_lcm / d) / num_gcd, an exact integer
        prim = Polynomial._raw(
            self.context,
            {
                e: Fraction(c.numerator * (den_lcm // c.denominator) // num_gcd)
                for e, c in self.terms.items()
            },
        )
        return Fraction(num_gcd, den_lcm), prim

    def normalized(self) -> "Polynomial":
        """Canonical unit normalization (primitive, positive lex lead)."""
        if not self.terms:
            return self
        return self.content_and_primitive()[1]

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact division; raises ExactDivisionError when it does not divide.

        Both operands are cleared to integers, self == A / da and divisor ==
        c * M / dm with M primitive, and A is divided by M on packed keys,
        popping the lex-largest remaining term at each step.  If M divides A
        over Q, the quotient Q lies in Z[x] by Gauss's lemma: write
        Q = r * Q0 with r rational and Q0 primitive; Q0 * M is primitive, so
        r is the content of A up to sign, an integer.  Long division emits
        the terms of Q one by one, so a step whose coefficient is not a
        multiple of the leading coefficient of M proves that M does not
        divide A.  So does a quotient term above deg A - deg M in some
        variable, the degrees of an exact quotient.  The result is Q times
        the one scalar dm / (da * c).  A one-term divisor is an exponent
        shift instead, which divides exactly when every term of self is a
        multiple of its monomial.
        """
        if not isinstance(divisor, Polynomial):
            raise TypeError("exact_div expects a Polynomial divisor")
        self._check_context(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero():
            return self
        if len(divisor.terms) == 1:
            ((ed, cd),) = divisor.terms.items()
            out = {}
            for e, c in self.terms.items():
                q = tuple(map(sub, e, ed))
                if min(q) < 0:
                    raise ExactDivisionError(f"{divisor} does not divide exactly")
                out[q] = c / cd
            return Polynomial._raw(self.context, out)
        a, da = _cleared(self.terms)
        m, dm = _cleared(divisor.terms)
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
        for exps, c in self.terms.items():
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
        return Polynomial._raw(target, out)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.context.names
        pieces = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
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


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd on Q: gcd of numerators over lcm of denominators, non-negative."""
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def _coeffs_in(p: Polynomial, i: int) -> dict:
    """View p as univariate in variable index i: degree -> coefficient poly."""
    out: dict = {}
    for exps, c in p.terms.items():
        e = exps[i]
        stripped = exps[:i] + (0,) + exps[i + 1 :]
        bucket = out.setdefault(e, {})
        bucket[stripped] = bucket.get(stripped, _ZERO) + c
    result = {}
    for d, terms in out.items():
        clean = {e: c for e, c in terms.items() if c}
        if clean:
            result[d] = Polynomial._raw(p.context, clean)
    return result


def _from_list(context: VarContext, i: int, f: Sequence) -> Polynomial:
    """The polynomial sum f[k] * x_i**k for a dense list of ints or Fractions."""
    base = [0] * context.arity
    terms = {}
    for k, c in enumerate(f):
        base[i] = k
        terms[tuple(base)] = c
    return Polynomial(context, terms)


def _int_content(p: Polynomial) -> int:
    g = 0
    for c in p.terms.values():
        g = math.gcd(g, c.numerator)
    return g


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
    if a.is_zero():
        a, b = b, a
    if b.is_zero():
        if a.is_zero():
            return a
        return a.normalized() * _int_content(a)
    ca = _int_content(a)
    cb = _int_content(b)
    cg = math.gcd(ca, cb)
    g = _gcd_prim(a.normalized(), b.normalized())
    return g * cg


def _main_var(a: Polynomial, b: Polynomial) -> int:
    """Highest variable index occurring in either polynomial, or -1."""
    best = -1
    for p in (a, b):
        for exps in p.terms:
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
        c = _int_content(r)
        if c > 1:
            r = r * Fraction(1, c)
    return r


def _split_var_content(p: Polynomial, i: int):
    """Content/primitive split of p seen as univariate in variable i.

    When every coefficient lives in one other variable j, the coefficients
    are read once as dense integer lists in j, and the content is the
    integer content times one ``uni.gcd_z`` fold over them (Gauss's
    lemma), with a positive lead. Coefficients in two or more variables
    take ``_gcd_many``.
    """
    num, _ = _cleared(p.terms)
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


def _gcd_prim(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd of primitive integer polynomials, canonically normalized."""
    if a.is_constant() or b.is_constant():
        return Polynomial.constant(a.context, 1)
    i = _main_var(a, b)
    if all(e[i] == sum(e) for p in (a, b) for e in p.terms):
        # one variable: every other exponent is 0, so the image at 1 is the
        # dense coefficient list, and gcd_z is primitive with a positive lead
        h = uni.gcd_z(_eval_others(a.terms, i, 1), _eval_others(b.terms, i, 1))
        return _from_list(a.context, i, h)
    ca, pa = _split_var_content(a, i)
    cb, pb = _split_var_content(b, i)
    gamma = _gcd_int(ca, cb)
    others = {k for p in (pa, pb) for e in p.terms for k, n in enumerate(e) if n and k != i}
    g = _gcd_heu(pa, pb, i, others.pop()) if len(others) == 1 else None
    if g is None:
        g = _gcd_prs(pa, pb, i)
    return (gamma * g).normalized()


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


def _gcd_heu(a: Polynomial, b: Polynomial, i: int, j: int) -> Optional[Polynomial]:
    """gcd of two polynomials primitive in variable i, with j the only other.

    The heuristic gcd of Char, Geddes and Gonnet (1989), tried at a few
    points; None when no point gives a candidate that divides both inputs.
    """
    ctx = a.context
    na, _ = _cleared(a.terms)
    nb, _ = _cleared(b.terms)
    da = max(e[i] for e in na)
    db = max(e[i] for e in nb)
    xi = 2 * min(max(map(abs, na.values())), max(map(abs, nb.values()))) + 29
    for _ in range(_HEU_TRIES):
        ea = _eval_others(na, i, xi)
        eb = _eval_others(nb, i, xi)
        if len(ea) == da + 1 and len(eb) == db + 1:
            h = uni.gcd_z(ea, eb)
            if len(h) == 1:
                return Polynomial.constant(ctx, 1)
            k = math.gcd(uni.content(ea), uni.content(eb))
            # the leading digits are not all zero, so deg_i cand = deg h
            cand = _split_var_content(_xi_adic(ctx, h, k, xi, i, j), i)[1]
            if cand.divides(a) and cand.divides(b):
                return cand.normalized()
        xi = xi * 73794 // 27011
    return None


# evaluation points tried by _gcd_heu before it gives way to the PRS
_HEU_TRIES = 4


def _eval_others(num: Mapping[Exponent, int], i: int, c: int) -> list:
    """Dense coefficient list in variable i of an integer term map, with
    every other variable set to the integer c."""
    out = [0] * (max(e[i] for e in num) + 1)
    for e, v in num.items():
        out[e[i]] += int(v) * c ** (sum(e) - e[i])
    return uni.strip(out)


def _xi_adic(context: VarContext, h: list, k: int, xi: int, i: int, j: int) -> Polynomial:
    """The polynomial in x_i, x_j whose image at x_j = xi is k * h, read off
    the symmetric xi-adic digits of each coefficient of k * h."""
    terms = {}
    half = xi // 2
    base = [0] * context.arity
    for d, c in enumerate(h):
        c *= k
        base[i] = d
        base[j] = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                terms[tuple(base)] = Fraction(r)
            c = (c - r) // xi
            base[j] += 1
    return Polynomial._raw(context, terms)


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
    return _frac_gcd(ca, cb) * _gcd_prim(pa, pb)


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
