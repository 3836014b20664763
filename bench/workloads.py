"""The three benchmark workloads: seeded inputs, keller calls and oracles.

Every workload turns ``--seed`` into a list of items. An item carries its
input as text (the ``p ; q`` form ``keller gen`` prints, or a polynomial
string) and an expected answer built with ``oracle.py``, never with keller.
Setup parses the text with ``keller.parsing.parse_poly``; the timed call is
one public keller function; the check compares its answer with the
expected one and returns the exact output text for the digest.

The item mix is fixed per workload and the seed varies everything else, so
every seed does a similar amount of algebra and run-to-run spreads stay
small:

* tame maps are the criterion-01 recipes (``random_tame(s)`` for s in
  0..99), each conjugated by seed-drawn sign flips (x, y) -> (+-x, +-y) on
  both sides. The flips change every coefficient's sign pattern and the
  answer, but not the size of any intermediate result.
* membership queries and factor inputs have a fixed monomial support per
  query slot; the seed draws their coefficients (and the sign flips of
  the maps they live on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

import oracle as O

XY_NAMES = ("x", "y")
U_NAMES = ("u1", "u2")

# criterion 01: classify every map of the seeded tame corpus
TAME_BASE_SEEDS = tuple(range(100))
# criterion 08 draws its membership traffic over the first 20 corpus maps
MEMBER_BASE_SEEDS = tuple(range(20))
# (x, xy) o t queries: the same 20 tame maps t
BIRATIONAL_BASE_SEEDS = tuple(range(20))
# factor inputs: W = prod g_i(p, q)^m_i; (degrees k_i of g_i in u2, m_i)
FACTOR_PROFILES = (
    ((1, 1), (2, 1)),
    ((1, 1), (3, 1)),
    ((2, 1), (3, 1)),
    ((1, 2), (2, 1)),
    ((2, 2), (1, 1)),
    ((1, 1), (2, 1), (3, 1)),
    ((1, 2), (2, 1), (1, 1)),
    ((1, 1), (1, 1), (2, 2)),
)
FACTOR_BASE_SEEDS = tuple(range(13))
FACTOR_MAP_DEGREE_CAP = 3


@dataclass
class Item:
    """One closed-loop request: inputs as text, the answer it must give."""

    id: str
    texts: Tuple[str, ...]
    expect: Any
    group: str = ""


def _fraction(rng: random.Random, lo: int = -4, hi: int = 4, dens=(1, 2, 3)) -> Fraction:
    c = 0
    while not c:
        c = rng.randint(lo, hi)
    return Fraction(c, rng.choice(dens))


def _recipe_steps(recipe) -> List[tuple]:
    """keller's TameRecipe as plain step tuples for the oracle."""
    out = []
    for s in recipe.steps:
        kind = type(s).__name__
        if kind == "Affine":
            out.append(("affine", (s.a, s.b, s.c, s.d, s.e, s.f)))
        elif kind == "ElementaryX":
            out.append(("ex", (s.coeff, s.power)))
        else:
            out.append(("ey", (s.coeff, s.power)))
    return out


def _sign_flip(rng: random.Random) -> tuple:
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    z = Fraction(0)
    return ("affine", (Fraction(sx), z, z, Fraction(sy), z, z))


def tame_variant(keller, base_seed: int, rng: random.Random, **draw) -> List[tuple]:
    """Steps of sigma o f o tau for the corpus map f of ``base_seed``."""
    _, recipe = keller.random_tame(base_seed, **draw)
    return [_sign_flip(rng)] + _recipe_steps(recipe) + [_sign_flip(rng)]


def map_text(p: O.Poly, q: O.Poly) -> str:
    return f"{O.fmt(p, XY_NAMES)} ; {O.fmt(q, XY_NAMES)}"


# -- tame_classify ---------------------------------------------------------------


class TameClassify:
    name = "tame_classify"

    def items(self, keller, seed: int, limit: Optional[int]) -> List[Item]:
        rng = random.Random(f"tame_classify:{seed}")
        out = []
        for s in TAME_BASE_SEEDS[:limit]:
            steps = tame_variant(keller, s, rng)
            p, q = O.compose_recipe(steps)
            inverse = O.compose_recipe(O.invert_recipe(steps))
            out.append(Item(f"map{s}", (map_text(p, q),), inverse))
        return out

    def parse(self, keller, item: Item, maps: dict):
        return _parse_map(keller, item.texts[0], maps)

    def call(self, keller, f):
        report = keller.classify(f)
        return report, report.stats

    def check(self, keller, item: Item, report) -> Tuple[bool, str]:
        if report.verdict is not keller.Verdict.AUTOMORPHISM or report.inverse is None:
            return False, f"verdict {report.verdict.value}"
        tfae = report.tfae
        if tfae is None or not (tfae.i and tfae.ii and tfae.iii):
            return False, f"tfae {tfae}"
        s, t = report.inverse
        # renaming u1 -> x, u2 -> y keeps every exponent tuple as it is
        ok = s.context.names == U_NAMES and (s.terms, t.terms) == tuple(item.expect)
        return ok, f"{s} ; {t}"


# -- membership_mixed ------------------------------------------------------------

# Each query slot fixes the monomials of G or h, so deg w and the size of the
# linear system are the same for every seed; the seed draws the coefficients.
# criterion-08 queries: w = G(p, q), supports of G in (u1, u2)
MEMBER_SUPPORTS = (
    ((1, 1), (1, 0), (0, 0)),
    ((0, 3), (2, 0), (0, 1)),
    ((2, 1), (1, 2), (1, 0), (0, 0)),
)
# (x, xy) o t queries: w = h o t, supports of h in (x, y); w is a member
# exactly when every monomial x^a y^b of h has a >= b
BIRATIONAL_SUPPORTS = (
    ((1, 1), (1, 0), (0, 0)),
    ((2, 1), (2, 0), (1, 1)),
    ((0, 2), (1, 0)),
    ((1, 2), (2, 0), (0, 0)),
)


def _with_coefficients(rng: random.Random, support) -> O.Poly:
    return {e: _fraction(rng) for e in support}


class MembershipMixed:
    name = "membership_mixed"

    def items(self, keller, seed: int, limit: Optional[int]) -> List[Item]:
        rng = random.Random(f"membership_mixed:{seed}")
        out = []
        for s in MEMBER_BASE_SEEDS[:limit]:
            p, q = O.compose_recipe(tame_variant(keller, s, rng))
            text = map_text(p, q)
            for j, support in enumerate(MEMBER_SUPPORTS):
                G = _with_coefficients(rng, support)
                w = O.evaluate_at(G, (p, q))
                out.append(Item(f"tame{s}.q{j}", (text, O.fmt(w, XY_NAMES)), G, "member"))
        for s in BIRATIONAL_BASE_SEEDS[:limit]:
            tp, tq = O.compose_recipe(tame_variant(keller, s, rng))
            # f = (x, xy) o t = (t.p, t.p * t.q)
            text = map_text(tp, O.mul(tp, tq))
            for j, support in enumerate(BIRATIONAL_SUPPORTS):
                h = _with_coefficients(rng, support)
                member = all(a >= b for a, b in h)
                w = O.evaluate_at(h, (tp, tq))
                # h(x, y) = G(x, xy) with G = sum c u1^(a-b) u2^b when a >= b
                G = {(a - b, b): c for (a, b), c in h.items()} if member else None
                group = "birational_member" if member else "birational_nonmember"
                out.append(Item(f"xxy{s}.q{j}", (text, O.fmt(w, XY_NAMES)), G, group))
        return out

    def parse(self, keller, item: Item, maps: dict):
        f = _parse_map(keller, item.texts[0], maps)
        return f, keller.parse_poly(item.texts[1], keller.XY)

    def call(self, keller, args):
        f, w = args
        stats = keller.RunStats()
        return keller.subring_membership(w, f, stats=stats), stats

    def check(self, keller, item: Item, G) -> Tuple[bool, str]:
        if item.expect is None:
            return G is None, str(G)
        if G is None:
            return False, "None"
        return G.context.names == U_NAMES and G.terms == item.expect, str(G)


# -- factor_images ---------------------------------------------------------------


class FactorImages:
    name = "factor_images"

    def items(self, keller, seed: int, limit: Optional[int]) -> List[Item]:
        rng = random.Random(f"factor_images:{seed}")
        out = []
        for s in FACTOR_BASE_SEEDS[:limit]:
            p, q = O.compose_recipe(
                tame_variant(keller, s, rng, degree_cap=FACTOR_MAP_DEGREE_CAP)
            )
            for j, profile in enumerate(FACTOR_PROFILES[: limit or None]):
                factors = []
                gs = set()
                for k, m in profile:
                    g = self._linear_in_u1(rng, k)
                    while tuple(sorted(g.items())) in gs:
                        g = self._linear_in_u1(rng, k)
                    gs.add(tuple(sorted(g.items())))
                    factors.append((O.evaluate_at(g, (p, q)), m))
                W = O.const(_fraction(rng, 1, 4))
                for g, m in factors:
                    W = O.mul(W, O.power(g, m))
                out.append(Item(f"map{s}.f{j}", (O.fmt(W, XY_NAMES),), (W, factors)))
        return out

    @staticmethod
    def _linear_in_u1(rng: random.Random, k: int) -> O.Poly:
        """c u1 + u2^k + (every lower power of u2): irreducible over Q."""
        g = {(1, 0): _fraction(rng), (0, k): Fraction(1)}
        for j in range(k):
            g[(0, j)] = _fraction(rng)
        return g

    def parse(self, keller, item: Item, maps: dict):
        return keller.parse_poly(item.texts[0], keller.XY)

    def call(self, keller, W):
        return keller.factor_bivariate(W, degree_cap=W.total_degree()), None

    def check(self, keller, item: Item, fact) -> Tuple[bool, str]:
        W, factors = item.expect
        text = "; ".join(f"({g})^{m}" for g, m in fact.factors) + f"; content {fact.content}"
        got = [(g.terms, m) for g, m in fact.factors]
        if sorted(m for _, m in got) != sorted(m for _, m in factors):
            return False, text
        unmatched = list(factors)
        for g, m in got:
            hit = next(
                (e for e in unmatched if e[1] == m and O.is_scalar_multiple(g, e[0])), None
            )
            if hit is None:
                return False, text
            unmatched.remove(hit)
        product = O.const(fact.content)
        for g, m in got:
            product = O.mul(product, O.power(g, m))
        return product == W, text


def _parse_map(keller, text: str, maps: dict):
    """Parse a ``p ; q`` line once per run; later queries reuse the object."""
    if text not in maps:
        p_text, q_text = text.split(";")
        maps[text] = keller.Endomorphism(
            keller.parse_poly(p_text, keller.XY), keller.parse_poly(q_text, keller.XY)
        )
    return maps[text]


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (TameClassify(), MembershipMixed(), FactorImages())
}
