"""Automorphism groups of the non-unital algebras generated by monic polynomials.

An affine map (alpha, beta) with alpha a unit acts on R[t] by t -> alpha*t
+ beta; it maps the ideal of a monic nonconstant f onto the ideal of g
exactly when f(alpha*t + beta) == alpha**deg(f) * g.  One function,
:func:`_identity_holds`, evaluates that identity, and everything reads one
stream, :func:`_witnesses`: the candidates of (f, g) that pass it, in
canonical order.  The group of f is the stream of (f, f), :func:`iso_test`
returns its first map and :func:`all_iso_witnesses` lists it.  Each input
costs one squarefree decomposition (:func:`_analyse`).

The candidates come from the structure theory, never from a blind search:

  * f = (t - a)**n, g = (t - b)**n with a, b in R: the one candidate
    (1, a - b).  The group is all units acting around a (the symbolic
    :class:`UnitsGroup`) and the witnesses are the closed-form
    :class:`IsoWitnessFamily` (see :func:`witness_family`).
  * otherwise :func:`_iso_candidates`:
      - over Q, or GF(p) with p not dividing n = deg(f): translate t so the
        coefficient of t**(n-1) vanishes; for centered f and g with equal
        support, alpha**(n-j) = cF_j / cG_j for every nonzero coefficient
        is the identity itself, so every candidate must pass;
      - over Z the units {1, -1}, with beta pinned by the t**(n-1)
        coefficient: n*beta = alpha*c^g_{n-1} - c^f_{n-1};
      - over GF(p) with p | n (so p <= n) the maps whose identity holds at
        every point of GF(p), read off value tables of f and g.

A candidate that must pass and fails raises :class:`TheoryViolation`.
Where every candidate must pass, :func:`compute_aut` checks one generator of
the (cyclic) group, whose powers pass with it; elsewhere every element is
checked.  Element orders are in closed form (see :meth:`AffineMap.order`).
"""

from dataclasses import dataclass
from functools import reduce
from math import gcd as _int_gcd

from .errors import (
    InexactDivision,
    MixedRings,
    NotAUnit,
    TheoryViolation,
    WrongRing,
)
from .poly import Poly, _require_monic_nonconstant, center, squarefree_decomposition
from .ring import Ring, RingElement, multiplicative_order, nth_roots


class AffineMap:
    """The substitution t -> alpha*t + beta with alpha a unit."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: RingElement, beta: RingElement):
        if not isinstance(alpha, RingElement) or not isinstance(beta, RingElement):
            raise TypeError("AffineMap takes two RingElements")
        if alpha.ring != beta.ring:
            raise MixedRings("alpha and beta live in different rings")
        if not alpha.is_unit:
            raise NotAUnit(f"{alpha} is not a unit of {alpha.ring}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, val):
        raise AttributeError("AffineMap is immutable")

    @classmethod
    def identity(cls, ring: Ring) -> "AffineMap":
        return cls(ring.one(), ring.zero())

    @property
    def ring(self) -> Ring:
        return self.alpha.ring

    @property
    def is_identity(self) -> bool:
        return self.alpha.is_one and self.beta.is_zero

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (a1,b1) o (a2,b2) = (a1*a2, b1 + a1*b2)."""
        return AffineMap(self.alpha * other.alpha, self.beta + self.alpha * other.beta)

    def inverse(self) -> "AffineMap":
        inv = self.alpha.inverse()
        return AffineMap(inv, -(inv * self.beta))

    def order(self):
        """ord(alpha) when alpha != 1; p for a translation of GF(p); None if infinite."""
        if self.alpha.is_one:
            return 1 if self.beta.is_zero else self.ring.char or None
        return multiplicative_order(self.alpha)

    def apply(self, x) -> RingElement:
        return self.alpha * x + self.beta

    def root_image(self, z) -> RingElement:
        """The induced action on roots: z -> (z - beta) / alpha."""
        return (self.ring.elem(z) - self.beta) * self.alpha.inverse()

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def sort_key(self):
        return (self.alpha.sort_key(), self.beta.sort_key())

    def __str__(self):
        return f"({self.alpha}, {self.beta})"

    def __repr__(self):
        return f"AffineMap{self}"


def verify_aut(f: Poly, m: AffineMap) -> bool:
    """Does (alpha, beta) restrict to an automorphism of the ideal of f?"""
    _require_monic_nonconstant(f)
    if m.ring != f.ring:
        raise MixedRings("map and polynomial live over different rings")
    return _identity_holds(f, f, m.alpha, m.beta)


def _identity_holds(f: Poly, g: Poly, alpha: RingElement, beta: RingElement) -> bool:
    # the defining identity f(alpha*t + beta) == alpha**deg(f) * g
    return f.affine_substitute(alpha, beta) == alpha ** f.degree() * g


def _analyse(f: Poly):
    """(layer shape, single root or None) of f from one squarefree decomposition."""
    layers = squarefree_decomposition(f).layers
    shape = sorted((m, layer.degree()) for layer, m in layers)
    if len(layers) != 1 or layers[0][0].degree() != 1:
        return shape, None
    return shape, -layers[0][0].coeff(0)


def single_root_form(f: Poly):
    """a when f is a unit times (t - a)**n with a in R, else None."""
    _require_monic_nonconstant(f)
    return _analyse(f)[1]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FiniteAutGroup:
    """Explicit finite automorphism group with cyclicity analysis."""

    elements: tuple
    order: int
    cyclic: bool
    generator: AffineMap | None
    element_orders: tuple

    kind = "finite"

    @classmethod
    def from_elements(cls, elements) -> "FiniteAutGroup":
        """Canonicalize an element list that must form a group.

        A finite group of affine maps is the powers of a member whose alpha has
        the largest order, times every translation when the list holds one.
        """
        unique = sorted(set(elements), key=AffineMap.sort_key)
        if not unique or any(m.order() is None for m in unique):
            raise TheoryViolation("automorphism group empty or of infinite order")
        translations = any(m.alpha.is_one and not m.beta.is_zero for m in unique)
        group = _generated(max(unique, key=lambda m: multiplicative_order(m.alpha)), translations)
        if group.elements != tuple(unique):
            raise TheoryViolation("element list is not a group")
        return group

    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FiniteAutGroup):
            return NotImplemented
        return self.elements == other.elements

    def __repr__(self):
        body = ", ".join(str(m) for m in self.elements)
        return f"FiniteAutGroup[order {self.order}{', cyclic' if self.cyclic else ''}: {body}]"


def _generated(rotation: AffineMap, translations: bool) -> FiniteAutGroup:
    """The powers of rotation, each composed with every translation of GF(p) if asked."""
    ring = rotation.ring
    powers = [AffineMap.identity(ring)]
    for _ in range(multiplicative_order(rotation.alpha) - 1):
        powers.append(powers[-1].compose(rotation))
    if translations:
        powers = [AffineMap(m.alpha, ring.elem(b)) for m in powers for b in range(ring.p)]
    elements = tuple(sorted(powers, key=AffineMap.sort_key))
    orders = tuple((m, m.order()) for m in elements)
    generator = next((m for m, k in orders if k == len(elements)), None)
    return FiniteAutGroup(elements, len(elements), generator is not None, generator, orders)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class UnitsGroup:
    """All units of R acting around one fixed point a: {(u, (1-u)a)}.

    The symbolic form of the single-root case; stays unexpanded so Q's
    infinite unit group costs nothing.
    """

    fixed_point: RingElement

    kind = "units_of_R"

    @property
    def ring(self) -> Ring:
        return self.fixed_point.ring

    @property
    def is_finite(self) -> bool:
        return self.ring.has_finite_units

    def order(self):
        return _unit_count(self.ring)

    def element_for(self, alpha) -> AffineMap:
        alpha = self.ring.elem(alpha)
        return AffineMap(alpha, (self.ring.one() - alpha) * self.fixed_point)

    def contains(self, m: AffineMap) -> bool:
        return m.beta == (self.ring.one() - m.alpha) * self.fixed_point

    def elements(self) -> tuple:
        if not self.is_finite:
            raise WrongRing("unit group of Q is infinite")
        maps = [self.element_for(u) for u in self.ring.units()]
        return tuple(sorted(maps, key=AffineMap.sort_key))

    def to_finite(self) -> FiniteAutGroup:
        return FiniteAutGroup.from_elements(self.elements())

    def __eq__(self, other):
        if not isinstance(other, UnitsGroup):
            return NotImplemented
        return self.fixed_point == other.fixed_point

    def __repr__(self):
        return f"UnitsGroup[fixed point {self.fixed_point} over {self.ring}]"


def _unit_count(ring: Ring):
    """|R^x|: 2 over Z, p - 1 over GF(p), None (infinite) over Q."""
    if ring.kind == "Z":
        return 2
    if ring.kind == "F":
        return ring.p - 1
    return None


def groups_equal(a, b) -> bool:
    """Equality as sets of affine maps; a symbolic group is never expanded.

    A finite group equals R^x around a fixed point when it has |R^x|
    (distinct) elements and each of them fixes that point.
    """
    if isinstance(a, UnitsGroup) and isinstance(b, UnitsGroup):
        return a == b
    if isinstance(a, UnitsGroup):
        a, b = b, a
    if isinstance(b, UnitsGroup):
        return (
            b.order() == a.order
            and a.elements[0].ring == b.ring
            and all(b.contains(m) for m in a.elements)
        )
    return a.element_set() == b.element_set()


def compute_aut(f: Poly):
    """The full automorphism group of the ideal generated by monic f.

    Where every candidate must pass, they must be the powers of the one checked
    candidate of largest order; otherwise the group is the stream of (f, f).
    """
    _require_monic_nonconstant(f)
    fm = f.monic()
    a = _analyse(fm)[1]
    if a is not None:
        return UnitsGroup(a)
    if not _candidates_must_pass(fm):
        return FiniteAutGroup.from_elements(list(_witnesses(fm, fm)))
    candidates = [AffineMap(alpha, beta) for alpha, beta in _iso_candidates(fm, fm)]
    generator = max(candidates, key=AffineMap.order)
    if not _identity_holds(fm, fm, generator.alpha, generator.beta):
        raise TheoryViolation(f"candidate {generator} fails the defining identity")
    group = _generated(generator, False)
    if group.element_set() != set(candidates):
        raise TheoryViolation("the candidates are not the powers of the verified generator")
    return group


def shift_conjugate(grp, z0):
    """Transport a group of f to the group of f(t - z0)."""
    if isinstance(grp, UnitsGroup):
        return UnitsGroup(grp.fixed_point + grp.ring.elem(z0))
    ring = grp.elements[0].ring
    z0 = ring.elem(z0)
    one = ring.one()
    moved = [
        AffineMap(m.alpha, (one - m.alpha) * z0 + m.beta) for m in grp.elements
    ]
    return FiniteAutGroup.from_elements(moved)


def _intersect_two(g1, g2):
    if isinstance(g1, UnitsGroup) and isinstance(g2, UnitsGroup):
        if g1 == g2:
            return g1
        ring = g1.ring
        return FiniteAutGroup.from_elements([AffineMap.identity(ring)])
    if isinstance(g1, UnitsGroup):
        g1, g2 = g2, g1
    if isinstance(g2, UnitsGroup):
        kept = [m for m in g1.elements if g2.contains(m)]
    else:
        member = g2.element_set()
        kept = [m for m in g1.elements if m in member]
    return FiniteAutGroup.from_elements(kept)


def layer_intersection(f: Poly):
    """Intersect the automorphism groups of the multiplicity layers of f.

    Equals compute_aut(f) by the layer structure theorem; computing it
    independently gives the cross-check exercised by the test suite.
    """
    _require_monic_nonconstant(f)
    dec = squarefree_decomposition(f.monic())
    groups = [compute_aut(layer) for layer, _ in dec.layers]
    return reduce(_intersect_two, groups)


def power_reduce(f: Poly):
    """Maximal (h, k) with f's monic form equal to h**k."""
    _require_monic_nonconstant(f)
    dec = squarefree_decomposition(f.monic())
    k = reduce(_int_gcd, dec.multiplicities())
    h = Poly.one(f.ring)
    for layer, m in dec.layers:
        h = h * layer ** (m // k)
    return h, k


@dataclass(frozen=True, slots=True, repr=False)
class IsoWitness:
    """An affine map plus the unit lam with f(alpha*t + beta) = lam * g."""

    map: AffineMap
    lam: RingElement

    def __repr__(self):
        return f"IsoWitness(map={self.map}, lam={self.lam})"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class IsoWitnessFamily:
    """All witnesses between two single-root ideals: {(u, a - u*b) : u a unit}."""

    source_fixed_point: RingElement
    target_fixed_point: RingElement

    @property
    def ring(self) -> Ring:
        return self.source_fixed_point.ring

    @property
    def size(self):
        """The number of members: |R^x|, None over Q."""
        return _unit_count(self.ring)

    def witness_for(self, alpha, degree: int) -> IsoWitness:
        alpha = self.ring.elem(alpha)
        beta = self.source_fixed_point - alpha * self.target_fixed_point
        return IsoWitness(AffineMap(alpha, beta), alpha**degree)

    def raw_witnesses(self, degree: int):
        """Iterator over the members' raw (alpha, beta, lam) values, canonically ordered.

        Over GF(p) these are residues, alpha = 1..p-1; over Z alpha = 1, -1.
        Q has infinitely many units, so there this raises WrongRing.
        """
        ring = self.ring
        a, b = self.source_fixed_point.value, self.target_fixed_point.value
        if ring.kind == "Q":
            raise WrongRing("unit group of Q is infinite")
        if ring.kind == "Z":
            return iter(((1, a - b, 1), (-1, a + b, (-1) ** degree)))
        p = ring.p
        return ((u, (a - u * b) % p, pow(u, degree, p)) for u in range(1, p))

    def __repr__(self):
        return (
            f"IsoWitnessFamily[(u, {self.source_fixed_point} - "
            f"u*{self.target_fixed_point}) for every unit u]"
        )


def _iso_candidates(fm: Poly, gm: Poly):
    # complete candidate list of (alpha, beta), canonically ordered
    ring = fm.ring
    n = fm.degree()
    p = ring.char
    if p and n % p == 0:
        # p <= n, so agreement at the p points of GF(p) is only necessary;
        # callers check each surviving map against the full identity
        points = range(p)
        f_at = [fm.evaluate(RingElement(ring, x)).value for x in points]
        g_at = [gm.evaluate(RingElement(ring, x)).value for x in points]
        for a in range(1, p):
            a_n = pow(a, n, p)
            scaled_g = [a_n * v % p for v in g_at]
            for b in range(p):
                if all(f_at[(a * x + b) % p] == scaled_g[x] for x in points):
                    yield RingElement(ring, a), RingElement(ring, b)
        return
    if ring.kind == "Z":
        n_elem = ring.elem(n)
        for alpha in ring.units():
            # t**(n-1) coefficients force n*beta = alpha*c^g - c^f
            rhs = alpha * gm.coeff(n - 1) - fm.coeff(n - 1)
            try:
                yield alpha, rhs.div_exact(n_elem)
            except InexactDivision:
                continue
        return
    z_f = center(fm)
    z_g = center(gm)
    if z_f is None or z_g is None:
        raise TheoryViolation("centroid missing over a field with invertible degree")
    centered_f = fm.shifted(z_f)
    centered_g = centered_f if gm is fm else gm.shifted(z_g)
    support = [j for j in range(n) if not centered_g.coeff(j).is_zero]
    if [j for j in range(n) if not centered_f.coeff(j).is_zero] != support:
        return
    if not support:
        raise TheoryViolation("single-root forms must be handled before the centered search")
    # alpha**(n-j) = cF_j / cG_j for every j in the support: solve the
    # condition with the smallest exponent, then check the others
    ratios = {n - j: centered_f.coeff(j).div_exact(centered_g.coeff(j)) for j in support}
    smallest = min(ratios)
    for alpha in nth_roots(ratios[smallest], smallest):
        if all(alpha**e == r for e, r in ratios.items()):
            yield alpha, z_f - alpha * z_g


def _witnesses(fm: Poly, gm: Poly, a=None, b=None):
    """The candidate maps of (fm, gm) that pass the identity, canonically ordered.

    a and b are the single roots of fm and gm, or both None.
    """
    if a is not None:
        candidates, must_pass = [(fm.ring.one(), a - b)], True
    else:
        candidates, must_pass = _iso_candidates(fm, gm), _candidates_must_pass(fm)
    for alpha, beta in candidates:
        if _identity_holds(fm, gm, alpha, beta):
            yield AffineMap(alpha, beta)
        elif must_pass:
            raise TheoryViolation(f"candidate ({alpha}, {beta}) fails the defining identity")


def _candidates_must_pass(fm: Poly) -> bool:
    """Over Q, or GF(p) with p not dividing deg f, every candidate is a witness."""
    ring = fm.ring
    return ring.kind != "Z" and not (ring.char and fm.degree() % ring.char == 0)


def _pair(f: Poly, g: Poly):
    """(monic f, monic g, root of f, root of g) if f, g have equal layer shapes.

    The roots are the single roots, both None unless the shape is one
    linear layer.  None when the degrees or layer shapes differ.
    """
    _require_monic_nonconstant(f)
    _require_monic_nonconstant(g)
    if f.ring != g.ring:
        raise MixedRings("polynomials live over different rings")
    fm, gm = f.monic(), g.monic()
    if fm.degree() != gm.degree():
        return None
    shape_f, a = _analyse(fm)
    shape_g, b = _analyse(gm)
    if shape_f != shape_g:
        return None
    return fm, gm, a, b


def iso_test(f: Poly, g: Poly):
    """First isomorphism witness between the ideals of f and g, or None.

    The returned identity refers to the monic normalizations of f and g
    (which generate the same ideals): f(alpha*t + beta) = lam * g with
    lam = alpha**deg(f).
    """
    pair = _pair(f, g)
    m = None if pair is None else next(_witnesses(*pair), None)
    return None if m is None else IsoWitness(m, m.alpha ** f.degree())


def witness_family(f: Poly, g: Poly):
    """The IsoWitnessFamily between f = (t - a)**n and g = (t - b)**n, else None.

    Every pair of single-root inputs of equal degree is isomorphic, and its
    witnesses are exactly (u, a - u*b) with lam = u**n for every unit u.
    """
    pair = _pair(f, g)
    if pair is None or pair[2] is None:
        return None
    return IsoWitnessFamily(pair[2], pair[3])


def all_iso_witnesses(f: Poly, g: Poly):
    """Every witness, canonically ordered by map: a list, or None if not isomorphic.

    For single-root inputs over Q the witnesses are infinitely many and the
    result is the :class:`IsoWitnessFamily`; over Z and GF(p) the family is
    listed (p - 1 witnesses over GF(p), so callers facing a large p may want
    :func:`witness_family` instead).  Otherwise the list is the whole
    witness stream of (f, g).
    """
    pair = _pair(f, g)
    if pair is None:
        return None
    fm, gm, a, b = pair
    n = fm.degree()
    if a is None:
        return [IsoWitness(m, m.alpha**n) for m in _witnesses(fm, gm)] or None
    family = IsoWitnessFamily(a, b)
    if family.size is None:
        return family
    ring = family.ring
    return [
        IsoWitness(
            AffineMap(RingElement(ring, alpha), RingElement(ring, beta)),
            RingElement(ring, lam),
        )
        for alpha, beta, lam in family.raw_witnesses(n)
    ]
