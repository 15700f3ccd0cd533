"""One witness stream: iso_test, all_iso_witnesses and compute_aut agree.

The group of f, the first witness of (f, g) and the full witness list of
(f, g) are all read from the verified candidates of one pair.  These tests
pin that down against the construction it replaced (first witness composed
with every element of the target's group), against a brute-force scan of
every affine map over GF(p), and count the squarefree decompositions one
CLI request costs.
"""

import random
from fractions import Fraction

import pytest

import idealaut.autgroup as autgroup
from helpers import random_multi_root_monic
from idealaut import (
    GF,
    QQ,
    ZZ,
    AffineMap,
    FiniteAutGroup,
    IsoWitness,
    Poly,
    all_iso_witnesses,
    cli,
    compute_aut,
    iso_test,
)


def composed_witnesses(f, g):
    """The first witness composed with every element of Aut(g), sorted by map."""
    first = iso_test(f, g)
    if first is None:
        return None
    gm = g.monic()
    n = gm.degree()
    group = compute_aut(gm)
    assert isinstance(group, FiniteAutGroup)
    witnesses = [
        IsoWitness(first.map.compose(e), (first.map.alpha * e.alpha) ** n)
        for e in group.elements
    ]
    return sorted(witnesses, key=lambda w: w.map.sort_key())


def gapped_monic(ring, rng, n, gap):
    """t**n plus a few terms whose exponents are n minus multiples of gap, shifted."""
    coeffs = [0] * n + [1]
    for j in range(n - gap, -1, -gap):
        if rng.random() < 0.7:
            coeffs[j] = rng.randint(1, 9) * rng.choice((1, -1))
    f = Poly(ring, coeffs)
    return f.shifted(ring.elem(rng.randint(-3, 3)))


def planted_pairs(ring, rng, units, count):
    """(f, g) pairs that are not single-root: g planted by a unit, or random."""
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 8)
        if ring.kind == "F" and n % ring.p == 0:
            continue
        if ring.kind == "Z":
            f = random_multi_root_monic(ring, n, rng, bound=4)
        else:
            f = gapped_monic(ring, rng, n, rng.choice((1, 2, 3, n)))
        if autgroup.single_root_form(f) is not None:
            continue
        if rng.random() < 0.25:
            g = random_multi_root_monic(ring, n, rng, bound=4)
        else:
            alpha = ring.elem(rng.choice(units))
            beta = ring.elem(rng.randint(-4, 4))
            g = f.affine_substitute(alpha, beta) * alpha.inverse() ** n
        pairs.append((f, g))
    return pairs


CASES = [(GF(p), list(range(1, p))) for p in (3, 5, 7, 11, 13)] + [
    (QQ, [1, -1, 2, Fraction(-1, 3)]),
    (ZZ, [1, -1]),
]


@pytest.mark.parametrize("ring, units", CASES, ids=str)
def test_witness_list_equals_the_composed_construction(ring, units):
    rng = random.Random(5000 + (ring.p if ring.kind == "F" else len(ring.kind)))
    pairs = planted_pairs(ring, rng, units, 30)
    isomorphic = 0
    for f, g in pairs:
        everything = all_iso_witnesses(f, g)
        assert everything == composed_witnesses(f, g), (f, g)
        first = iso_test(f, g)
        if everything is None:
            assert first is None
            continue
        isomorphic += 1
        assert everything[0] == first
        if ring.kind == "F":
            n, p = f.degree(), ring.p
            fm, gm = f.monic(), g.monic()
            scan = [
                AffineMap(ring.elem(a), ring.elem(b))
                for a in range(1, p)
                for b in range(p)
                if fm.affine_substitute(ring.elem(a), ring.elem(b)) == ring.elem(a) ** n * gm
            ]
            assert [w.map for w in everything] == scan, (f, g)
    assert isomorphic >= 20


def count_decompositions(monkeypatch, argv):
    calls = [0]
    original = autgroup.squarefree_decomposition

    def counted(f):
        calls[0] += 1
        return original(f)

    monkeypatch.setattr(autgroup, "squarefree_decomposition", counted)
    assert cli.main(argv) == 0
    return calls[0]


ALL = "--all-witnesses"


@pytest.mark.parametrize(
    "argv, count",
    [
        (["aut", "--ring", "F13", "t^4+2"], 1),
        (["aut", "--ring", "F101", "(t-3)^4"], 1),
        (["iso", "--ring", "F101", "(t-3)^4", "(t-5)^4"], 2),
        (["iso", "--ring", "F13", "t^4+2", "t^4+5"], 2),
        (["iso", "--ring", "Q", "t^2-1", "t^2-2*t"], 2),
        (["iso", "--ring", "F101", "(t-3)^4", "(t-5)^4", ALL], 4),
        (["iso", "--ring", "F13", "t^4+2", "t^4+5", ALL], 6),
        (["iso", "--ring", "F5", "t^5-t+1", "t^5-t+2", ALL], 6),
    ],
)
def test_each_input_is_decomposed_once_per_library_call(monkeypatch, capsys, argv, count):
    # iso_test, then witness_family and all_iso_witnesses for --all-witnesses
    counted = count_decompositions(monkeypatch, argv)
    if ALL in argv:
        assert counted <= count
    else:
        assert counted == count
    capsys.readouterr()
