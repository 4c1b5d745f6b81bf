import math

from reference import BETTI_GF2


def test_published_betti_euler_divisible_by_n_factorial():
    # S_n acts freely on the labeled configuration space, so the Euler
    # characteristic of every instance is a multiple of n!.  Two published
    # n = 6 vectors are not: -729 and 721 where the computed vectors give
    # -720 and 720.  They are kept as published until a GF(3) cross-check
    # settles them (ROADMAP.md, open item 1).
    off = {}
    for (n, p, q), bv in BETTI_GF2.items():
        chi = sum((-1) ** j * b for j, b in enumerate(bv))
        if chi % math.factorial(n):
            off[(n, p, q)] = chi
    assert off == {(6, 3, 5): -729, (6, 5, 6): 721}
