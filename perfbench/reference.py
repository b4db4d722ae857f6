"""Fixed reference work for normalising the benchmark's times.

``probe`` multiplies basis vectors of the order-8 truncated-integration
table three at a time, with the Fraction and dict operations zinbielkit
spends its time in, but with none of its code; it takes about 0.3 ms.  The
benchmark times it every few milliseconds, on the core a command runs on,
to measure how fast that core runs such work at that moment.  Changing it
rescales every normalised time, so it stays fixed.
"""

from fractions import Fraction
from itertools import product

N = 8
PAIRS = {(i, j): ((i + j + 1, Fraction(1, i + 1)),)
         for i in range(N + 1) for j in range(N + 1) if i + j + 1 <= N}
TRIPLES = tuple(product(range(N + 1), repeat=3))[::12]
ONE = Fraction(1)


def mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in PAIRS.get((i, j), ()):
                s = out.get(k, 0) + a * b * c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def probe() -> int:
    """The number of basis triples (of 61) whose product is nonzero."""
    nonzero = 0
    for t in TRIPLES:
        x, y, z = ({i: ONE} for i in t)
        nonzero += bool(mul(mul(x, y), z))
    return nonzero
