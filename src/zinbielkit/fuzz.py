"""Seeded model families, perturbations, and random objects for tests.

Everything is driven by an explicit ``random.Random(seed)`` so failures
reproduce.  Perturbation modes are chosen so each family keeps its defining
equivalence exact:

- bimodules: touch one l entry, one r entry, or rebuild the regular bimodule
  over a perturbed base.  A zero bimodule over a broken base is deliberately
  excluded; its axiom check is vacuously empty while the semidirect sum
  fails, which would poison the axioms-iff-semidirect family.
- matched pairs: any of the six components may be hit, because the pair
  check includes the base and action prerequisites.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .algebra import AlgebraTable, algebra_from_entries
from .bialgebra import BialgebraCandidate
from .bimodule import Bimodule, regular_bimodule, zero_bimodule
from .coalgebra import CoalgebraTable, coalgebra_from_entries
from .matched_pair import MatchedPair, zero_matched_pair
from .models import free_halfshuffle, trivial_models, trunc_integration
from .tensors import Matrix, Tensor3

DEFAULT_SEED = 104729


def standard_models(max_n: int = 8) -> list[tuple[str, AlgebraTable]]:
    """The named instances every family-wide criterion runs over."""
    out: list[tuple[str, AlgebraTable]] = []
    for n in range(max_n + 1):
        out.append((f"trunc-int:right:{n}", trunc_integration(n, "right")))
    for n in range(1, max_n + 1):
        out.append((f"trunc-int:left:{n}", trunc_integration(n, "left")))
    out.append(("free:1:3", free_halfshuffle(1, 3)))
    out.append(("free:2:3", free_halfshuffle(2, 3)))
    out.extend(trivial_models())
    return out


def _nonzero_scalar(rng: random.Random, span: int = 3) -> Fraction:
    num = rng.choice([n for n in range(-span, span + 1) if n])
    return Fraction(num, rng.randint(1, span))


def _scalar(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _bumped(entries: dict, key: tuple, rng: random.Random) -> dict:
    """``entries`` with a nonzero delta added at ``key``; a sum of zero is
    left for the table's constructor to drop."""
    return {**entries, key: entries.get(key, Fraction(0)) + _nonzero_scalar(rng)}


def perturb_algebra(a: AlgebraTable, rng: random.Random) -> AlgebraTable:
    """Add a nonzero delta to one structure constant."""
    if a.dim == 0:
        return a
    key = tuple(rng.randrange(a.dim) for _ in range(3))
    return AlgebraTable(a.dim, a.basis_labels,
                        Tensor3(a.dim, a.dim, a.dim, _bumped(a.c.entries, key, rng)))


def _perturb_maps(maps: tuple[Matrix, ...], rng: random.Random) -> tuple[Matrix, ...]:
    if not maps or maps[0].rows == 0:
        return maps
    idx = rng.randrange(len(maps))
    m = maps[idx]
    key = rng.randrange(m.rows), rng.randrange(m.cols)
    return (*maps[:idx], Matrix(m.rows, m.cols, _bumped(m.entries, key, rng)), *maps[idx + 1:])


def perturb_bimodule(b: Bimodule, rng: random.Random) -> Bimodule:
    mode = rng.randrange(3)
    if mode == 0 and b.v_dim and b.base.dim:
        return Bimodule(b.base, b.v_dim, _perturb_maps(b.left_maps, rng), b.right_maps)
    if mode == 1 and b.v_dim and b.base.dim:
        return Bimodule(b.base, b.v_dim, b.left_maps, _perturb_maps(b.right_maps, rng))
    return regular_bimodule(perturb_algebra(b.base, rng))


def perturb_matched_pair(mp: MatchedPair, rng: random.Random) -> MatchedPair:
    part = rng.randrange(6)
    parts = [mp.a, mp.b, mp.la, mp.ra, mp.lb, mp.rb]
    if part < 2 and parts[part].dim:
        parts[part] = perturb_algebra(parts[part], rng)
    elif part >= 2 and mp.a.dim and mp.b.dim:
        parts[part] = _perturb_maps(parts[part], rng)
    else:
        return mp
    return MatchedPair(*parts)


def _perturbations(pool: list, perturb, seed: int, count: int) -> list:
    """``count`` seeded perturbations of members of ``pool``, named after them."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        name, obj = pool[rng.randrange(len(pool))]
        out.append((f"perturbed[{t}]:{name}", perturb(obj, rng)))
    return out


def algebra_family(seed: int = DEFAULT_SEED, perturbations: int = 200):
    """Models plus seeded single-entry perturbations, for orientation duality."""
    base = standard_models()
    nonempty = [(name, a) for name, a in base if a.dim]
    return base + _perturbations(nonempty, perturb_algebra, seed, perturbations)


def bimodule_family(seed: int = DEFAULT_SEED, perturbations: int = 200):
    """Regular and zero bimodules over passing bases, plus perturbations."""
    base: list[tuple[str, Bimodule]] = []
    for n in range(6):
        base.append((f"regular:trunc-int:right:{n}", regular_bimodule(trunc_integration(n, "right"))))
    for n in (2, 3):
        for v_dim in (0, 1, 2):
            base.append(
                (f"zero[{v_dim}]:trunc-int:right:{n}", zero_bimodule(trunc_integration(n, "right"), v_dim))
            )
    return base + _perturbations(base, perturb_bimodule, seed, perturbations)


def matched_pair_family(seed: int = DEFAULT_SEED, perturbations: int = 200):
    """Matched pairs with total dim <= 8, plus seeded perturbations."""
    t2 = trunc_integration(2, "right")
    t3 = trunc_integration(3, "right")
    zero2 = algebra_from_entries(2, [])
    base: list[tuple[str, MatchedPair]] = [
        ("zero-pair:T3,T3", zero_matched_pair(t3, t3)),
        ("zero-pair:T2,T2", zero_matched_pair(t2, t2)),
        ("zero-pair:T3,zero2", zero_matched_pair(t3, zero2)),
        ("regular-as-pair:T3", bimodule_as_pair(regular_bimodule(t3))),
        ("regular-as-pair:T2", bimodule_as_pair(regular_bimodule(t2))),
    ]
    return base + _perturbations(base, perturb_matched_pair, seed, perturbations)


def bimodule_as_pair(b: Bimodule) -> MatchedPair:
    """A bimodule is a matched pair against the zero product on the module."""
    zero_b = algebra_from_entries(b.v_dim, [])
    zn = Matrix.zero(b.base.dim, b.base.dim)
    return MatchedPair(b.base, zero_b, b.left_maps, b.right_maps, (zn,) * b.v_dim, (zn,) * b.v_dim)


def _sampled(rng: random.Random, dim: int, arity: int, density: float) -> list[tuple]:
    """``[(*index, value)]``: each index in ``range(dim) ** arity``, in
    lexicographic order, is drawn with probability ``density`` and then
    given a random scalar, kept if nonzero."""
    rows = []
    for index in product(range(dim), repeat=arity):
        if rng.random() < density:
            v = _scalar(rng)
            if v:
                rows.append((*index, v))
    return rows


def random_algebra(rng: random.Random, dim: int, density: float = 0.4) -> AlgebraTable:
    return algebra_from_entries(dim, _sampled(rng, dim, 3, density))


def random_coalgebra(rng: random.Random, dim: int, density: float = 0.4) -> CoalgebraTable:
    return coalgebra_from_entries(dim, _sampled(rng, dim, 3, density))


def random_maps(rng: random.Random, count: int, dim: int, density: float = 0.4):
    return tuple(
        Matrix(dim, dim, {(r, c): v for r, c, v in _sampled(rng, dim, 2, density)})
        for _ in range(count)
    )


def random_bimodule(rng: random.Random, base_dim: int, v_dim: int) -> Bimodule:
    base = random_algebra(rng, base_dim)
    return Bimodule(
        base, v_dim, random_maps(rng, base_dim, v_dim), random_maps(rng, base_dim, v_dim)
    )


def random_matched_pair(rng: random.Random, na: int, nb: int) -> MatchedPair:
    return MatchedPair(
        random_algebra(rng, na),
        random_algebra(rng, nb),
        random_maps(rng, na, nb),
        random_maps(rng, na, nb),
        random_maps(rng, nb, na),
        random_maps(rng, nb, na),
    )


def random_candidate(rng: random.Random, dim: int) -> BialgebraCandidate:
    return BialgebraCandidate(random_algebra(rng, dim), random_algebra(rng, dim))


def seeded_candidates(seed: int = DEFAULT_SEED, count: int = 20):
    """Candidate pairs for the Manin-triple/matched-pair agreement check."""
    rng = random.Random(seed)
    named: list[tuple[str, BialgebraCandidate]] = []
    structured = [
        ("T2,zero", BialgebraCandidate(trunc_integration(2, "right"), algebra_from_entries(3, []))),
        ("zero,T2", BialgebraCandidate(algebra_from_entries(3, []), trunc_integration(2, "right"))),
        ("zero3,zero3", BialgebraCandidate(algebra_from_entries(3, []), algebra_from_entries(3, []))),
        ("T1,T1", BialgebraCandidate(trunc_integration(1, "right"), trunc_integration(1, "right"))),
    ]
    named.extend(structured[: min(count, len(structured))])
    t = 0
    while len(named) < count:
        dim = rng.randint(1, 4)
        named.append((f"random[{t}]:dim{dim}", random_candidate(rng, dim)))
        t += 1
    return named


def random_objects(seed: int = DEFAULT_SEED, count: int = 500):
    """Mixed-kind objects for serialization round trips."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            out.append(random_algebra(rng, rng.randint(0, 4)))
        elif kind == 1:
            out.append(random_coalgebra(rng, rng.randint(0, 4)))
        elif kind == 2:
            out.append(random_bimodule(rng, rng.randint(0, 3), rng.randint(0, 3)))
        elif kind == 3:
            out.append(random_matched_pair(rng, rng.randint(0, 3), rng.randint(0, 3)))
        else:
            out.append(random_candidate(rng, rng.randint(0, 3)))
    return out
