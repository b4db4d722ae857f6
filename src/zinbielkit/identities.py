"""Multilinear identity DSL and its evaluator.

Grammar (whitespace-insensitive)::

    identity := [sign] term ((\"+\" | \"-\") term)* [\"=\" \"0\"]
    term     := [INT [\"/\" INT] \"*\"] tree
    tree     := NAME | \"(\" tree tree \")\"

A tree ``(x y)`` denotes the product x*y of the table under test.  Every
variable must occur exactly once in every term (multilinearity), which is
what justifies checking identities on basis tuples only: a multilinear
identity vanishes on all of the algebra iff it vanishes on every tuple of
basis vectors.

Evaluation is a sparse join: each product tree becomes a sparse tensor,
joined bottom-up over the nonzero structure constants only, so the
``dim^vars`` basis tuples are never walked one at a time.  Each variable
ranges over an index range, ``range(dim)`` unless typed: a check on A + V
reads x over A and v over V.  A tree's tensor depends only on its shape,
the tree with each leaf its variable's range, and is memoized per table
(``AlgebraTable._shape_tensors``): ``(x (y z))``, ``(y (x z))`` and ``(z (y
x))`` are one tensor, read by every later identity, claim and check on the
table.  A check reads all of its identities over one table and one first
range in one pass (``evaluate_pass``), each product root straight from its
two children.  Its slices differ only in how much of that range they cover.
A scan that lists every residual reads it whole.  One that stops at its
first residual, so that a failing table stops early, or that has a root
child of three or more leaves, which could be large held whole, reads one
index at a time, and keeps a shape with the sliced leaf for that slice only.
Identities of one pass that are equal up to renaming their variables (on
equal domains) are read once: the audit's ``derived_1..3`` are
``right_zinbiel`` renamed, and share its hit list, which no caller may then
change.  Residuals come out in lexicographic order of their basis tuples,
so the first reported residual is a deterministic witness.  Each identity
logs one DEBUG record on the ``zinbielkit.identities`` logger with the size
of the tuple space, the slices visited, the entries it joined or index pairs
it read at a root (not those read from a store, nor an equal identity's
hits) and the residual count.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache, lru_cache
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Union

from .algebra import AlgebraTable

Tree = Union[str, tuple]


def debug_logger(name: str):
    """The logger ``name`` if ``logging`` is loaded, else None.

    The package does not import ``logging``, which would cost every command
    its start-up.  A program that never imported it cannot have a handler,
    so a caller that then builds no record, nor its arguments, loses nothing.
    """
    logging = sys.modules.get("logging")
    return None if logging is None else logging.getLogger(name)


# Deepest product nesting the parser accepts.  Parsing, the variable walk and
# the join's tensor builder each recurse once per level, and this keeps them
# well inside the interpreter's default limit of 1000 frames.
MAX_DEPTH = 600


class IdentitySyntaxError(ValueError):
    """Malformed identity source; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class ArityError(ValueError):
    """A term violates the one-use-per-variable rule."""


class Identity(NamedTuple):
    """Ordered variables plus a signed sum of coefficiented product trees."""

    variables: tuple[str, ...]
    terms: tuple[tuple[Fraction, Tree], ...]


_PUNCT = {"(": "LPAREN", ")": "RPAREN", "+": "PLUS", "-": "MINUS",
          "*": "STAR", "/": "SLASH", "=": "EQ"}


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch.isdecimal():  # the digits int() reads; isdigit() also takes '²'
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            tokens.append(("INT", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("NAME", src[i:j], i))
            i = j
            continue
        raise IdentitySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise IdentitySyntaxError(f"expected {what}, found {tok[1] or 'end of input'}", tok[2])
        return tok

    def parse_tree(self, depth: int = 0) -> Tree:
        kind, value, pos = self.advance()
        if kind == "NAME":
            return value
        if kind == "LPAREN":
            if depth == MAX_DEPTH:
                raise IdentitySyntaxError(f"products nested deeper than {MAX_DEPTH}", pos)
            left = self.parse_tree(depth + 1)
            right = self.parse_tree(depth + 1)
            self.expect("RPAREN", "')'")
            return (left, right)
        raise IdentitySyntaxError(
            f"expected a variable or '(', found {value or 'end of input'}", pos
        )

    def integer(self, what: str) -> tuple[int, int]:
        _, digits, pos = self.expect("INT", what)
        try:
            return int(digits), pos
        except ValueError:  # past the interpreter's limit on str -> int digits
            raise IdentitySyntaxError(f"integer of {len(digits)} digits is too long", pos) from None

    def parse_term(self) -> tuple[Fraction, Tree]:
        coeff = Fraction(1)
        if self.peek()[0] == "INT":
            num = self.integer("a coefficient")[0]
            den = 1
            if self.peek()[0] == "SLASH":
                self.advance()
                den, den_pos = self.integer("a denominator")
                if den == 0:
                    raise IdentitySyntaxError("zero denominator", den_pos)
            self.expect("STAR", "'*' after coefficient")
            coeff = Fraction(num, den)
        return coeff, self.parse_tree()

    def parse_terms(self) -> list[tuple[Fraction, Tree]]:
        terms = []
        while not terms or self.peek()[0] in ("PLUS", "MINUS"):
            sign = Fraction(1)
            if self.peek()[0] in ("PLUS", "MINUS"):
                sign = Fraction(-1) if self.advance()[0] == "MINUS" else Fraction(1)
            coeff, tree = self.parse_term()
            terms.append((sign * coeff, tree))
        return terms


def _leaves(tree: Tree) -> Iterator[str]:
    if isinstance(tree, str):
        yield tree
    else:
        yield from _leaves(tree[0])
        yield from _leaves(tree[1])


def _ordered_variables(terms: list[tuple[Fraction, Tree]]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for _, tree in terms:
        for name in _leaves(tree):
            seen.setdefault(name)
    return tuple(seen)


def _validate_arity(variables: tuple[str, ...], terms: list[tuple[Fraction, Tree]]):
    want = set(variables)
    for idx, (_, tree) in enumerate(terms, start=1):
        counts: dict[str, int] = {}
        for name in _leaves(tree):
            counts[name] = counts.get(name, 0) + 1
        for name, count in counts.items():
            if count > 1:
                raise ArityError(f"variable {name!r} appears {count} times in term {idx}")
        missing = want - counts.keys()
        if missing:
            raise ArityError(
                f"term {idx} is missing variable(s) {', '.join(sorted(missing))}"
            )
        extra = counts.keys() - want
        if extra:
            raise ArityError(f"term {idx} uses unlisted variable(s) {', '.join(sorted(extra))}")


def parse_term_sum(src: str) -> tuple[tuple[Fraction, Tree], ...]:
    """Parse a signed sum of trees, with an optional '= 0' suffix, unchecked."""
    parser = _Parser(src)
    terms = parser.parse_terms()
    if parser.peek()[0] == "EQ":
        parser.advance()
        tok = parser.expect("INT", "'0' after '='")
        if tok[1] != "0":
            raise IdentitySyntaxError("right-hand side must be 0", tok[2])
    tok = parser.peek()
    if tok[0] != "EOF":
        raise IdentitySyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return tuple(terms)


def parse_identity(src: str) -> Identity:
    """Parse an identity and check that every term uses every variable once."""
    terms = parse_term_sum(src)
    variables = _ordered_variables(terms)
    _validate_arity(variables, terms)
    return Identity(variables, terms)


Tensor = dict  # basis index k -> {leaf assignment: scaled integer coefficient of e_k}

# The sliced variable's leaf, one index per slice; other leaves are ranges.
SLICED = "@"


class ExactValues(dict):
    """``Fraction(u, scale)`` per scaled integer ``u``, built on first use and
    shared by every value of one scan that holds ``u``: a ``Fraction`` is
    immutable, and a scan's values repeat few integers many times."""

    __slots__ = ("scale",)

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, u: int) -> Fraction:
        value = self[u] = Fraction(u, self.scale)
        return value


def _same_order(a: tuple[int, ...]) -> tuple[int, ...]:
    return a


def _leaf_order(leaves: tuple[str, ...], variables: tuple[str, ...]) -> Callable:
    """Map from an assignment in leaf order to one in ``variables`` order;
    ``_same_order`` when the two orders agree, which a reader may skip."""
    positions = tuple(leaves.index(name) for name in variables)
    if positions == tuple(range(len(positions))):
        return _same_order
    return itemgetter(*positions)


def _relabelled(tree: Tree, leaves: dict) -> Tree:
    """The tree with each variable's leaf replaced by ``leaves[name]``: for a
    shape, ``SLICED`` or the ``(start, stop)`` of its index range, which hashes
    faster than a ``range``; for a canonical form, the variable's position.
    One frame per level, like the parser."""
    if isinstance(tree, str):
        return leaves[tree]
    return (_relabelled(tree[0], leaves), _relabelled(tree[1], leaves))


class _Joiner:
    """Integer tensors of tree shapes over one table, built bottom-up by
    joining only index pairs whose product is nonzero.

    A shape without the sliced leaf is kept in the table's memo
    (``AlgebraTable._shape_tensors``), so it outlives this joiner; one with
    it, in ``sliced`` until the pass clears that store for the next slice.
    Assignments are in leaf order; each term's ``reorder`` maps them to
    variable order.  ``joined`` counts the nonzero entries this joiner
    built, and the index pairs each read took at a root, for ``log``."""

    def __init__(self, algebra: AlgebraTable):
        self.dim = algebra.dim
        self.d, self.by_left, self.by_right, self.by_output = algebra._factor_rows
        self.memo: dict = algebra._shape_tensors
        self.sliced: dict = {}
        self.joined = 0

    def blocks(self, left: Tensor, right: Tensor) -> list:
        """[(products, left rows, right rows)] per nonzero product of indices."""
        if len(left) <= len(right):
            return [(t, left[kl].items(), right[kr].items())
                    for kl in left for kr, t in self.by_left.get(kl, ()) if kr in right]
        return [(t, left[kl].items(), right[kr].items())
                for kr in right for kl, t in self.by_right.get(kr, ()) if kl in left]

    def join(self, left: Tensor, right: Tensor) -> Tensor:
        out: Tensor = {}
        for products, left_rows, right_rows in self.blocks(left, right):
            for k, c in products:
                row = out.setdefault(k, {})
                for a, u in left_rows:
                    u *= c
                    for b, w in right_rows:
                        ab = a + b
                        row[ab] = row.get(ab, 0) + u * w
        for k in list(out):
            row = {a: u for a, u in out[k].items() if u}
            if row:
                out[k] = row
                self.joined += len(row)
            else:
                del out[k]
        return out

    def tensor(self, shape: Tree, s: int | None = None) -> tuple[Tensor, bool]:
        """The shape's tensor with its ``SLICED`` leaf at index ``s``, and
        whether the shape has that leaf; read from its store or joined into it."""
        if (tensor := self.memo.get(shape)) is not None:
            return tensor, False
        if (tensor := self.sliced.get(shape)) is not None:
            return tensor, True
        if shape == SLICED:
            tensor = self.sliced[shape] = {s: {(s,): 1}}
            return tensor, True
        if isinstance(shape[0], int):  # a free leaf, (start, stop) of its range
            tensor = self.memo[shape] = {i: {(i,): 1} for i in range(*shape)}
            return tensor, False
        left, left_sliced = self.tensor(shape[0], s)
        right, right_sliced = self.tensor(shape[1], s)
        sliced = left_sliced or right_sliced
        tensor = (self.sliced if sliced else self.memo)[shape] = self.join(left, right)
        return tensor, sliced

    def log(self, what: str, domains, visited: int, of: int, unit: str, joined: int,
            residuals: int):
        logger = debug_logger("zinbielkit.identities")
        if logger is None:
            return
        sizes = [len(d) for d in domains]
        untyped = all(d == range(self.dim) for d in domains)
        space = f"{self.dim}^{len(sizes)}" if untyped else "*".join(map(str, sizes))
        logger.debug(
            "%s: %s = %d basis tuples, %d of %d %s, %d joined entries, %d residuals",
            what, space, math.prod(sizes), visited, of, unit, joined, residuals,
        )


@lru_cache(maxsize=256)
def _plan(variables: tuple[str, ...], sides: tuple) -> tuple[int, tuple, tuple]:
    """The table-independent half of ``_compile``, once per identity: the
    arity check, then (coefficient denominator, ((side, scaled coefficient,
    tree, reorder), ...), canonical form).  The form holds each side's terms
    as a sorted multiset of (scaled coefficient, tree with each variable
    renamed to its position): two identities with equal forms have equal
    hits on equal domains, side values included."""
    for terms in sides:
        _validate_arity(variables, terms)
    coeff_den = math.lcm(*(Fraction(c).denominator for terms in sides for c, _ in terms))
    plan = tuple(
        (side, int(coeff * coeff_den), tree, _leaf_order(tuple(_leaves(tree)), variables))
        for side, terms in enumerate(sides)
        for coeff, tree in terms
        if coeff
    )
    position = {name: i for i, name in enumerate(variables)}
    form = tuple(
        tuple(sorted(((c, _relabelled(tree, position)) for s, c, tree, _ in plan if s == side),
                     key=repr))
        for side in range(len(sides))
    )
    return coeff_den, plan, (coeff_den, form)


def _compile(variables: tuple[str, ...], leaves: tuple, sides) -> tuple[int, list, tuple]:
    """(coefficient denominator, [(side, scaled coefficient, shape, reorder)],
    canonical form of ``_plan``), with ``leaves[i]`` (``SLICED`` or a range)
    the leaf of ``variables[i]``."""
    coeff_den, plan, form = _plan(variables, tuple(map(tuple, sides)))
    by_name = {v: leaf if leaf == SLICED else (leaf.start, leaf.stop)
               for v, leaf in zip(variables, leaves)}
    return coeff_den, [(side, coeff, _relabelled(tree, by_name), reorder)
                       for side, coeff, tree, reorder in plan], form


def _read_slice(joiner: _Joiner, s, compiled: list, width: int, hits: list, first_only: bool):
    """Append one identity's residuals, in lexicographic order, to ``hits``:
    on slice ``s``, or for ``s`` None on the whole first range, each product
    root read from its two children, and each of its ``width`` sides summed
    per assignment in an accumulator of its own."""
    tensor, accs = joiner.tensor, [{} for _ in range(width)]
    for side, coeff, shape, reorder in compiled:
        acc, same = accs[side], reorder is _same_order
        if shape == SLICED or isinstance(shape[0], int):  # a one-leaf root
            for k, rows in tensor(shape, s)[0].items():
                for a, u in rows.items():
                    full = a if same else reorder(a)
                    value = acc.get(full)
                    if value is None:
                        acc[full] = {k: coeff * u}
                    else:
                        value[k] = value.get(k, 0) + coeff * u
            continue
        blocks = joiner.blocks(tensor(shape[0], s)[0], tensor(shape[1], s)[0])
        joiner.joined += len(blocks)
        for products, left_rows, right_rows in blocks:
            for k, c in products:
                c *= coeff
                for a, u in left_rows:
                    u *= c
                    for b, w in right_rows:
                        full = a + b if same else reorder(a + b)
                        value = acc.get(full)
                        if value is None:
                            acc[full] = {k: u * w}
                        else:
                            value[k] = value.get(k, 0) + u * w
    lhs, rhs = accs[0], accs[-1]
    failing = sorted(  # two sides fail where they differ, if only by zeros
        [full for full, value in lhs.items() if any(value.values())] if width == 1
        else [full for full in lhs.keys() | rhs.keys() if lhs.get(full) != rhs.get(full)])
    for full in failing:
        values = tuple(acc.get(full, {}) for acc in accs)
        residual = dict(values[0])
        for k, v in values[1].items() if width == 2 else ():
            residual[k] = residual.get(k, 0) - v
        residual = {k: v for k, v in residual.items() if v}
        if residual:
            hits.append((full, residual, values if width == 2 else (residual,)))
            if first_only:
                return


def evaluate_pass(
    algebra: AlgebraTable, scans, *, first_only: bool = False
) -> list[tuple[int, list[tuple[tuple[int, ...], dict, tuple[dict, ...]]]]]:
    """Residuals of ``sides[0]``, or ``sides[0] - sides[1]``, for each
    ``(variables, domains, sides)`` in ``scans``, each with every side's value:
    ``[(scale, [(assignment, residual, side values)])]`` in the order of
    ``scans``.  This is the one entry to the join by basis assignment.

    ``sides`` holds one or two term sums over ``variables``, every term using each
    variable exactly once, and each variable ranges over its ``domains``
    entry, an index range of the basis (``range(algebra.dim)`` for an
    untyped identity).  The hits are the assignments in the product of the
    domains with a nonzero residual, in lexicographic order.  Values are
    integer coefficient dicts, ``scale`` times the exact ones: every tree
    has ``len(variables) - 1`` products, so with the structure constants
    scaled by their common denominator ``d`` and the term coefficients by
    theirs, all tensors hold integers.  Side values may hold zeros; one
    side's value is its residual, the same dict, so a long scan keeps one
    dict per hit.

    Multilinearity means only assignments on which some product tree is
    nonzero can fail, so nothing walks the ``dim^vars`` tuples.  All scans
    share one first range, and every root is read straight from its two
    children.  A full pass reads the range whole, and sorts each scan's hits
    once.  A pass with a root child of three or more leaves (large, held
    whole) or ``first_only`` reads a slice at a time, every identity on a
    slice before the next; with ``first_only`` each scan stops at its own
    first residual, and the pass at the last of them, so a failing table's
    later slices are never read.

    A scan whose canonical form (see ``_plan``) and domains equal an earlier
    one's is not read again: renamed variables, or terms in another order,
    give the same hits.  Such equal scans share one hit list, so a caller
    must not change a list that another scan of the same pass may hold
    (``evaluate`` passes one scan, so its list is its own).  Each scan logs
    its own DEBUG record, with the entries it joined or index pairs it read
    at a root itself: 0 for a scan that read an earlier one's hits.
    """
    joiner = _Joiner(algebra)
    first = scans[0][1][0] if scans[0][1] else range(algebra.dim)
    whole = not first_only and all(  # no root child of three or more leaves
        len([*_leaves(child)]) < 3 for _, _, sides in scans for terms in sides
        for _, tree in terms for child in (tree if isinstance(tree, tuple) else ()))
    plans = []  # one per distinct scan: (compiled, width, scale, hits)
    by_form: dict[tuple, int] = {}
    owners = []  # per scan: its plan, and whether it is that plan's first scan
    for variables, domains, sides in scans:
        if (domains[0] if domains else range(algebra.dim)) != first:
            raise ValueError("the scans of one pass need one first range")
        leaves = (first if whole else SLICED, *domains[1:])
        coeff_den, compiled, form = _compile(variables, leaves, sides)
        n = by_form.setdefault((form, tuple(domains)), len(plans))
        owners.append((n, n == len(plans)))
        if n == len(plans):
            scale = joiner.d ** max(len(variables) - 1, 0) * coeff_den
            plans.append((compiled, len(sides), scale, []))
    joined, visited = [0] * len(plans), [0] * len(plans)
    reading = list(range(len(plans)))
    for s in [None] if whole else first:
        for n in reading:
            compiled, width, _, hits = plans[n]
            before = joiner.joined
            _read_slice(joiner, s, compiled, width, hits, first_only)
            joined[n] += joiner.joined - before
            visited[n] += len(first) if whole else 1
        joiner.sliced.clear()
        if first_only:
            reading = [n for n in reading if not plans[n][3]]
            if not reading:
                break
    for (_, domains, _), (n, owner) in zip(scans, owners):
        joiner.log("sparse join", domains, visited[n], len(first), "slices",
                   joined[n] if owner else 0, len(plans[n][3]))
    return [plans[n][2:] for n, _ in owners]


def evaluate(
    algebra: AlgebraTable,
    identity: Identity,
    *,
    first_only: bool = False,
) -> list[tuple[tuple[int, ...], dict]]:
    """All residuals of the identity on basis tuples: ``[(assignment,
    {index: Fraction})]`` in lexicographic order of the assignments.

    The sparse join of ``evaluate_pass`` visits only assignments on which
    some product tree is nonzero, never the whole ``dim^vars`` tuple space;
    ``check``, the claim audit and the Zinbiel scans all run on it.
    ``first_only`` stops at the first violation (the deterministic witness).
    The join's hits are converted in place, so that a long scan's residuals
    are not held twice.
    """
    variables, terms = identity
    domains = (range(algebra.dim),) * len(variables)
    scale, hits = evaluate_pass(
        algebra, [(variables, domains, (terms,))], first_only=first_only)[0]
    exact = ExactValues(scale)
    for i, (a, r, _) in enumerate(hits):
        hits[i] = (a, {k: exact[v] for k, v in r.items()})
    return hits


def holds(algebra: AlgebraTable, identity: Identity) -> bool:
    return not evaluate(algebra, identity, first_only=True)


def right_zinbiel_residuals(a: AlgebraTable, first_only: bool = False) -> list:
    """The ``right_zinbiel`` law on all basis triples, in the shape of ``evaluate``."""
    return evaluate(a, _catalog()["right_zinbiel"], first_only=first_only)


def left_zinbiel_residuals(a: AlgebraTable, first_only: bool = False) -> list:
    """The ``left_zinbiel`` law on all basis triples, in the shape of ``evaluate``."""
    return evaluate(a, _catalog()["left_zinbiel"], first_only=first_only)


# Every law a check reads, written once over x, y and z: name -> (lhs, rhs),
# rhs "" for 0.  Claims, co-checks, bimodule and pair laws rename these rows.
# left_relation / right_relation keep their usual, contested labels: the audit
# evaluates both on every table.  A row no claim states is named by its check.
LAWS: dict[str, tuple[str, str]] = {
    "left_zinbiel": ("((x y) z)", "(x (y z)) + (x (z y))"),
    "right_zinbiel": ("(x (y z))", "((x y) z) + ((y x) z)"),
    "left_relation": ("(x (y z))", "(y (x z))"),
    "right_relation": ("((x y) z)", "((x z) y)"),
    "commutative": ("(x y)", "(y x)"),
    "associative": ("((x y) z)", "(x (y z))"),
    "jacobi": ("(x (y z)) + (y (z x)) + (z (x y))", ""),
    "center_symmetric": ("((x y) z) - (x (y z))", "((z y) x) - (z (y x))"),
    "lie_admissible": ("(x (y z)) - (x (z y)) - ((y z) x) + ((z y) x) + (y (z x)) - (y (x z)) "
                       "- ((z x) y) + ((x z) y) + (z (x y)) - (z (y x)) - ((x y) z) + ((y x) z)",
                       ""),
    "antisymmetric": ("(x y)", "- (y x)"),
    "co_jacobi": ("(x (y z)) + ((x z) y) - ((x y) z)", ""),
    "co_right_relation_b": ("(x (y z))", "(z (y x))"),
    "co_left_relation_b": ("((x y) z)", "((z y) x)"),
    "left_of_product_r_then_l": ("((x y) z)", "(x (z y))"),
    "bracket_representation": ("((x y) z)", "(x (y z)) - (y (x z))"),
    "lie_compatibility": ("(x (y z)) + ((y x) z) - ((z x) y)", "((x y) z) + (y (x z))"),
}


def law_sides(name: str, renamed: str) -> tuple[str, str]:
    """The sides of ``LAWS[name]``, its x, y and z renamed to ``renamed``."""
    return tuple(side.translate(str.maketrans("xyz", renamed)) for side in LAWS[name])


# Claim sides; the catalog identity of a name is lhs - rhs.  derived_1..4 are
# the element forms of the tensor-map consequences of the half-shuffle law.
CLAIM_SIDES: dict[str, tuple[str, str]] = {
    **{name: LAWS[name] for name in
       ("left_zinbiel", "right_zinbiel", "left_relation", "right_relation")},
    "derived_1": law_sides("right_zinbiel", "xzy"),
    "derived_2": law_sides("right_zinbiel", "zxy"),
    "derived_3": law_sides("right_zinbiel", "zyx"),
    "derived_4": LAWS["left_relation"],
    **{name: LAWS[name] for name in
       ("commutative", "associative", "jacobi", "center_symmetric", "lie_admissible")},
}


def difference(lhs_terms, rhs_terms) -> Identity:
    """lhs - rhs over the variables in order of first appearance, unchecked."""
    terms = tuple(lhs_terms) + tuple((-c, t) for c, t in rhs_terms)
    return Identity(_ordered_variables(terms), terms)


@cache
def parse_sides(lhs: str, rhs: str) -> Identity:
    """lhs - rhs, with rhs "" for 0, parsed once per process, unchecked."""
    return difference(parse_term_sum(lhs), parse_term_sum(rhs) if rhs else ())


@cache
def _catalog() -> dict[str, Identity]:
    return {name: parse_sides(*sides) for name, sides in CLAIM_SIDES.items()}


def catalog() -> dict[str, Identity]:
    """Named identity collection; every entry round-trips through the parser."""
    return dict(_catalog())
