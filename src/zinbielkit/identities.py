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
reads x over A and v over V.  Assignments are read one slice of the first
variable at a time.  A tree's tensor depends only on its shape, the tree
with each leaf its variable's range and the sliced leaf marked apart.  A
shape without the sliced leaf is the same in every slice, and is memoized
per table (``AlgebraTable._shape_tensors``) for as long as the table lives,
typed and untyped alike: read unsliced, ``(x (y z))``, ``(y (x z))`` and
``(z (y x))`` are one tensor, and every identity, claim and check on the
table reads the shapes an earlier one built.  A shape with the sliced leaf
is kept for one slice only, so an evaluation's memory grows by at most one
slice's tensors.  Identities still share those: a check reads all of its
identities over one table and one first range in a single pass
(``evaluate_pass``), every identity on a slice before the next slice, as
the claims of an audit and the axioms of a bimodule do.  Residuals come out
in lexicographic order of their basis tuples, so the first reported
residual is a deterministic witness.  Each identity logs one DEBUG record on
the ``zinbielkit.identities`` logger with the size of the tuple space, the
slices visited, the tensor entries it joined (not those it read from a
store) and the residual count.
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

    def parse_term(self) -> tuple[Fraction, Tree]:
        coeff = Fraction(1)
        if self.peek()[0] == "INT":
            num = int(self.advance()[1])
            den = 1
            if self.peek()[0] == "SLASH":
                self.advance()
                den_tok = self.expect("INT", "a denominator")
                den = int(den_tok[1])
                if den == 0:
                    raise IdentitySyntaxError("zero denominator", den_tok[2])
            self.expect("STAR", "'*' after coefficient")
            coeff = Fraction(num, den)
        return coeff, self.parse_tree()

    def parse_terms(self) -> list[tuple[Fraction, Tree]]:
        terms = []
        sign = Fraction(1)
        if self.peek()[0] in ("PLUS", "MINUS"):
            sign = Fraction(-1) if self.advance()[0] == "MINUS" else Fraction(1)
        coeff, tree = self.parse_term()
        terms.append((sign * coeff, tree))
        while self.peek()[0] in ("PLUS", "MINUS"):
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


def render_tree(tree: Tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"({render_tree(tree[0])} {render_tree(tree[1])})"


def render_identity(identity: Identity) -> str:
    """Canonical source text; parse_identity(render_identity(i)) == i."""
    parts = []
    for idx, (coeff, tree) in enumerate(identity.terms):
        mag = abs(coeff)
        body = render_tree(tree) if mag == 1 else f"{mag} * {render_tree(tree)}"
        if idx == 0:
            parts.append(body if coeff > 0 else f"- {body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


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


def _shape(tree: Tree, leaves: dict) -> Tree:
    """The tree with each variable's leaf replaced by ``leaves[name]``:
    ``SLICED``, or the ``(start, stop)`` of its index range, which hashes
    faster than a ``range``.  One frame per level, like the parser."""
    if isinstance(tree, str):
        return leaves[tree]
    return (_shape(tree[0], leaves), _shape(tree[1], leaves))


class _Joiner:
    """Integer tensors of tree shapes over one table, built bottom-up by
    joining only index pairs whose product is nonzero.

    A shape without the sliced leaf is kept in the table's memo
    (``AlgebraTable._shape_tensors``), so it outlives this joiner.  A shape
    with it is kept in ``sliced`` only while its slice is read: the pass
    clears that store before the next slice, and it goes with the joiner.
    Assignments are in leaf order; each term's ``reorder`` maps them to
    variable order.  ``joined`` counts the nonzero entries this joiner
    built, for the DEBUG records of ``log``."""

    def __init__(self, algebra: AlgebraTable):
        self.dim = algebra.dim
        self.d, self.by_left, self.by_right, self.by_output = algebra._factor_rows
        self.memo: dict = algebra._shape_tensors
        self.sliced: dict = {}
        self.joined = 0

    def join(self, left: Tensor, right: Tensor) -> Tensor:
        if len(left) <= len(right):
            matches = [(kl, kr, t) for kl in left
                       for kr, t in self.by_left.get(kl, ()) if kr in right]
        else:
            matches = [(kl, kr, t) for kr in right
                       for kl, t in self.by_right.get(kr, ()) if kl in left]
        out: Tensor = {}
        for kl, kr, products in matches:
            left_rows, right_rows = left[kl].items(), right[kr].items()
            if len(products) == 1:
                ((k, c),) = products
                row = out.setdefault(k, {})
                for a, u in left_rows:
                    u *= c
                    for b, w in right_rows:
                        ab = a + b
                        row[ab] = row.get(ab, 0) + u * w
                continue
            pairs = [(a + b, u * w) for a, u in left_rows for b, w in right_rows]
            for k, c in products:
                row = out.setdefault(k, {})
                for a, u in pairs:
                    row[a] = row.get(a, 0) + u * c
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
def _plan(variables: tuple[str, ...], sides: tuple) -> tuple[int, tuple]:
    """The table-independent half of ``_compile``, once per identity: the
    arity check, then (coefficient denominator, ((side, scaled coefficient,
    tree, reorder), ...))."""
    for terms in sides:
        _validate_arity(variables, terms)
    coeff_den = math.lcm(*(Fraction(c).denominator for terms in sides for c, _ in terms))
    return coeff_den, tuple(
        (side, int(coeff * coeff_den), tree, _leaf_order(tuple(_leaves(tree)), variables))
        for side, terms in enumerate(sides)
        for coeff, tree in terms
        if coeff
    )


def _compile(variables: tuple[str, ...], leaves: tuple, sides) -> tuple[int, list]:
    """(coefficient denominator, [(side, scaled coefficient, shape, reorder)]),
    with ``leaves[i]`` (``SLICED`` or a range) the leaf of ``variables[i]``."""
    coeff_den, plan = _plan(variables, tuple(map(tuple, sides)))
    by_name = {v: leaf if leaf == SLICED else (leaf.start, leaf.stop)
               for v, leaf in zip(variables, leaves)}
    return coeff_den, [(side, coeff, _shape(tree, by_name), reorder)
                       for side, coeff, tree, reorder in plan]


def _read_slice(tensor: Callable, s: int, compiled: list, width: int, hits: list,
                first_only: bool) -> None:
    """Append the residuals of one identity on slice ``s``, in lexicographic
    order, to ``hits``; ``width`` is its number of sides."""
    acc: dict = {}
    if width == 1:  # one integer dict per assignment: the residual
        for _, coeff, shape, reorder in compiled:
            same = reorder is _same_order
            for k, rows in tensor(shape, s)[0].items():
                for a, u in rows.items():
                    full = a if same else reorder(a)
                    value = acc.get(full)
                    if value is None:
                        acc[full] = {k: coeff * u}
                    else:
                        value[k] = value.get(k, 0) + coeff * u
        failing = [full for full, value in acc.items() if any(value.values())]
    else:  # one dict per side and assignment
        for side, coeff, shape, reorder in compiled:
            same = reorder is _same_order
            for k, rows in tensor(shape, s)[0].items():
                for a, u in rows.items():
                    full = a if same else reorder(a)
                    values = acc.get(full)
                    if values is None:
                        values = acc[full] = [{} for _ in range(width)]
                    value = values[side]
                    value[k] = value.get(k, 0) + coeff * u
        if width == 2:  # equal sides make a zero residual: one compare tells
            failing = [full for full, (lhs, rhs) in acc.items() if lhs != rhs]
        else:
            failing = list(acc)
    failing.sort()
    for full in failing:
        values = acc[full]
        if width == 1:
            residual = {k: v for k, v in values.items() if v}
            values = (residual,)
        else:
            residual = dict(values[0])
            for other in values[1:]:
                for k, v in other.items():
                    residual[k] = residual.get(k, 0) - v
            residual = {k: v for k, v in residual.items() if v}
            values = tuple(values)
        if residual:
            hits.append((full, residual, values))
            if first_only:
                return


def evaluate_pass(
    algebra: AlgebraTable, scans, *, first_only: bool = False
) -> list[tuple[int, list[tuple[tuple[int, ...], dict, tuple[dict, ...]]]]]:
    """Residuals of ``sides[0] - sides[1] - ...`` for each ``(variables,
    domains, sides)`` in ``scans``, each with every side's value:
    ``[(scale, [(assignment, residual, side values)])]`` in the order of
    ``scans``.  This is the one entry to the join by basis assignment.

    ``sides`` holds term sums over ``variables``, every term using each
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
    share one first range, and read it one slice at a time, in index order:
    every identity reads a slice before the pass moves to the next one, so
    identities that share a sliced shape join its tensor once, and the pass
    then drops every sliced tensor.  Memory grows by at most one slice's
    tensors beside the slice-free shapes of the table's memo.  Each
    identity logs its own DEBUG record, with the entries it joined itself.
    With ``first_only`` each stops at its own first residual, and the pass
    at the last of them, so later slices are never joined.
    """
    joiner = _Joiner(algebra)
    first = scans[0][1][0] if scans[0][1] else range(algebra.dim)
    plans = []
    for variables, domains, sides in scans:
        if (domains[0] if domains else range(algebra.dim)) != first:
            raise ValueError("the scans of one pass need one first range")
        coeff_den, compiled = _compile(variables, (SLICED, *domains[1:]), sides)
        scale = joiner.d ** max(len(variables) - 1, 0) * coeff_den
        plans.append((compiled, len(sides), scale, []))
    joined = [0] * len(plans)
    visited = [0] * len(plans)
    reading = list(range(len(plans)))
    for s in first:
        for n in reading:
            compiled, width, _, hits = plans[n]
            before = joiner.joined
            _read_slice(joiner.tensor, s, compiled, width, hits, first_only)
            joined[n] += joiner.joined - before
            visited[n] += 1
        joiner.sliced.clear()
        if first_only:
            reading = [n for n in reading if not plans[n][3]]
            if not reading:
                break
    for (_, domains, _), (_, _, _, hits), n_joined, n_visited in zip(scans, plans, joined, visited):
        joiner.log("sparse join", domains, n_visited, len(first), "slices", n_joined, len(hits))
    return [(scale, hits) for _, _, scale, hits in plans]


def evaluate_by_output(
    algebra: AlgebraTable,
    variables: tuple[str, ...],
    terms,
    *,
    first_only: bool = False,
) -> list[tuple[int, dict]]:
    """The term sum read out by output: ``[(k, {assignment: e_k coefficient})]``
    over the ``k`` where some assignment fails, ascending, each with all of
    its failing assignments; ``first_only`` stops after the least such ``k``.
    This is the shape of a coalgebra check on the transposed table.

    The children of each term's root are read, unsliced, from the table's
    shape memo; the root is joined one output at a time through the table's
    by-output index, so an early stop skips the later outputs.  Every term
    must be a product.
    """
    if len(variables) < 2:
        raise ValueError("an output read-out needs at least two variables")
    domains = (range(algebra.dim),) * len(variables)
    coeff_den, compiled = _compile(variables, domains, (terms,))
    joiner = _Joiner(algebra)
    roots = [
        (coeff, joiner.tensor(shape[0])[0], joiner.tensor(shape[1])[0], reorder)
        for _, coeff, shape, reorder in compiled
    ]
    exact = ExactValues(joiner.d ** (len(variables) - 1) * coeff_den)
    hits: list = []
    outputs = 0
    for k, products in joiner.by_output.items():
        outputs += 1
        acc: dict[tuple[int, ...], int] = {}
        for coeff, left, right, reorder in roots:
            for kl, kr, c in products:
                if kl in left and kr in right:
                    scaled, right_rows = coeff * c, right[kr].items()
                    for a, u in left[kl].items():
                        u *= scaled
                        for b, w in right_rows:
                            full = reorder(a + b)
                            acc[full] = acc.get(full, 0) + u * w
        joiner.joined += len(acc)
        residual = {a: exact[u] for a, u in acc.items() if u}
        if residual:
            hits.append((k, residual))
            if first_only:
                break
    joiner.log("output join", domains, outputs, algebra.dim, "outputs", joiner.joined, len(hits))
    return hits


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
    """Check of x*(y*z) = (x*y)*z + (y*x)*z on all basis triples; the shape
    of ``evaluate``: [(triple, residual dict), ...] in lexicographic order.
    """
    return evaluate(a, _catalog()["right_zinbiel"], first_only=first_only)


def left_zinbiel_residuals(a: AlgebraTable, first_only: bool = False) -> list:
    """Check of (x*y)*z = x*(y*z) + x*(z*y); same shape as the right scan."""
    return evaluate(a, _catalog()["left_zinbiel"], first_only=first_only)


# Claim sides, name -> (lhs, rhs), with rhs "" for 0.  The catalog identity of
# a name is lhs - rhs; the claim audit evaluates the two sides.
# left_relation / right_relation keep the contested labels they usually
# travel under; the audit evaluates both on every table rather than trusting
# the attribution.  derived_1..derived_4 are the element forms of the
# standard tensor-map consequences of the half-shuffle law.
CLAIM_SIDES: dict[str, tuple[str, str]] = {
    "left_zinbiel": ("((x y) z)", "(x (y z)) + (x (z y))"),
    "right_zinbiel": ("(x (y z))", "((x y) z) + ((y x) z)"),
    "left_relation": ("(x (y z))", "(y (x z))"),
    "right_relation": ("((x y) z)", "((x z) y)"),
    "derived_1": ("(x (z y))", "((x z) y) + ((z x) y)"),
    "derived_2": ("(z (x y))", "((x z) y) + ((z x) y)"),
    "derived_3": ("(z (y x))", "((y z) x) + ((z y) x)"),
    "derived_4": ("(x (y z))", "(y (x z))"),
    "commutative": ("(x y)", "(y x)"),
    "associative": ("((x y) z)", "(x (y z))"),
    "jacobi": ("(x (y z)) + (y (z x)) + (z (x y))", ""),
    "center_symmetric": ("((x y) z) - (x (y z))", "((z y) x) - (z (y x))"),
    "lie_admissible": (
        "(x (y z)) - (x (z y)) - ((y z) x) + ((z y) x) "
        "+ (y (z x)) - (y (x z)) - ((z x) y) + ((x z) y) "
        "+ (z (x y)) - (z (y x)) - ((x y) z) + ((y x) z)",
        "",
    ),
}


def difference(lhs_terms, rhs_terms) -> Identity:
    """lhs - rhs over the variables in order of first appearance, unchecked."""
    terms = tuple(lhs_terms) + tuple((-c, t) for c, t in rhs_terms)
    return Identity(_ordered_variables(terms), terms)


@cache
def _catalog() -> dict[str, Identity]:
    return {
        name: difference(parse_term_sum(lhs), parse_term_sum(rhs) if rhs else ())
        for name, (lhs, rhs) in CLAIM_SIDES.items()
    }


def catalog() -> dict[str, Identity]:
    """Named identity collection; every entry round-trips through the parser."""
    return dict(_catalog())
