"""Right Gröbner bases of right ideals in the path *-algebra.

The kernel ideal of a flat functional needs no completion.  The echelon
kernel elements whose tips have no proper prefix among the other kernel
tips have prefix-free tips, so they are a right Gröbner basis of the ideal
they generate; flatness puts every other kernel element in it (checked
exactly), so they are the reduced basis of the kernel ideal, which is
unique (Green 1999).

The completion serves generator input and the `groebner` command, whose
output lists its reductions.  It is the five-step tip-selection/total-
reduction loop: drop zeros, select the tips not left-divided by another
tip, keep one representative per selected tip, totally reduce the rest
against the kept set, and repeat until every element is kept.  Left
division is prefix division of letter words, and reduction replaces the
largest reducible support path first, so runs are reproducible event for
event.

Normal forms against a finished basis take a different route, one letter at
a time.  Every term r of NF(p) is irreducible, so the only tip that can
left-divide r·c is r·c itself, and NF(p·c) = NF(NF(p)·c) is one lookup per
term in a table mapping each tip to the normal form of its tail.

That fold runs on integers, as `linalg` does.  Every tail is stored as
Gaussian-integer numerators (re, im) over one denominator D shared by the
table, and the fold carries {word: (re, im)} over a running denominator.  A
letter that extends no term to a tip only re-keys the terms.  When some
term meets a tip, the other terms are scaled by D, the tip's term is
replaced by its tail times the term's numerator, the running denominator
is multiplied by D, and one integer gcd of all entries and the denominator
is divided out.  Normal forms are unique (Green 1999), so the result equals
the `Scalar` fold exactly; a `Scalar` is built once per output term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .algebra import Element
from .errors import InputError, InternalInvariantError
from .linalg import Matrix, _common, _scalar
from .moment import TruncatedFunctional
from .quiver import DoubleQuiver, Letter, Path, PathOrder
from .scalar import ONE, Scalar


def left_divides(t: Path, m: Path) -> Path | None:
    """The cofactor b with m = t·b, or None when t is not a prefix of m.

    A trivial path left-divides every path originating at its vertex (with
    the whole path as cofactor); when m = t the cofactor is the trivial path
    at terminal(m).
    """
    if t.double is not m.double:
        raise InputError("paths live in different double quivers")
    if t.is_trivial():
        return m if m.origin() == t.vertex else None
    lt, lm = t.length(), m.length()
    if lt > lm or m.letters[:lt] != t.letters:
        return None
    if lt == lm:
        return m.double.trivial_paths()[m.terminal()]
    return Path(m.double, None, m.letters[lt:])


@dataclass(frozen=True)
class ReductionEvent:
    target: Path
    by: Path
    cofactor: Path


Key = tuple[int | None, tuple[Letter, ...]]  # (vertex, letters), as a Path is identified
Numerators = dict[Key, tuple[int, int]]


def _reduced(acc: Numerators, den: int) -> tuple[Numerators, int]:
    """acc/den with zero terms dropped and one integer gcd divided out."""
    acc = {k: c for k, c in acc.items() if c[0] or c[1]}
    g = gcd(den, *(x for c in acc.values() for x in c))
    if g == 1:
        return acc, den
    return {k: (re // g, im // g) for k, (re, im) in acc.items()}, den // g


def _times(terms: Numerators, m: int) -> Numerators:
    return terms if m == 1 else {k: (re * m, im * m) for k, (re, im) in terms.items()}


def _add_scaled(acc: Numerators, cr: int, ci: int, terms: Numerators) -> None:
    """acc += (cr + ci i)·terms, in place."""
    for k, (a, b) in terms.items():
        re, im = cr * a - ci * b, cr * b + ci * a
        if k in acc:
            pr, pi = acc[k]
            re, im = pr + re, pi + im
        acc[k] = (re, im)


def _combine(parts) -> tuple[Numerators, int]:
    """The sum of c·terms/den over (c, terms, den) with `Scalar` c, over one denominator."""
    scaled = []
    for c, terms, den in parts:
        (cr, ci), dc = _common([c.re, c.im])
        scaled.append((cr, ci, terms, dc * den))
    common = lcm(*(d for _, _, _, d in scaled))
    acc: Numerators = {}
    for cr, ci, terms, d in scaled:
        m = common // d
        _add_scaled(acc, cr * m, ci * m, terms)
    return _reduced(acc, common)


class TipTable:
    """Each tip mapped to its reduced tail, on Gaussian-integer numerators.

    A path is keyed by (vertex, letters) as `Path` identifies it: (v, ()) for
    the trivial path at v, (None, letters) otherwise.  A tail is stored as
    {key: (re, im)} over one positive denominator `den` shared by the table.
    """

    def __init__(self, double: DoubleQuiver):
        self.double = double
        self.tails: dict[Key, Numerators] = {}
        self.den = 1

    def add(self, tip: Path, terms: Numerators, den: int) -> None:
        """Enter tip -> terms/den, bringing the table to the lcm of the denominators."""
        common = lcm(self.den, den)
        if common != self.den:
            m = common // self.den
            self.tails = {t: _times(tail, m) for t, tail in self.tails.items()}
            self.den = common
        self.tails[(tip.vertex, tip.letters)] = _times(terms, common // den)

    def start(self, vertex: int) -> tuple[Numerators, int]:
        """NF of the trivial path at `vertex`."""
        tail = self.tails.get((vertex, ()))
        return ({(vertex, ()): (1, 0)}, 1) if tail is None else (tail, self.den)

    def step(self, terms: Numerators, den: int, letter: Letter) -> tuple[Numerators, int]:
        """NF(f·c) for the letter c, from NF(f) = terms/den.

        All terms end where f ends, so each composes with c.  A term whose
        extension is no tip is only re-keyed.  When some extension is a tip,
        the other terms are scaled by the table's denominator, each tip
        contributes its tail times the term's numerator, and one gcd is
        divided out.
        """
        tails = self.tails
        out: Numerators = {}
        hits = []
        for (_, w), c in terms.items():
            key = (None, w + (letter,))
            tail = tails.get(key)
            if tail is None:
                out[key] = c
            else:
                hits.append((c, tail))
        if not hits:
            return out, den
        out = _times(out, self.den)
        for (cr, ci), tail in hits:
            _add_scaled(out, cr, ci, tail)
        return _reduced(out, den * self.den)

    def fold(self, p: Path) -> tuple[Numerators, int]:
        """NF(p), letter by letter."""
        terms, den = self.start(p.origin())
        for letter in p.letters:
            terms, den = self.step(terms, den, letter)
        return terms, den

    def scalars(self, terms: Numerators, den: int) -> dict[Path, Scalar]:
        """terms/den as {path: Scalar}."""
        return {Path(self.double, *k): _scalar(re, im, den) for k, (re, im) in terms.items()}


@dataclass(frozen=True)
class RightGroebnerBasis:
    elements: tuple[Element, ...]
    order: PathOrder
    trace: tuple[ReductionEvent, ...]

    @cached_property
    def tip_table(self) -> TipTable:
        """Each tip mapped to the normal form of its tail: Tip(g) ≡ Tip(g) - g·e.

        Here e is the trivial path at the tip's terminal vertex, so a tail
        keeps only the terms ending where the tip ends, as in every reduction
        step h - c·g·b.  Tails are reduced in increasing tip order; every term
        of a tail is below its tip, so only the rules already in the table can
        divide the paths its fold meets.
        """
        table = TipTable(self.order.double)
        for g in sorted(self.elements, key=lambda e: self.order.key(e.tip(self.order)[0])):
            tip, lead = g.tip(self.order)
            tail = ((q, c) for q, c in g.terms.items() if q != tip and q.terminal() == tip.terminal())
            table.add(tip, *_combine((-c / lead, *table.fold(q)) for q, c in tail))
        return table

    def nf(self, p: Path) -> Element:
        """Normal form of a single path."""
        table = self.tip_table
        return Element(p.double, table.scalars(*table.fold(p)))

    def reducible(self, p: Path) -> bool:
        """True iff some tip left-divides p, i.e. some prefix of p is a tip."""
        tails = self.tip_table.tails
        prefixes = ((None, p.letters[:i]) for i in range(1, p.length() + 1))
        return (p.origin(), ()) in tails or any(k in tails for k in prefixes)


def _monic(e: Element, order: PathOrder) -> Element:
    _, c = e.tip(order)
    if c == ONE:
        return e
    return e.scale(ONE / c)


def total_reduce(
    h: Element,
    basis: list[Element],
    order: PathOrder,
    trace: list[ReductionEvent] | None = None,
) -> Element:
    """Normal form of h against monic basis elements.

    Repeatedly rewrites the largest reducible support path; each step strips
    a path m = Tip(g)·b down by h -= coeff·g·b.  The divisor is the basis
    element with the longest matching tip, ties broken by the canonical
    element order.  Termination follows from the well-order: the reduced
    path strictly decreases at every step.
    """
    while not h.is_zero():
        target = None
        chosen = None
        cofactor = None
        for m in sorted(h.terms, key=order.key, reverse=True):
            candidates = []
            for g in basis:
                tip, _ = g.tip(order)
                b = left_divides(tip, m)
                if b is not None:
                    candidates.append((g, tip, b))
            if candidates:
                candidates.sort(key=lambda t: (-t[1].length(), t[0].sort_key(order)))
                chosen, tip, cofactor = candidates[0]
                target = m
                break
        if target is None:
            return h
        coeff = h.coeff(target)
        h = h - (chosen * Element.from_path(cofactor)).scale(coeff)
        if trace is not None:
            trace.append(ReductionEvent(target, chosen.tip(order)[0], cofactor))
    return h


def _right_parts(g: Element) -> list[Element]:
    """The nonzero g·e_v over the vertices v, in vertex order.

    Their sum is g and each lies in the right ideal g generates, so they
    generate the same right ideal; each is right-uniform (all its terms end
    at v), which the completion needs.
    """
    parts: dict[int, dict[Path, Scalar]] = {}
    for p, c in g.terms.items():
        parts.setdefault(p.terminal(), {})[p] = c
    return [Element(g.double, parts[v]) for v in sorted(parts)]


def right_groebner(generators, order: PathOrder) -> RightGroebnerBasis:
    """Right Gröbner basis of the right ideal generated by `generators`.

    Each generator is first split into its right-uniform parts g·e_v.
    Duplicates (after monic normalization) are dropped silently up front;
    they are mathematically inert.  The output is monic, has pairwise
    non-dividing tips, and is sorted by tip.
    """
    trace: list[ReductionEvent] = []
    h: list[Element] = []
    seen = set()
    for g in (part for gen in generators for part in _right_parts(gen)):
        g = _monic(g, order)
        key = frozenset(g.terms.items())
        if key in seen:
            continue
        seen.add(key)
        h.append(g)

    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise InternalInvariantError("right_groebner failed to terminate")
        by_tip: dict[Path, list[Element]] = {}
        for g in h:
            by_tip.setdefault(g.tip(order)[0], []).append(g)
        tips = list(by_tip)
        selected = set()
        for t in tips:
            if not any(t2 != t and left_divides(t2, t) is not None for t2 in tips):
                selected.add(t)
        kept: list[Element] = []
        to_reduce: list[Element] = []
        for g in h:
            t = g.tip(order)[0]
            group = by_tip[t]
            rep = min(group, key=lambda e: e.sort_key(order))
            if t in selected and g == rep:
                kept.append(g)
            else:
                to_reduce.append(g)
        if not to_reduce:
            kept.sort(key=lambda e: order.key(e.tip(order)[0]))
            return RightGroebnerBasis(tuple(kept), order, tuple(trace))
        nxt = list(kept)
        seen = {frozenset(g.terms.items()) for g in kept}
        for g in to_reduce:
            r = total_reduce(g, kept, order, trace)
            if r.is_zero():
                continue
            r = _monic(r, order)
            key = frozenset(r.terms.items())
            if key in seen:
                continue
            seen.add(key)
            nxt.append(r)
        h = nxt


def normal_form(f: Element, gb: RightGroebnerBasis) -> Element:
    """Sum of c·NF(p) over the terms of f; supported on non-tips, linear, idempotent."""
    table = gb.tip_table
    return Element(f.double, table.scalars(*_combine((c, *table.fold(p)) for p, c in f.terms.items())))


def kernel_groebner(functional: TruncatedFunctional) -> RightGroebnerBasis:
    """Reduced right Gröbner basis of the kernel ideal of a flat functional.

    Keeps each echelon kernel element whose tip has no proper prefix (the
    trivial path at its origin included) that is another kernel tip, in
    `kernel_basis()` order, which is increasing by tip.  Two exact checks
    follow, and a failure of either is a hard invariant violation: every
    other kernel element has normal form zero through the kept basis, and
    every kept element pairs to zero with the whole order-k window.
    Flatness guarantees both.
    """
    report = functional.is_flat()
    if not report.flat:
        raise InputError("kernel_groebner requires a flat functional")
    order = functional.order
    kernel = functional.kernel_basis()
    tips = {(t.vertex, t.letters) for t in (g.tip(order)[0] for g in kernel)}

    def minimal(t: Path) -> bool:
        prefixes = [(t.origin(), ())] + [(None, t.letters[:i]) for i in range(1, t.length())]
        return t.is_trivial() or tips.isdisjoint(prefixes)

    kept, rest = [], []
    for g in kernel:
        (kept if minimal(g.tip(order)[0]) else rest).append(g)
    gb = RightGroebnerBasis(tuple(kept), order, ())
    for g in rest:
        if not normal_form(g, gb).is_zero():
            raise InternalInvariantError(
                f"kernel element {g} is not in the right ideal of the minimal-tip elements"
            )
    window = functional.basis(functional.k)
    for g in gb.elements:
        deg = g.degree()
        if deg is None or deg > functional.k:
            raise InternalInvariantError("Gröbner element escaped the order-k window")
        # Row q of the product is L(g q*): the coefficient row of g times the
        # moment block of its support against the window.
        support = list(g.terms)
        coeffs = Matrix(1, len(support), [g.terms[p] for p in support])
        row = coeffs * functional.moment_block(support, window)
        for q, v in zip(window, row.entries):
            if v:
                raise InternalInvariantError(
                    f"Gröbner element {g} left the kernel (pairs nontrivially with {q})"
                )
    return gb
