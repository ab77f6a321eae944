"""Right Gröbner bases of right ideals in the path *-algebra.

The completion procedure is the five-step tip-selection/total-reduction loop:
drop zeros, select the tips not left-divided by another tip, keep one
representative per selected tip, totally reduce the rest against the kept
set, and repeat until every element is kept.  Left division is prefix
division of letter words, and reduction replaces the largest reducible
support path first, so runs are reproducible event for event.

Normal forms against a finished basis take a different route, one letter at
a time.  Every term r of NF(p) is irreducible, so the only tip that can
left-divide r·c is r·c itself, and NF(p·c) = NF(NF(p)·c) is one lookup per
term in a table mapping each tip to the normal form of its tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Element
from .errors import InputError, InternalInvariantError
from .linalg import Matrix
from .moment import TruncatedFunctional
from .quiver import ZERO_PATH, Path, PathOrder, compose
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


Terms = dict[Path, Scalar]


def _sum(scaled) -> Terms:
    """The sum of c·terms over (terms, c) pairs, zero coefficients dropped."""
    acc: Terms = {}
    for terms, c in scaled:
        for r, cr in terms.items():
            v = c * cr
            acc[r] = acc[r] + v if r in acc else v
    return {r: v for r, v in acc.items() if v}


def _fold(p: Path, table: dict[Path, Terms]) -> Terms:
    """Normal form of p, letter by letter, against a {tip: reduced tail} table."""
    start = p.double.trivial_paths()[p.origin()]
    acc = table.get(start, {start: ONE})
    for letter in p.letters:
        step = Path(p.double, None, (letter,))
        images = ((compose(r, step), c) for r, c in acc.items())
        acc = _sum((table.get(rc, {rc: ONE}), c) for rc, c in images if rc is not ZERO_PATH)
    return acc


@dataclass(frozen=True)
class RightGroebnerBasis:
    elements: tuple[Element, ...]
    order: PathOrder
    trace: tuple[ReductionEvent, ...]

    @cached_property
    def tip_table(self) -> dict[Path, Terms]:
        """Each tip mapped to the normal form of its tail: Tip(g) ≡ Tip(g) - g·e.

        Here e is the trivial path at the tip's terminal vertex, so a tail
        keeps only the terms ending where the tip ends, as in every reduction
        step h - c·g·b.  Tails are reduced in increasing tip order; every term
        of a tail is below its tip, so only the rules already in the table can
        divide the paths its fold meets.
        """
        table: dict[Path, Terms] = {}
        for g in sorted(self.elements, key=lambda e: self.order.key(e.tip(self.order)[0])):
            tip, lead = g.tip(self.order)
            tail = ((q, c) for q, c in g.terms.items() if q != tip and q.terminal() == tip.terminal())
            table[tip] = _sum((_fold(q, table), -c / lead) for q, c in tail)
        return table

    def nf(self, p: Path) -> Element:
        """Normal form of a single path."""
        return Element(p.double, _fold(p, self.tip_table))

    def reducible(self, p: Path) -> bool:
        """True iff some tip left-divides p, i.e. some prefix of p is a tip."""
        prefixes = [Path(p.double, None, p.letters[:i]) for i in range(1, p.length() + 1)]
        prefixes.append(p.double.trivial_paths()[p.origin()])
        return any(q in self.tip_table for q in prefixes)


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
    return Element(f.double, _sum((_fold(p, gb.tip_table), c) for p, c in f.terms.items()))


def kernel_groebner(functional: TruncatedFunctional, generators=None) -> RightGroebnerBasis:
    """Gröbner basis of the kernel ideal of a flat functional.

    Runs the completion on the kernel echelon basis (or a caller-supplied
    generating set of it, which only changes the reduction route) and then
    verifies the containment claim: every output element pairs to zero with
    the whole order-k window.  Flatness guarantees containment, so a failure
    here is reported as a hard invariant violation.
    """
    report = functional.is_flat()
    if not report.flat:
        raise InputError("kernel_groebner requires a flat functional")
    gens = list(generators) if generators is not None else functional.kernel_basis()
    gb = right_groebner(gens, functional.order)
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
