"""Right Gröbner bases of right ideals in the path *-algebra.

The kernel ideal of a flat functional needs no completion.  The echelon
kernel elements whose tips have no proper prefix among the other kernel
tips have prefix-free tips, so they are a right Gröbner basis of the ideal
they generate; flatness puts every other kernel element in it (checked
exactly), so they are the reduced basis of the kernel ideal, which is
unique (Green 1999).  The kernel elements are read as integer numerators,
and `Element`s are built only for the kept ones.

The completion serves generator input: `groebner --generators` and `gns
build` from a basis.  It is the five-step tip-selection/total-reduction
loop: drop zeros, select the tips not left-divided by another tip, keep
one representative per selected tip, totally reduce the rest against the
kept set, and repeat until every element is kept.  Left division is
prefix division of letter words.

One reducer (`_reduce`) makes every reduction that is output: the
completion's, and those of `groebner --from-kernel`, which reduces the
other kernel elements once by the kept ones (`kernel_groebner` with
`trace`), the one round the completion of the kernel basis would run.  It
pops the support paths from a heap, largest first, by their integer order
keys, and rewrites each reducible one by the element of its longest
dividing tip.  Every term of g·b lies below the rewritten path, so a path
left irreducible stays irreducible, and the events come largest reducible
path first: runs are reproducible event for event.

The reducer and the normal forms run on integers, as `linalg` does.  An
element is held as Gaussian-integer numerators {(vertex, letters): (re,
im)} over one positive denominator with no common factor, so equal
elements are held equally.  The reducer finds its divisor by looking the
prefixes of a support path up in a table {tip: monic element}, longest
first and the trivial path at its origin last (`_step`); each tip keeps
its canonically least element.  Elements and scalars are built once, for
the output, and a trace one path per distinct path it names.

Normal forms against a finished basis (`RightGroebnerBasis.nf`, and the
kernel check of `kernel_groebner` without `trace`) take another route, one
letter at a time, through the basis's `TipTable`.  Every term r of NF(p)
is irreducible, so the only tip that can left-divide r·c is r·c itself, and
NF(p·c) = NF(NF(p)·c).  The table gives each path it meets an integer id
and computes the move of each (id, letter) once: the id of r·c when r·c is
no tip, else the tip's tail, held over one denominator D shared by the
table.  A normal form is an integer vector indexed by id, with one int per
id while every tail is real.  A letter that extends no term to a tip only
re-keys the terms.  When some term meets a tip, the other terms are scaled
by D, the tip's term is replaced by its tail times the term's numerator,
and the running denominator is multiplied by D; one integer gcd is divided
out after every few such steps and after the last, so the result is
canonical.  Entering a tip drops the computed moves.  Ids and moves are made
as folds meet them, so an infinite quotient folds too.  Keys and paths are
built only for the output.  Normal forms are unique (Green 1999), so the
result equals the `Scalar` fold exactly.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .algebra import Element, _numerators
from .errors import InputError, InternalInvariantError
from .moment import TruncatedFunctional
from .quiver import DoubleQuiver, Key, Path, PathOrder, Record
from .scalar import from_numerators as _scalar


class ReductionEvent(Record):
    """One reduction step: the support path `target` is the tip `by` times the path `cofactor`."""

    _fields = ("target", "by", "cofactor")


Numerators = dict[Key, tuple[int, int]]


def _element(double: DoubleQuiver, terms: Numerators, den: int) -> Element:
    return Element(double, {Path(double, *k): _scalar(re, im, den) for k, (re, im) in terms.items()})


def _end(key: Key, double: DoubleQuiver) -> int:
    vertex, letters = key
    return double.target[letters[-1]] if letters else vertex


def _proper_prefixes(key: Key, double: DoubleQuiver) -> list[Key]:
    """The keys of the paths that left-divide a path and differ from it."""
    _, w = key
    return [(double.source[w[0]], ())] + [(None, w[:i]) for i in range(1, len(w))] if w else []


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


def _combine(parts, den: int) -> tuple[Numerators, int]:
    """The sum of (cr + ci i)·terms/d over the (cr, ci, terms, d) of `parts`, divided by den."""
    parts = list(parts)
    common = lcm(*(d for *_, d in parts))
    acc: Numerators = {}
    for cr, ci, terms, d in parts:
        m = common // d
        _add_scaled(acc, cr * m, ci * m, terms)
    return _reduced(acc, common * den)


def _monic(terms: Numerators, tip: Key) -> tuple[Numerators, int]:
    """terms divided by their coefficient at `tip`, whatever their denominator."""
    tr, ti = terms[tip]
    acc: Numerators = {}
    _add_scaled(acc, tr, -ti, terms)
    return _reduced(acc, tr * tr + ti * ti)


class TipTable:
    """Each tip mapped to its reduced tail, compiled into per-letter moves on path ids.

    Every key the table meets gets an integer id.  A tail is held as
    {id: (re, im)} over one positive denominator `den` shared by the table.
    The move of (id, letter) is computed once: the id of the extended key
    when that key is no tip, else the tip's tail: as (id, re) pairs while
    every tail is real, and as the tail itself once some tail is not.  A
    normal form is a vector {id: numerator} over a denominator, in the same
    layout: one int per id, or (re, im) pairs.
    """

    _GCD_EVERY = 16  # tip hits between two gcd divisions of a running fold

    def __init__(self, double: DoubleQuiver):
        self.double = double
        self.tails: dict[Key, dict[int, tuple[int, int]]] = {}
        self.den = 1
        self.real = True
        self._probe = 1  # den ** _GCD_EVERY, see `_canonical`
        self._ids: dict[Key, int] = {}
        self._keys: list[Key] = []
        self._letters = double.letters()
        self._letter = {letter: n for n, letter in enumerate(self._letters)}
        self._moves: list[list] = [[] for _ in self._letters]  # per letter, per id

    def _id(self, key: Key) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._keys)
            self._keys.append(key)
            for row in self._moves:
                row.append(None)
        return i

    def add(self, tip: Key, terms: Numerators, den: int) -> None:
        """Enter tip -> terms/den, bringing the table to the lcm of the denominators."""
        common = lcm(self.den, den)
        if common != self.den:
            m = common // self.den
            self.tails = {t: _times(tail, m) for t, tail in self.tails.items()}
            self.den = common
        self._probe = common**self._GCD_EVERY
        self.tails[tip] = _times({self._id(k): c for k, c in terms.items()}, common // den)
        self.real = self.real and not any(im for _, im in terms.values())
        # a cached re-key may now meet this tip, and a cached tail may be over the old den
        self._moves = [[None] * len(self._keys) for _ in self._letters]

    def _move(self, i: int, n: int):
        """The move of id i by the letter with index n, computed and cached."""
        key = (None, self._keys[i][1] + (self._letters[n],))
        tail = self.tails.get(key)
        if tail is None:
            move = self._id(key)
        else:
            move = tuple((j, re) for j, (re, _) in tail.items()) if self.real else tail
        self._moves[n][i] = move
        return move

    def _canonical(self, vec: dict, den: int) -> tuple[dict, int]:
        """vec/den with zero entries dropped and no factor common to den and every entry.

        den divides a power of the table's denominator D, so the common
        factor has only primes of D: it is divided out through the gcds of
        D^_GCD_EVERY with den and the entries, each linear in their size,
        until one is 1.  A fold's den may grow by D at every letter, and one
        gcd of two such numbers would cost the square of their size.
        """
        real = self.real
        vec = {j: c for j, c in vec.items() if c} if real else {j: c for j, c in vec.items() if c[0] or c[1]}
        while True:
            g = gcd(self._probe, den, *(vec.values() if real else (x for c in vec.values() for x in c)))
            if g == 1:
                return vec, den
            den //= g
            vec = {j: c // g for j, c in vec.items()} if real else {j: (a // g, b // g) for j, (a, b) in vec.items()}

    def _start(self, vertex: int) -> tuple[dict, int]:
        """NF of the trivial path at `vertex`, in the table's layout."""
        tail = self.tails.get((vertex, ()))
        if tail is None:
            return {self._id((vertex, ())): 1 if self.real else (1, 0)}, 1
        return self._canonical({j: re for j, (re, _) in tail.items()} if self.real else tail, self.den)

    def _run(self, vec: dict, den: int, letters) -> tuple[dict, int]:
        """NF(f·w) for the letters of w, from NF(f) = vec/den in the table's layout.

        All terms end where f ends, so each composes with the next letter.
        A term whose extension is no tip is only re-keyed.  When some
        extension is a tip, the other terms are scaled by the table's
        denominator and each tip contributes its tail times the term's
        numerator.  Zeros and the gcd are divided out after every few such
        steps and after the last, so a canonical input gives a canonical
        output.
        """
        moves, index, tden, real = self._moves, self._letter, self.den, self.real
        hits_since = 0
        for letter in letters:
            n = index[letter]
            row = moves[n]
            out, hits = {}, []
            for i, c in vec.items():
                m = row[i]
                if m is None:
                    m = self._move(i, n)
                if m.__class__ is int:
                    out[m] = c
                else:
                    hits.append((c, m))
            if hits:
                if tden != 1:
                    den *= tden
                    out = {j: c * tden for j, c in out.items()} if real else _times(out, tden)
                if real:
                    for c, tail in hits:
                        for j, a in tail:
                            out[j] = out[j] + c * a if j in out else c * a
                else:
                    for (cr, ci), tail in hits:
                        _add_scaled(out, cr, ci, tail)
                hits_since += 1
                if hits_since == self._GCD_EVERY:
                    out, den = self._canonical(out, den)
                    hits_since = 0
            vec = out
        return self._canonical(vec, den) if hits_since else (vec, den)

    def _fold(self, key: Key) -> tuple[dict, int]:
        """NF of the path with this key, in the table's layout."""
        vertex, letters = key
        return self._run(*self._start(self.double.source[letters[0]] if letters else vertex), letters)

    def _gaussian(self, vec: dict) -> dict[int, tuple[int, int]]:
        """A vector of the table's layout as {id: (re, im)}."""
        return {j: (c, 0) for j, c in vec.items()} if self.real else vec

    def _nf(self, terms: Numerators, den: int, folds: dict) -> tuple[dict[int, tuple[int, int]], int]:
        """NF(terms/den) as {id: (re, im)}: the sum of c·NF(p) over its terms.

        Each path is folded once per `folds`, which maps a key to its fold.
        """
        parts = []
        for key, (cr, ci) in terms.items():
            nf = folds.get(key)
            if nf is None:
                vec, d = self._fold(key)
                nf = folds[key] = self._gaussian(vec), d
            parts.append((cr, ci, *nf))
        return _combine(parts, den)

    def _keyed(self, vec: dict[int, tuple[int, int]], den: int) -> tuple[Numerators, int]:
        keys = self._keys
        return {keys[j]: c for j, c in vec.items()}, den

    def fold(self, key: Key) -> tuple[Numerators, int]:
        """NF of the path with this key, letter by letter, over a coprime denominator."""
        vec, den = self._fold(key)
        return self._keyed(self._gaussian(vec), den)

    def reducible(self, key: Key) -> bool:
        """True iff some tip is a prefix of the path with this key, the path itself included."""
        vertex, letters = key
        i = (self.double.source[letters[0]] if letters else vertex, ())
        if i in self.tails:
            return True
        i = self._id(i)
        for letter in letters:
            n = self._letter[letter]
            m = self._moves[n][i]
            if m is None:
                m = self._move(i, n)
            if m.__class__ is not int:
                return True
            i = m
        return False


class RightGroebnerBasis(Record):
    """A right Gröbner basis: its elements, its order and the reductions that produced it."""

    _fields = ("elements", "order", "trace")

    @cached_property
    def tip_table(self) -> TipTable:
        """Each tip mapped to the normal form of its tail: Tip(g) ≡ Tip(g) - g·e.

        Here e is the trivial path at the tip's terminal vertex, so a tail
        keeps only the terms ending where the tip ends, as in every reduction
        step h - c·g·b.  Tails are reduced in increasing tip order; every term
        of a tail is below its tip, so only the rules already in the table can
        divide the paths its fold meets.
        """
        return _tip_table(self.order, [terms for terms, _ in map(_numerators, self.elements)], {})

    def nf(self, p: Path) -> Element:
        """Normal form of a single path."""
        return _element(p.double, *self.tip_table.fold((p.vertex, p.letters)))

    def reducible(self, p: Path) -> bool:
        """True iff some tip left-divides p, i.e. some prefix of p is a tip."""
        return self.tip_table.reducible((p.vertex, p.letters))


def _tip_table(order: PathOrder, ints: list[Numerators], folds: dict) -> TipTable:
    """The `RightGroebnerBasis.tip_table` of the elements with these numerators.

    Every path a tail folds is below its tip, and the fold meets only paths
    below it, since the order is admissible; so the tips entered later
    leave its normal form as it is, and each path is folded once, into
    `folds` (see `TipTable._nf`).
    """
    double, okey = order.double, order.key_of
    table = TipTable(double)
    for tip, terms in sorted(((max(t, key=okey), t) for t in ints), key=lambda e: okey(e[0])):
        terms, den = _monic(terms, tip)
        end = _end(tip, double)
        tail = {q: (-re, -im) for q, (re, im) in terms.items() if q != tip and _end(q, double) == end}
        table.add(tip, *table._keyed(*table._nf(tail, den, folds)))
    return table


# -- the reducer ----------------------------------------------------------------


def _step(m: Key, tips: dict, order: PathOrder) -> tuple | None:
    """The reduction step at the path m by the monic elements {tip: (terms, den)}.

    g is the element of the longest tip dividing m (its longest prefix in
    `tips`, the trivial path at its origin last) and m = tip·b.  Returns the
    event (m, tip, b), the terms of g·b other than m as (heap key, path, re,
    im), without the terms of g that do not compose with b, and g's
    denominator; None when no tip divides m.
    """
    double, okey = order.double, order.key_of
    tip = next((t for t in [m, *reversed(_proper_prefixes(m, double))] if t in tips), None)
    if tip is None:
        return None
    w, end = m[1][len(tip[1]) :], _end(tip, double)
    g, gden = tips[tip]
    gb = {(None, q[1] + w) if w else q: c for q, c in g.items() if q != tip and _end(q, double) == end}
    return (m, tip, (None, w) if w else (end, ())), [(okey(q), q, *c) for q, c in gb.items()], gden


def _reduce(
    terms: Numerators, den: int, tips: dict, order: PathOrder, events: list, steps: dict
) -> tuple[Numerators, int]:
    """The total reduction of terms/den by the monic elements {tip: (terms, den)}.

    A heap holds the support paths by their order keys (`PathOrder.key_of`)
    and each step pops the largest.  When a tip divides it, m = tip·b
    (`_step`), the step appends the event (m, tip, b) to `events`, scales
    the other terms by g's denominator and subtracts c·g·b, whose term at m
    is c.  Every term of g·b lies below m, so a path left irreducible stays
    irreducible: the events come largest reducible path first, and the
    popped path strictly decreases, so the loop ends.  `steps` holds the
    step at each heap key for one `tips` dict.  The remainder is made
    canonical once, at the end.
    """
    okey = order.key_of
    paths = {okey(k): k for k in terms}
    vec = {i: terms[k] for i, k in paths.items()}
    heap = [-i for i in vec]
    heapify(heap)
    while heap:
        i = -heappop(heap)
        cr, ci = vec[i]
        if not (cr or ci):  # `_reduced` drops it
            continue
        if i not in steps:
            steps[i] = _step(paths[i], tips, order)
        step = steps[i]
        if step is None:
            continue
        event, gb, gden = step
        events.append(event)
        del vec[i]
        vec, den = _times(vec, gden), den * gden
        for j, q, a, b in gb:
            if j not in vec:
                vec[j], paths[j] = (0, 0), q
                heappush(heap, -j)
            re, im = vec[j]
            vec[j] = (re + ci * b - cr * a, im - cr * b - ci * a)
    return _reduced({paths[i]: c for i, c in vec.items()}, den)


def _events(double: DoubleQuiver, events) -> list[ReductionEvent]:
    """The events of (target, by, cofactor) keys, with one `Path` per distinct key."""
    paths = {k: Path(double, *k) for k in {k for ev in events for k in ev}}
    return [ReductionEvent(*map(paths.__getitem__, ev)) for ev in events]


def right_groebner(generators, order: PathOrder) -> RightGroebnerBasis:
    """Right Gröbner basis of the right ideal generated by `generators`.

    Each generator is first split into its right-uniform parts g·e_v, in
    vertex order: their sum is g and each lies in the right ideal g
    generates, and the completion needs every element's terms to end at
    one vertex.  Duplicates (after monic normalization) are dropped
    silently; they are mathematically inert.  The output is monic, has
    pairwise non-dividing tips, and is sorted by tip.
    """
    double, okey = order.double, order.key_of
    events: list = []

    def admit(out: list, seen: set, terms: Numerators) -> None:
        tip = max(terms, key=okey)
        terms, den = _monic(terms, tip)
        canon = (frozenset(terms.items()), den)
        if canon not in seen:
            seen.add(canon)
            out.append((tip, terms, den))

    h: list = []
    seen: set = set()
    for gen in generators:
        parts: dict[int, Numerators] = {}
        for k, c in _numerators(gen)[0].items():
            parts.setdefault(_end(k, double), {})[k] = c
        for v in sorted(parts):
            admit(h, seen, parts[v])

    for _ in range(10_000):
        by_tip: dict[Key, list] = {}
        for e in h:
            by_tip.setdefault(e[0], []).append(e)
        kept, to_reduce = [], []
        for e in h:
            group = by_tip[e[0]]
            # Equal tips are rare, so the tie-break builds elements.
            rep = group[0] if len(group) == 1 else min(group, key=lambda g: _element(double, *g[1:]).sort_key(order))
            selected = by_tip.keys().isdisjoint(_proper_prefixes(e[0], double))
            (kept if selected and e is rep else to_reduce).append(e)
        if not to_reduce:
            kept.sort(key=lambda e: okey(e[0]))
            elements = tuple(_element(double, terms, den) for _, terms, den in kept)
            return RightGroebnerBasis(elements, order, tuple(_events(double, events)))
        tips, steps = {tip: (terms, den) for tip, terms, den in kept}, {}
        h = list(kept)
        seen = {(frozenset(terms.items()), den) for _, terms, den in kept}
        for _, terms, den in to_reduce:
            r, _ = _reduce(terms, den, tips, order, events, steps)
            if r:
                admit(h, seen, r)
    raise InternalInvariantError("right_groebner failed to terminate")


# -- the kernel ideal ------------------------------------------------------------


def kernel_groebner(functional: TruncatedFunctional, trace: bool = False) -> RightGroebnerBasis:
    """Reduced right Gröbner basis of the kernel ideal of a flat functional.

    Keeps each echelon kernel element whose tip has no proper prefix (the
    trivial path at its origin included) that is another kernel tip, in
    kernel order, which is increasing by tip.  The kernel is read as the
    integers the functional's echelon form gives (`_null`); `Element`s are
    built for the kept elements and for error messages only.  Two exact
    checks follow, and a failure of either is a hard invariant violation:
    every other kernel element has normal form zero through the kept basis,
    and every kept element pairs to zero with the whole order-k window.
    Flatness guarantees both.  Both run on integers.

    With `trace`, the other kernel elements are reduced by the kept monic
    elements through `_reduce`, in kernel order, and the reductions are the
    basis's trace; the step at a path is computed once per call.
    Otherwise their normal forms are folded through the kept elements' tip
    table, which the basis keeps, each distinct support path once.
    """
    report = functional.is_flat()
    if not report.flat:
        raise InputError("kernel_groebner requires a flat functional")
    order, double = functional.order, functional.double
    null = [(next(reversed(terms)), terms, den) for terms, den in functional._null]  # each tip comes last
    tips = {tip for tip, *_ in null}
    kept, rest = [], []
    for e in null:
        (kept if tips.isdisjoint(_proper_prefixes(e[0], double)) else rest).append(e)
    events: list = []
    if trace:
        monic, steps = {tip: (terms, den) for tip, terms, den in kept}, {}  # each tip's numerator is den
        table = None
        reduced = (_reduce(terms, den, monic, order, events, steps)[0] for _, terms, den in rest)
    else:
        folds: dict = {}  # each support path is folded once, for the table and the check
        table = _tip_table(order, [terms for _, terms, _ in kept], folds)
        reduced = (table._nf(terms, den, folds)[0] for _, terms, den in rest)
    for (_, terms, den), r in zip(rest, reduced):
        if r:
            raise InternalInvariantError(
                f"kernel element {_element(double, terms, den)} is not in the right ideal of the minimal-tip elements"
            )
    elements = tuple(_element(double, terms, den) for _, terms, den in kept)
    for g, (_, terms, _) in zip(elements, kept):
        deg = g.degree()
        if deg is None or deg > functional.k:
            raise InternalInvariantError("Gröbner element escaped the order-k window")
        j = functional.first_pairing(terms)
        if j is not None:
            q = functional.basis(functional.k)[j]
            raise InternalInvariantError(
                f"Gröbner element {g} left the kernel (pairs nontrivially with {q})"
            )
    gb = RightGroebnerBasis(elements, order, tuple(_events(double, events)))
    if table is not None:
        vars(gb)["tip_table"] = table  # the table the cached property would build from the same numerators
    return gb
