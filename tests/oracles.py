"""Helpers that only the tests use: independent oracles for the package.

* the faithful embedding of the path *-algebra into matrices over the free
  *-algebra (property-test oracle for composition and the involution);
* right actions, word-order element matrices and the gram inner product of a
  representation;
* the relation and adjointness checks of a representation as they were
  before integer images: `Scalar` matrix products and `Matrix ==`;
* `Element.from_terms` as it was before new paths were stored directly:
  one `Scalar` addition and one zero test per term;
* the expansion and the verdict of weighted squares as they were before
  the integer gram: `Element` arithmetic, with the empty square list
  decided before the weights were checked;
* reassembly of a block decomposition, truncation of an element, the
  restriction of a functional to a lower order, the Riesz functional L(f)
  and the moment pairing L(f g*) computed through the algebra product;
* the flatness report and the PSD verdict as they were before the integer
  image of B_{L_k}: the block criterion through the `Scalar` solution X of
  A X = C, the product C^H X and `Matrix ==`, and `linalg_oracle.is_hermitian`
  before `Scalar` pivoting;
* the kernel Gröbner basis as it was before the minimal-tip selection: the
  completion of the echelon kernel, then the containment check;
* the completion and its reducer on `Scalar` elements, as they were before
  they ran on integers: every support path scanned against every basis tip
  with `left_divides`, a prefix test on `Path`s, and h -= coeff·g·b as
  `Element` arithmetic;
* the paths of one length, sliced from the window;
* the odd-degree system of the one-step extension as it was before the
  hermitian symmetry was substituted: one complex unknown per path, the
  symmetry as extra rows, solved by the `Scalar` canonical solve;
* the path and scalar text parsers as they were before the table-driven
  rewrite (prefix by prefix, and `Fraction` of each part's text);
* the functional as it was built before word keys: its window as `Path`
  objects, the hermitian closure through `p.star()` and `Scalar`
  comparisons, B_{L_k} through `compose`, and a file read entry by entry
  into paths;
* the `Scalar` route a functional's values took before they were held as
  integer numerators: B_{L_k} assembled as `Scalar`s by window position and
  scaled back to integers by `linalg._image`, and the flat, PSD and
  tip-maximal verdicts read off a `Scalar` B_{L_k} by `Scalar` elimination
  and pivoting;
* normal forms as they were before the integer fold: the `Scalar` tip table
  and the letter-by-letter `Scalar` fold through it;
* the decimal text of an integer without int.__str__;
* the whole-image route of B_{L_k}, before the vertex blocks: all n^2
  entries gathered as whole rows, cross-vertex zeros included, one LDL^H
  pivoting of the whole matrix (or one echelon form off PSD data), and the
  readers of that image (principal submatrices, first pairings, solves
  through the pivots);
* `compress_representation` as it was before the closed form: coset reps
  from the RREF of the order-k matrix, one solve of the gram per path, and per
  arrow a completion of the kept cosets to a basis by their gram-orthogonal
  complement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import linalg_oracle
from quivermoment import (
    Element,
    ExtensionObstructed,
    FlatReport,
    InputError,
    InternalInvariantError,
    Matrix,
    Path,
    Quiver,
    TruncatedFunctional,
    WindowError,
    build_double,
    compose,
    enumerate_basis,
    linalg,
)
from quivermoment.groebner import ReductionEvent, RightGroebnerBasis
from quivermoment.gns import RelationReport, Representation, _adjoint_ok, _vertex_projections
from quivermoment.quiver import ZERO_PATH, Letter
from quivermoment.scalar import ONE, ZERO, Scalar

# -- embedding into matrices over the free *-algebra --------------------------

FreeWord = tuple[Letter, ...]
FreeElement = dict  # FreeWord -> Scalar


def _free_add_term(acc: FreeElement, word: FreeWord, coeff: Scalar) -> None:
    cur = acc.get(word, ZERO) + coeff
    if cur.is_zero():
        acc.pop(word, None)
    else:
        acc[word] = cur


def free_matmul(a, b):
    """Multiply matrices whose entries are free-algebra elements."""
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc: FreeElement = {}
            for k in range(n):
                for w1, c1 in a[i][k].items():
                    for w2, c2 in b[k][j].items():
                        _free_add_term(acc, w1 + w2, c1 * c2)
            out[i][j] = acc
    return out


def free_dagger(a):
    """Entrywise free-algebra star combined with the matrix transpose."""
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc: FreeElement = {}
            for w, c in a[j][i].items():
                sw = tuple((idx, not st) for (idx, st) in reversed(w))
                _free_add_term(acc, sw, c.conjugate())
            out[i][j] = acc
    return out


def embed_matrix_free(p: Path):
    """Image of a nonzero path under the faithful matrix-over-free-algebra map.

    A trivial path at the i-th vertex maps to E_ii; an arrow of the double
    from vertex i to vertex j maps to its free generator times E_ij.  Path
    products map to matrix products, which the property suite verifies.
    """
    d = p.double
    n = d.n_vertices()
    mat = [[{} for _ in range(n)] for _ in range(n)]
    if p.is_trivial():
        mat[p.vertex][p.vertex] = {(): ONE}
        return mat
    word: FreeWord = p.letters
    mat[p.origin()][p.terminal()] = {word: ONE}
    return mat


# -- representations ------------------------------------------------------------


def element_matrix_word_order(rep, f: Element) -> Matrix:
    acc = Matrix.zeros(rep.dim, rep.dim)
    for p, c in f.terms.items():
        acc = linalg_oracle.add(acc, linalg_oracle.scale(rep.path_matrix_word_order(p), c))
    return acc


def right_action_matrix(rep, f: Element) -> Matrix:
    """Matrix of right multiplication v -> v·f (letters applied first to last)."""
    acc = Matrix.zeros(rep.dim, rep.dim)
    for p, c in f.terms.items():
        if p.is_trivial():
            m = rep.vertex_projections[rep.double.vertices[p.vertex]]
        else:
            m = None
            for letter in p.letters:
                lm = rep.letter_matrix(rep.double.letter_name(letter))
                m = lm if m is None else linalg_oracle.product(lm, m)
        acc = linalg_oracle.add(acc, linalg_oracle.scale(m, c))
    return acc


def inner(rep, u, v) -> Scalar:
    acc = ZERO
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if vj:
                acc = acc + ui * vj.conjugate() * rep.gram.entry(i, j)
    return acc


def apply_right_word(rep, p: Path, vec: list[Scalar]) -> list[Scalar]:
    """Apply right multiplication by a path to a coordinate vector."""
    cur = linalg_oracle.column(vec)
    if p.is_trivial():
        proj = rep.vertex_projections[rep.double.vertices[p.vertex]]
        cur = linalg_oracle.product(proj, cur)
    else:
        for letter in p.letters:
            cur = linalg_oracle.product(rep.letter_matrix(rep.double.letter_name(letter)), cur)
    return [cur.entry(i, 0) for i in range(rep.dim)]


def apply_right_element(rep, f: Element, vec: list[Scalar]) -> list[Scalar]:
    out = [ZERO] * rep.dim
    for p, c in f.terms.items():
        img = apply_right_word(rep, p, vec)
        out = [a + c * b for a, b in zip(out, img)]
    return out


def adjoint_pair_ok(rep, base_name: str) -> bool:
    """Exact adjointness of an arrow against its star through the gram.

    The matrix identity is M_b^H F = F M_{b*} with F the transpose of the
    gram (the bilinear bookkeeping of the sesquilinear pairing; F equals the
    gram whenever the data is real), compared on integer images by the
    check `gns check` runs.
    """
    mats = linalg._images(rep.letter_matrix(base_name), rep.letter_matrix(base_name + "*"), rep.gram)
    return _adjoint_ok(*mats, rep.gram, rep.dim)


def scalar_adjoint_pair_ok(rep, base_name: str) -> bool:
    """M_b^H F == F M_{b*} with F = gram^T, as `Scalar` products and `Matrix ==`."""
    mb = rep.letter_matrix(base_name)
    mbs = rep.letter_matrix(base_name + "*")
    f = linalg_oracle.transpose(rep.gram)
    return linalg_oracle.matmul(linalg_oracle.conj_transpose(mb), f) == linalg_oracle.matmul(f, mbs)


def scalar_check_relations(rep) -> RelationReport:
    """`check_relations` as it was before integer images: every generator
    product a `Scalar` matrix product, every comparison `Matrix ==`, and the
    gram verdicts from `linalg_oracle.is_hermitian` and `Scalar` pivoting."""
    report = RelationReport()
    double = rep.double
    n = rep.dim
    gens = [(f"e:{v}", double.trivial(v), rep.vertex_projections[v]) for v in double.vertices]
    for letter in double.letters():
        name = double.letter_name(letter)
        gens.append((name, double.path([letter]), rep.letter_matrix(name)))

    zero = Matrix.zeros(n, n)
    for name1, p1, m1 in gens:
        for name2, p2, m2 in gens:
            p = compose(p1, p2)
            if p is ZERO_PATH:
                report.record(f"zero product {name1}·{name2}", linalg_oracle.matmul(m2, m1) == zero)
            elif p == p1:
                report.record(f"absorption {name1}·{name2} = {name1}", linalg_oracle.matmul(m2, m1) == m1)
            elif p == p2:
                report.record(f"absorption {name1}·{name2} = {name2}", linalg_oracle.matmul(m2, m1) == m2)

    psum = Matrix.zeros(n, n)
    for v in double.vertices:
        pv = rep.vertex_projections[v]
        report.record(f"idempotent e:{v}", linalg_oracle.matmul(pv, pv) == pv)
        psum = linalg_oracle.add(psum, pv)
    report.record("vertex projections sum to identity", psum == linalg_oracle.identity(n))

    try:
        hermitian, psd = True, linalg_oracle.psd_check(rep.gram)
    except ValueError:
        hermitian = psd = False
    report.record("gram hermitian", hermitian)
    report.record("gram PSD", psd)
    for arrow in double.base.arrows:
        report.record(f"adjointness {arrow.name}", scalar_adjoint_pair_ok(rep, arrow.name))
    return report


# -- moment blocks and elements -------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    a: Matrix
    c: Matrix
    b: Matrix
    old_basis: tuple[Path, ...]
    new_basis: tuple[Path, ...]


def block_decompose(functional: TruncatedFunctional) -> BlockDecomposition:
    """Split B_{L_k} over V_k = V_{k-1} (+) span(new length-k paths)."""
    full = functional.moment_matrix()
    n, m = len(functional.basis(functional.k - 1)), full.m
    return BlockDecomposition(
        m.block(0, n, 0, n), m.block(0, n, n, m.cols), m.block(n, m.rows, n, m.cols), full.basis[:n], full.basis[n:]
    )


def reassemble(blocks) -> Matrix:
    """The full matrix [[A, C], [C^H, B]] of a BlockDecomposition."""
    old_n, new_n = len(blocks.old_basis), len(blocks.new_basis)
    n = old_n + new_n
    ch = linalg_oracle.conj_transpose(blocks.c)
    ents = []
    for i in range(n):
        for j in range(n):
            if i < old_n and j < old_n:
                ents.append(blocks.a.entry(i, j))
            elif i < old_n:
                ents.append(blocks.c.entry(i, j - old_n))
            elif j < old_n:
                ents.append(ch.entry(i - old_n, j))
            else:
                ents.append(blocks.b.entry(i - old_n, j - old_n))
    return Matrix(n, n, ents)


def element_from_terms(double, pairs) -> Element:
    """The sum of (path, coefficient) pairs, adding every term to the sum so far."""
    acc: dict[Path, Scalar] = {}
    for p, c in pairs:
        if p is ZERO_PATH or c.is_zero():
            continue
        cur = acc.get(p, ZERO) + c
        if cur.is_zero():
            acc.pop(p, None)
        else:
            acc[p] = cur
    return Element(double, acc)


def element_expand_squares(squares, weights=None) -> Element:
    """sum w_i g_i g_i* as `sos.expand_squares` computed it before the integer gram:
    `Element` products, stars, scalings and sums."""
    squares = list(squares)
    if weights is None:
        weights = [ONE] * len(squares)
    if len(weights) != len(squares):
        raise InputError("weights and squares must align")
    if not squares:
        raise InputError("empty square list")
    acc = Element.zero(squares[0].double)
    for w, g in zip(weights, squares):
        if not (w.is_real() and w.re > 0):
            raise InputError("square weights must be positive rationals")
        acc = acc + (g * g.star()).scale(w)
    return acc


def element_verify_squares(target: Element, squares, d: int | None = None, weights=None) -> bool:
    """`sos.verify_squares` before the integer gram, on `element_expand_squares`.  An empty
    square list returned whether the target is zero before the weights were checked."""
    squares = list(squares)
    if d is not None:
        for g in squares:
            deg = g.degree()
            if deg is not None and deg > d:
                raise InputError(f"square of degree {deg} exceeds the bound {d}")
    if not squares:
        return target.is_zero()
    return element_expand_squares(squares, weights) == target


def truncate(f: Element, d: int) -> Element:
    if d < 0:
        raise InputError("truncation degree must be >= 0")
    return Element(f.double, {p: c for p, c in f.terms.items() if p.length() <= d})


def restrict(functional: TruncatedFunctional, t: int) -> TruncatedFunctional:
    """The order-t functional with the values of `functional` on its window."""
    if t > functional.k:
        raise InputError("cannot restrict to a larger order")
    keep = set(functional.basis(2 * t))
    vals = {p: v for p, v in functional.values.items() if p in keep}
    return TruncatedFunctional(functional.double, t, vals, functional.include_trivial, functional.order)


def riesz_eval(functional, f: Element) -> Scalar:
    """L(f): the sum of coeff(p) * value(p) over the support of f."""
    acc = ZERO
    for p, c in f.terms.items():
        acc = acc + c * functional.value(p)
    return acc


def pairing(functional, f: Element, g: Element) -> Scalar:
    """The sesquilinear moment pairing L(f g*)."""
    return riesz_eval(functional, f * g.star())


def completion_kernel_groebner(functional: TruncatedFunctional):
    """The completion of the echelon kernel basis, each element checked to pair
    to zero with the whole order-k window (InternalInvariantError if not)."""
    gb = scalar_right_groebner(functional.kernel_basis(), functional.order)
    for g in gb.elements:
        if g.degree() is None or g.degree() > functional.k:
            raise InternalInvariantError(f"Gröbner element {g} escaped the order-k window")
        for q in functional.basis(functional.k):
            if not pairing(functional, g, Element.from_path(q)).is_zero():
                raise InternalInvariantError(f"Gröbner element {g} left the kernel")
    return gb


# -- the completion on `Scalar` elements, before the integer reducer ------------


def _scalar_monic(e: Element, order) -> Element:
    _, c = e.tip(order)
    if c == ONE:
        return e
    return e.scale(ONE / c)


def left_divides(t: Path, m: Path) -> Path | None:
    """The cofactor b with m = t·b, or None when t is not a prefix of m.

    A trivial path left-divides every path originating at its vertex (with
    the whole path as cofactor); when m = t the cofactor is the trivial path
    at terminal(m).
    """
    if t.double is not m.double:
        raise InputError("paths live in different double quivers")
    if t.is_trivial() and t.origin() != m.origin():
        return None
    if m.letters[: len(t.letters)] != t.letters:
        return None
    rest = m.letters[len(t.letters) :]
    return Path(m.double, None, rest) if rest else m.double.trivial_paths()[m.terminal()]


def scalar_total_reduce(h: Element, basis: list[Element], order, trace: list | None = None) -> Element:
    """Normal form of h against monic basis elements.

    Repeatedly rewrites the largest reducible support path; each step strips
    a path m = Tip(g)·b down by h -= coeff·g·b.  The divisor is the basis
    element with the longest matching tip, ties broken by the canonical
    element order.
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
    """The nonzero g·e_v over the vertices v, in vertex order."""
    parts: dict = {}
    for p, c in g.terms.items():
        parts.setdefault(p.terminal(), {})[p] = c
    return [Element(g.double, parts[v]) for v in sorted(parts)]


def scalar_right_groebner(generators, order) -> RightGroebnerBasis:
    """The five-step completion on `Scalar` elements, pairwise tip selection included."""
    trace: list = []
    h: list[Element] = []
    seen = set()
    for g in (part for gen in generators for part in _right_parts(gen)):
        g = _scalar_monic(g, order)
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
        by_tip: dict = {}
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
            r = scalar_total_reduce(g, kept, order, trace)
            if r.is_zero():
                continue
            r = _scalar_monic(r, order)
            key = frozenset(r.terms.items())
            if key in seen:
                continue
            seen.add(key)
            nxt.append(r)
        h = nxt


# -- flatness and PSD on `Scalar` blocks, before the integer image ---------------


def flat_report(functional: TruncatedFunctional) -> FlatReport:
    """Both flatness criteria on the `Scalar` blocks of B_{L_k}, cross-asserted.

    rank B_{L_k} by elimination; rank A and the RREF solution X of A X = C by
    `solve_particular`; the block criterion as the product C^H X compared
    with B through `Matrix.__mul__` and `Matrix ==`.
    """
    blocks = block_decompose(functional)
    rank_k = linalg_oracle.rank(functional.moment_matrix().m)
    rank_km1, x = linalg_oracle.solve_particular(blocks.a, blocks.c)
    rank_flat = rank_k == rank_km1
    range_ok = x is not None
    block_flat = range_ok and blocks.b == linalg_oracle.product(linalg_oracle.conj_transpose(blocks.c), x)
    if rank_flat != block_flat:
        raise InternalInvariantError(f"flatness criteria disagree: rank says {rank_flat}, block says {block_flat}")
    return FlatReport(rank_flat, rank_k, rank_km1, range_ok)


def is_psd(functional: TruncatedFunctional) -> bool:
    """`linalg_oracle.is_hermitian` on B_{L_k}, then `Scalar` diagonal pivoting."""
    return linalg_oracle.psd_check(functional.moment_matrix().m)


# -- the one-step extension's odd-degree system, one unknown per path -----------


def paths_of_length(double, order, length: int) -> list[Path]:
    """The paths of exactly this length, in `order`: a slice of the window."""
    return [p for p in enumerate_basis(double, order, length) if p.length() == length]


def extension_odd_values(functional: TruncatedFunctional):
    """The new degree-(2k+1) values of the one-step extension, and the number
    of free variables of the system that gives them.

    Unknown z_m = u_m + i v_m for every path m of length 2k+1, columns
    [u | v]; two real rows per kernel-propagation equation L(p g*) = 0 (g a
    kernel element, p a path of length k+1), then u_{m*} = u_m and
    v_{m*} = -v_m as two rows per star pair.  Solved in reduced echelon form
    with free variables zero; the values are None when the system is
    inconsistent.
    """
    k = functional.k + 1
    odd = paths_of_length(functional.double, functional.order, 2 * k - 1)
    index = {m: j for j, m in enumerate(odd)}
    n = len(odd)
    rows, rhs = [], []
    for g in functional.kernel_basis():
        for p in paths_of_length(functional.double, functional.order, k):
            re_row, im_row = [Fraction(0)] * (2 * n), [Fraction(0)] * (2 * n)
            known, touched = ZERO, False
            for q, cq in g.terms.items():
                pq = compose(p, q.star())
                if pq is ZERO_PATH:
                    continue
                c = cq.conjugate()
                if pq.length() < 2 * k - 1:
                    known = known + c * functional.value(pq)
                    continue
                j, touched = index[pq], True
                re_row[j] += c.re
                re_row[n + j] -= c.im
                im_row[j] += c.im
                im_row[n + j] += c.re
            if touched or not known.is_zero():
                rows += [re_row, im_row]
                rhs += [-known.re, -known.im]
    for m, j in index.items():
        js = index[m.star()]
        if js > j:
            for a, b, sign in ((j, js, -1), (n + j, n + js, 1)):
                row = [Fraction(0)] * (2 * n)
                row[a], row[b] = Fraction(1), Fraction(sign)
                rows.append(row)
                rhs.append(Fraction(0))
    solution = linalg_oracle.solve_canonical(rows, rhs, 2 * n)
    free = 2 * n - linalg_oracle.rank(Matrix(len(rows), 2 * n, [Scalar(x) for row in rows for x in row]))
    if solution is None:
        return None, free
    return {m: Scalar(solution[j], solution[n + j]) for m, j in index.items()}, free


def scalar_flat_extend_tip_maximal(
    functional: TruncatedFunctional,
    allow_general_quiver: bool = False,
) -> TruncatedFunctional:
    """`flat_extend_tip_maximal` on `Path` keys, `Fraction` rows and `Scalar` matrices.

    One unknown per star pair, held at the later member; the [u | v] system
    is built in full on real data too and solved by `linalg_oracle.solve_particular`;
    the top block is C^H X with X from one more `solve_particular`, formed as
    a `Matrix` product; the values go through the `Path`-keyed constructor.
    Same checks, in the same order, with the same errors.  Its result is
    then pivoted once more and refused if not flat, a check the integer
    route does without: there A X = C is certified, which makes the result
    flat (Šmul'jan 1959).
    """
    free_algebra = functional.double.n_vertices() == 1
    if not free_algebra and not allow_general_quiver:
        raise InputError(
            "one-step extension is proved for free *-algebras only; "
            "pass allow_general_quiver=True to apply it to this quiver"
        )
    if not functional.is_tip_maximal():
        raise InputError("flat_extend_tip_maximal requires a tip-maximal functional")

    k = functional.k + 1
    double = functional.double
    order = functional.order
    kernel = functional.kernel_basis()
    new_paths = paths_of_length(double, order, k)
    odd_paths = paths_of_length(double, order, 2 * k - 1)
    position = {p: i for i, p in enumerate(odd_paths)}
    held = [m for m in odd_paths if position[m.star()] < position[m]]
    npairs = len(held)
    unknown: dict[Path, tuple[int, int]] = {}  # path -> (pair, sign of v)
    for j, m in enumerate(held):
        unknown[m] = (j, 1)
        unknown[m.star()] = (j, -1)

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for g in kernel:
        for p in new_paths:
            coeffs: dict[Path, Scalar] = {}
            known = ZERO
            for q, cq in g.terms.items():
                pq = compose(p, q.star())
                if pq is ZERO_PATH:
                    continue
                cst = cq.conjugate()
                if pq.length() == 2 * k - 1:
                    coeffs[pq] = coeffs.get(pq, ZERO) + cst
                else:
                    known = known + cst * functional.value(pq)
            if coeffs or not known.is_zero():
                re_row = [Fraction(0)] * (2 * npairs)
                im_row = [Fraction(0)] * (2 * npairs)
                for m, c in coeffs.items():
                    j, sign = unknown[m]
                    re_row[j] += c.re
                    re_row[npairs + j] -= sign * c.im
                    im_row[j] += c.im
                    im_row[npairs + j] += sign * c.re
                rows.extend((re_row, im_row))
                rhs.extend((-known.re, -known.im))

    system = Matrix(len(rows), 2 * npairs, [Scalar(x) for row in rows for x in row])
    solution = linalg_oracle.solve_particular(system, linalg_oracle.column([Scalar(x) for x in rhs]))[1]
    if solution is None:
        if free_algebra:
            raise InternalInvariantError("extension system inconsistent on a free *-algebra")
        raise ExtensionObstructed("one-step extension system is inconsistent")

    values = dict(functional.values)
    for m in odd_paths:
        j, sign = unknown[m]
        values[m] = Scalar(solution.entry(j, 0).re, sign * solution.entry(npairs + j, 0).re)

    base = functional.moment_matrix()

    def ent(p: Path, q: Path) -> Scalar:
        pq = compose(p, q.star())
        return ZERO if pq is ZERO_PATH else values[pq]

    c = Matrix(len(base.basis), len(new_paths), [ent(p, q) for p in base.basis for q in new_paths])
    x = linalg_oracle.solve_particular(base.m, c)[1]
    if x is None:
        if free_algebra:
            raise InternalInvariantError("range containment failed on a free *-algebra extension")
        raise ExtensionObstructed("extended C block left the range of A on this quiver")
    b = linalg_oracle.product(linalg_oracle.conj_transpose(c), x)

    for i, u in enumerate(new_paths):
        for j, v in enumerate(new_paths):
            word = compose(u, v.star())
            if word is ZERO_PATH:
                if not b.entry(i, j).is_zero():
                    raise ExtensionObstructed("Schur completion forces a nonzero value on a zero product")
                continue
            values[word] = b.entry(i, j)

    extended = TruncatedFunctional(double, k, values, functional.include_trivial, order)
    if not extended.is_flat().flat:
        if free_algebra:
            raise InternalInvariantError("one-step extension produced a non-flat functional")
        raise ExtensionObstructed("one-step extension is not flat on this quiver")
    return extended


# -- normal forms on `Scalar` before the integer fold ----------------------------

Terms = dict  # Path -> Scalar


def _sum(scaled) -> Terms:
    """The sum of c·terms over (terms, c) pairs, zero coefficients dropped."""
    acc: Terms = {}
    for terms, c in scaled:
        for r, cr in terms.items():
            v = c * cr
            acc[r] = acc[r] + v if r in acc else v
    return {r: v for r, v in acc.items() if v}


def scalar_fold(p: Path, table: dict) -> Terms:
    """Normal form of p, letter by letter, against a {tip: reduced tail} table."""
    start = p.double.trivial_paths()[p.origin()]
    acc = table.get(start, {start: ONE})
    for letter in p.letters:
        step = Path(p.double, None, (letter,))
        images = ((compose(r, step), c) for r, c in acc.items())
        acc = _sum((table.get(rc, {rc: ONE}), c) for rc, c in images if rc is not ZERO_PATH)
    return acc


def scalar_tip_table(gb) -> dict:
    """Each tip of a finished basis mapped to the `Scalar` normal form of its tail."""
    table: dict = {}
    for g in sorted(gb.elements, key=lambda e: gb.order.key(e.tip(gb.order)[0])):
        tip, lead = g.tip(gb.order)
        tail = ((q, c) for q, c in g.terms.items() if q != tip and q.terminal() == tip.terminal())
        table[tip] = _sum((scalar_fold(q, table), -c / lead) for q, c in tail)
    return table


def scalar_normal_form(f: Element, table: dict) -> Element:
    """Sum of c·NF(p) over the terms of f, by the `Scalar` fold."""
    return Element(f.double, _sum((scalar_fold(p, table), c) for p, c in f.terms.items()))


# -- decimal text of integers past the int-to-string digit limit ----------------


def digits(n: int) -> str:
    """The decimal text of n, built from 18-digit chunks without int.__str__ of n."""
    rest, chunks = abs(n), []
    while rest:
        rest, r = divmod(rest, 10**18)
        chunks.append("%018d" % r)
    text = "".join(reversed(chunks)).lstrip("0") or "0"
    return "-" + text if n < 0 else text


# -- the text parsers before the table-driven rewrite ---------------------------


def _ctx(source: str | None) -> str:
    return f"{source}: " if source else ""


def arrow_path(double, name: str) -> Path:
    """The length-1 path for an arrow of the double, by name (`b` or `b*`)."""
    starred = name.endswith("*")
    base_name = name[:-1] if starred else name
    for i, a in enumerate(double.base.arrows):
        if a.name == base_name:
            return double.path([(i, starred)])
    raise InputError(f"unknown arrow {name!r}")


def parse_path(double, text: str, source: str | None = None) -> Path:
    """Whitespace-separated arrow tokens (`*` suffix for stars), `e:NAME` trivial."""
    tokens = text.split()
    if not tokens:
        raise InputError(f"{_ctx(source)}empty path text")
    if tokens[0].startswith("e:"):
        if len(tokens) != 1:
            raise InputError(f"{_ctx(source)}trivial path token {tokens[0]!r} must stand alone")
        try:
            return double.trivial(tokens[0][2:])
        except InputError as e:
            raise InputError(f"{_ctx(source)}{e}") from None
    acc = None
    for tok in tokens:
        try:
            step = arrow_path(double, tok)
        except InputError:
            raise InputError(f"{_ctx(source)}unknown arrow {tok!r} in path {text!r}") from None
        acc = step if acc is None else compose(acc, step)
        if not acc:
            raise InputError(f"{_ctx(source)}non-composable path {text!r} at token {tok!r}")
    return acc


_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^({_RAT}(?=[+-]|$))?(({_RAT})i)?$")


def scalar_parse(text: str) -> Scalar:
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise InputError(f"empty scalar literal {text!r}")
    m = _SCALAR_RE.match(compact)
    if m is None or (m.group(1) is None and m.group(2) is None):
        raise InputError(f"malformed scalar literal {text!r}")
    try:
        re_part = Fraction(m.group(1)) if m.group(1) else Fraction(0)
        im_part = Fraction(m.group(3)) if m.group(2) else Fraction(0)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in scalar literal {text!r}") from None
    except ValueError:  # past Python's int conversion limit: refused, as the loaders do
        raise InputError(f"scalar literal of {len(text)} characters exceeds the integer digit limit") from None
    return Scalar(re_part, im_part)


# -- the functional as it was built before word keys -----------------------------


@dataclass(frozen=True)
class PathKeyedFunctional:
    window: tuple[Path, ...]
    values: dict[Path, Scalar]
    matrix: Matrix  # B_{L_k}


def compose_moment_block(value, rows, cols) -> Matrix:
    """L(p q*) over row and column paths through `compose`; zero where p q* vanishes."""
    stars = [q.star() for q in cols]
    ents = []
    for p in rows:
        for qs in stars:
            pq = compose(p, qs)
            ents.append(ZERO if pq is ZERO_PATH else value(pq))
    return Matrix(len(rows), len(cols), ents)


def path_keyed_functional(double, k, values, include_trivial=True, order=None) -> PathKeyedFunctional:
    """The window as paths, the hermitian closure through `p.star()` and `Scalar`
    comparisons of every given path, and B_{L_k} through `compose`."""
    if k < 1:
        raise InputError("functional order k must be >= 1")
    order = order or double.default_order()
    window = enumerate_basis(double, order, 2 * k, include_trivial)
    given = dict(values)
    vals = dict.fromkeys(window, ZERO)
    vals.update(given)
    if len(vals) != len(window):
        window_set = set(window)
        outside = next(p for p in given if p not in window_set)
        raise WindowError(f"path {outside} outside the length <= {2 * k} window")
    for p, v in given.items():
        ps = p.star()
        want = v.conjugate()
        have = given.get(ps)
        if have is None:
            vals[ps] = want
        elif have != want:
            raise InputError(f"hermitian conflict between {p} and {ps}")

    def value(p):
        try:
            return vals[p]
        except KeyError:
            raise WindowError(f"path {p} outside the length <= {2 * k} window") from None

    basis = [p for p in window if p.length() <= k]
    return PathKeyedFunctional(tuple(window), vals, compose_moment_block(value, basis, basis))


def load_path_keyed(data: dict, source: str | None = None) -> PathKeyedFunctional:
    """A functional file read entry by entry into paths and scalars: the path
    parser and scalar parser above, then `path_keyed_functional`."""
    if "quiver" not in data or "k" not in data:
        raise InputError(f"{_ctx(source)}functional needs 'quiver' and 'k'")
    double = build_double(Quiver(data["quiver"]["vertices"], [
        (a["name"], a["from"], a["to"]) for a in data["quiver"].get("arrows", [])
    ]))
    values = {}
    for ent in data.get("entries", []):
        ptext, vtext = ent["path"], ent["value"]
        p = parse_path(double, ptext, source)
        try:
            v = scalar_parse(vtext)
        except InputError as e:
            raise InputError(f"{_ctx(source)}{e}") from None
        if p in values and values[p] != v:
            raise InputError(f"{_ctx(source)}conflicting values for path {ptext!r}")
        values[p] = v
    try:
        return path_keyed_functional(double, data["k"], values, data.get("include_trivial", True))
    except InputError as e:
        raise type(e)(f"{_ctx(source)}{e}") from None


# -- the functional's `Scalar` route, before integer numerators ------------------


def scalar_image(functional: TruncatedFunctional) -> tuple[list[list[int]], int]:
    """B_{L_k} assembled as `Scalar` values by window position, then scaled
    back to integer rows over one denominator by `linalg._image`."""
    keys = [(p.vertex, p.letters) for p in functional.basis(functional.k)]
    vals = list(functional.values.values())
    positions = functional._products(keys, keys)
    return linalg._image(Matrix(len(keys), len(keys), [ZERO if i is None else vals[i] for i in positions]))


def scalar_verdicts(matrix: Matrix, n_km1: int) -> tuple[FlatReport, bool, bool]:
    """The flatness report, the PSD verdict and tip-maximality of a `Scalar`
    B_{L_k} whose first n_km1 rows and columns are B_{L_{k-1}}.

    Ranks by `Scalar` elimination; Ran C <= Ran A by the `Scalar` solve of
    A X = C; PSD by `Scalar` pivoting; tip-maximal iff no kernel vector is
    supported on V_{k-1}, that is iff the first n_km1 columns are
    independent.
    """
    n = matrix.rows
    a, c = matrix.block(0, n_km1, 0, n_km1), matrix.block(0, n_km1, n_km1, n)
    rank_k, rank_km1 = linalg_oracle.rank(matrix), linalg_oracle.rank(a)
    range_ok = linalg_oracle.solve_particular(a, c)[1] is not None
    tip_maximal = linalg_oracle.rank(matrix.block(0, n, 0, n_km1)) == n_km1
    report = FlatReport(rank_k == rank_km1, rank_k, rank_km1, range_ok)
    return report, linalg_oracle.psd_check(matrix), tip_maximal


# -- the whole image of B_{L_k}, before the vertex blocks --------------------------


@dataclass
class WholeRoute:
    """What the whole-image route decides: the PSD verdict, the pivot
    columns in window order, each LDL^H pivot with its weight (PSD data
    only), the flatness report, tip-maximality and the echelon kernel."""

    psd: bool
    pivots: list[int]
    weights: list[tuple[int, Fraction]]
    report: FlatReport
    tip_maximal: bool
    null: list[tuple[dict, int]]


def whole_image(functional: TruncatedFunctional) -> tuple[list[list[int]], int]:
    """B_{L_k} times the values' denominator as whole integer rows, and that
    denominator, as the functional gathered it before its vertex blocks: all
    n^2 products by window position, the zeros between vertices included;
    real parts, then imaginary parts iff some entry is non-real."""
    n = functional._end(functional.k)
    keys = functional._keys[:n]
    at = functional._products(keys, keys, -1)  # position -1 reads the appended zero
    re = list(map((functional._re + [0]).__getitem__, at))
    im = list(map((functional._im + [0]).__getitem__, at))
    if any(im):
        return [re[i * n : (i + 1) * n] + im[i * n : (i + 1) * n] for i in range(n)], functional._den
    return [re[i * n : (i + 1) * n] for i in range(n)], functional._den


def whole_ldlh(functional: TruncatedFunctional):
    """The LDL^H pivots of the whole image, in window order, or None."""
    rows, den = whole_image(functional)
    return linalg._image_psd(linalg._upper(rows), den)


def whole_route(functional: TruncatedFunctional) -> WholeRoute:
    """The verdicts and the kernel off one pivoting of the whole image, or
    off one echelon form of its conjugate when that is not PSD, the kernel
    checked against the whole conjugate image."""
    rows, _ = whole_image(functional)
    n, m = len(rows), functional._end(functional.k - 1)
    conj = [row[:n] + [-x for x in row[n:]] for row in rows] if rows and len(rows[0]) > n else rows
    ldlh = whole_ldlh(functional)
    if ldlh is None:
        top, pivots, rank_km1, range_ok = linalg._block_echelon(conj, m, n)
        null = linalg._null_terms(top, pivots, n)
    else:
        pivots = [p for p, *_ in ldlh]
        rank_km1, range_ok = sum(p < m for p in pivots), True
        null = linalg._psd_null_terms(ldlh, n)
    total = [[0, 0] for _ in range(n)]
    for terms, _ in null:
        for c, (re, im) in terms:
            total[c][0] += re
            total[c][1] += im
    assert linalg._annihilates(conj, total, n)
    keys = functional._keys
    return WholeRoute(
        ldlh is not None,
        pivots,
        [(p, w) for p, w, *_ in ldlh or []],
        FlatReport(len(pivots) == rank_km1, len(pivots), rank_km1, range_ok),
        pivots[:m] == list(range(m)),
        [({keys[c]: v for c, v in terms}, den) for terms, den in null],
    )


def whole_principal(functional: TruncatedFunctional, at) -> Matrix:
    """B_{L_k} at the window positions `at`, read off the whole image."""
    rows, den = whole_image(functional)
    n, at = len(rows), list(at)
    cols = at if not rows or len(rows[0]) == n else at + [n + c for c in at]
    return linalg._matrix([[rows[i][c] for c in cols] for i in at], den, len(at))


def whole_first_pairing(functional: TruncatedFunctional, terms: dict) -> int | None:
    """The first position j of V_k with L(g q_j*) != 0, or None, for g given
    by numerators {key: (re, im)}: the combination of whole image rows."""
    rows, _ = whole_image(functional)
    n = len(rows)
    re, im = [0] * n, [0] * n
    for key, (cr, ci) in terms.items():
        row = rows[functional._index(key)]
        br, bi = row[:n], row[n:] or [0] * n
        re = [s + cr * x - ci * y for s, x, y in zip(re, br, bi)]
        im = [s + ci * x + cr * y for s, x, y in zip(im, br, bi)]
    return next((j for j in range(n) if re[j] or im[j]), None)


def whole_psd_solve(functional: TruncatedFunctional, at: list[int], rhs: list[list[int]], ncols: int):
    """`linalg._psd_solve` of conj(B_{L_k})[at, at] X = rhs through the whole image's pivots."""
    return linalg._psd_solve(whole_ldlh(functional), at, rhs, ncols)


# -- compression by basis completion ------------------------------------------


def compress_representation(functional: TruncatedFunctional) -> Representation:
    """Finite-dimensional representation reproducing a PSD functional's moments.

    For an order d+1 functional with trivial paths, quotient the window by the
    radical of the moment form, keep right multiplication on the coset spaces
    of degree <= d, zero it on their gram-orthogonal complements, and let
    starred arrows act as gram adjoints.  The cyclic vector is the unit coset
    and L(f g*) = <tau(f) xi, tau(g) xi> holds exactly for f, g of degree <= d.
    """
    if not functional.include_trivial:
        raise InputError("compress_representation needs the trivial-path window")
    if not functional.is_psd():
        raise InputError("compress_representation requires a PSD functional")
    double = functional.double
    dp1 = functional.k
    pairing = functional.moment_matrix()

    # Degree-graded coset representatives: the pivot columns of the full
    # pairing matrix, i.e. each column that enlarges the span of the columns
    # before it.  Ascending path order makes the span of the first j degrees
    # equal the span of the chosen reps of degree <= j, which the
    # multiplication operators below rely on.
    basis = tuple(pairing.basis[j] for j in linalg_oracle.rref(pairing.m)[1])
    n = len(basis)
    gram = compose_moment_block(functional.value, basis, basis)
    ft = linalg_oracle.transpose(gram)

    def coords(q: Path) -> list[Scalar]:
        """Coordinates y of the coset [q] over the reps: F^T y = (L(q r_i*))_i."""
        rhs = linalg_oracle.transpose(compose_moment_block(functional.value, [q], basis))
        sol = linalg_oracle.solve_full_rank(ft, rhs)
        return [sol.entry(i, 0) for i in range(n)]

    low = {i for i, r in enumerate(basis) if r.length() <= dp1 - 1}

    arrows: dict[str, Matrix] = {}
    for ai, arrow in enumerate(double.base.arrows):
        letter = (ai, False)
        src = double.source[letter]
        block = [i for i, r in enumerate(basis) if r.terminal() == src]
        k_idx = [i for i in block if i in low]
        # Gram-orthogonal complement of the K-space inside the block:
        # vectors v with inner(v, e_u) = sum_i v_i gram[i][u] = 0 per kept u.
        if k_idx and len(block) > len(k_idx):
            cons = Matrix(
                len(k_idx),
                len(block),
                [gram.entry(i, u) for u in k_idx for i in block],
            )
            comp = linalg_oracle.nullspace(cons)
        elif k_idx:
            comp = []
        else:
            comp = [
                tuple(ONE if b == bi else ZERO for b in range(len(block)))
                for bi in range(len(block))
            ]
        t_cols: list[list[Scalar]] = []
        images: list[list[Scalar]] = []
        for u in k_idx:
            vec = [ZERO] * n
            vec[u] = ONE
            t_cols.append(vec)
            pc = compose(basis[u], double.path([letter]))
            images.append([ZERO] * n if pc is ZERO_PATH else coords(pc))
        for w in comp:
            vec = [ZERO] * n
            for bi, i in enumerate(block):
                vec[i] = w[bi]
            t_cols.append(vec)
            images.append([ZERO] * n)
        for i in range(n):
            if i not in block:
                vec = [ZERO] * n
                vec[i] = ONE
                t_cols.append(vec)
                images.append([ZERO] * n)
        t_full = Matrix(n, n, [t_cols[j][i] for i in range(n) for j in range(n)])
        g_full = Matrix(n, n, [images[j][i] for i in range(n) for j in range(n)])
        m_b = linalg_oracle.product(g_full, linalg_oracle.solve_full_rank(t_full, linalg_oracle.identity(n)))
        arrows[arrow.name] = m_b
        # pi(b*) is the gram adjoint of pi(b).
        arrows[arrow.name + "*"] = linalg_oracle.solve_full_rank(ft, linalg_oracle.product(linalg_oracle.conj_transpose(m_b), ft))

    xi = [ZERO] * n
    for e in double.trivial_paths():
        for i, c in enumerate(coords(e)):
            xi[i] = xi[i] + c
    return Representation(double, basis, gram, arrows, _vertex_projections(double, basis), tuple(xi))
