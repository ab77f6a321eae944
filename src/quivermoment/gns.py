"""Finite-dimensional *-representations from positive flat functionals.

Two constructions live here.  ``build_representation`` quotients the order-k
window by the kernel ideal of a flat PSD functional: the coset basis is the
set of window paths irreducible under the kernel Gröbner basis, the gram
matrix is the moment pairing on those cosets, and each arrow of the double
acts by right multiplication followed by the integer normal form.
``compress_representation`` cuts a finite-dimensional representation out of a
merely positive functional of order d+1: right multiplication is kept on the
low-degree coset spaces and zeroed on their gram-orthogonal complements, and
starred arrows act by the gram adjoint.  Each arrow matrix is a closed form
in the transposed gram F, M_b = F^-1 Q_b F[K,K]^-1 F[K,:] (K: the kept cosets
at source(b), Q_b: the moments L(r_u b r_i*)), so one solve of F serves all.

Matrix conventions: matrices act on column coordinate vectors; the matrix of
an arrow c maps the coset of p to the coset of p·c.  The inner product is
<u, v> = sum_{i,j} u_i conj(v_j) gram[i][j] with gram[i][j] = L(b_i b_j*).

A representation holds `Matrix` values, its I/O form.  The relation and
adjointness checks and word products read the integer image each matrix
holds (`linalg._image`) and multiply and compare integers; no `Scalar`
matrix product is formed.  Both constructions read their gram off the
functional's integer image (`TruncatedFunctional.principal`), and the
compression its systems too.  The gram, every arrow and every vertex
projection are handed over as integer images (`linalg._matrix`), so both
constructions build no `Scalar` but their cyclic vectors.
"""

from __future__ import annotations

from math import lcm

from . import linalg
from .algebra import Element
from .errors import InputError, InternalInvariantError
from .groebner import RightGroebnerBasis, kernel_groebner
from .linalg import Matrix
from .moment import TruncatedFunctional
from .quiver import ZERO_PATH, DoubleQuiver, Path, Record, compose, enumerate_basis


class Representation(Record):
    """A representation on the span of `basis`: its gram, a matrix per arrow
    name (starred ones included) and per vertex name, and its cyclic vector
    (None when it has none)."""

    _fields = ("double", "basis", "gram", "arrows", "vertex_projections", "cyclic")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def letter_matrix(self, name: str) -> Matrix:
        if name not in self.arrows:
            raise InputError(f"representation has no arrow {name!r}")
        return self.arrows[name]

    def path_matrix_word_order(self, p: Path) -> Matrix:
        """Product of letter matrices in word order (M_{w1} · ... · M_{wn})."""
        [(rows, den)] = _word_images(self, [p])
        return linalg._matrix(rows, den, self.dim)


def _adjoint_ok(mb, mbs, gram_image, gram: Matrix, n: int) -> bool:
    """M_b^H F == F M_{b*} for the integer images of M_b, M_{b*} and the gram, F = gram^T."""
    if gram.cols != n:
        raise ValueError(f"shape mismatch {n}x{n} * {gram.cols}x{gram.rows}")
    if gram.rows != n:
        raise ValueError(f"shape mismatch {n}x{gram.rows} * {n}x{n}")
    (rb, db), (rs, ds), (rg, _) = mb, mbs, gram_image
    f = linalg._transpose(rg, n)
    # over db * dg on the left and dg * ds on the right
    return linalg._equal(linalg._product(linalg._transpose(rb, n, conj=True), f, n), db, linalg._product(f, rs, n), ds)


def _word_images(rep: Representation, words) -> list[tuple[list[list[int]], int]]:
    """The integer image of each word's matrix (see `path_matrix_word_order`), in one layout.

    A word's product extends its prefix's: one integer product per word.
    """
    double, letters = rep.double, rep.double.letters()
    mats = [rep.letter_matrix(double.letter_name(x)) for x in letters]
    images = linalg._images(*mats, *rep.vertex_projections.values())
    done = {(x,): image for x, image in zip(letters, images)}  # letters -> image of their product
    for w in words:
        for t in range(2, len(w.letters) + 1):
            if w.letters[:t] not in done:
                (ra, da), (rb, db) = done[w.letters[: t - 1]], done[w.letters[t - 1 : t]]
                done[w.letters[:t]] = linalg._product(ra, rb, rep.dim), da * db
    projections = dict(zip(rep.vertex_projections, images[len(letters) :]))
    return [projections[double.vertices[w.vertex]] if w.is_trivial() else done[w.letters] for w in words]


def build_representation(functional: TruncatedFunctional) -> Representation:
    """GNS-style quotient representation of a flat PSD functional.

    Coset basis: window paths of length <= k-1 not reducible by the kernel
    Gröbner basis.  The dimension equals the rank of the order-k moment
    matrix, the gram is the moment pairing, and right multiplication by each
    arrow lands back in the basis because flatness makes every length-k path
    reducible.
    """
    report = functional.is_flat()
    if not report.flat:
        raise InputError("build_representation requires a flat functional")
    if not functional.is_psd():
        raise InputError("build_representation requires a PSD functional")
    gb = kernel_groebner(functional)
    basis = tuple(p for p in functional.basis(functional.k - 1) if not gb.reducible(p))
    # The LDL^H pivots of B_{L_k} that decided PSD index a positive definite
    # principal submatrix of rank_k paths, which is the gram (`principal`).
    pivots = functional._pivots
    window = functional.basis(functional.k)
    if basis != tuple(window[p] for p in pivots):
        raise InternalInvariantError("coset basis differs from the pivot paths of the moment matrix")
    gram = functional.principal(pivots)
    return _quotient_representation(functional.double, gb, basis, gram, functional.include_trivial)


def build_from_groebner(
    double: DoubleQuiver,
    gb: RightGroebnerBasis,
    gram: Matrix,
    include_trivial: bool = False,
) -> Representation:
    """Quotient representation reconstructed from a Gröbner basis and a gram.

    The window order k is the largest tip length; the quotient must be
    finite-dimensional over that window (every length-k path reducible),
    otherwise the input is rejected.
    """
    if not gb.elements:
        raise InputError("cannot build a representation from an empty Gröbner basis")
    k = max(e.tip(gb.order)[0].length() for e in gb.elements)
    window = enumerate_basis(double, gb.order, k - 1, include_trivial)
    basis = tuple(p for p in window if not gb.reducible(p))
    if gram.rows != len(basis) or gram.cols != len(basis):
        raise InputError(f"gram must be {len(basis)}x{len(basis)} for this quotient")
    try:  # the gram's integer image decides hermitian, then one pivoting PSD
        pivots = linalg._psd_pivots(gram)
    except ValueError:
        raise InputError("gram matrix must be hermitian") from None
    if pivots is None:
        raise InputError("gram matrix must be PSD")
    return _quotient_representation(double, gb, basis, gram, include_trivial)


def _quotient_representation(
    double: DoubleQuiver,
    gb: RightGroebnerBasis,
    basis: tuple[Path, ...],
    gram: Matrix,
    cyclic: bool,
) -> Representation:
    """The right action on the cosets of `basis`, column p of letter c the integer fold NF(p·c) of the
    tip table; with `cyclic`, the unit coset as cyclic vector, the one vector made of `Scalar`s."""
    table, n = gb.tip_table, len(basis)
    index = {(p.vertex, p.letters): i for i, p in enumerate(basis)}

    def coords(terms, den) -> tuple[list[tuple[int, int, int]], int]:
        """A normal form as (basis index, re, im) over its denominator."""
        for q in terms:
            if q not in index:
                raise InputError(
                    f"quotient is not finite-dimensional over the window (irreducible path {Path(double, *q)} "
                    "escapes the coset basis)"
                )
        return [(index[q], re, im) for q, (re, im) in terms.items()], den

    arrows: dict[str, Matrix] = {}
    for letter in double.letters():
        start = double.source[letter]
        cols = [coords(*table.fold((None, p.letters + (letter,)))) if p.terminal() == start else ([], 1) for p in basis]
        den = lcm(*(d for _, d in cols))
        image = [[0] * (2 * n) for _ in range(n)]
        for j, (col, d) in enumerate(cols):
            for i, re, im in col:
                image[i][j], image[i][n + j] = re * (den // d), im * (den // d)
        arrows[double.letter_name(letter)] = linalg._matrix(image, den, n)

    xi = None
    if cyclic:  # NF of the unit, the sum of the trivial paths
        unit = {(v, ()): (1, 0) for v in range(len(double.vertices))}
        col, den = coords(*table._keyed(*table._nf(unit, 1, {})))
        at = {i: (re, im) for i, re, im in col}
        xi = tuple(linalg._scalar(*at.get(i, (0, 0)), den) for i in range(n))
    return Representation(double, basis, gram, arrows, _vertex_projections(double, basis), xi)


def _vertex_projections(double: DoubleQuiver, basis: tuple[Path, ...]) -> dict[str, Matrix]:
    """Per vertex v, the diagonal 0/1 matrix selecting the basis paths ending at v."""
    n = len(basis)
    return {
        v: linalg._matrix([[int(i == j and basis[i].terminal() == vi) for j in range(n)] for i in range(n)], 1, n)
        for vi, v in enumerate(double.vertices)
    }


# -- compression of a positive (not necessarily flat) functional -------------


def compress_representation(functional: TruncatedFunctional) -> Representation:
    """Finite-dimensional representation reproducing a PSD functional's moments.

    For an order d+1 functional with trivial paths, quotient the window by the
    radical of the moment form, keep right multiplication on the coset spaces
    of degree <= d, zero it on their gram-orthogonal complements, and let
    starred arrows act as gram adjoints.  The cyclic vector is the unit coset
    and L(f g*) = <tau(f) xi, tau(g) xi> holds exactly for f, g of degree <= d.

    The coset reps r_i are the window paths that are not kernel tips (the
    pivot columns of B_{L_{d+1}}, read off the pivoting that decides PSD), so
    the reps of degree <= j span the cosets of degree <= j.  With F = gram^T
    (hermitian, invertible), K the reps of length <= d ending at source(b),
    Q_b[i][u] = L(r_u b r_i*) and S_b = F[K,K]^-1 F[K,:] (the gram-orthogonal
    projection onto the K cosets):

        M_b = F^-1 Q_b S_b,   M_{b*} = F^-1 S_b^H Q_b^H,   cyclic = F^-1 (L(r_i*))_i,

    with M_b = M_{b*} = 0 when K is empty.  F^-1 S_b^H = F^-1 F[:,K] F[K,K]^-1
    is F[K,K]^-1 in the rows of K, so M_{b*} is F[K,K]^-1 Q_b^H there and zero
    elsewhere, from the same solve as S_b.  One solve of F takes every Q_b and
    the unit.

    Every system is read off the integer image of B_{L_{d+1}} by window
    position, with P the reps' positions: F is conj(image) at P x P, the
    row of Q_b^T at u is the image row at r_u b, read at P, and L(r_i*) is
    the image row at the trivial path at r_i's end, read at P_i.  The gram
    is B_{L_{d+1}} at P (`principal`).  Every system is a substitution
    through the LDL^H pivots that decided PSD, block by block
    (`TruncatedFunctional._psd_solve`): those of P factor F, and those of K
    factor F[K,K], since K lies in one vertex's block and the reps of length
    d+1 come after K.
    Nothing is eliminated, and only the results become `Scalar`s.
    """
    if not functional.include_trivial:
        raise InputError("compress_representation needs the trivial-path window")
    if not functional.is_psd():
        raise InputError("compress_representation requires a PSD functional")
    double = functional.double
    real, size = functional._real, functional._end(functional.k)
    image: dict[int, list[int]] = {}  # image rows by window position, rebuilt from the blocks once each
    pos = functional._pivots  # P, the window positions of the reps
    window = functional.basis(functional.k)
    basis = tuple(window[p] for p in pos)
    n = len(basis)

    def row(*parts) -> list[int]:
        """One integer row in the image's layout: per part (i, cols, sign), image row i
        at window positions cols, its imaginary parts times sign."""
        for i, _, _ in parts:
            if i not in image:
                image[i] = functional._entries([i], range(size))[0]
        re = [image[i][c] for i, cols, _ in parts for c in cols]
        return re if real else re + [sign * image[i][size + c] for i, cols, sign in parts for c in cols]

    arrows: dict[str, Matrix] = {}
    kept = []  # (name, first column of Q_b in the solve of F, S_b, its denominator) per arrow with nonempty K
    q_at = []  # the window position of r_u b, per kept arrow b and u in its K
    for ai, arrow in enumerate(double.base.arrows):
        arrows[arrow.name] = arrows[arrow.name + "*"] = Matrix.zeros(n, n)
        b = double.path([(ai, False)])
        k_idx = [i for i, r in enumerate(basis) if r.terminal() == b.origin() and r.length() < functional.k]
        if not k_idx:
            continue
        at = [functional._index((None, basis[u].letters + b.letters)) for u in k_idx]
        # F[K,K] X = [F[K,:] | conj(Q_b^T)] with F = conj(image) at P x P: X = [S_b | F[K,K]^-1 Q_b^H]
        kk = [pos[u] for u in k_idx]
        xs, sx = functional._psd_solve(kk, [row((p, pos, -1), (j, pos, -1)) for p, j in zip(kk, at)], 2 * n)
        star = [[0] * (n if real else 2 * n) for _ in range(n)]
        for u, x in zip(k_idx, xs):
            star[u] = _cut(x, n, 2 * n, 2 * n)
        arrows[arrow.name + "*"] = linalg._matrix(star, sx, n)
        kept.append((arrow.name, len(q_at), [_cut(x, 0, n, 2 * n) for x in xs], sx))
        q_at += at
    # F Y = [Q_b ... | unit]: Q_b[i][u] = L(r_u b r_i*), and the unit's entry i is L(r_i*)
    units = [functional._index((r.terminal(), ())) for r in basis]
    m = len(q_at) + 1
    ys, sy = functional._psd_solve(pos, [row(*((j, [p], 1) for j in q_at + [e])) for p, e in zip(pos, units)], m)
    for name, c, s_b, sx in kept:
        y_b = [_cut(y, c, c + len(s_b), m) for y in ys]
        arrows[name] = linalg._matrix(linalg._product(y_b, s_b, n), sy * sx, n)
    cyclic = linalg._matrix([_cut(y, m - 1, m, m) for y in ys], sy, 1).entries
    gram = functional.principal(pos)
    return Representation(double, basis, gram, arrows, _vertex_projections(double, basis), cyclic)


def _cut(row: list[int], c0: int, c1: int, ncols: int) -> list[int]:
    """Columns c0..c1-1 of an integer row of ncols columns, in either layout (see `linalg._image`)."""
    return row[c0:c1] + row[ncols + c0 : ncols + c1]


# -- diagnostics --------------------------------------------------------------


class RelationReport:
    """The named checks of `check_relations` in the order they ran, each passed or not."""

    def __init__(self):
        self.checks: list[tuple[str, bool]] = []

    def record(self, name: str, ok: bool) -> None:
        self.checks.append((name, ok))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def check_relations(rep: Representation) -> RelationReport:
    """Verify the path relations, adjointness, and gram positivity.

    The generator family is the trivial paths plus all arrows of the double;
    products are taken in the right-action sense, so X_c2 X_c1 realizes right
    multiplication by the path c1 c2 and must vanish exactly when that path
    does.  Each matrix's integer image is read once, all in one layout (the
    real one iff every image held is real), so every product is an integer
    product and every comparison an integer one.
    """
    report = RelationReport()
    double = rep.double
    n = rep.dim
    gens: list[tuple[str, Path, Matrix]] = []
    for v in double.vertices:
        gens.append((f"e:{v}", double.trivial(v), rep.vertex_projections[v]))
    for letter in double.letters():
        name = double.letter_name(letter)
        gens.append((name, double.path([letter]), rep.letter_matrix(name)))
    mats = [m for *_, m in gens] + [rep.gram]
    real = all(m._real() for m in mats)
    *images, gram = (linalg._image(m, real) for m in mats)

    for (name1, p1, _), (r1, d1) in zip(gens, images):
        for (name2, p2, _), (r2, d2) in zip(gens, images):
            p = compose(p1, p2)
            # m2 * m1 over d2 * d1: the right action of p1, then of p2
            if p is ZERO_PATH:
                report.record(f"zero product {name1}·{name2}", not any(map(any, linalg._product(r2, r1, n))))
            elif p == p1 or p == p2:
                name, (rows, d) = (name1, (r1, d1)) if p == p1 else (name2, (r2, d2))
                same = linalg._equal(linalg._product(r2, r1, n), d2 * d1, rows, d)
                report.record(f"absorption {name1}·{name2} = {name}", same)

    projections = images[: len(double.vertices)]
    den = lcm(*(d for _, d in projections))
    psum = [[0] * (n if real else 2 * n) for _ in range(n)]  # over den
    for v, (rows, d) in zip(double.vertices, projections):
        report.record(f"idempotent e:{v}", linalg._equal(linalg._product(rows, rows, n), d * d, rows, d))
        psum = [[s + x * (den // d) for s, x in zip(srow, row)] for srow, row in zip(psum, rows)]
    identity = [[int(i == j) for j in range(len(row))] for i, row in enumerate(psum)]
    report.record("vertex projections sum to identity", linalg._equal(psum, den, identity, 1))

    tri = linalg._upper(gram[0]) if rep.gram.rows == rep.gram.cols else None
    hermitian = tri is not None
    psd = hermitian and linalg._image_psd(tri, gram[1]) is not None
    report.record("gram hermitian", hermitian)
    report.record("gram PSD", psd)
    named = {name: image for (name, *_), image in zip(gens, images)}  # letters come after the vertices
    for arrow in double.base.arrows:
        ok = _adjoint_ok(named[arrow.name], named[arrow.name + "*"], gram, rep.gram, n)
        report.record(f"adjointness {arrow.name}", ok)
    return report


def rep_kernel(rep: Representation, d: int, include_trivial: bool = False) -> list[Element]:
    """Echelon basis of the degree <= d elements acting as the zero matrix.

    The action of a word is the product of its letter matrices taken in word
    order, which is how the quotient operators are composed in the worked
    kernel computations.
    """
    if d < 1:
        raise InputError("rep_kernel needs degree >= 1")
    order = rep.double.default_order()
    words = enumerate_basis(rep.double, order, d, include_trivial)
    if not words:
        return []
    n, images = rep.dim, _word_images(rep, words)
    den = lcm(*(dw for _, dw in images))
    # one row per word, its entries over den with the real parts first; the system is the transpose
    cuts = (slice(n), slice(n, None))
    flat = [[x * (den // dw) for cut in cuts for row in rows for x in row[cut]] for rows, dw in images]
    rows, ncols = linalg._transpose(flat, n * n), len(words)
    null = linalg._null_terms(rows, linalg._gauss_jordan(rows, ncols), ncols)
    return [
        Element.from_terms(rep.double, [(words[c], linalg._scalar(re, im, den)) for c, (re, im) in terms])
        for terms, den in null
    ]
