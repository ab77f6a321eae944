"""Helpers that only the tests use: independent oracles for the package.

* the faithful embedding of the path *-algebra into matrices over the free
  *-algebra (property-test oracle for composition and the involution);
* right actions, word-order element matrices and the gram inner product of a
  representation;
* reassembly of a block decomposition, truncation of an element and the
  moment pairing L(f g*) computed through the algebra product;
* the path and scalar text parsers as they were before the table-driven
  rewrite (prefix by prefix, and `Fraction` of each part's text).
"""

from __future__ import annotations

import re
from fractions import Fraction

from quivermoment import Element, InputError, Matrix, Path, compose
from quivermoment.quiver import Letter
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
        acc = acc + rep.path_matrix_word_order(p).scale(c)
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
                m = lm if m is None else lm * m
        acc = acc + m.scale(c)
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
    cur = Matrix.column(vec)
    if p.is_trivial():
        proj = rep.vertex_projections[rep.double.vertices[p.vertex]]
        cur = proj * cur
    else:
        for letter in p.letters:
            cur = rep.letter_matrix(rep.double.letter_name(letter)) * cur
    return [cur.entry(i, 0) for i in range(rep.dim)]


def apply_right_element(rep, f: Element, vec: list[Scalar]) -> list[Scalar]:
    out = [ZERO] * rep.dim
    for p, c in f.terms.items():
        img = apply_right_word(rep, p, vec)
        out = [a + c * b for a, b in zip(out, img)]
    return out


# -- moment blocks and elements -------------------------------------------------


def reassemble(blocks) -> Matrix:
    """The full matrix [[A, C], [C^H, B]] of a BlockDecomposition."""
    old_n, new_n = len(blocks.old_basis), len(blocks.new_basis)
    n = old_n + new_n
    ch = blocks.c.conj_transpose()
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


def truncate(f: Element, d: int) -> Element:
    if d < 0:
        raise InputError("truncation degree must be >= 0")
    return Element(f.double, {p: c for p, c in f.terms.items() if p.length() <= d})


def pairing(functional, f: Element, g: Element) -> Scalar:
    """The sesquilinear moment pairing L(f g*)."""
    return functional.riesz_eval(f * g.star())


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
        return double.trivial(tokens[0][2:])
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
_SCALAR_RE = re.compile(rf"^({_RAT})?(({_RAT})i)?$")


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
    return Scalar(re_part, im_part)
