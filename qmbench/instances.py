"""Seeded benchmark instances and the oracle that checks the CLI's answers.

Everything here is plain ``int``/``Fraction`` code and imports nothing from
``quivermoment``: every instance is a vector state of an integer
representation, L(p) = <T_p xi_o(p), xi_t(p)>, and the oracle knows that
representation.  A bug in the package therefore cannot make the reference
agree with it.

Path conventions match the CLI's text format: a path is a word of letters
read left to right (``x y*``), letter ``c`` maps vertex ``src(c)`` to
``dst(c)``, a starred letter runs its arrow backwards, and ``e:NAME`` is the
trivial path at a vertex.  Internally a path is ``(origin, letters)`` with
letters ``(arrow index, starred)``.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

_SCALAR = re.compile(r"^([+-]?\d+(?:/\d+)?)?(?:([+-]?\d+(?:/\d+)?)i)?$")


def parse_scalar(text: str) -> tuple[Fraction, Fraction]:
    """A CLI scalar literal as (real, imaginary); ValueError when malformed."""
    m = _SCALAR.match(re.sub(r"\s+", "", str(text)))
    if m is None or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"malformed scalar {text!r}")
    return Fraction(m.group(1) or 0), Fraction(m.group(2) or 0)


def real_scalar(text: str) -> Fraction:
    """A scalar that must be real: every instance here has real data."""
    re_part, im_part = parse_scalar(text)
    if im_part:
        raise ValueError(f"non-real scalar {text!r} for real data")
    return re_part


def scalar_bits(text: str) -> int:
    """Largest numerator/denominator bit length of a scalar literal."""
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for x in parse_scalar(text)
    )


class Quiver:
    """A quiver given by vertex names and (name, source, target) arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.letters = [(i, st) for i in range(len(self.arrows)) for st in (False, True)]
        self._by_name = {self.letter_name(l): l for l in self.letters}

    def to_dict(self) -> dict:
        return {
            "vertices": self.vertices,
            "arrows": [{"name": n, "from": s, "to": t} for n, s, t in self.arrows],
        }

    def letter_name(self, letter) -> str:
        i, st = letter
        return self.arrows[i][0] + ("*" if st else "")

    def src(self, letter) -> int:
        _, s, t = self.arrows[letter[0]]
        return self.vindex[t if letter[1] else s]

    def dst(self, letter) -> int:
        _, s, t = self.arrows[letter[0]]
        return self.vindex[s if letter[1] else t]

    def terminal(self, path) -> int:
        origin, letters = path
        return self.dst(letters[-1]) if letters else origin

    def text(self, path) -> str:
        origin, letters = path
        if not letters:
            return "e:" + self.vertices[origin]
        return " ".join(self.letter_name(l) for l in letters)

    def parse(self, text: str):
        tokens = text.split()
        if len(tokens) == 1 and tokens[0].startswith("e:"):
            return (self.vindex[tokens[0][2:]], ())
        letters = tuple(self._by_name[t] for t in tokens)
        for a, b in zip(letters, letters[1:]):
            if self.dst(a) != self.src(b):
                raise ValueError(f"non-composable path {text!r}")
        return (self.src(letters[0]), letters)

    def star(self, path):
        origin, letters = path
        if not letters:
            return path
        flipped = tuple((i, not st) for i, st in reversed(letters))
        return (self.src(flipped[0]), flipped)

    def compose(self, p, q):
        """p then q, or None when the endpoints do not meet."""
        if self.terminal(p) != q[0]:
            return None
        return (p[0], p[1] + q[1])

    def window(self, max_len: int, include_trivial: bool) -> list:
        """Every path of length <= max_len (trivial paths optional)."""
        level = [(v, ()) for v in range(len(self.vertices))]
        out = list(level) if include_trivial else []
        for _ in range(max_len):
            level = [
                (o, ls + (l,))
                for o, ls in level
                for l in self.letters
                if self.src(l) == self.terminal((o, ls))
            ]
            out.extend(level)
        return out

    def random_path(self, rng: random.Random, length: int):
        origin = rng.randrange(len(self.vertices))
        letters = []
        at = origin
        for _ in range(length):
            c = rng.choice([l for l in self.letters if self.src(l) == at])
            letters.append(c)
            at = self.dst(c)
        return (origin, tuple(letters))


TWO_LOOPS = Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")])
TWO_VERTEX = Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")])
ONE_LOOP = Quiver(["e"], [("x", "e", "e")])


def _matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def rank_of(vectors) -> int:
    """Exact rank of a list of equal-length rational vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / p[col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], p)]
        rank += 1
    return rank


class VectorState:
    """L(p) = <T_p xi_o(p), xi_t(p)> for integer arrow maps and vectors xi.

    Hermitian and PSD by construction; its moment matrix of order t is the
    Gram matrix of the vectors T_p xi over the order-t window, so its rank
    is the dimension of their span.
    """

    def __init__(self, quiver: Quiver, dims, rng: random.Random, lo: int = -3, hi: int = 3):
        self.quiver = quiver
        self.dims = list(dims)
        self.maps = {}
        for i, (_, s, t) in enumerate(quiver.arrows):
            rows, cols = self.dims[quiver.vindex[t]], self.dims[quiver.vindex[s]]
            m = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
            self.maps[(i, False)] = m
            self.maps[(i, True)] = [list(col) for col in zip(*m)]
        self.xi = [[rng.randint(lo, hi) for _ in range(d)] for d in self.dims]
        self._vec = {}

    def vec(self, path) -> list[int]:
        """T_p xi_o(p), a vector at the terminal vertex of p."""
        hit = self._vec.get(path)
        if hit is not None:
            return hit
        origin, letters = path
        if not letters:
            out = self.xi[origin]
        elif len(letters) > 64:  # long evaluate words: no memo of every prefix
            out = self.xi[origin]
            for l in letters:
                out = _matvec(self.maps[l], out)
            return out
        else:
            out = _matvec(self.maps[letters[-1]], self.vec((origin, letters[:-1])))
        self._vec[path] = out
        return out

    def embedded(self, path) -> list[int]:
        """T_p xi placed in the direct sum of the vertex spaces."""
        out = []
        t = self.quiver.terminal(path)
        for v, d in enumerate(self.dims):
            out.extend(self.vec(path) if v == t else [0] * d)
        return out

    def value(self, path) -> int:
        v = self.vec(path)
        return sum(a * b for a, b in zip(v, self.xi[self.quiver.terminal(path)]))

    def pair(self, f, g) -> int:
        """L(f g*), zero when f g* is not a path."""
        w = self.quiver.compose(f, self.quiver.star(g))
        return 0 if w is None else self.value(w)

    def rank(self, paths) -> int:
        return rank_of([self.embedded(p) for p in paths])

    def functional_dict(self, k: int, include_trivial: bool) -> dict:
        q = self.quiver
        return {
            "quiver": q.to_dict(),
            "k": k,
            "include_trivial": include_trivial,
            "entries": [
                {"path": q.text(p), "value": str(self.value(p))}
                for p in q.window(2 * k, include_trivial)
            ],
        }


def draw_state(quiver: Quiver, dims, k: int, include_trivial: bool, rng: random.Random):
    """A vector state whose order-(k-1) window already spans all of sum(dims)."""
    window = quiver.window(k - 1, include_trivial)
    for _ in range(100):
        state = VectorState(quiver, dims, rng)
        if state.rank(window) == sum(dims):
            return state
    raise RuntimeError(f"no spanning state for dims {dims}")


def dumps(data) -> str:
    return json.dumps(data, indent=1) + "\n"


# -- checks against the oracle --------------------------------------------------


def annihilates(state: VectorState, element: dict) -> bool:
    """sum_p c_p T_p xi == 0: the element is in the kernel of the moment form."""
    total = [Fraction(0)] * sum(state.dims)
    for term in element["terms"]:
        c = real_scalar(term["coeff"])
        for i, x in enumerate(state.embedded(state.quiver.parse(term["path"]))):
            if x:
                total[i] += c * x
    return not any(total)


def representation_reproduces(state: VectorState, rep: dict, degree: int) -> bool:
    """<tau(f) xi, tau(g) xi> == L(f g*) for every path f, g of length <= degree.

    tau(f) applies the letter matrices of f first to last (the right action),
    and the inner product is sum_ij u_i v_j gram[i][j] over real data.
    """
    q = state.quiver
    mats = {
        name: [[real_scalar(x) for x in row] for row in rows]
        for name, rows in {**rep["arrows"], **rep["vertices"]}.items()
    }
    gram = [[real_scalar(x) for x in row] for row in rep["gram"]]
    xi = [real_scalar(x) for x in rep["cyclic"]]

    def act(path):
        origin, letters = path
        if not letters:
            return _matvec(mats[q.vertices[origin]], xi)
        out = xi
        for l in letters:
            out = _matvec(mats[q.letter_name(l)], out)
        return out

    paths = q.window(degree, True)
    images = [act(p) for p in paths]
    gram_images = [_matvec(gram, v) for v in images]
    for f, u in zip(paths, images):
        for g, gv in zip(paths, gram_images):
            # sum_ij u_i v_j gram[i][j] = u . (gram v)
            if sum(a * b for a, b in zip(u, gv)) != state.pair(f, g):
                return False
    return True


def functional_matches(state: VectorState, data: dict, k: int, include_trivial: bool) -> bool:
    """A functional file holds exactly the state's nonzero values on its window."""
    q = state.quiver
    if data.get("k") != k or bool(data.get("include_trivial")) != include_trivial:
        return False
    got = {e["path"]: real_scalar(e["value"]) for e in data["entries"]}
    want = {}
    for p in q.window(2 * k, include_trivial):
        v = state.value(p)
        if v:
            want[q.text(p)] = v
    return got == want


def gram_certificate(state: VectorState, degree: int) -> dict:
    """An SOS certificate with the order-`degree` moment matrix as its Gram."""
    q = state.quiver
    basis = q.window(degree, True)
    target: dict = {}
    for p in basis:
        for r in basis:
            w = q.compose(p, q.star(r))
            if w is not None:
                target[w] = target.get(w, 0) + state.pair(p, r)
    terms = [{"path": q.text(w), "coeff": str(c)} for w, c in target.items() if c]
    return {
        "quiver": q.to_dict(),
        "target": {"terms": terms},
        "degree": degree,
        "basis": [q.text(p) for p in basis],
        "gram": [[str(state.pair(p, r)) for r in basis] for p in basis],
    }


def tampered(cert: dict, index: int) -> dict:
    """The certificate with one target coefficient raised by one."""
    terms = [dict(t) for t in cert["target"]["terms"]]
    terms[index]["coeff"] = str(real_scalar(terms[index]["coeff"]) + 1)
    return {**cert, "target": {"terms": terms}}
