"""A vector state of a quiver on plain integers: L(w) = <T_w xi, xi>.

Standard library only, and nothing from quivermoment, so it is an oracle
independent of the package.  Each arrow a: s -> t acts by a random
Gaussian-integer matrix T_a from the space at s to the space at t, and a*
by its conjugate transpose; T_w applies the letters of w left to right, and
L(w) = xi_t^H T_w xi_s for the path w from s to t.  A Gaussian integer is a
pair (re, im) of ints.  Such a state is positive, and flat at order k once
the paths of length <= k - 1 already span every space T_w xi reaches.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


class VectorState:
    def __init__(self, quiver: dict, dims: dict[str, int], seed: int, gaussian: bool, bound: int = 2):
        rng = random.Random(seed)

        def draw() -> tuple[int, int]:
            return rng.randint(-bound, bound), rng.randint(-bound, bound) if gaussian else 0

        self.quiver = quiver
        self.ends: dict[str, tuple[str, str]] = {}  # token -> (source, target)
        self.maps: dict[str, list[list[tuple[int, int]]]] = {}
        for a in quiver["arrows"]:
            name, s, t = a["name"], a["from"], a["to"]
            m = [[draw() for _ in range(dims[s])] for _ in range(dims[t])]
            self.maps[name] = m
            self.maps[name + "*"] = [[(x, -y) for x, y in col] for col in zip(*m)]
            self.ends[name], self.ends[name + "*"] = (s, t), (t, s)
        self.xi = {v: [draw() for _ in range(dims[v])] for v in quiver["vertices"]}

    def value(self, text: str) -> tuple[int, int]:
        """L at a path text: arrow tokens, or "e:VERTEX" for a trivial path."""
        tokens = text.split()
        if tokens[0].startswith("e:"):
            start, tokens = tokens[0][2:], []
        else:
            start = self.ends[tokens[0]][0]
        vec, end = self.xi[start], start
        for token in tokens:
            vec = [_dot(row, vec) for row in self.maps[token]]
            end = self.ends[token][1]
        return _dot([(x, -y) for x, y in self.xi[end]], vec)

    def paths(self, length: int, include_trivial: bool) -> list[str]:
        """Every path text of at most this length."""
        out = [f"e:{v}" for v in self.quiver["vertices"]] if include_trivial else []
        layer = [[t] for t in self.ends]
        for _ in range(length):
            out.extend(" ".join(w) for w in layer)
            layer = [w + [t] for w in layer for t in self.ends if self.ends[t][0] == self.ends[w[-1]][1]]
        return out

    def functional(self, k: int, include_trivial: bool) -> dict:
        """The functional file of the state's order-k truncation."""
        entries = [{"path": p, "value": _text(self.value(p))} for p in self.paths(2 * k, include_trivial)]
        return {"quiver": self.quiver, "k": k, "include_trivial": include_trivial, "entries": entries}


def _dot(row: list[tuple[int, int]], vec: list[tuple[int, int]]) -> tuple[int, int]:
    re = im = 0
    for a, b in zip(row, vec):
        x, y = _mul(a, b)
        re, im = re + x, im + y
    return re, im


def _text(v: tuple[int, int]) -> str:
    re, im = v
    return str(re) if im == 0 else f"{re}{'+' if im > 0 else '-'}{abs(im)} i"


def parse_value(text: str) -> tuple[Fraction, Fraction]:
    """A printed scalar, "p/q" or "p/q+r/s i", as (re, im)."""
    m = re.fullmatch(r"(-?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?) i)?", text)
    if m is None:
        raise ValueError(f"not a scalar: {text!r}")
    return Fraction(m.group(1)), Fraction(m.group(2) or 0)
