"""A functional held as integer numerators against the `Scalar` route it replaced.

`fileio.functional_from_dict` reads each value literal straight to
Gaussian-integer numerators over a denominator, holds the window's values
over one common denominator, and gathers the integer image of B_{L_k} by
window position.  `oracles.load_path_keyed` reads each literal into a
`Scalar`, closes the values through `p.star()` with `Scalar` comparisons and
builds B_{L_k} as a `Scalar` matrix through `compose`.  On every file both
must raise the same error class with the same message, or give the same
values, moment matrices and principal submatrices of B_{L_k}, an integer
image equal to the `Scalar` B_{L_k} scaled back to integers, and the same
flat, PSD and tip-maximal verdicts.  Literals are integers, rationals and
Gaussian rationals over mixed denominators, written in and out of lowest
terms, so equal values often have different texts.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quivermoment import Quiver, Scalar, WindowError, build_double, enumerate_basis, linalg
from quivermoment.fileio import functional_from_dict, quiver_to_dict

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
SOURCE = "f.json"

QUIVERS = {
    "one_loop": Quiver(["e"], [("x", "e", "e")]),
    "two_loops": Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")]),
    "a2": Quiver(["e1", "e2"], [("x", "e1", "e2")]),
    "xyz": Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")]),
}
MAX_K = {"one_loop": 3, "two_loops": 2, "a2": 3, "xyz": 2}
DENOMINATORS = [1, 1, 2, 3, 4, 6, 9, 25]


def rationals():
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


def spell(draw, v: Scalar) -> str:
    """A literal of v: each part over its own denominator, maybe scaled out of lowest terms."""

    def part(x: Fraction, sign: bool) -> str:
        f = draw(st.sampled_from([1, 1, 2, 3]))
        num, den = x.numerator * f, x.denominator * f
        text = str(num) if den == 1 and draw(st.booleans()) else f"{num}/{den}"
        return ("+" if sign and num >= 0 else "") + text

    if not v.im and draw(st.integers(0, 3)):
        return part(v.re, False)
    space = draw(st.sampled_from(["", " "]))
    im = part(v.im, True) + space + "i"
    if not v.re and draw(st.booleans()):
        return im.lstrip("+")
    return part(v.re, False) + space + im


@st.composite
def functional_files(draw):
    name = draw(st.sampled_from(sorted(QUIVERS)))
    double = build_double(QUIVERS[name])
    k = draw(st.integers(1, MAX_K[name]))
    include_trivial = draw(st.booleans())
    complex_ = draw(st.booleans())
    paths = enumerate_basis(double, double.default_order(), 2 * k + 1, include_trivial)
    window = [p for p in paths if p.length() <= 2 * k]
    longer = [p for p in paths if p.length() > 2 * k]

    def scalar(real=False):
        return Scalar(draw(rationals()), 0 if real or not complex_ else draw(rationals()))

    entries, seen = [], set()
    for p in draw(st.lists(st.sampled_from(window), unique=True, max_size=14)) if window else []:
        if p in seen:
            continue
        seen.update((p, p.star()))
        fault = draw(st.integers(0, 9)) == 1  # a hermitian conflict
        if p == p.star():
            # A path that is its own star must carry a real value.
            entries.append((p, scalar(real=True) + (Scalar(0, Fraction(1, 3)) if fault else Scalar(0))))
            continue
        v = scalar()
        entries.append((p, v))
        # The star partner: given in conflict, given consistently, or omitted.
        if fault:
            entries.append((p.star(), v.conjugate() + Scalar(Fraction(1, 2))))
        elif draw(st.booleans()):
            entries.append((p.star(), v.conjugate()))
    # Rarer: a path outside the window; a repeated entry with an equal value
    # (spelled anew) or a differing one.
    if longer and draw(st.integers(0, 5)) == 1:
        entries.append((draw(st.sampled_from(longer)), scalar()))
    if entries and draw(st.integers(0, 2)) == 1:
        p, v = draw(st.sampled_from(entries))
        entries.append((p, v if draw(st.booleans()) else v + Scalar(0, Fraction(1, 4))))
    entries = draw(st.permutations(entries))
    data = {
        "quiver": quiver_to_dict(double.base),
        "k": k,
        "include_trivial": include_trivial,
        "entries": [{"path": str(p), "value": spell(draw, v)} for p, v in entries],
    }
    # Positions for `principal`: paths of V_k, in any order, with repeats.
    vk = [p for p in window if p.length() <= k]
    at = draw(st.lists(st.sampled_from(vk), max_size=6)) if vk else []
    return data, at, longer[:1]


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as e:  # the class and the message are compared
        return (type(e), str(e))


@SETTINGS
@given(functional_files())
def test_integer_functional_matches_the_scalar_route(case):
    data, at, outside = case
    got = outcome(functional_from_dict, data, ".", SOURCE)
    want = outcome(oracles.load_path_keyed, data, SOURCE)
    if got[0] != "value" or want[0] != "value":
        assert got == want
        return
    f, pk = got[1], want[1]
    assert list(f.values.items()) == list(pk.values.items())
    assert all(f.value(p) == v for p, v in pk.values.items())
    for p in outside:
        assert outcome(f.value, p) == (WindowError, f"path {p} outside the length <= {2 * f.k} window")

    n = len(f.basis(f.k))
    for t in range(f.k + 1):
        m = len(f.basis(t))
        assert f.moment_matrix(t).m == pk.matrix.block(0, m, 0, m)

    basis = f.basis(f.k)
    assert f.principal(map(basis.index, at)) == oracles.compose_moment_block(pk.values.__getitem__, at, at)

    (rows_i, den_i), (rows_s, den_s) = (f._entries(range(n), range(n)), f._image[1]), oracles.scalar_image(f)
    assert [len(r) for r in rows_i] == [len(r) for r in rows_s]
    assert linalg._equal(rows_i, den_i, rows_s, den_s)

    report, psd, tip_maximal = oracles.scalar_verdicts(pk.matrix, len(f.basis(f.k - 1)))
    assert f.is_flat() == report
    assert f.is_psd() == psd
    assert f.is_tip_maximal() == tip_maximal
    assert len(f.kernel_basis()) == n - report.rank_k
