"""The integer reducer and normal forms of `quivermoment.groebner` behind `Element` signatures.

The package reduces integer numerators: the completion and the kernel trace
through `_reduce`, normal forms through a basis's `TipTable`.  Only the
tests compare them with whole `Element` results, those of the `Scalar`
oracles in `oracles.py`.
Each function here takes its elements to numerators (`algebra._numerators`), runs
one kernel and builds the `Element` result:

* `total_reduce`: `_reduce` by the monic basis elements, each tip keeping
  its canonically least element;
* `normal_form`: the sum of c·NF(p) over the terms, through `TipTable._nf`.
"""

from __future__ import annotations

from quivermoment import Element, PathOrder, ReductionEvent, RightGroebnerBasis
from quivermoment.algebra import _numerators as _ints
from quivermoment.groebner import _element, _events, _monic, _reduce


def total_reduce(
    h: Element,
    basis: list[Element],
    order: PathOrder,
    trace: list[ReductionEvent] | None = None,
) -> Element:
    """Normal form of h against the basis, each element divided by its tip coefficient.

    The divisor of a path is the basis element with the longest tip that
    left-divides it, ties broken by the canonical element order.
    """
    tips = {}
    for g in sorted(basis, key=lambda e: e.sort_key(order), reverse=True):
        terms = _ints(g)[0]
        tip = max(terms, key=order.key_of)
        tips[tip] = _monic(terms, tip)  # the canonically least element of a tip comes last
    events: list = []
    terms, den = _reduce(*_ints(h), tips, order, events, {})
    if trace is not None:
        trace.extend(_events(h.double, events))
    return _element(h.double, terms, den)


def normal_form(f: Element, gb: RightGroebnerBasis) -> Element:
    """Sum of c·NF(p) over the terms of f; supported on non-tips, linear, idempotent."""
    table = gb.tip_table
    return _element(f.double, *table._keyed(*table._nf(*_ints(f), {})))
