"""JSON file formats for quivers, elements, functionals, representations,
and certificates.

Scalars use the text grammar of :mod:`quivermoment.scalar` everywhere; no
floating point appears in any interface.  Parse errors name the file and the
offending token.  A functional's values, every matrix and every literal of
a certificate are read straight to Gaussian-integer numerators over a
denominator (`scalar.parse_literal`): a matrix is held as its integer image
(`linalg._matrix`), and matrices and functionals are written from their
numerators (`scalar.numerator_text`).  Generator and Gröbner-basis
elements and a representation's cyclic vector are read as `Scalar` values.
Loading a functional loads neither `gns` nor `groebner`: the representation
loader imports `gns` when it is called.
"""

from __future__ import annotations

import json
from itertools import chain
from math import lcm
from operator import itemgetter
from pathlib import Path as FsPath

from .algebra import Element
from .errors import InputError
from .linalg import Matrix, _matrix
from .moment import TruncatedFunctional, _columns
from .quiver import DoubleQuiver, Key, Path, PathOrder, Quiver, build_double, window_layers
from .scalar import Scalar, from_numerators, numerator_text, parse_literal


def load_json(path) -> dict:
    path = FsPath(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"{path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


_ascii = json.encoder.encode_basestring_ascii


def dumps_indented(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), the same bytes, with every string through the C encoder.

    `pad` is the line break and indent the value starts after.  Dicts (str
    keys) and lists nest; each other leaf is `json.dumps` of it.
    """
    if type(value) is str:
        return _ascii(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [_ascii(k) + ": " + (_ascii(v) if type(v) is str else dumps_indented(v, inner)) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_ascii(v) if type(v) is str else dumps_indented(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return json.dumps(value)


def _ctx(source: str | None) -> str:
    return f"{source}: " if source else ""


def _object(value, what: str, source: str | None) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{_ctx(source)}{what} must be an object, not {value!r}")
    return value


def _list(value, key: str, source: str | None) -> list:
    if not isinstance(value, list):
        raise InputError(f"{_ctx(source)}'{key}' must be a list, not {value!r}")
    return value


def _text(value, what: str, source: str | None) -> str:
    if not isinstance(value, str):
        raise InputError(f"{_ctx(source)}{what} {value!r} is not a string")
    return value


def _texts(value, key: str, source: str | None) -> list[str]:
    return [_text(v, f"'{key}' entry", source) for v in _list(value, key, source)]


def read_flag(data: dict, key: str, default: bool, source: str | None) -> bool:
    """A JSON boolean field; any other value is an input error."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f"{_ctx(source)}'{key}' must be true or false, not {value!r}")
    return value


class _Literals(dict):
    """The scalars of one load: `literals[text]` parses each distinct text once.

    Values are `Scalar`s, or with `numerators` the (re, im, den) triples of
    `parse_literal`; there the commonest literal, a signed decimal integer,
    is read by one `int` call.  Looking up a text that is not a string
    raises TypeError, so that a loader can name the malformed entry it came
    from.
    """

    __slots__ = ("source", "numerators")

    def __init__(self, source: str | None, numerators: bool = False):
        super().__init__()
        self.source = source
        self.numerators = numerators

    def __missing__(self, text: str):
        if type(text) is not str:
            raise TypeError(text)
        # `isdecimal` accepts exactly the digits of the grammar.
        if self.numerators and (text[1:] if text[:1] in "+-" else text).isdecimal():
            try:
                value = self[text] = int(text), 0, 1
                return value
            except ValueError:  # past int's digit limit: refused by `parse_literal`
                pass
        try:
            value = self[text] = parse_literal(text) if self.numerators else Scalar.parse(text)
        except InputError as e:
            raise InputError(f"{_ctx(self.source)}{e}") from None
        return value


# -- quivers -------------------------------------------------------------------


def quiver_from_dict(data: dict, source: str | None = None) -> Quiver:
    _object(data, "quiver", source)
    try:
        vertices = data["vertices"]
        arrows = [
            tuple(_text(a[key], f"arrow {key!r}", source) for key in ("name", "from", "to"))
            for a in _list(data.get("arrows", []), "arrows", source)
        ]
    except (KeyError, TypeError) as e:
        raise InputError(f"{_ctx(source)}malformed quiver: missing {e}") from None
    vertices = _texts(vertices, "vertices", source)
    try:
        return Quiver(vertices, arrows)
    except InputError as e:  # a name that does not read back, a repeated name, an undeclared vertex
        raise InputError(f"{_ctx(source)}{e}") from None


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in q.arrows],
    }


def load_quiver(path) -> DoubleQuiver:
    return build_double(quiver_from_dict(load_json(path), str(path)))


def resolve_quiver(spec, base_dir, source: str | None = None) -> DoubleQuiver:
    """A quiver reference is either an inline object or a file path string."""
    if isinstance(spec, dict):
        return build_double(quiver_from_dict(spec, source))
    if isinstance(spec, str):
        return load_quiver(FsPath(base_dir) / spec)
    raise InputError(f"{_ctx(source)}quiver reference must be an object or a path string")


# -- path orders -------------------------------------------------------------------


def load_order(double: DoubleQuiver, path) -> PathOrder:
    source = str(path)
    data = _object(load_json(path), "order file", source)
    names = [None if data.get(key) is None else _texts(data[key], key, source) for key in ("vertices", "arrows")]
    try:
        return PathOrder(double, *names)
    except InputError as e:
        raise InputError(f"{_ctx(source)}{e}") from None


# -- paths and elements ---------------------------------------------------------


def parse_path(double: DoubleQuiver, text: str, source: str | None = None) -> Path:
    """Whitespace-separated arrow tokens (`*` suffix for stars), `e:NAME` trivial."""
    return Path(double, *path_key(double, text, source))


def path_key(double: DoubleQuiver, text: str, source: str | None = None) -> Key:
    """The (vertex, letters) key of a path text, without building the path.

    One table lookup per token and one endpoint check per adjacent pair.
    """
    tokens = text.split()
    if not tokens:
        raise InputError(f"{_ctx(source)}empty path text")
    if tokens[0].startswith("e:"):
        if len(tokens) != 1:
            raise InputError(f"{_ctx(source)}trivial path token {tokens[0]!r} must stand alone")
        vertex = double.base.vertex_index.get(tokens[0][2:])
        if vertex is None:
            raise InputError(f"{_ctx(source)}unknown vertex {tokens[0][2:]!r}")
        return vertex, ()
    letter_of, source_of, target_of = double.letter_of, double.source, double.target
    letters = []
    end = None
    for tok in tokens:
        letter = letter_of.get(tok)
        if letter is None:
            raise InputError(f"{_ctx(source)}unknown arrow {tok!r} in path {text!r}")
        if end is not None and source_of[letter] != end:
            raise InputError(f"{_ctx(source)}non-composable path {text!r} at token {tok!r}")
        letters.append(letter)
        end = target_of[letter]
    return None, tuple(letters)


def path_to_text(p: Path) -> str:
    return str(p)


def element_from_dict(
    double: DoubleQuiver, data: dict, source: str | None = None, literals: _Literals | None = None
) -> Element:
    if literals is None:
        literals = _Literals(source)
    return Element.from_terms(double, _terms(double, data, source, literals, parse_path))


def _element_numerators(
    double: DoubleQuiver, data: dict, source: str | None, literals: _Literals
) -> tuple[dict[Key, tuple[int, int]], int]:
    """`element_from_dict` as numerators: {path key: (re, im)} over one den, zero terms dropped."""
    pairs = _terms(double, data, source, literals, path_key)
    den = lcm(*{d for _, (_, _, d) in pairs})
    acc: dict[Key, tuple[int, int]] = {}
    for key, (re, im, d) in pairs:
        s = den // d
        have = acc.get(key)
        acc[key] = (re * s, im * s) if have is None else (have[0] + re * s, have[1] + im * s)
    return {key: c for key, c in acc.items() if c != (0, 0)}, den


def _terms(double: DoubleQuiver, data: dict, source: str | None, literals: _Literals, read) -> list[tuple]:
    """An element's terms as (read(double, path text, source), literal value) pairs, in file
    order: `read` is `parse_path` or `path_key`.  "1" gives every trivial path."""
    terms = []
    for t in _list(_object(data, "element", source).get("terms", []), "terms", source):
        try:
            ptext, ctext = t["path"], t["coeff"]
        except (KeyError, TypeError):
            raise InputError(f"{_ctx(source)}element term needs 'path' and 'coeff'") from None
        _text(ptext, "element path", source)
        coeff = literals[_text(ctext, "element coefficient", source)]
        if ptext.strip() == "1":
            terms.extend((read(double, f"e:{v}"), coeff) for v in double.vertices)
        else:
            terms.append((read(double, ptext, source), coeff))
    return terms


def element_to_dict(e: Element) -> dict:
    return {
        "terms": [
            {"path": path_to_text(p), "coeff": str(c)} for p, c in e.sorted_terms()
        ]
    }


# -- matrices --------------------------------------------------------------------


def elements_from_list(
    double: DoubleQuiver, data, key: str, source: str | None = None, literals: _Literals | None = None
) -> list[Element]:
    if literals is None:
        literals = _Literals(source)
    return [element_from_dict(double, e, source, literals) for e in _list(data, key, source)]


def matrix_from_rows(
    rows, source: str | None = None, key: str = "gram", literals: _Literals | None = None
) -> Matrix:
    """The matrix of a list of rows of literals, held as its integer image.

    `literals`, when given, reads numerators (`_Literals(..., numerators=True)`).
    Every row must be as long as the first (rows counted from 0).
    """
    if not _list(rows, key, source):
        return _matrix([], 1, 0)
    if literals is None:
        literals = _Literals(source, numerators=True)
    parsed = []
    for i, r in enumerate(rows):
        try:  # a row that is a list of strings is read at once
            vals = [literals[x] for x in _list(r, key, source)]
        except (TypeError, InputError):
            _texts(r, key, source)  # an entry that is not a string is named before a malformed literal
            raise
        if parsed and len(vals) != len(parsed[0]):
            raise InputError(f"{_ctx(source)}'{key}' row {i} has {len(vals)} entries, not {len(parsed[0])}")
        parsed.append(vals)
    entries = list(chain.from_iterable(parsed))
    den, real = lcm(*{d for _, _, d in entries}), not any(b for _, b, _ in entries)
    image = [
        [a * (den // d) for a, _, d in row] + ([] if real else [b * (den // d) for _, b, d in row]) for row in parsed
    ]
    return _matrix(image, den, len(parsed[0]))


def _named_matrices(data, key: str, source: str | None, literals: _Literals) -> dict[str, Matrix]:
    return {
        n: matrix_from_rows(rows, source, n, literals)
        for n, rows in _object(data, f"'{key}'", source).items()
    }


def matrix_to_rows(m: Matrix) -> list[list[str]]:
    """The entries' texts, row by row, formatted from the matrix's integer image."""
    rows, den = m._integers()
    n = m.cols
    if m._real():
        return [[numerator_text(x, 0, den) for x in row] for row in rows]
    return [[numerator_text(x, y, den) for x, y in zip(row[:n], row[n:])] for row in rows]


# -- functionals -------------------------------------------------------------------


def functional_from_dict(data: dict, base_dir=".", source: str | None = None) -> TruncatedFunctional:
    """The functional a file lists, read straight into window positions.

    The bulk pass reads the entries a column at a time.  A path column
    equal to the window's texts (the whole window in window order, as
    `functional_to_dict` writes a functional with no zero value) gives the
    positions `range(n)`; any other is one `map` through the window's text
    table (the texts `functional_to_dict` writes, tokens joined by single
    spaces), built only then.  When every value text is a signed decimal
    integer (the joined texts hold only digits and signs) the values are
    one `map(int, ...)`; any other file parses each distinct value text
    once (`_Literals`), to numerators over a denominator.  When the bulk
    pass meets anything else (a text the table lacks, an entry or a value
    that is not a string, a malformed literal, a literal `int` refuses, or
    a position given twice) the ordered entry loop reads the file instead,
    building the table if the bulk pass did not, and it alone names an entry
    error: there any other path text goes through `path_key` and the
    window's key table, a path outside the window keeps its key, and
    repeated values are compared as numerators.  Errors name the file, in
    this order: a malformed entry or a conflicting duplicate, in file
    order; then, from the functional, an order below 1 or an over-large
    window, a path outside the window, and a hermitian conflict (see
    `TruncatedFunctional._place`).
    """
    if "quiver" not in _object(data, "functional", source) or "k" not in data:
        raise InputError(f"{_ctx(source)}functional needs 'quiver' and 'k'")
    k = data["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f"{_ctx(source)}'k' must be an integer, not {k!r}")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise InputError(f"{_ctx(source)}'entries' must be a list, not {entries!r}")
    include_trivial = read_flag(data, "include_trivial", True, source)
    double = resolve_quiver(data["quiver"], base_dir, source)

    def read(texts: list[str], index) -> tuple:
        literals = _Literals(None, numerators=True)  # the file is named below
        at = None  # the window's text table, built only when the path column is not `texts`
        try:
            paths = list(map(itemgetter("path"), entries))
            if paths == texts:  # the whole window in window order; the lengths are compared first
                slots = range(len(texts))
            else:
                at = dict(zip(texts, range(len(texts))))
                slots = list(map(at.__getitem__, paths))
            values = list(map(itemgetter("value"), entries))
            if at is None or len(set(slots)) == len(slots):
                if "".join(values).replace("+", "").replace("-", "").isdecimal():
                    return slots, list(map(int, values)), None, 1
                return _columns(slots, map(literals.__getitem__, values))
        except (KeyError, TypeError, ValueError, InputError):
            pass
        # The ordered entry loop: the entry errors, in file order.
        if at is None:
            at = dict(zip(texts, range(len(texts))))
        given: dict = {}
        for ent in entries:
            # The common entry: a text the window writes and a string value.
            # A text that is not a string misses `at` or raises TypeError.
            try:
                slot, v = at[ent["path"]], literals[ent["value"]]
            except (KeyError, TypeError):
                slot, v = _entry(double, ent, at, index, literals)
            have = given.setdefault(slot, v)
            if have is not v and have != v:
                raise InputError(f"conflicting values for path {ent['path']!r}")
        return _columns(list(given), given.values())

    try:
        return TruncatedFunctional.from_texts(double, k, read, include_trivial)
    except InputError as e:
        raise type(e)(f"{_ctx(source)}{e}") from None


def _entry(double: DoubleQuiver, ent, at: dict[str, int], index, literals: _Literals):
    """An entry's window position (or key) and value, with every check in order."""
    try:
        ptext, vtext = ent["path"], ent["value"]
    except (KeyError, TypeError):
        raise InputError("functional entry needs 'path' and 'value'") from None
    for token in (ptext, vtext):
        if not isinstance(token, str):
            raise InputError(f"functional entry {ent!r}: {token!r} is not a string")
    slot = at.get(ptext)
    if slot is None:
        key = path_key(double, ptext)
        slot = index(key)
        if slot is None:
            slot = key
    return slot, literals[vtext]


def load_functional(path) -> TruncatedFunctional:
    path = FsPath(path)
    return functional_from_dict(load_json(path), path.parent, str(path))


def functional_to_dict(f: TruncatedFunctional) -> dict:
    """The file of a functional: its nonzero values in window order, from the
    window's texts and the numerators; no `Path` is built.  The texts are the
    ones the functional kept (the one-step extension keeps them), or else are
    enumerated (`quiver.window_layers`)."""
    texts = f._texts
    if texts is None:
        texts = window_layers(f.double, f.order, 2 * f.k, f.include_trivial, named=True)[3]
    den = f._den
    entries = [{"path": t, "value": numerator_text(a, b, den)} for t, a, b in zip(texts, f._re, f._im) if a or b]
    return {
        "quiver": quiver_to_dict(f.double.base),
        "k": f.k,
        "include_trivial": f.include_trivial,
        "entries": entries,
    }


# -- representations ----------------------------------------------------------------


def representation_to_dict(rep) -> dict:
    """The file of a `gns.Representation`."""
    return {
        "quiver": quiver_to_dict(rep.double.base),
        "basis": [path_to_text(p) for p in rep.basis],
        "gram": matrix_to_rows(rep.gram),
        "arrows": {name: matrix_to_rows(m) for name, m in sorted(rep.arrows.items())},
        "vertices": {name: matrix_to_rows(m) for name, m in sorted(rep.vertex_projections.items())},
        "cyclic": None if rep.cyclic is None else [str(c) for c in rep.cyclic],
    }


def representation_from_dict(data: dict, base_dir=".", source: str | None = None):
    """The `gns.Representation` a file holds."""
    from .gns import Representation

    if "quiver" not in _object(data, "representation", source):
        raise InputError(f"{_ctx(source)}representation needs a 'quiver'")
    double = resolve_quiver(data["quiver"], base_dir, source)
    basis = tuple(parse_path(double, t, source) for t in _texts(data.get("basis", []), "basis", source))
    literals = _Literals(source, numerators=True)
    gram = matrix_from_rows(data.get("gram", []), source, literals=literals)
    arrows = _named_matrices(data.get("arrows", {}), "arrows", source, literals)
    vertices = _named_matrices(data.get("vertices", {}), "vertices", source, literals)
    cyc = data.get("cyclic")
    cyclic = None if cyc is None else tuple(from_numerators(*literals[c]) for c in _texts(cyc, "cyclic", source))
    n = len(basis)
    if gram.rows != n or gram.cols != n:
        raise InputError(f"{_ctx(source)}'gram' is not {n}x{n}")
    if cyclic is not None and len(cyclic) != n:
        raise InputError(f"{_ctx(source)}'cyclic' has {len(cyclic)} entries, not {n}")
    for name, m in list(arrows.items()) + list(vertices.items()):
        if m.rows != n or m.cols != n:
            raise InputError(f"{_ctx(source)}matrix for {name!r} is not {n}x{n}")
    expected = {double.letter_name(l) for l in double.letters()}
    if set(arrows) != expected:
        raise InputError(f"{_ctx(source)}arrow matrices must cover exactly {sorted(expected)}")
    if set(vertices) != set(double.vertices):
        raise InputError(
            f"{_ctx(source)}vertex projections must cover exactly {sorted(double.vertices)}"
        )
    return Representation(double, basis, gram, arrows, vertices, cyclic)


def load_representation(path):
    path = FsPath(path)
    return representation_from_dict(load_json(path), path.parent, str(path))


# -- generators and certificates -------------------------------------------------------


def generators_from_dict(data: dict, base_dir=".", source: str | None = None):
    if "quiver" not in _object(data, "generator file", source):
        raise InputError(f"{_ctx(source)}generator file needs a 'quiver'")
    double = resolve_quiver(data["quiver"], base_dir, source)
    return double, elements_from_list(double, data.get("elements", []), "elements", source)


def groebner_to_dict(gb, double: DoubleQuiver) -> dict:
    """The file of a `groebner.RightGroebnerBasis` over `double`, with one text per distinct trace path."""
    text = {p: path_to_text(p) for p in {p for ev in gb.trace for p in (ev.target, ev.by, ev.cofactor)}}
    return {
        "quiver": quiver_to_dict(double.base),
        "elements": [element_to_dict(e) for e in gb.elements],
        "reductions": [
            {"target": text[ev.target], "by": text[ev.by], "cofactor": text[ev.cofactor]} for ev in gb.trace
        ],
    }


def certificate_from_dict(data: dict, base_dir=".", source: str | None = None):
    """Returns (double, target, kind, payload): kind is 'squares' or 'gram'.

    Every literal is read as numerators.  The target is (terms, den) with
    terms {path key: (re, im)} over den (zero terms dropped), and so is each
    square; weights are (re, im, den) triples, or None.  A gram is a
    `Matrix` holding its integer image.
    """
    _object(data, "certificate", source)
    if "quiver" not in data or "target" not in data:
        raise InputError(f"{_ctx(source)}certificate needs 'quiver' and 'target'")
    double = resolve_quiver(data["quiver"], base_dir, source)
    literals = _Literals(source, numerators=True)
    target = _element_numerators(double, data["target"], source, literals)
    degree = data.get("degree")
    if degree is not None and (type(degree) is not int or degree < 0):
        raise InputError(f"{_ctx(source)}'degree' must be a non-negative integer or null, not {degree!r}")
    if "squares" in data:
        squares = [_element_numerators(double, e, source, literals) for e in _list(data["squares"], "squares", source)]
        weights = None
        if "weights" in data:
            weights = [literals[w] for w in _texts(data["weights"], "weights", source)]
        return double, target, "squares", (squares, weights, degree)
    if "gram" in data and "basis" in data:
        basis = [parse_path(double, t, source) for t in _texts(data["basis"], "basis", source)]
        gram = matrix_from_rows(data["gram"], source, literals=literals)
        if gram.rows != len(basis) or gram.cols != len(basis):
            raise InputError(f"{_ctx(source)}'gram' is not {len(basis)}x{len(basis)}")
        return double, target, "gram", (basis, gram, degree)
    raise InputError(f"{_ctx(source)}certificate needs either 'squares' or 'basis'+'gram'")
