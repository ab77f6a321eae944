"""Quivers, their doubles, paths with involution, and the admissible order.

A path in the double quiver is a composable word of "letters"; a letter is a
base arrow taken either forward or starred (reversed endpoints).  The zero of
the path semigroup is the module-level singleton ``ZERO_PATH``: composing two
paths whose endpoints do not match yields it, and it is a value, not an error.

The default admissible order is degree-lexicographic: vertices (trivial paths)
below all arrowed paths, shorter paths below longer ones, equal lengths
compared letter by letter with arrows interleaved as b < b* in declaration
order.
"""

from __future__ import annotations

from .errors import InputError

Letter = tuple[int, bool]  # (base arrow index, starred flag)
Key = tuple[int | None, tuple[Letter, ...]]  # (vertex, letters) a Path is built from

_set = object.__setattr__


class Record:
    """An immutable record of the fields its subclass names in `_fields`.

    The fields are given positionally, in `_fields` order.  Two records are
    equal when they are of one class with equal fields; the hash and the
    repr are those of a frozen dataclass with the same fields.  A
    `functools.cached_property` works on a record, as on a frozen dataclass.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, not {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Arrow(Record):
    _fields = ("name", "source", "target")


def _token(name) -> bool:
    """Whether `name` is one nonempty token with no whitespace."""
    return isinstance(name, str) and name.split() == [name]


def name_error(vertices, arrow_names) -> str | None:
    """Why one of these names would not read back from path texts (see `Quiver`), or None."""
    for v in vertices:
        if not _token(v):
            return f"vertex name {v!r} must be one token without whitespace"
    for name in arrow_names:
        if not _token(name) or name.endswith("*") or name.startswith("e:") or name == "1":
            return (
                f"arrow name {name!r} must be one token without whitespace,"
                " not ending in '*', not starting with 'e:' and not '1'"
            )
    return None


class Quiver:
    """A finite directed graph with named vertices and arrows.

    Every name must read back from the path texts the package writes
    (``e:VERTEX`` for a trivial path, arrow names joined by spaces, ``b*``
    for the star of ``b``, and ``1`` for the sum of the trivial paths in an
    element): a name is one token without whitespace, and an arrow name
    does not end in ``*``, does not start with ``e:`` and is not ``1``.
    Any other name raises `InputError`.
    """

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        error = name_error(self.vertices, [a.name for a in self.arrows])
        if error:
            raise InputError(error)
        names = list(self.vertices) + [a.name for a in self.arrows]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise InputError(f"vertex and arrow names must be unique and disjoint: {repeated[0]!r} repeats")
        vset = set(self.vertices)
        for a in self.arrows:
            for v in (a.source, a.target):
                if v not in vset:
                    raise InputError(f"arrow {a.name!r} references undeclared vertex {v!r}")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}


class DoubleQuiver:
    """The double of a quiver: one starred arrow b* per base arrow b.

    The endpoints and the star of every letter, and the letter of every
    arrow token, are tabulated once, when the double is built.
    """

    def __init__(self, base: Quiver):
        self.base = base
        self._default_order: PathOrder | None = None
        self._letters = tuple((i, st) for i in range(len(base.arrows)) for st in (False, True))
        self.source: dict[Letter, int] = {}
        self.target: dict[Letter, int] = {}
        self.star_of: dict[Letter, Letter] = {(i, st): (i, not st) for i, st in self._letters}
        # Token -> letter: `b` is arrow `b` and `b*` its star (no arrow name
        # ends in `*`, see `Quiver`).
        self.letter_of: dict[str, Letter] = {}
        for i, a in enumerate(base.arrows):
            s, t = base.vertex_index[a.source], base.vertex_index[a.target]
            self.source[(i, False)], self.target[(i, False)] = s, t
            self.source[(i, True)], self.target[(i, True)] = t, s
            self.letter_of[a.name] = (i, False)
            self.letter_of[a.name + "*"] = (i, True)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.base.vertices

    def n_vertices(self) -> int:
        return len(self.base.vertices)

    def letters(self) -> list[Letter]:
        return list(self._letters)

    def star_word(self, letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
        """The letters of the star of a word: reversed, each one starred."""
        return tuple(map(self.star_of.__getitem__, reversed(letters)))

    def letter_name(self, letter: Letter) -> str:
        i, st = letter
        return self.base.arrows[i].name + ("*" if st else "")

    def trivial(self, vertex: str) -> Path:
        if vertex not in self.base.vertex_index:
            raise InputError(f"unknown vertex {vertex!r}")
        return Path(self, self.base.vertex_index[vertex], ())

    def trivial_paths(self) -> list[Path]:
        return [Path(self, i, ()) for i in range(self.n_vertices())]

    def path(self, letters) -> Path:
        letters = tuple(letters)
        for prev, nxt in zip(letters, letters[1:]):
            if self.target[prev] != self.source[nxt]:
                raise InputError("letters do not compose into a path")
        return Path(self, None, letters)

    def default_order(self) -> PathOrder:
        if self._default_order is None:
            self._default_order = PathOrder(self)
        return self._default_order


def build_double(q: Quiver) -> DoubleQuiver:
    return DoubleQuiver(q)


class Path:
    """A trivial path at a vertex, or a composable word of letters.

    Immutable; the hash is computed once, at construction.
    """

    __slots__ = ("double", "vertex", "letters", "_hash")

    def __init__(self, double: DoubleQuiver, vertex: int | None, letters: tuple[Letter, ...]):
        _set(self, "double", double)
        _set(self, "vertex", vertex)
        _set(self, "letters", letters)
        _set(self, "_hash", hash((vertex, letters)))

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    def is_trivial(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return len(self.letters)

    def origin(self) -> int:
        if self.letters:
            return self.double.source[self.letters[0]]
        return self.vertex

    def terminal(self) -> int:
        if self.letters:
            return self.double.target[self.letters[-1]]
        return self.vertex

    def star(self) -> Path:
        if not self.letters:
            return self
        return Path(self.double, None, self.double.star_word(self.letters))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._hash == other._hash and self.vertex == other.vertex and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        if self.is_trivial():
            return "e:" + self.double.vertices[self.vertex]
        return " ".join(self.double.letter_name(l) for l in self.letters)

    def __repr__(self) -> str:
        return f"Path({self!s})"


class _ZeroPath:
    """The zero element of the path semigroup (a distinguished value)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZeroPath"

    def __bool__(self):
        return False


ZERO_PATH = _ZeroPath()


def compose(p: Path, q: Path):
    """Concatenation when terminal(p) = origin(q); ZERO_PATH otherwise."""
    if p is ZERO_PATH or q is ZERO_PATH:
        return ZERO_PATH
    if p.double is not q.double:
        raise InputError("paths live in different double quivers")
    if p.terminal() != q.origin():
        return ZERO_PATH
    if p.is_trivial():
        return q
    if q.is_trivial():
        return p
    return Path(p.double, None, p.letters + q.letters)


class PathOrder:
    """Degree-lexicographic admissible order on the path basis.

    The vertex sequence orders trivial paths; the letter sequence orders
    arrows of the double.  Degree always dominates, so the order is a
    well-order satisfying the admissibility axioms.
    """

    def __init__(self, double: DoubleQuiver, vertex_seq=None, letter_names=None):
        self.double = double
        vertices = tuple(vertex_seq) if vertex_seq is not None else double.vertices
        if sorted(vertices) != sorted(double.vertices):
            raise InputError("vertex order must list every vertex exactly once")
        self.vertex_seq = tuple(double.base.vertex_index[v] for v in vertices)
        if letter_names is None:
            letters = double.letters()
        else:
            letters = [self._resolve_letter(n) for n in letter_names]
            if sorted(letters) != sorted(double.letters()):
                raise InputError("arrow order must list every double arrow exactly once")
        self.letter_seq = tuple(letters)
        self._vkey = {v: i - len(vertices) for i, v in enumerate(self.vertex_seq)}
        self._digit = {l: i + 1 for i, l in enumerate(letters)}
        self._base = len(letters) + 1

    def _resolve_letter(self, name: str) -> Letter:
        letter = self.double.letter_of.get(name) if isinstance(name, str) else None
        if letter is None:
            raise InputError(f"unknown arrow {name!r} in order specification")
        return letter

    def key(self, p: Path) -> int:
        return self.key_of((p.vertex, p.letters))

    def key_of(self, key: Key) -> int:
        """The path with this (vertex, letters) key as an int that sorts as the order does.

        A word is its letters' ranks + 1 as digits in base (letters + 1),
        first letter first: no digit is 0, so a longer word has more digits
        and a larger value, and words of one length compare letter by
        letter.  A trivial path is its vertex rank minus the number of
        vertices, below every word.
        """
        vertex, letters = key
        if not letters:
            return self._vkey[vertex]
        base, k = self._base, 0
        for d in map(self._digit.__getitem__, letters):
            k = k * base + d
        return k

    def compare(self, p: Path, q: Path) -> int:
        kp, kq = self.key(p), self.key(q)
        if kp < kq:
            return -1
        if kp > kq:
            return 1
        return 0


# The most letter words one window holds (`_words`, `window_layers`):
# counted before any is built, so an over-large window is refused at once
# instead of exhausting memory.  The order-4 window of the two-loop quiver
# (87,381 paths) is well below it.
MAX_WINDOW_PATHS = 10**6


def _words(double: DoubleQuiver, order: PathOrder, max_len: int):
    """Composable letter words of lengths 1..max_len, one list per length.

    Each list is increasing under `order`: words of one length compare letter
    by letter, and every word of the previous list is extended by the
    letters in their order, so only that list is held.  An over-large
    window is refused before any word is built (`_refuse_large`).  A quiver
    without arrows has no words, and no list is yielded.
    """
    letters = order.letter_seq
    if max_len < 1 or not letters:
        return
    _refuse_large(double, letters, max_len)
    following, target = _following(double, order), double.target
    layer = [(l,) for l in letters]
    yield layer
    for _ in range(max_len - 1):
        layer = [w + (l,) for w in layer for l in following[target[w[-1]]]]
        yield layer


def _refuse_large(double: DoubleQuiver, letters, max_len: int) -> None:
    """Raise `InputError` if the words of lengths 1..max_len number more than MAX_WINDOW_PATHS.

    They are counted per terminal vertex.  Every word extends by the star of
    its last letter, so no length has fewer words than the one before, and
    the count stops as soon as that lower bound passes the limit.
    """
    source, target = double.source, double.target
    vertices = range(double.n_vertices())
    # ending[v]: the words of the current length that end at v
    ending = [sum(target[l] == v for l in letters) for v in vertices]
    total = 0
    for left in range(max_len - 1, -1, -1):
        total += sum(ending)
        if total + sum(ending) * left > MAX_WINDOW_PATHS:
            raise InputError(
                f"the window of paths of length <= {max_len} has more than {MAX_WINDOW_PATHS} paths"
            )
        ending = [sum(ending[source[l]] for l in letters if target[l] == v) for v in vertices]


def _following(double: DoubleQuiver, order: PathOrder) -> list[list[Letter]]:
    """Per vertex, the letters that leave it, in the order's letter sequence."""
    source = double.source
    return [[l for l in order.letter_seq if source[l] == v] for v in range(double.n_vertices())]


def window_keys(
    double: DoubleQuiver,
    order: PathOrder,
    max_len: int,
    include_trivial: bool = True,
) -> list[Key]:
    """The keys of the paths of length <= max_len, strictly increasing under `order`.

    A key is the (vertex, letters) pair a `Path` is built from: (v, ()) for
    the trivial path at v, (None, word) otherwise.  With
    include_trivial=False the window starts at length 1, matching the
    convention of both worked fixtures.
    """
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    out = [(v, ()) for v in order.vertex_seq] if include_trivial else []
    for words in _words(double, order, max_len):
        out.extend([(None, w) for w in words])
    return out


def _proper_prefixes(key: Key, double: DoubleQuiver) -> list[Key]:
    """The keys of the paths that left-divide a path and differ from it, shortest first."""
    _, w = key
    return [(double.source[w[0]], ())] + [(None, w[:i]) for i in range(1, len(w))] if w else []


def _digit(letter: Letter) -> int:
    """A letter's digit in the code of a word: 1 + 2 * arrow index, plus 1 if starred."""
    arrow, starred = letter
    return 2 * arrow + starred + 1


def window_layers(
    double: DoubleQuiver,
    order: PathOrder,
    max_len: int,
    include_trivial: bool = True,
    named: bool = False,
) -> tuple[list[int], list[int], list[int], list[str] | None]:
    """The window of paths of length <= max_len, in window order, as integers and with `named` as texts.

    Returns (ends, codes, stars, texts): ends[t], the number of window paths
    of length <= t, up to the longest length the window holds; the code of
    each letter word, its letters' digits (`_digit`) in base 2 * arrows + 1,
    first letter first (no digit is 0, so distinct words have distinct
    codes); the code of its star, alongside; and the text `str(Path)`
    writes for each window path, or None without `named`.

    Each length extends the one before as `_words` does, each word w by the
    letters l that leave its end: code(w l) = code(w) * base + digit(l),
    the star's code is digit(l*) * base ** len(w) + code(w*), and the text
    is text(w) + " " + name(l).  No key, `Path` or star text is built, and
    an over-large window is refused before anything is (`_refuse_large`).
    Every text reads back as its own path: `Quiver` refuses the names that
    would not.
    """
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    trivial = order.vertex_seq if include_trivial else ()
    ends, codes, stars = [len(trivial)], [], []
    texts = ["e:" + double.vertices[v] for v in trivial] if named else None
    letters = order.letter_seq
    if max_len < 1 or not letters:
        return ends, codes, stars, texts
    _refuse_large(double, letters, max_len)
    base, name, star_of, target = 2 * len(double.base.arrows) + 1, double.letter_name, double.star_of, double.target
    following = _following(double, order)
    # per vertex, per letter leaving it: its digit, its star's digit, its end and its text
    digits = [[_digit(l) for l in ls] for ls in following]
    star_digits = [[_digit(star_of[l]) for l in ls] for ls in following]
    to = [[target[l] for l in ls] for ls in following]
    names = [[" " + name(l) for l in ls] for ls in following]
    code, star = [_digit(l) for l in letters], [_digit(star_of[l]) for l in letters]
    end, text = [target[l] for l in letters], [name(l) for l in letters]
    for length in range(1, max_len + 1):
        if length > 1:
            scaled = [[d * base ** (length - 1) for d in row] for row in star_digits]
            code = [c * base + d for c, v in zip(code, end) for d in digits[v]]
            star = [s + d for s, v in zip(star, end) for d in scaled[v]]
            if named:
                text = [t + n for t, v in zip(text, end) for n in names[v]]
            end = [u for v in end for u in to[v]]
        codes += code
        stars += star
        if named:
            texts += text
        ends.append(ends[-1] + len(code))
    return ends, codes, stars, texts


def enumerate_basis(
    double: DoubleQuiver,
    order: PathOrder,
    max_len: int,
    include_trivial: bool = True,
) -> list[Path]:
    """All paths of length <= max_len, strictly increasing under `order`."""
    return [Path(double, *key) for key in window_keys(double, order, max_len, include_trivial)]

