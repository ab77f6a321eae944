"""Each matrix a verdict or a construction needs is eliminated once.

The counts are of calls to the one Gauss-Jordan engine in `linalg` and to
the LDL^H pivoting `linalg._image_psd`.  A fresh PSD functional's flatness
report, rank, tip-maximality, kernel and PSD verdict all come from one
pivoting of the integer image of B_{L_k} per terminal-vertex block, in
window order, and no elimination.  A functional that is not PSD has its
pivoting refuted first; its verdicts and kernel then come from one echelon
form: one elimination of its top rows [A | C] (rank A and range
containment), then each lower row [C^H | B] reduced against those pivot
rows.  A flat one's residuals are all zero and it needs no other
elimination; a non-flat one eliminates its nonzero residuals once more,
with the top pivot rows.  No solution X, no product and no `Scalar`
comparison of matrices is formed; the PSD verdict checks the hermitian
property on the same integers it pivots.  Compression
reads its coset reps off that PSD pivoting and solves every system, the
gram's and each kept block's, by substitution through the same pivots: no
elimination at all.
A one-step extension adds one elimination of its odd-degree system, built
as integer rows from window positions, with no `Scalar` matrix.  Its Schur
step is solved on the pivots of the base's verdicts: through its LDL^H
pivots on PSD data, with no elimination, and otherwise by one elimination
of [A[P, P] | C[P, :]] at the pivots P.  The result is not pivoted: its own
pivoting is what its verdicts or its kernel cost afterwards.

The kernel Gröbner basis is read off the echelon kernel, so no completion
runs behind it, and `groebner --from-kernel` runs none either: it reduces
the kernel elements that are not kept by the kept ones, once each, in one
descending pass over window positions that computes the step at each
position once, which gives the reductions its output lists.  The pass and
the kernel checks run on integer numerators: no `Element` product and no
`Scalar` matrix product.

A loaded functional gathers the integer image of its order-k moment matrix
once, by window position, from the numerators it holds: per terminal-vertex
block, its upper triangle, pivoted once per nonempty block.  Every verdict
and the kernel check read that image: no `Scalar` moment matrix is
assembled, no `Matrix` is taken to integers and no `compose` is called.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from conftest import pd_functional, state_functional
from quivermoment import (
    FlatExtension,
    algebra,
    Quiver,
    TruncatedFunctional,
    build_double,
    build_representation,
    cli,
    compress_representation,
    extension,
    fileio,
    flat_extend_tip_maximal,
    gns,
    groebner,
    kernel_groebner,
    linalg,
    moment,
    quiver,
    sos,
)
from quivermoment.scalar import Scalar

FIXTURES = Path(__file__).parent / "fixtures"
ONE_LOOP = build_double(Quiver(["e"], [("x", "e", "e")]))
TWO_LOOPS = build_double(Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")]))


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    engine = linalg._gauss_jordan

    def counted(rows, ncols):
        calls.append(ncols)
        return engine(rows, ncols)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    return calls


@pytest.fixture(scope="module")
def pd_two_loops():
    return pd_functional(TWO_LOOPS, 2, True, random.Random(5))


def fresh(f: TruncatedFunctional) -> TruncatedFunctional:
    return TruncatedFunctional(f.double, f.k, f.values, f.include_trivial, f.order)


@pytest.mark.parametrize("flat", [True, False])
def test_flatness_and_kernel_share_one_echelon_form(flat, pd_two_loops, eliminations, psd_pivotings):
    # A rank-1 state is flat with a singular A; the PD state is not flat.
    # Both are PSD: one pivoting gives every verdict and the kernel.
    f = state_functional(ONE_LOOP, 2, True, [1], random.Random(3)) if flat else fresh(pd_two_loops)
    report = f.is_flat()
    f.kernel_basis()
    f.is_tip_maximal()
    assert f.is_psd()
    assert report.flat == flat
    assert eliminations == []
    assert psd_pivotings == [len(f.basis(f.k))]


@pytest.mark.parametrize("verdict", ["is_flat", "is_psd", "is_tip_maximal", "kernel_basis"])
def test_each_psd_verdict_pivots_once(verdict, eliminations, psd_pivotings):
    # A rank-3 state on two loops, k = 3 (85-path window), each verdict asked first.
    f = state_functional(TWO_LOOPS, 3, True, [3], random.Random(11))
    getattr(f, verdict)()
    assert psd_pivotings == [85]
    assert eliminations == []


@pytest.mark.parametrize("flat", [True, False])
def test_non_psd_verdicts_pivot_then_eliminate(flat, pd_two_loops, monkeypatch):
    # The negated states of the test above are not PSD: their first pivot
    # is negative.  The refuted pivoting comes first, then the echelon form:
    # one elimination when flat, two when not.
    calls = []
    engine, pivoting = linalg._gauss_jordan, linalg._image_psd

    def counted(rows, ncols):
        calls.append(("eliminate", ncols))
        return engine(rows, ncols)

    def counted_psd(tri, den):
        calls.append(("pivot", len(tri[0])))
        return pivoting(tri, den)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    monkeypatch.setattr(linalg, "_image_psd", counted_psd)
    g = state_functional(ONE_LOOP, 2, True, [1], random.Random(3)) if flat else pd_two_loops
    f = TruncatedFunctional(g.double, g.k, {p: -v for p, v in g.values.items()}, g.include_trivial, g.order)
    del calls[:]  # the state's own draw
    report = f.is_flat()
    f.kernel_basis()
    f.is_tip_maximal()
    assert not f.is_psd()
    assert report.flat == flat
    n = len(f.basis(f.k))
    assert calls == [("pivot", n)] + [("eliminate", n)] * (1 if flat else 2)


@pytest.fixture
def scalar_matrix_calls(monkeypatch):
    """Comparisons of `Matrix` values, and `Scalar` moment matrices read off a
    functional's image (`principal`).  `Matrix` has no product, transpose
    or hermitian test left to count: it is an I/O type, and those run on
    integer images."""
    assert not any(hasattr(linalg.Matrix, name) for name in ("__mul__", "transpose", "conjugate", "is_hermitian"))
    calls = []
    fn, principal = linalg.Matrix.__eq__, TruncatedFunctional.principal

    def counted(*args):
        calls.append("__eq__")
        return fn(*args)

    def counted_principal(self, at):
        calls.append("principal")
        return principal(self, at)

    monkeypatch.setattr(linalg.Matrix, "__eq__", counted)
    monkeypatch.setattr(TruncatedFunctional, "principal", counted_principal)
    return calls


@pytest.fixture
def psd_pivotings(monkeypatch):
    """Calls of the PSD pivoting `linalg._image_psd`, with the size of each triangle."""
    calls = []
    fn = linalg._image_psd

    def counted(tri, den):
        calls.append(len(tri[0]))
        return fn(tri, den)

    monkeypatch.setattr(linalg, "_image_psd", counted)
    return calls


def test_loaded_verdicts_form_no_scalar_product(tmp_path, eliminations, psd_pivotings, scalar_matrix_calls):
    # The shape of a flat_gns instance: a rank-3 state on two loops with
    # trivial paths and k = 3, read from its file.
    fpath = tmp_path / "f.json"
    state = state_functional(TWO_LOOPS, 3, True, [3], random.Random(11))
    fpath.write_text(json.dumps(fileio.functional_to_dict(state)), encoding="utf-8")
    f = fileio.load_functional(fpath)
    del eliminations[:], psd_pivotings[:], scalar_matrix_calls[:]
    assert f.is_flat() == moment.FlatReport(True, 3, 3, True)
    assert len(f.kernel_basis()) == 85 - 3
    assert f.is_psd()
    assert eliminations == []
    assert psd_pivotings == [85]
    assert scalar_matrix_calls == []


def test_compress_eliminates_once_per_matrix(pd_two_loops, eliminations, psd_pivotings):
    # The PSD pivoting of B_{L_k} gives the verdict and the coset reps; the
    # gram's system and each base arrow's kept block are solved through its
    # pivots, so nothing is eliminated.
    rep = compress_representation(fresh(pd_two_loops))
    assert rep.dim == 21
    assert eliminations == []
    assert psd_pivotings == [21]


def test_build_pivots_once(eliminations, psd_pivotings):
    # A rank-3 state on two loops, k = 3 (85-path window): the LDL^H
    # pivoting decides flatness and PSD and gives the kernel; the gram is
    # the pivoted submatrix, which is pivoted no second time.
    rep = build_representation(state_functional(TWO_LOOPS, 3, True, [3], random.Random(11)))
    assert rep.dim == 3
    assert eliminations == []
    assert psd_pivotings == [85]


def test_low_rank_image_pivots_once_per_rank(psd_pivotings):
    # A rank-3 state on two loops, k = 3 (85-path window): three pivot
    # tuples, at the pivot columns of the echelon form; every other index is
    # dropped with a zero diagonal, and those are the kernel tips.
    f = state_functional(TWO_LOOPS, 3, True, [3], random.Random(11))
    (pivots,) = f._ldlh  # one vertex, one block
    assert psd_pivotings == [85]
    assert [p for p, *_ in pivots] == f._echelon[0] == [0, 1, 2]
    assert {f._index(next(reversed(terms))) for terms, _ in f._null} == set(range(3, 85))


@pytest.mark.parametrize(
    "name, report, blocks",
    [
        # the flat_gns two-vertex shape: a rank-5 state (3 + 2) on x, y, z at
        # k = 3, whose 92-path V_k ends 57 times at e1 and 35 times at e2
        ("fix_two_vertex", moment.FlatReport(True, 5, 5, True), [57, 35]),
        # an isolated vertex e3 of state dimension 0: its block is e:e3 alone,
        # and without trivial paths it is empty and not pivoted at all; the
        # first word, x, ends at e2, so the e2 block comes first there
        ("fix_isolated_vertex", moment.FlatReport(True, 3, 3, True), [5, 11, 1]),
        ("fix_isolated_vertex_notrivial", moment.FlatReport(True, 2, 2, True), [10, 4]),
    ],
)
def test_multi_vertex_verdicts_gather_and_pivot_once_per_block(
    name, report, blocks, eliminations, psd_pivotings, assemblies
):
    # Every verdict and the kernel of a PSD functional come from one gather
    # and one pivoting per nonempty terminal-vertex block, in the order of
    # the blocks' first window positions.
    f = fileio.load_functional(FIXTURES / f"{name}.json")
    assert f.is_flat() == report
    assert len(f.kernel_basis()) == sum(blocks) - report.rank_k
    assert f.is_psd() and not f.is_tip_maximal()
    assert psd_pivotings == blocks
    assert assemblies == [("gather", n) for n in blocks]
    assert eliminations == []


def test_two_vertex_gather_reads_each_block_upper_triangle(monkeypatch):
    # The flat_gns two-vertex shape: the verdicts read the window positions of
    # sum n_v (n_v + 1) / 2 products over its blocks of 57 and 35 paths, not
    # the 92^2 of the whole image with its cross-vertex zeros.
    read = []
    products = TruncatedFunctional._products

    def counted(self, *args, **kwargs):
        out = products(self, *args, **kwargs)
        read.append(len(out))
        return out

    monkeypatch.setattr(TruncatedFunctional, "_products", counted)
    f = fileio.load_functional(FIXTURES / "fix_two_vertex.json")
    del read[:]  # the loader's own
    assert f.is_flat().flat and f.is_psd()
    assert sum(read) == 57 * 58 // 2 + 35 * 36 // 2


def test_compress_of_a_singular_state_eliminates_no_kernel(eliminations, psd_pivotings):
    # A rank-5 state: its kernel tips are the indices the PSD pivoting drops.
    rep = compress_representation(state_functional(TWO_LOOPS, 2, True, [5], random.Random(2)))
    assert rep.dim == 5
    assert eliminations == []
    assert psd_pivotings == [21]


def test_one_step_extension_solves_one_unknown_per_star_pair(eliminations, psd_pivotings):
    # A rank-2 state of order 1 on two loops, which is not flat: the
    # pivoting of its image (5 paths) gives its kernel and the pivots of the
    # Schur step, then only the odd-degree system is eliminated.  The odd
    # system has a u column per star pair of the 64 paths of length 3, plus
    # the right-hand side: on real data the v half is block-diagonal, with
    # canonical solution v = 0, and is not built.  The extension's own
    # pivoting (21 paths) is what its kernel costs afterwards.
    f = state_functional(TWO_LOOPS, 1, True, [2], random.Random(0))
    del psd_pivotings[:]  # the state's own draw
    ext = flat_extend_tip_maximal(f)
    assert eliminations == [32 + 1]
    assert psd_pivotings == [5]
    ext.kernel_basis()
    assert eliminations == [32 + 1]
    assert psd_pivotings == [5, 21]


def test_one_step_extension_keeps_both_halves_on_gaussian_data(eliminations, psd_pivotings):
    # The same shape with Gaussian values: a u and a v column per star pair.
    f = state_functional(TWO_LOOPS, 1, True, [2], random.Random(0), complex_=True)
    assert any(not v.is_real() for v in f.values.values())
    del psd_pivotings[:]
    ext = flat_extend_tip_maximal(f)
    assert eliminations == [2 * 32 + 1]
    assert psd_pivotings == [5]
    ext.kernel_basis()
    assert psd_pivotings == [5, 21]


@pytest.mark.parametrize("complex_", [False, True])
def test_one_step_extension_of_a_base_that_is_not_psd_eliminates_the_pivot_block(
    complex_, eliminations, psd_pivotings
):
    # The negated rank-2 state: its pivoting is refuted at once, its echelon
    # form (two eliminations, as it is not flat) gives the kernel and the two
    # pivots P, and after the odd system the Schur step eliminates the 2 x 18
    # block [A[P, P] | C[P, :]] (16 new paths).
    g = state_functional(TWO_LOOPS, 1, True, [2], random.Random(0), complex_=complex_)
    f = TruncatedFunctional(g.double, g.k, {p: -v for p, v in g.values.items()}, g.include_trivial, g.order)
    del eliminations[:], psd_pivotings[:]
    flat_extend_tip_maximal(f)
    assert psd_pivotings == [5]
    assert eliminations == [5, 5, (2 if complex_ else 1) * 32 + 1, 2 + 16]


def test_one_step_extension_forms_no_scalar_product(images, scalar_matrix_calls):
    # The system and the Schur block are built as integer rows from window
    # positions: no `Matrix` is taken to integers (`linalg._image`) and no
    # `Matrix` product or hermitian test runs.
    for complex_ in (False, True):
        f = state_functional(TWO_LOOPS, 1, True, [2], random.Random(0), complex_)
        del images[:], scalar_matrix_calls[:]  # the state's own construction
        assert flat_extend_tip_maximal(f).is_flat().flat
        assert images == []
        assert scalar_matrix_calls == []


@pytest.fixture
def reductions(monkeypatch):
    """Calls of right_groebner and of the per-element reducer `_reduce`, which
    the completion and the kernel trace share, under every module binding."""
    calls = []
    for name in ("right_groebner", "_reduce"):
        fn = getattr(groebner, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        for module in (groebner, cli):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_kernel_routes_run_no_completion(reductions, tmp_path, capsys):
    # A flat rank-2 state on two loops: 19 kernel elements, 12 of them not
    # kept.  `groebner --from-kernel` reduces each of the 12 once, by the
    # kept elements, and runs no completion; the other routes reduce
    # nothing.
    f = state_functional(TWO_LOOPS, 2, True, [2], random.Random(7))
    assert f.is_flat().flat
    gb = kernel_groebner(f)
    assert len(f.kernel_basis()) > len(gb.elements)
    build_representation(f)
    ext = FlatExtension(f)
    ext.evaluate(TWO_LOOPS.path([(0, False), (1, True)] * 4))
    assert reductions == []

    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(fileio.functional_to_dict(f)), encoding="utf-8")
    assert cli.main(["groebner", "--from-kernel", str(fpath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["elements"]) == len(gb.elements)
    assert reductions == ["_reduce"] * 12


def test_rep_kernel_builds_each_element_from_its_nonzero_terms(monkeypatch):
    # `gns kernel` of the committed compression of a PSD chain state at
    # degree 6: each element is built from the sparse terms of its echelon
    # vector, so `Element.from_terms` is handed exactly the output terms,
    # not one pair per word.
    rep = fileio.load_representation(FIXTURES / "fix_psd_chain_compressed.json")
    pairs = []
    fn = algebra.Element.from_terms

    def counted(double, given):
        given = list(given)
        pairs.append(len(given))
        return fn(double, given)

    monkeypatch.setattr(algebra.Element, "from_terms", staticmethod(counted))
    elements = gns.rep_kernel(rep, 6)
    assert len(elements) == len(pairs) > 0
    assert sum(pairs) == sum(len(e.terms) for e in elements)


@pytest.fixture
def compose_calls(monkeypatch):
    """Calls of quiver.compose, under every module binding."""
    calls = []
    fn = quiver.compose

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in (quiver, algebra, moment, groebner, gns, extension, sos, fileio, cli):
        if getattr(module, "compose", None) is fn:
            monkeypatch.setattr(module, "compose", counted)
    return calls


@pytest.fixture
def assemblies(monkeypatch):
    """Integer gathers of a block's moment entries, `Scalar` principal
    submatrices read off the image and `Matrix` images, each with its size,
    in call order."""
    calls = []
    gather, principal, image = TruncatedFunctional._gather, TruncatedFunctional.principal, linalg._image

    def counted_gather(self, keys):
        calls.append(("gather", len(keys)))
        return gather(self, keys)

    def counted_principal(self, at):
        at = list(at)
        calls.append(("principal", len(at)))
        return principal(self, at)

    def counted_image(m, real=None):
        calls.append(("image", m.rows, m.cols))
        return image(m, real)

    monkeypatch.setattr(TruncatedFunctional, "_gather", counted_gather)
    monkeypatch.setattr(TruncatedFunctional, "principal", counted_principal)
    monkeypatch.setattr(linalg, "_image", counted_image)
    return calls


@pytest.fixture(scope="module")
def rank3_two_loops_file(tmp_path_factory):
    # The shape of a flat_gns instance: a rank-3 state on two loops with
    # trivial paths and k = 3 (an 85-path V_k in a 5461-path window), whose
    # completion makes 300+ reductions.
    fpath = tmp_path_factory.mktemp("rank3") / "f.json"
    state = state_functional(TWO_LOOPS, 3, True, [3], random.Random(11))
    fpath.write_text(json.dumps(fileio.functional_to_dict(state)), encoding="utf-8")
    return fpath


def test_loaded_functional_assembles_its_moment_matrix_once(rank3_two_loops_file, compose_calls, assemblies):
    # Read from its file, the functional's flatness report and its kernel
    # Gröbner basis with its containment check gather one 85x85 integer
    # image, build no `Scalar` moment matrix and call no compose.
    f = fileio.load_functional(rank3_two_loops_file)
    assert f.is_flat().flat
    gb = kernel_groebner(f)
    assert gb.elements
    assert compose_calls == []
    assert assemblies == [("gather", 85)]


@pytest.mark.parametrize("complex_", [False, True])
def test_compress_reads_its_systems_off_the_image(complex_, tmp_path, capsys, assemblies, eliminations):
    # A PD state on two loops with k = 2, read from its file: the gram, F and
    # every right-hand side are read off the one 21x21 integer image by
    # window position; the gram is its principal submatrix at the 21 reps.
    # No `Matrix` is taken to integers, and `gns compress` eliminates nothing.
    f = pd_functional(TWO_LOOPS, 2, True, random.Random(5), complex_=complex_)
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(fileio.functional_to_dict(f)), encoding="utf-8")
    del assemblies[:], eliminations[:]  # the state's own draw
    assert cli.main(["gns", "compress", str(fpath)]) == 0
    assert json.loads(capsys.readouterr().out)["basis"]
    assert assemblies == [("gather", 21), ("principal", 21)]
    assert eliminations == []


def test_build_reads_its_gram_off_the_image(rank3_two_loops_file, assemblies, capsys):
    # `gns build` of a flat rank-3 state: the gram is B_{L_k} at the three
    # LDL^H pivots, read off the one 85x85 integer image.
    assert cli.main(["gns", "build", str(rank3_two_loops_file)]) == 0
    assert len(json.loads(capsys.readouterr().out)["gram"]) == 3
    assert assemblies == [("gather", 85), ("principal", 3)]


@pytest.mark.parametrize(
    "argv",
    [["moment", "flat"], ["moment", "psd"], ["moment", "tipmax"], ["moment", "rank"],
     ["groebner", "--from-kernel"], ["evaluate", "--path", "x y x*", "--functional"]],
    ids=lambda argv: "_".join(a for a in argv if not a.startswith("-") and " " not in a),
)
def test_verdict_commands_build_no_scalar_moment_matrix(argv, rank3_two_loops_file, assemblies, capsys):
    # A flat rank-3 state on two loops at k = 3 has a kernel tip of length 2.
    code = 1 if argv[-1] == "tipmax" else 0
    assert cli.main(argv + [str(rank3_two_loops_file)]) == code
    capsys.readouterr()
    assert assemblies == [("gather", 85)]


@pytest.fixture
def algebra_calls(monkeypatch):
    """Calls of Element.__mul__.

    `Matrix` has no product: it is an I/O type."""
    assert not hasattr(linalg.Matrix, "__mul__")
    calls = []
    fn = algebra.Element.__mul__

    def counted(*args, **kwargs):
        calls.append("Element.__mul__")
        return fn(*args, **kwargs)

    monkeypatch.setattr(algebra.Element, "__mul__", counted)
    return calls


def test_groebner_from_kernel_forms_no_element_product(rank3_two_loops_file, algebra_calls, reductions, capsys):
    assert cli.main(["groebner", "--from-kernel", str(rank3_two_loops_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["reductions"]) > 300
    assert "right_groebner" not in reductions
    assert algebra_calls == []


def test_groebner_trace_computes_each_step_and_each_path_once(rank3_two_loops_file, monkeypatch, capsys):
    # The flat_gns two-loop shape: the 330 reductions of the kernel
    # elements that are not kept hit 82 distinct targets and name 85
    # distinct paths.  `groebner --trace --from-kernel` computes the step at
    # each target once (not once per event), builds one `Path` per distinct
    # trace path (not three per event), and the trace lines and the file
    # share one text per distinct path.
    steps, built, texts = [], [], []
    step, events, text = groebner._step, groebner._events, fileio.path_to_text
    monkeypatch.setattr(groebner, "_step", lambda m, *args: steps.append(m) or step(m, *args))
    monkeypatch.setattr(fileio, "path_to_text", lambda p: texts.append(p) or text(p))

    def spied(double, evs):
        with monkeypatch.context() as m:
            m.setattr(groebner, "Path", lambda *args: built.append(args[1:]) or quiver.Path(*args))
            return events(double, evs)

    monkeypatch.setattr(groebner, "_events", spied)
    assert cli.main(["groebner", "--trace", "--from-kernel", str(rank3_two_loops_file)]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    trace, data = [json.loads(line) for line in lines], json.loads(last)
    assert len(trace) == 330 and data["reductions"] == trace
    paths = {p for ev in trace for p in ev.values()}
    assert len(steps) == len(set(steps)) == len({ev["target"] for ev in trace}) == 82
    assert len(built) == len(set(built)) == len(paths) == 85
    assert len(texts) == len(paths) + sum(len(e["terms"]) for e in data["elements"])


def test_kernel_groebner_forms_no_scalar_product(rank3_two_loops_file, algebra_calls):
    f = fileio.load_functional(rank3_two_loops_file)
    assert f.is_flat().flat
    assert len(kernel_groebner(f).elements) > 0
    assert algebra_calls == []


@pytest.fixture
def images(monkeypatch):
    """Calls of `linalg._image`, which takes a `Matrix` to integers, with each one's shape."""
    calls = []
    fn = linalg._image

    def counted(m, real=None):
        calls.append((m.rows, m.cols))
        return fn(m, real)

    monkeypatch.setattr(linalg, "_image", counted)
    return calls


@pytest.mark.parametrize("complex_", [False, True])
def test_gns_check_takes_each_matrix_to_integers_once(complex_, tmp_path, capsys, images, scalar_matrix_calls):
    # The shape of a psd_compress instance: the compression of a PD state on
    # two loops with k = 2, read back from its file.  Every product and
    # comparison of `gns check` runs on one integer image per generator
    # matrix (one vertex, four letters) and one of the gram.
    f = pd_functional(TWO_LOOPS, 2, True, random.Random(5), complex_=complex_)
    fpath, rpath = tmp_path / "f.json", tmp_path / "rep.json"
    fpath.write_text(json.dumps(fileio.functional_to_dict(f)), encoding="utf-8")
    assert cli.main(["gns", "compress", str(fpath), "-o", str(rpath)]) == 0
    capsys.readouterr()
    del images[:], scalar_matrix_calls[:]
    assert cli.main(["gns", "check", str(rpath)]) == 0
    assert json.loads(capsys.readouterr().out) == {"passed": True, "failures": [], "checks": 15}
    assert images == [(21, 21)] * 6
    assert scalar_matrix_calls == []


def test_sos_verify_pivots_the_gram_once(tmp_path, capsys, psd_pivotings, scalar_matrix_calls):
    # A valid Gram certificate: the order-2 moment matrix of a PD state on
    # two loops as the Gram of the paths of length <= 2.  Its verdict and
    # its weighted squares come from one LDL^H pivoting, and the hermitian
    # test runs on the integers that pivoting reads.
    f = pd_functional(TWO_LOOPS, 2, True, random.Random(5))
    basis, gram = f.basis(2), f.moment_matrix().m
    cert = {
        "quiver": fileio.quiver_to_dict(TWO_LOOPS.base),
        "target": fileio.element_to_dict(sos.expand_gram(list(basis), gram)),
        "degree": 2,
        "basis": [fileio.path_to_text(p) for p in basis],
        "gram": fileio.matrix_to_rows(gram),
    }
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(cert), encoding="utf-8")
    del scalar_matrix_calls[:]  # the certificate's own construction
    assert cli.main(["sos", "verify", str(cpath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and len(out["squares"]) == 21
    assert psd_pivotings == [21]
    assert scalar_matrix_calls == []


def test_sos_verify_compares_before_it_pivots(capsys, psd_pivotings):
    # The two-loop Gram certificate (a 21-path basis, 341 target terms) and
    # its copy with one target coefficient raised by one: the tampered
    # target misses the expansion, so its gram is not pivoted at all.
    for name, code, pivotings in [("fix_pd_two_loops_tampered", 1, []), ("fix_pd_two_loops_certificate", 0, [21])]:
        del psd_pivotings[:]
        assert cli.main(["sos", "verify", str(FIXTURES / f"{name}.json")]) == code
        assert json.loads(capsys.readouterr().out)["valid"] is (code == 0)
        assert psd_pivotings == pivotings


@pytest.fixture
def scalars_built(monkeypatch):
    """`Scalar`s built: calls of the constructor and of `Scalar._make`, which
    every parse, `from_numerators` and arithmetic step goes through."""
    calls = []
    make, init = Scalar._make, Scalar.__init__

    def counted_make(re, im):
        calls.append("_make")
        return make(re, im)

    def counted_init(self, re=0, im=0):
        calls.append("__init__")
        init(self, re, im)

    monkeypatch.setattr(Scalar, "_make", staticmethod(counted_make))
    monkeypatch.setattr(Scalar, "__init__", counted_init)
    return calls


@pytest.mark.parametrize("complex_", [False, True])
def test_psd_compress_commands_build_no_scalar_matrix(complex_, tmp_path, capsys, scalars_built):
    # The shape of a psd_compress instance: a PD state on two loops with
    # k = 2, its compression, the relation check of the compression read
    # back, its Gram certificate and a copy with one target coefficient
    # raised by one.  Matrices cross the files as integer images: no command
    # builds a `Scalar` of a matrix, a target or a square.  The one vector
    # of `Scalar`s is a representation's cyclic vector, a public tuple of
    # `Scalar`: `gns compress` builds it to print it, and `gns check` reads
    # it back; each builds one per nonzero entry.
    f = pd_functional(TWO_LOOPS, 2, True, random.Random(5), complex_=complex_)
    basis, gram = f.basis(2), f.moment_matrix().m
    target = fileio.element_to_dict(sos.expand_gram(list(basis), gram))
    cert = {
        "quiver": fileio.quiver_to_dict(TWO_LOOPS.base),
        "target": target,
        "degree": 2,
        "basis": [fileio.path_to_text(p) for p in basis],
        "gram": fileio.matrix_to_rows(gram),
    }
    raised = [dict(t) for t in target["terms"]]
    raised[5]["coeff"] = str(Scalar.parse(raised[5]["coeff"]) + Scalar(1))
    fpath, rpath = tmp_path / "f.json", tmp_path / "rep.json"
    good, bad = tmp_path / "cert.json", tmp_path / "tampered.json"
    fpath.write_text(json.dumps(fileio.functional_to_dict(f)), encoding="utf-8")
    good.write_text(json.dumps(cert), encoding="utf-8")
    bad.write_text(json.dumps({**cert, "target": {"terms": raised}}), encoding="utf-8")
    built = {}
    for name, argv, code in [
        ("compress", ["gns", "compress", str(fpath), "-o", str(rpath)], 0),
        ("check", ["gns", "check", str(rpath)], 0),
        ("verify", ["sos", "verify", str(good)], 0),
        ("verify tampered", ["sos", "verify", str(bad)], 1),
    ]:
        del scalars_built[:]
        assert cli.main(argv) == code
        capsys.readouterr()
        built[name] = len(scalars_built)
    cyclic = json.loads(rpath.read_text(encoding="utf-8"))["cyclic"]
    nonzero = sum(c != "0" for c in cyclic)
    assert 0 < nonzero <= 21
    assert built == {"compress": nonzero, "check": nonzero, "verify": 0, "verify tampered": 0}


def test_sos_verify_of_squares_builds_no_scalar_and_no_element_arithmetic(capsys, scalars_built, monkeypatch):
    # A weighted squares certificate with Gaussian coefficients and its copy
    # with one target coefficient raised by one: the target, the squares and
    # the weights are read as numerators and the squares' gram is built on
    # integers, so no `Scalar` is built and no `Element` is added,
    # multiplied, scaled or starred.
    ops = []
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "scale", "star"):
        fn = getattr(algebra.Element, name)
        monkeypatch.setattr(algebra.Element, name, lambda *args, _name=name, _fn=fn: ops.append(_name) or _fn(*args))
    for name, code in [("fix_squares_certificate", 0), ("fix_squares_tampered", 1)]:
        del scalars_built[:]
        assert cli.main(["sos", "verify", str(FIXTURES / f"{name}.json")]) == code
        assert json.loads(capsys.readouterr().out) == {"valid": code == 0, "kind": "squares"}
        assert scalars_built == []
    assert ops == []


@pytest.mark.parametrize("source", ["functional", "groebner"])
def test_gns_build_builds_scalars_only_for_the_cyclic_vector(
    source, rank3_two_loops_file, tmp_path, capsys, scalars_built, monkeypatch
):
    # `gns build` of the flat_gns two-loop shape (trivial paths, so a cyclic
    # vector) and of a quotient rebuilt from a Gröbner-basis file and a gram
    # (no trivial paths, no cyclic vector).  Once the Gröbner basis is there
    # (its elements are public `Element`s), the quotient is built on
    # integers: each arrow column is an integer fold of the tip table, no
    # `Element` normal form is taken, and the one vector of `Scalar`s is
    # the cyclic vector, one per nonzero entry.
    built = []
    quotient = gns._quotient_representation

    def counted(*args):
        del scalars_built[:]
        rep = quotient(*args)
        built.append(len(scalars_built))
        return rep

    monkeypatch.setattr(gns, "_quotient_representation", counted)
    monkeypatch.setattr(groebner.RightGroebnerBasis, "nf", lambda *args: pytest.fail("an Element normal form"))
    fpath = rank3_two_loops_file if source == "functional" else FIXTURES / "fix_groebner_gram.json"
    rpath = tmp_path / "rep.json"
    assert cli.main(["gns", "build", str(fpath), "-o", str(rpath)]) == 0
    capsys.readouterr()
    cyclic = json.loads(rpath.read_text(encoding="utf-8"))["cyclic"]
    assert (cyclic is None) == (source == "groebner")
    assert built == [sum(c != "0" for c in cyclic or [])]
