"""Command-line orchestration.

Exit codes: 0 for pass/true verdicts, 1 for false verdicts (including
obstructed extensions), 2 for input errors (an output that cannot be
written among them, stdout included), 3 for internal invariant failures
and any other internal error (one line on stderr, no traceback).  All
numeric output uses the exact scalar grammar.

Importing this module loads only what parsing the arguments needs and
`errors`.  Each command imports the modules it runs when it is called:
`moment flat`, for one, loads `fileio` and the layers under it (`moment`,
`linalg`, `quiver`, `algebra`, `scalar`), but not `gns`, `groebner`,
`extension` or `sos`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path as FsPath

from .errors import (
    ExtensionObstructed,
    InputError,
    InternalInvariantError,
    NotFlatError,
)


def _emit(data) -> None:
    print(json.dumps(data))


def _write_or_emit(data, out) -> None:
    if out:
        from . import fileio

        try:
            FsPath(out).write_text(fileio.dumps_indented(data) + "\n", encoding="utf-8")
        except OSError as e:
            raise InputError(f"{out}: {e}") from None
        _emit({"written": str(out)})
    else:
        _emit(data)


def _order_for(double, order_file):
    """The path order of `double` that `--order-file` names, or its default order."""
    from . import fileio

    return fileio.load_order(double, order_file) if order_file else double.default_order()


def _window_flag(value: str) -> bool:
    if value == "trivial":
        return True
    if value == "nontrivial":
        return False
    raise InputError(f"--window must be 'trivial' or 'nontrivial', not {value!r}")


def _from(path, fn, *args):
    """fn(*args), with the input file prefixed to the library's InputErrors."""
    try:
        return fn(*args)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


# -- commands -----------------------------------------------------------------


def cmd_order_check(args) -> int:
    import random

    from . import fileio
    from .quiver import compose, enumerate_basis

    if args.samples < 0:
        raise InputError(f"--samples must be a non-negative integer, not {args.samples}")
    double = fileio.load_quiver(args.quiver)
    order = _order_for(double, args.order_file)
    include_trivial = _window_flag(args.window)
    pool = enumerate_basis(double, order, args.max_len, include_trivial)
    if not pool:
        raise InputError("empty path pool; increase --max-len")
    rng = random.Random(args.seed)
    checked = {"a1": 0, "a2": 0, "a3": 0}
    violations = {"a1": 0, "a2": 0, "a3": 0}
    for _ in range(args.samples):
        p1, p2, p3 = (rng.choice(pool) for _ in range(3))
        if order.compare(p1, p2) > 0:
            a, b = compose(p1, p3), compose(p2, p3)
            if a and b:
                checked["a1"] += 1
                if order.compare(a, b) <= 0:
                    violations["a1"] += 1
            a, b = compose(p3, p1), compose(p3, p2)
            if a and b:
                checked["a2"] += 1
                if order.compare(a, b) <= 0:
                    violations["a2"] += 1
        whole = compose(compose(p1, p2), p3)
        if whole:
            checked["a3"] += 1
            if order.compare(whole, p2) < 0:
                violations["a3"] += 1
    _emit({"samples": args.samples, "checked": checked, "violations": violations})
    return 0 if not any(violations.values()) else 1


def cmd_moment(args) -> int:
    from . import fileio

    f = fileio.load_functional(args.functional)
    if args.verdict == "rank":
        # rank B_{L_k}: the pivot count of its LDL^H pivoting, or of its echelon form off PSD data
        _emit({"rank": f.is_flat().rank_k, "order": f.k})
        return 0
    if args.verdict == "psd":
        ok = f.is_psd()
        _emit({"psd": ok})
        return 0 if ok else 1
    if args.verdict == "flat":
        rep = f.is_flat()
        _emit(
            {
                "flat": rep.flat,
                "rank_k": rep.rank_k,
                "rank_km1": rep.rank_km1,
                "range_contained": rep.range_contained,
                "window": "trivial" if f.include_trivial else "nontrivial",
            }
        )
        return 0 if rep.flat else 1
    ok = f.is_tip_maximal()
    _emit({"tip_maximal": ok})
    return 0 if ok else 1


def cmd_kernel(args) -> int:
    from . import fileio

    f = fileio.load_functional(args.functional)
    elems = f.kernel_basis()
    data = {
        "quiver": fileio.quiver_to_dict(f.double.base),
        "elements": [fileio.element_to_dict(e) for e in elems],
    }
    _write_or_emit(data, args.output)
    return 0


def cmd_groebner(args) -> int:
    from . import fileio
    from .groebner import kernel_groebner, right_groebner

    if args.generators:
        path = FsPath(args.generators)
        double, gens = fileio.generators_from_dict(
            fileio.load_json(path), path.parent, str(path)
        )
        order = _order_for(double, args.order_file)
        gb = right_groebner(gens, order)
    else:
        f = fileio.load_functional(args.from_kernel)
        double = f.double
        # The output lists the reductions of the other kernel elements by the kept ones.
        gb = _from(args.from_kernel, kernel_groebner, f, True)
    data = fileio.groebner_to_dict(gb, double)
    if args.trace:
        for ev in data["reductions"]:
            _emit(ev)
    _write_or_emit(data, args.output)
    return 0


def cmd_extend(args) -> int:
    from . import fileio
    from .extension import flat_extend_tip_maximal

    if not args.tip_maximal:
        raise InputError("only --tip-maximal extension is available")
    f = fileio.load_functional(args.functional)
    ext = _from(args.functional, flat_extend_tip_maximal, f, args.general_quiver)
    _write_or_emit(fileio.functional_to_dict(ext), args.output)
    return 0


def cmd_evaluate(args) -> int:
    from . import fileio
    from .extension import FlatExtension

    f = fileio.load_functional(args.functional)
    ext = _from(args.functional, FlatExtension, f)
    p = fileio.parse_path(f.double, args.path, source="--path")
    _emit({"path": fileio.path_to_text(p), "value": str(_from(args.functional, ext.evaluate, p))})
    return 0


def cmd_gns_build(args) -> int:
    from . import fileio
    from .gns import build_from_groebner, build_representation

    path = FsPath(args.input)
    data = fileio.load_json(path)
    if isinstance(data, dict) and "groebner" in data:
        from .groebner import right_groebner

        double = fileio.resolve_quiver(data.get("quiver"), path.parent, str(path))
        order = _order_for(double, args.order_file)
        gens = fileio.elements_from_list(double, data["groebner"], "groebner", str(path))
        gb = right_groebner(gens, order)
        gram = fileio.matrix_from_rows(data.get("gram", []), str(path))
        include_trivial = fileio.read_flag(data, "include_trivial", False, str(path))
        rep = _from(path, build_from_groebner, double, gb, gram, include_trivial)
    else:
        f = fileio.functional_from_dict(data, path.parent, str(path))
        rep = _from(path, build_representation, f)
    _write_or_emit(fileio.representation_to_dict(rep), args.output)
    return 0


def cmd_gns_compress(args) -> int:
    from . import fileio
    from .gns import compress_representation

    f = fileio.load_functional(args.functional)
    rep = _from(args.functional, compress_representation, f)
    _write_or_emit(fileio.representation_to_dict(rep), args.output)
    return 0


def cmd_gns_check(args) -> int:
    from . import fileio
    from .gns import check_relations

    rep = fileio.load_representation(args.representation)
    report = check_relations(rep)
    _emit({"passed": report.passed, "failures": report.failures(), "checks": len(report.checks)})
    return 0 if report.passed else 1


def cmd_gns_kernel(args) -> int:
    from . import fileio
    from .gns import rep_kernel

    if args.degree < 1:
        raise InputError(f"--degree must be >= 1, not {args.degree}")
    rep = fileio.load_representation(args.representation)
    elems = rep_kernel(rep, args.degree, include_trivial=_window_flag(args.window))
    data = {
        "quiver": fileio.quiver_to_dict(rep.double.base),
        "degree": args.degree,
        "elements": [fileio.element_to_dict(e) for e in elems],
    }
    _write_or_emit(data, args.output)
    return 0


def cmd_sos_verify(args) -> int:
    from . import fileio, sos

    path = FsPath(args.certificate)
    double, target, kind, payload = fileio.certificate_from_dict(
        fileio.load_json(path), path.parent, str(path)
    )

    def verdict() -> dict:
        # integers from the file to the output: the target's numerators, the squares' or the gram's image
        if kind == "squares":
            squares, weights, degree = payload
            return {"valid": sos._verify_squares(double, target, squares, weights, degree), "kind": "squares"}
        basis, gram, degree = payload
        pivots = sos._certify(target, basis, gram, degree)
        out = {"valid": pivots is not None, "kind": "gram"}
        if pivots is not None:
            out["squares"] = sos._square_dicts(basis, pivots)
        return out

    out = _from(path, verdict)
    _emit(out)
    return 0 if out["valid"] else 1


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quivermoment",
        description="Exact truncated moment problems on path *-algebras of quiver doubles.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order-check", help="sample the admissible-order axioms A1-A3")
    p.add_argument("quiver")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--window", default="trivial", choices=["trivial", "nontrivial"])
    p.add_argument("--order-file")
    p.set_defaults(func=cmd_order_check)

    p = sub.add_parser("moment", help="moment-matrix verdicts")
    p.add_argument("verdict", choices=["rank", "psd", "flat", "tipmax"])
    p.add_argument("functional")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("kernel", help="echelon basis of the moment-matrix kernel")
    p.add_argument("functional")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("groebner", help="right Gröbner basis of a right ideal")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--generators")
    src.add_argument("--from-kernel")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--order-file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("extend", help="one-step flat extension of a tip-maximal functional")
    p.add_argument("functional")
    p.add_argument("--tip-maximal", action="store_true")
    p.add_argument("--general-quiver", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("evaluate", help="evaluate the unique flat extension on a path")
    p.add_argument("--functional", required=True)
    p.add_argument("--path", required=True)
    p.set_defaults(func=cmd_evaluate)

    gns = sub.add_parser("gns", help="representation extraction and diagnostics").add_subparsers(
        dest="gns_command", required=True
    )
    p = gns.add_parser("build", help="quotient representation of a flat PSD functional")
    p.add_argument("input")
    p.add_argument("--order-file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gns_build)
    p = gns.add_parser("compress", help="compression of a PSD functional")
    p.add_argument("functional")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gns_compress)
    p = gns.add_parser("check", help="verify path relations and adjointness")
    p.add_argument("representation")
    p.set_defaults(func=cmd_gns_check)
    p = gns.add_parser("kernel", help="elements acting as zero on a representation")
    p.add_argument("representation")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--window", default="nontrivial", choices=["trivial", "nontrivial"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gns_kernel)

    sosp = sub.add_parser("sos", help="sum-of-hermitian-squares certificates").add_subparsers(
        dest="sos_command", required=True
    )
    p = sosp.add_parser("verify", help="verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_sos_verify)

    return ap


# The parser `main` reuses, built on its first call; it holds no state of any
# input.  `build_parser` still returns a fresh one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except (NotFlatError, ExtensionObstructed) as e:
            _emit({"error": str(e)})
            code = 1
        sys.stdout.flush()  # a stdout nobody reads fails here, not at exit
        return code
    except BrokenPipeError as e:  # as an -o file that cannot be written
        print(f"error: stdout: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"internal invariant failure: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # any other failure is internal: exit 3, no traceback
        message = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # reported by main; what is still buffered goes nowhere at exit
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
