"""Exact truncated moment problems on path *-algebras of quiver doubles.

Importing the package runs none of its modules.  Each public name in
`__all__` is looked up in its module when it is first read (PEP 562), so
`quivermoment.Scalar` runs `quivermoment.scalar` and what it imports, and
nothing else.  `from quivermoment import *` binds every public name.

Every module but `cli` and `errors` is registered in `sys.modules` (and
bound on the package) at once, as a lazy module (`importlib.util.LazyLoader`)
whose code runs when one of its attributes is first read.  `import
quivermoment.gns` and `from quivermoment import gns` thus cost nothing
until the module is used, and code that looks a module up in `sys.modules`
finds every module of the package.
"""

# Each public name and the module that defines it, in `__all__` order.
_EXPORTS = {
    "Element": "algebra",
    "ExtensionObstructed": "errors",
    "InputError": "errors",
    "InternalInvariantError": "errors",
    "NotFlatError": "errors",
    "WindowError": "errors",
    "FlatExtension": "extension",
    "flat_extend_tip_maximal": "extension",
    "Representation": "gns",
    "build_from_groebner": "gns",
    "build_representation": "gns",
    "check_relations": "gns",
    "compress_representation": "gns",
    "rep_kernel": "gns",
    "ReductionEvent": "groebner",
    "RightGroebnerBasis": "groebner",
    "kernel_groebner": "groebner",
    "right_groebner": "groebner",
    "Matrix": "linalg",
    "FlatReport": "moment",
    "MomentMatrix": "moment",
    "TruncatedFunctional": "moment",
    "ZERO_PATH": "quiver",
    "DoubleQuiver": "quiver",
    "Path": "quiver",
    "PathOrder": "quiver",
    "Quiver": "quiver",
    "build_double": "quiver",
    "compose": "quiver",
    "enumerate_basis": "quiver",
    "Scalar": "scalar",
    "expand_gram": "sos",
    "expand_squares": "sos",
    "gram_to_squares": "sos",
    "verify_gram": "sos",
    "verify_squares": "sos",
}

__all__ = list(_EXPORTS)


def _lazy(name: str):
    """The module `name` of the package, in `sys.modules`, to run when first used."""
    import sys
    from importlib.machinery import PathFinder
    from importlib.util import LazyLoader, module_from_spec

    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _name in ("algebra", "extension", "fileio", "gns", "groebner", "linalg", "moment", "quiver", "scalar", "sos"):
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
