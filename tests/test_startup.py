"""What importing the package and running one command load.

Each test runs a fresh interpreter without site-packages (`python -S`, as
the CLI runs in a bare interpreter) on the sources under `src/`, and reads
its `sys.modules`.  A module counts as loaded once its code has run: the
package registers its modules as lazy modules, of a subclass of
`types.ModuleType` until one of their attributes is read.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "fix_l2_ext.json"


def run(code: str) -> tuple[list[str], set[str]]:
    """The lines `code` prints, and the modules loaded when it ends."""
    code += (
        "\nimport json as _json, sys as _sys, types as _types"
        "\nprint(_json.dumps(sorted(n for n, m in _sys.modules.items() if type(m) is _types.ModuleType)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    *lines, modules = proc.stdout.splitlines()
    return lines, set(json.loads(modules))


def package(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "quivermoment" or m.startswith("quivermoment.")}


def test_importing_the_cli_loads_no_command_module():
    _, modules = run("import quivermoment.cli")
    assert package(modules) == {"quivermoment", "quivermoment.cli", "quivermoment.errors"}


def test_every_module_is_registered_before_it_runs():
    """`sys.modules` holds every module of the package from the first import,
    so code that wraps functions it finds there (a tracer, say) sees them all;
    reading an attribute runs the module."""
    lines, modules = run(
        "import sys, types, quivermoment.cli\n"
        "print(sorted(n for n in sys.modules if n.startswith('quivermoment.')))\n"
        "print(sys.modules['quivermoment.sos'].verify_gram.__module__)\n"
        "from quivermoment import gns\n"
        "print(gns is sys.modules['quivermoment.gns'], type(gns) is types.ModuleType)"
    )
    names = ("algebra", "cli", "errors", "extension", "fileio", "gns", "groebner", "linalg", "moment", "quiver",
             "scalar", "sos")
    assert lines == [str([f"quivermoment.{m}" for m in names]), "quivermoment.sos", "True False"]
    assert "quivermoment.sos" in modules and "quivermoment.gns" not in modules


def test_moment_flat_loads_only_the_layers_it_runs():
    lines, modules = run(f"from quivermoment.cli import main\nprint(main(['moment', 'flat', {str(FIXTURE)!r}]))")
    assert json.loads(lines[0])["flat"] is True and lines[1] == "0"
    assert package(modules) == {
        f"quivermoment.{m}" for m in ("cli", "errors", "fileio", "moment", "quiver", "linalg", "scalar", "algebra")
    } | {"quivermoment"}
    for name in ("gns", "groebner", "extension", "sos"):
        assert f"quivermoment.{name}" not in modules
    assert not {"dataclasses", "inspect"} & modules


def test_evaluate_and_gns_build_of_a_functional_load_no_groebner():
    """Both read the quotient off the echelon kernel (`extension`)."""
    lines, modules = run(
        "from quivermoment.cli import main\n"
        f"print(main(['evaluate', '--functional', {str(FIXTURE)!r}, '--path', 'x x* x x* x x*']))\n"
        f"print(main(['gns', 'build', {str(FIXTURE)!r}]))"
    )
    assert json.loads(lines[0])["value"] == "1" and lines[1] == "0" and lines[-1] == "0"
    assert {"quivermoment.extension", "quivermoment.gns"} <= modules
    assert "quivermoment.groebner" not in modules


def test_no_command_loads_dataclasses(tmp_path):
    """`dataclasses` would pull in `inspect`, `ast`, `dis` and `tokenize` at every start."""
    fixtures = ROOT / "tests" / "fixtures"
    rep, quiver = tmp_path / "rep.json", tmp_path / "quiver.json"
    quiver.write_text(json.dumps({"vertices": ["e"], "arrows": [{"name": "x", "from": "e", "to": "e"}]}))
    commands = [
        ["groebner", "--from-kernel", fixtures / "fix_l2_ext.json"],
        ["gns", "build", fixtures / "fix_l2_ext.json"],
        ["evaluate", "--functional", fixtures / "fix_l2_ext.json", "--path", "x x*"],
        ["extend", fixtures / "fix_gauss_pd_loop.json", "--tip-maximal"],
        ["gns", "compress", fixtures / "fix_psd_chain.json", "-o", rep],
        ["gns", "check", rep],
        ["gns", "kernel", rep, "--degree", "2"],
        ["sos", "verify", fixtures / "fix_psd_chain_certificate.json"],
        ["order-check", quiver, "--samples", "10"],
    ]
    calls = "".join(f"codes.append(main({[str(a) for a in argv]!r}))\n" for argv in commands)
    lines, modules = run(f"from quivermoment.cli import main\ncodes = []\n{calls}print(codes)")
    assert lines[-1] == str([0] * len(commands))
    assert {"quivermoment.gns", "quivermoment.groebner", "quivermoment.extension", "quivermoment.sos"} <= modules
    assert not {"dataclasses", "inspect"} & modules


def test_every_public_name_resolves_to_its_module():
    lines, _ = run(
        "import importlib, quivermoment as q\n"
        "for name in q.__all__:\n"
        "    module = importlib.import_module('quivermoment.' + q._EXPORTS[name])\n"
        "    print(name, getattr(q, name) is getattr(module, name), name in dir(q))"
    )
    from quivermoment import __all__

    assert len(__all__) == 36
    assert lines == [f"{name} True True" for name in __all__]


def test_readme_lists_exactly_the_public_names():
    # The README paragraph on the public surface names each of `__all__`
    # once, and nothing else.
    from quivermoment import __all__

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("The public surface is `quivermoment.__all__`")
    paragraph = readme[start : readme.index("\n\n", start)]
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(__all__)


def test_star_import_binds_every_public_name():
    lines, _ = run(
        "from quivermoment import *\n"
        "import quivermoment as q\n"
        "print(sorted(n for n in q.__all__ if globals().get(n) is not getattr(q, n)))"
    )
    assert lines == ["[]"]


def test_unknown_attribute_raises_attribute_error():
    lines, modules = run(
        "import quivermoment as q\n"
        "try:\n"
        "    q.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
        "print(hasattr(q, 'cli'), hasattr(q, '__path__'))"
    )
    assert lines == ["module 'quivermoment' has no attribute 'no_such_name'", "False True"]
    assert package(modules) == {"quivermoment"}
