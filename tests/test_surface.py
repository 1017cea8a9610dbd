"""The public surface of pkcore is what some caller takes.

Every public function of the library modules (module level, or a method
of a public class) must be entered by one of the CLI calls pinned in
tools/cli_digest.py or be called by name in perfbench/gate.py; the rule
has no exceptions. A function neither reaches is a second route to an
object the product builds elsewhere, or a check only the tests run, and
belongs in the tests or nowhere.

tests/oracles.py is imported by perfbench's harness, which runs without
pkcore on its path, so it reads pkcore only inside its functions.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pkcore.cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "modring", "primes", "corefst", "pairsums", "waring", "generators")


def public_functions():
    """name -> function for every public function of MODULES and every
    public method of their public classes."""
    out = {}
    for name in MODULES:
        mod = importlib.import_module(f"pkcore.{name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{name}.{attr}"] = obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        out[f"{name}.{attr}.{meth}"] = fn
    return out


def gate_names():
    """The pk.<module>.<name> attributes that perfbench/gate.py calls, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "gate.py").read_text())
    return {
        f"{node.value.attr}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "pk"
    }


def reached_code(monkeypatch):
    """The code objects entered while every cli_digest.CALLS call runs once,
    from cold caches, the formats taken in turn."""
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    monkeypatch.setattr(pkcore.cli, "_parser", None)  # built on first use: trace the build
    for name in MODULES:
        for obj in vars(importlib.import_module(f"pkcore.{name}")).values():
            if hasattr(obj, "cache_clear"):  # lru caches: a hit enters no code
                obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for i, argv in enumerate(digest.CALLS):
            digest.run(argv + ["--format", digest.FORMATS[i % len(digest.FORMATS)]])
    finally:
        sys.setprofile(None)
    return codes


def test_every_public_function_has_a_caller(monkeypatch):
    codes = reached_code(monkeypatch)
    gate = gate_names()
    unreached = sorted(
        name
        for name, fn in public_functions().items()
        if fn.__code__ not in codes and ".".join(name.split(".")[:2]) not in gate
    )
    assert not unreached, f"public functions no CLI call or gate call reaches: {unreached}"


def module_level_imports(tree):
    """The module names imported by the statements that run at import
    time: everything outside function bodies (class bodies included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        stack.extend(ast.iter_child_nodes(node))


def test_oracles_import_no_pkcore_at_module_level():
    names = module_level_imports(ast.parse((ROOT / "tests" / "oracles.py").read_text()))
    assert not [n for n in names if n == "pkcore" or n.startswith("pkcore.")]
    # the guard sees what it must refuse, and lets function-local imports pass
    tree = ast.parse("import pkcore.cli\nif 1:\n    from pkcore import waring\ndef f():\n    import pkcore\n")
    assert sorted(module_level_imports(tree)) == ["pkcore", "pkcore.cli"]
