"""The package's public names are the ones its commands, demos and bench use.

Every module-level function or class of ``src/relaysec/*.py`` without a
leading underscore must be read, as a name or an attribute, outside its
own definition somewhere in ``src``, ``demos`` or ``perfbench``; a name
only tests call belongs in the tests.  The exceptions are the names an
open ROADMAP item claims, each listed with its item.  A claimed name that
gains a caller or disappears fails too, so the list cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relaysec"
CALLERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])

# public names with no caller yet: name -> the ROADMAP item that gives it one
CLAIMED = {
    "guessing_probability": "item 1",
    "wilson_interval": "item 7",
    "power_audit": "item 7",
    "rate_condition_ok": "item 9",
    "alpha_for_power": "item 9",
}


def _public_definitions() -> dict[str, str]:
    """name -> defining module, for each public module-level function and class."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[node.name] = path.stem
    return names


def _referenced(names: dict[str, str]) -> set[str]:
    """The names some caller reads, not counting reads inside the name's own definition."""
    found = set()
    for path in CALLERS:
        in_package = path.parent == PACKAGE
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if not (in_package and names.get(own) == path.stem):
                own = None  # only the definition itself is excluded
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name in names and name != own:
                    found.add(name)
    return found


def test_every_public_name_has_a_caller_or_a_claim():
    names = _public_definitions()
    unused = sorted(f"{names[n]}.{n}" for n in set(names) - _referenced(names) - set(CLAIMED))
    assert not unused, f"public names with no caller in src, demos or perfbench: {unused}"


def test_claimed_names_exist_and_have_no_caller_yet():
    names = _public_definitions()
    gone = sorted(set(CLAIMED) - set(names))
    assert not gone, f"claimed names that no longer exist, drop their claims: {gone}"
    called = sorted(set(CLAIMED) & _referenced(names))
    assert not called, f"claimed names that now have a caller, drop their claims: {called}"


def test_package_init_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
