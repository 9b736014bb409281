"""The package's public names and parameters are those its commands, demos and bench use.

Every module-level function or class of ``src/relaysec/*.py`` without a
leading underscore must be read, as a name or an attribute, outside its
own definition somewhere in ``src``, ``demos`` or ``perfbench``; a name
only tests call belongs in the tests.  Likewise every defaulted parameter
of a public function, or of a public method of a public class, must be
passed, by keyword or by position, by some call of that name there; a
setting only tests change belongs in the tests.  The exceptions are the
names and parameters an open ROADMAP item claims, each listed with its
item; the parameters of a claimed name share its claim.  A claim whose
name or parameter gains a caller or disappears fails too, so the lists
cannot go stale.
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
# defaulted parameters no caller passes yet, beyond a claimed name's: parameter -> its item
CLAIMED_PARAMETERS = {
    "protocol.TwoHopProtocol.run_batch(keep_records)": "item 7",
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


def _defaulted_parameters() -> list[tuple[str, str, str, int | None]]:
    """(qualname, parameter, name, call position) per defaulted parameter of a public
    function or a public method of a public class.

    The qualname is ``module.name`` or ``module.Class.name``; a method's position does
    not count its bound ``self``, and a keyword-only parameter has none.
    """
    functions = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions.append((f"{path.stem}.{node.name}", node, 0))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions += [(f"{path.stem}.{node.name}.{item.name}", item, 1)
                              for item in node.body if isinstance(item, ast.FunctionDef)
                              and not item.name.startswith("_")]
    found = []
    for qualname, fn, bound in functions:
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        for i in range(len(positional) - len(args.defaults), len(positional)):
            found.append((qualname, positional[i].arg, fn.name, i - bound))
        found += [(qualname, arg.arg, fn.name, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return found


def _unpassed() -> set[str]:
    """``qualname(parameter)`` for each defaulted parameter of an unclaimed name that no
    call of that name passes.

    A call passes a parameter by its keyword or by reaching its position; a ``*``
    argument reaches every later position and a ``**`` argument every keyword.
    """
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = set()
    for qualname, parameter, name, position in _defaulted_parameters():
        if set(qualname.split(".")[1:]) & set(CLAIMED):
            continue  # a claimed name's parameters share its claim
        for call in calls.get(name, ()):
            keywords = {keyword.arg for keyword in call.keywords}  # None for a ** argument
            starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
            if keywords & {parameter, None} or position is not None and (
                    position < len(call.args) or starred and starred[0] <= position):
                break
        else:
            unpassed.add(f"{qualname}({parameter})")
    return unpassed


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


def test_every_defaulted_parameter_has_a_caller_or_a_claim():
    unclaimed = sorted(_unpassed() - set(CLAIMED_PARAMETERS))
    assert not unclaimed, ("defaulted parameters no caller in src, demos or perfbench passes: "
                           f"{unclaimed}")


def test_claimed_parameters_exist_and_have_no_caller_yet():
    labels = {f"{qualname}({parameter})" for qualname, parameter, *_ in _defaulted_parameters()}
    gone = sorted(set(CLAIMED_PARAMETERS) - labels)
    assert not gone, f"claimed parameters that no longer exist, drop their claims: {gone}"
    passed = sorted(set(CLAIMED_PARAMETERS) - _unpassed())
    assert not passed, ("claimed parameters that now have a caller or a claimed name, "
                        f"drop their claims: {passed}")


def test_package_init_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
