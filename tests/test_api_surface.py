"""API surface of src/mglue, checked by an AST scan.

Two rules hold for every function (module-level, method or nested):

* each parameter is read somewhere in the function body;
* each defaulted parameter is passed by at least one call under src/,
  tests/ or perfbench/.  A default that no caller overrides is the only
  value in use, so it belongs in the body as a constant.

Calls are matched to functions by name (the called attribute or bare name;
a class name stands for its ``__init__``), so a name shared by two functions
counts for both.  A call with ``*args`` or ``**kwargs`` counts as passing
every parameter.

A third rule holds for every public module-level function and public method
of a public class: its name is used under src/ or perfbench/ outside its own
body.  A function counts a bare name, an attribute or the last part of a
dotted string (the way perfbench names the layers it wraps); a method counts
only an attribute, such as ``.F``, since a bare name like ``F`` is as often
a variable.  A function that only tests use belongs in tests/.

The exceptions are kept on purpose and listed in ALLOWED: keys
(module, function, parameter) for the first two rules, (module, function)
for the third.
"""

import ast
import pathlib
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mglue"
CALLER_DIRS = ("src", "tests", "perfbench")

# (module, qualified function name, parameter) -> reason it stays
ALLOWED = {
    ("newton_picard", "ift_certificate", "dF"):
        "entry point for the analytic differential of the gluing map "
        "(ROADMAP item 6)",
    ("morse_model", "compute_constants", "C_decay"):
        "the decay prefactor that sets the paper's crossover time T0",
    ("morse_model", "compute_constants", "rng"):
        "accepted and unread: the benchmark's workloads pass it; it goes "
        "with the config seed in the next benchmark change (ROADMAP item 1)",
}


def _functions(tree, prefix=""):
    """(qualified name, FunctionDef, is_method) for every def in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + node.name
            yield qual, node, isinstance(tree, ast.ClassDef)
            yield from _functions(node, qual + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _src_functions():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qual, fn, is_method in _functions(tree):
            yield path.stem, qual, fn, is_method


def _positional(fn):
    return fn.args.posonlyargs + fn.args.args


def _all_params(fn):
    a = fn.args
    out = _positional(fn) + a.kwonlyargs
    out += [p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in out]


def _defaulted(fn):
    """(name, positional index or None) of each parameter with a default."""
    pos = _positional(fn)
    first = len(pos) - len(fn.args.defaults)
    out = [(p.arg, i) for i, p in enumerate(pos) if i >= first]
    out += [(p.arg, None) for p, d in zip(fn.args.kwonlyargs,
                                         fn.args.kw_defaults) if d is not None]
    return out


def _names_read(fn):
    return {n.id for stmt in fn.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _call_sites():
    """callee name -> list of (positional count, keyword names, starred)."""
    sites = defaultdict(list)
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                sites[name].append((len(node.args),
                                    {k.arg for k in node.keywords}, starred))
    return sites


def unread_parameters():
    out = []
    for mod, qual, fn, is_method in _src_functions():
        params = _all_params(fn)
        if is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
        read = _names_read(fn)
        out += [(mod, qual, p) for p in params if p not in read]
    return sorted(set(out) - set(ALLOWED))


def unpassed_defaults():
    sites = _call_sites()
    out = []
    for mod, qual, fn, is_method in _src_functions():
        name = fn.name
        if name == "__init__":
            name = qual.split(".")[-2]
        offset = 1 if is_method else 0
        calls = sites.get(name, [])
        for param, idx in _defaulted(fn):
            passed = any(
                starred or param in kws
                or (idx is not None and npos + offset > idx)
                for npos, kws, starred in calls)
            if not passed:
                out.append((mod, qual, param))
    return sorted(set(out) - set(ALLOWED))


def _uncalled():
    """(module, qualified name) of each public module-level function and
    public method of a public class whose name is used under src/ and
    perfbench/ only inside its own body: for a method, as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for d in ("src", "perfbench")
             for path in sorted((ROOT / d).rglob("*.py"))}
    # the trees stay alive, so node ids are unique across them
    uses = defaultdict(set)
    attr_uses = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].add(id(node))
                attr_uses[node.attr].add(id(node))
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                uses[node.value.rsplit(".", 1)[-1]].add(id(node))
    out = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        defs = [(n.name, n, uses) for n in tree.body
                if isinstance(n, ast.FunctionDef)]
        defs += [(c.name + "." + n.name, n, attr_uses) for c in tree.body
                 if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
                 for n in c.body if isinstance(n, ast.FunctionDef)]
        for qual, fn, used in defs:
            inside = {id(n) for n in ast.walk(fn)}
            if not fn.name.startswith("_") and not used[fn.name] - inside:
                out.append((path.stem, qual))
    return out


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_every_default_is_overridden_somewhere():
    assert unpassed_defaults() == []


def test_every_public_function_has_a_caller():
    assert sorted(set(_uncalled()) - set(ALLOWED)) == []


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_allowlist_entries_exist(key):
    mod, qual = key[:2]
    names = {(m, q): fn for m, q, fn, _ in _src_functions()}
    assert (mod, qual) in names, "allowlisted function is gone"
    if len(key) == 3:
        assert key[2] in _all_params(names[(mod, qual)]), \
            "allowlisted parameter is gone"
    else:
        assert key in _uncalled(), "allowlisted function has a caller now"
