"""Static checks over the package source, read as syntax trees.

Every module under ``src/normalbridge`` is parsed with ``ast`` and
checked for imports it never uses, ``__all__`` names it never binds, a
package docstring whose module table has drifted from the submodules
on disk, module-level functions and classes that nothing in ``src/`` or ``benchmarks/`` refers to, class
members (methods, properties, dataclass fields and ``__init__``
attributes) that nothing there reads, defaulted parameters, of
functions and methods alike, that no call there sets, ``None``
defaults that every call there overrides, and parameters that every
call there passes one and the same literal or upper-case constant. A
call that passes a parameter its own default literal does not set it,
and ``f(*v)``, where ``v`` is bound only by a ``for`` over a literal
tuple of tuples, passes just the positions those tuples fill.

The checks match names, not types: a member or callable counts as read
or set when any attribute or call of the same name is, such as
``Tensor.sum`` by numpy's ``ndarray.sum`` or ``Tensor.reshape`` by
``ndarray.reshape``. So a finding of the unused-import,
unreached, unread and unset checks is always real, but an absence of
findings is no proof that everything is used. (The ``None``-default
check can also invent a finding; see its test.)

One check imports and runs the package: every op tag that
``tensorcore`` passes to ``Tensor._result`` must be reached by
``backward`` from a model pass.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "normalbridge"
MODULES = sorted(PACKAGE.rglob("*.py"))
IDS = [str(p.relative_to(PACKAGE)) for p in MODULES]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import binds, anywhere in the module -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _top_level_bindings(body: list[ast.stmt]) -> set[str]:
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                names |= _top_level_bindings(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                names |= _top_level_bindings(handler.body)
    return names


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_every_import_is_used(path):
    tree = _tree(path)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(_all_names(tree))
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in loaded and name not in exported}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_every_all_name_is_bound(path):
    tree = _tree(path)
    names = _all_names(tree)
    assert len(names) == len(set(names)), f"{path.name}: duplicate __all__ entries"
    unbound = set(names) - _top_level_bindings(tree.body)
    assert not unbound, f"{path.name}: __all__ names not bound: {sorted(unbound)}"


def test_package_module_table_matches_submodules():
    doc = ast.get_docstring(_tree(PACKAGE / "__init__.py"))
    table = doc.split("-------\n", 1)[1]
    listed = {line.split()[0] for line in table.splitlines() if line.strip()}
    on_disk = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    on_disk |= {p.parent.name for p in PACKAGE.glob("*/__init__.py")}
    assert listed == on_disk



# Module-level names kept though nothing in src/ or benchmarks/ refers to
# them, per module, each for a reason of its own.
REACHABILITY_EXEMPT = {
    # the frequency/SNR analysis of noise injection: the planned spectral
    # probes of the fusion terms call these, and the closed-form SNR tests
    # pin them
    "freq.py": {"dft2", "radial_power_spectrum", "fit_alpha", "snr_curves",
                "snr_crossing_time", "power_law_image"},
}
REACHABILITY_ROOTS = (PACKAGE, PACKAGE.parents[1] / "benchmarks")


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _scoped_nodes(package: Path, roots) -> Iterator[tuple[ast.AST, Path, str | None, str | None, bool]]:
    """(node, file, top, scope, in_benchmarks) for every syntax node under
    ``roots``, their tests and ``__all__`` lists left out.

    ``top`` names the enclosing module-level definition; ``scope`` is
    ``"Class.method"`` inside a method and ``top`` elsewhere;
    ``in_benchmarks`` is True outside ``package``.
    """
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            for stmt in _tree(path).body:
                if _is_all(stmt):
                    continue
                top = getattr(stmt, "name", None)
                scope_of = {}
                if isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            scope_of.update((id(n), f"{top}.{item.name}") for n in ast.walk(item))
                for node in ast.walk(stmt):
                    yield node, path, top, scope_of.get(id(node), top), root != package


def _benchmark_string(node: ast.AST, in_benchmarks: bool) -> str | None:
    """A string constant under benchmarks/, where the tracer wraps
    callables by name; in src/ a string is data, not a reference."""
    if in_benchmarks and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _modules(package: Path) -> list[tuple[Path, str]]:
    return [(p, str(p.relative_to(package))) for p in sorted(package.rglob("*.py"))]


def _definitions(path: Path) -> list[str]:
    return [node.name for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _unreached_definitions(package: Path, roots, exempt: dict[str, set[str]]) -> list[str]:
    """Module-level functions and classes of ``package`` that no Name,
    Attribute or benchmark string under ``roots`` refers to, outside the
    definition itself, as "module:name"."""
    used = {}
    for node, path, top, _, in_benchmarks in _scoped_nodes(package, roots):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = _benchmark_string(node, in_benchmarks)
        if name is not None:
            used.setdefault(name, set()).add((path, top))
    return [f"{rel}:{name}" for path, rel in _modules(package) for name in _definitions(path)
            if name not in exempt.get(rel, ()) and not used.get(name, set()) - {(path, name)}]


def test_every_definition_is_reachable():
    """Every module-level function and class in src/ is referenced from
    src/ or benchmarks/, outside its own definition. Class members are
    checked by ``test_every_member_is_read``."""
    unreached = _unreached_definitions(PACKAGE, REACHABILITY_ROOTS, REACHABILITY_EXEMPT)
    assert not unreached, f"defined in src/ but referenced nowhere in src/ or benchmarks/: {unreached}"


def test_reachability_exemptions_are_defined():
    for rel, names in REACHABILITY_EXEMPT.items():
        missing = names - set(_definitions(PACKAGE / rel))
        assert not missing, f"{rel}: exempt names not defined: {sorted(missing)}"


# Class members kept though nothing in src/ or benchmarks/ reads them, as
# "module:Class.member", each group for a reason of its own.
MEMBER_EXEMPT: set[str] = set()

_CONSTRUCTION = ("__init__", "__post_init__")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(path: Path) -> list[tuple[str, str, set[str]]]:
    """(class, member, own scopes) of every method, property, dataclass
    field and ``__init__`` attribute of a module-level class; dunder
    methods are protocol, not members. A read from one of the member's own
    scopes (a method's body; for a field or attribute the class's
    ``__init__`` and ``__post_init__``) is not a read."""
    out = []
    for cls in _tree(path).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        construction = {f"{cls.name}.{m}" for m in _CONSTRUCTION}
        members = {}
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name):
                members[item.name] = {f"{cls.name}.{item.name}"}
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and _is_dataclass(cls):
                members[item.target.id] = construction
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for node in ast.walk(item):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"):
                        members.setdefault(node.attr, construction)
        out += [(cls.name, name, own) for name, own in members.items()]
    return out


def _unread_members(package: Path, roots, exempt: set[str]) -> list[str]:
    """Members of the classes of ``package`` whose name no attribute load
    or benchmark string under ``roots`` reads, outside the member's own
    scopes, as "module:Class.member"."""
    reads = {}
    for node, path, _, scope, in_benchmarks in _scoped_nodes(package, roots):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = _benchmark_string(node, in_benchmarks)
        if name is not None:
            reads.setdefault(name, set()).add((path, scope))
    unread = []
    for path, rel in _modules(package):
        for cls, name, own in _members(path):
            key = f"{rel}:{cls}.{name}"
            if key not in exempt and not reads.get(name, set()) - {(path, s) for s in own}:
                unread.append(key)
    return unread


def test_every_member_is_read():
    """Every method, property, dataclass field and ``__init__`` attribute
    of a class in src/ is read, as an attribute or a benchmark string, in
    src/ or benchmarks/ outside its own definition.

    Matching by name is conservative: a name that another class or numpy
    also has, such as ``Tensor.sum`` and ``ndarray.sum``, counts as read,
    so a clash can hide an unread member but never invent one.
    """
    unread = _unread_members(PACKAGE, REACHABILITY_ROOTS, MEMBER_EXEMPT)
    assert not unread, f"class members in src/ that nothing in src/ or benchmarks/ reads: {unread}"


def test_member_exemptions_are_unread_members():
    stale = MEMBER_EXEMPT - set(_unread_members(PACKAGE, REACHABILITY_ROOTS, set()))
    assert not stale, f"exempt members that are read or not defined: {sorted(stale)}"


# Defaulted parameters kept though no call in src/ or benchmarks/ sets
# them, as "module:callable.parameter" (methods as "module:Class.method.
# parameter"), each group for a reason of its own.
DEFAULT_EXEMPT = {
    # the frequency/SNR analysis of noise injection: the planned spectral
    # probes choose the bins and the noise scale, and the closed-form SNR
    # tests sweep these
    "freq.py:radial_power_spectrum.n_bins", "freq.py:snr_curves.g",
    "freq.py:power_law_image.seed", "freq.py:power_law_image.random_amplitude",
    # the training and data factors that the search for a task NiRNE
    # measurably learns varies one at a time; they become constants once
    # that task is frozen
    "nirne.py:TrainConfig.lr", "nirne.py:TrainConfig.weight_decay",
    "nirne.py:DualStreamModel.channels",
    "toydata.py:corrupt_labels_real_domain.blur_sigma",
    "toydata.py:corrupt_labels_real_domain.angle_noise_deg",
    "toydata.py:corrupt_labels_real_domain.band_radius",
    "toydata.py:make_dataset.complexity_range",
    "toydata.py:generate_scene.primitives",
    # the ablation arms of the noise-injection comparison: single stream,
    # inject_noise=False, and the dual-stream model without its noisy stream
    "nirne.py:DualStreamModel.dual_stream", "nirne.py:DualStreamModel.inject_noise",
    "nirne.py:DualStreamModel.forward_t.zero_noisy_stream",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _not_in_init(value: ast.expr | None) -> bool:
    """``field(..., init=False)``: state, not a constructor parameter."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords)


def _parameters(fn: ast.FunctionDef, skip_self: bool) -> list[tuple[str, int | None, ast.expr | None]]:
    """(name, position, default or None) of each named parameter;
    keyword-only ones have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    if skip_self:
        positional = positional[1:]
    defaults = [None] * (len(positional) - len(fn.args.defaults)) + fn.args.defaults
    out = [(arg.arg, i, d) for i, (arg, d) in enumerate(zip(positional, defaults))]
    out += [(arg.arg, None, d) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)]
    return out


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(getattr(dec, "id", None) == "staticmethod" for dec in fn.decorator_list)


def _signatures(path: Path) -> list[tuple[str, str, str, int | None, str | None, ast.expr | None]]:
    """(key, callee, parameter, position, own scope, default or None) of
    every parameter of a module-level function, a class ``__init__``, a
    dataclass init field or a method. A call from the own scope (a
    function's or method's body) does not count."""
    out = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(f"{node.name}.{name}", node.name, name, pos, node.name, default)
                    for name, pos, default in _parameters(node, False)]
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    out += [(f"{node.name}.{name}", node.name, name, pos, None, default)
                            for name, pos, default in _parameters(item, True)]
                else:
                    out += [(f"{node.name}.{item.name}.{name}", item.name, name, pos,
                             f"{node.name}.{item.name}", default)
                            for name, pos, default in _parameters(item, not _is_static(item))]
            if _is_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name) and not _not_in_init(item.value)]
                out += [(f"{node.name}.{item.target.id}", node.name, item.target.id, pos, None, item.value)
                        for pos, item in enumerate(fields)]
    return out


def _settings(path: Path) -> list[tuple[str, str, str, int | None, str | None, ast.expr]]:
    """The defaulted parameters among ``_signatures``."""
    return [sig for sig in _signatures(path) if sig[-1] is not None]


def _same_literal(a: ast.expr, b: ast.expr) -> bool:
    """Both are literals of one type and value, such as ``1e-6`` and ``1e-06``."""
    try:
        x, y = ast.literal_eval(a), ast.literal_eval(b)
    except (ValueError, TypeError, SyntaxError):
        return False  # a name, a call or another expression: not a literal
    return type(x) is type(y) and x == y


def _unpacks(call: ast.Call) -> bool:
    """``*args`` or ``**kwargs`` may carry any parameter."""
    return any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords)


def _given(call: ast.Call, param: str, position: int | None) -> ast.expr | None:
    """What ``call`` passes for the parameter, by keyword or by position."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if position is not None and len(call.args) > position:
        return call.args[position]
    return None


def _passes(call: ast.Call, param: str, position: int | None, default: ast.expr) -> bool:
    """Whether ``call`` sets the parameter: it passes a value other than the
    default's own literal, by keyword or by position, or ``*args`` or
    ``**kwargs`` may carry one."""
    if _unpacks(call):
        return True
    given = _given(call, param, position)
    return given is not None and not _same_literal(given, default)


def _literal_rows(loop: ast.For) -> list[list[ast.expr]] | None:
    """The rows of ``for v in ((a, b), (c,)):``, a loop of one name over a
    literal tuple or list of literal tuples without ``*``; None for any
    other loop."""
    rows = loop.iter.elts if isinstance(loop.iter, (ast.Tuple, ast.List)) else []
    if isinstance(loop.target, ast.Name) and rows and all(
            isinstance(row, ast.Tuple) and not any(isinstance(e, ast.Starred) for e in row.elts) for row in rows):
        return [row.elts for row in rows]
    return None


def _unrolled(call: ast.Call, loop_rows: dict[str, list]) -> list[ast.Call]:
    """``call`` as one call per row when its only ``*`` argument is a name
    of ``loop_rows``; otherwise ``[call]``."""
    starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
    if len(starred) != 1:
        return [call]
    i = starred[0]
    name = getattr(call.args[i].value, "id", None)
    if name not in loop_rows:
        return [call]
    return [ast.Call(call.func, call.args[:i] + row + call.args[i + 1:], call.keywords)
            for row in loop_rows[name]]


def _calls_by_name(package: Path, roots) -> dict[str, list[tuple[ast.Call, Path, str | None]]]:
    """(call, file, scope) of every call under ``roots``, by the called name.

    A call ``f(*v)`` inside ``for v in ((a, b), (c,)):``, where nothing
    else in the scope binds ``v``, counts as the calls ``f(a, b)`` and
    ``f(c)``.
    """
    nodes = list(_scoped_nodes(package, roots))
    bindings = Counter()
    loop_rows = {}  # id(call) -> {loop name: rows} of the literal loops around it
    for node, path, _, scope, _ in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bindings[path, scope, node.id] += 1
        elif isinstance(node, ast.arg):
            bindings[path, scope, node.arg] += 1
        elif isinstance(node, ast.For) and (rows := _literal_rows(node)) is not None:
            for inner in (n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Call)):
                loop_rows.setdefault(id(inner), {})[node.target.id] = rows
    calls = {}
    for node, path, _, scope, _ in nodes:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name:
                rows = {v: r for v, r in loop_rows.get(id(node), {}).items() if bindings[path, scope, v] == 1}
                for call in _unrolled(node, rows):
                    calls.setdefault(name, []).append((call, path, scope))
    return calls


def _outside_calls(calls, callee: str, path: Path, own: str | None) -> list[ast.Call]:
    return [call for call, at, scope in calls.get(callee, []) if (at, scope) != (path, own)]


def _unset_defaults(package: Path, roots, exempt: set[str]) -> list[str]:
    """Defaulted parameters of ``package`` that no call of that name under
    ``roots`` sets, outside the callable's own body, as
    "module:callable.parameter"."""
    calls = _calls_by_name(package, roots)
    unset = []
    for path, rel in _modules(package):
        for key, callee, param, position, own, default in _settings(path):
            if f"{rel}:{key}" not in exempt and not any(
                    _passes(call, param, position, default)
                    for call in _outside_calls(calls, callee, path, own)):
                unset.append(f"{rel}:{key}")
    return unset


def test_every_default_is_set():
    """Every defaulted parameter of a module-level function, a class
    ``__init__``, a dataclass init field or a method in src/ is passed, by
    keyword, by position or through ``*args``/``**kwargs``, by some call
    of that name in src/ or benchmarks/ outside its own body; a setting no
    caller sets is a constant. ``f(*v)`` with ``v`` bound only by a
    ``for`` over a literal tuple of tuples passes just the positions those
    tuples fill.

    A call that passes the default's own literal, such as ``tol=1e-6``
    for ``tol: float = 1e-6``, does not set it. Calls are matched by name,
    so a call such as ``rng.normal`` counts for every callable named
    ``normal``, numpy's included: a clash can hide an unset default but
    never invent one.
    """
    unset = _unset_defaults(PACKAGE, REACHABILITY_ROOTS, DEFAULT_EXEMPT)
    assert not unset, f"defaulted in src/ but set by no call in src/ or benchmarks/: {unset}"


def test_default_exemptions_are_defaulted():
    defaulted = {f"{rel}:{key}" for path, rel in _modules(PACKAGE) for key, *_ in _settings(path)}
    missing = DEFAULT_EXEMPT - defaulted
    assert not missing, f"exempt settings that are not defaulted parameters: {sorted(missing)}"


def _fixed_value(expr: ast.expr | None) -> str | None:
    """A key for a literal, equal for ``1e-6`` and ``1e-06``, or for a
    bare upper-case name, a module constant such as ``SLOPE``; None for
    anything else."""
    if expr is None:
        return None
    try:
        value = ast.literal_eval(expr)
    except (ValueError, TypeError, SyntaxError):
        name = getattr(expr, "id", None)
        return f"name {name}" if name and name.isupper() else None
    return f"{type(value).__name__} {value!r}"


def _one_value_parameters(package: Path, roots) -> list[str]:
    """Parameters of ``package`` that every call of that name under
    ``roots``, outside the callable's own body, passes one and the same
    literal or upper-case module constant (and there is at least one such
    call), as "module:callable.parameter"."""
    calls = _calls_by_name(package, roots)
    found = []
    for path, rel in _modules(package):
        for key, callee, param, position, own, _ in _signatures(path):
            outside = _outside_calls(calls, callee, path, own)
            values = {None if _unpacks(call) else _fixed_value(_given(call, param, position))
                      for call in outside}
            if outside and len(values) == 1 and None not in values:
                found.append(f"{rel}:{key}")
    return found


def test_no_parameter_has_one_value_in_use():
    """No parameter in src/ is passed one and the same literal or
    upper-case module constant by every call of that name in src/ or
    benchmarks/ outside its own body: a setting with one value in use is
    a constant.

    Calls are matched by name, as in ``test_every_default_is_set``; a
    same-named call that passes another value, or none, hides a finding.
    """
    found = _one_value_parameters(PACKAGE, REACHABILITY_ROOTS)
    assert not found, f"parameters in src/ that every call in src/ or benchmarks/ passes one value: {found}"


# None defaults kept though every call in src/ or benchmarks/ overrides
# them, as "module:callable.parameter", each for a reason of its own.
NONE_DEFAULT_EXEMPT: set[str] = set()


def _overridden_none_defaults(package: Path, roots, exempt: set[str]) -> list[str]:
    """Parameters of ``package`` that default to None although every call
    of that name under ``roots``, outside the callable's own body, sets
    them (and there is at least one such call), as
    "module:callable.parameter"."""
    calls = _calls_by_name(package, roots)
    found = []
    for path, rel in _modules(package):
        for key, callee, param, position, own, default in _settings(path):
            if not (isinstance(default, ast.Constant) and default.value is None):
                continue
            outside = _outside_calls(calls, callee, path, own)
            if f"{rel}:{key}" not in exempt and outside and all(
                    _passes(call, param, position, default) for call in outside):
                found.append(f"{rel}:{key}")
    return found


def test_no_none_default_is_always_overridden():
    """No parameter in src/ defaults to None while every call of that name
    in src/ or benchmarks/, outside its own body, passes it: such a
    default only guards an ``is None`` branch that tests alone take, and
    the parameter is required.

    Calls are matched by name, as in ``test_every_default_is_set``; here a
    clash can hide a finding (a same-named call that omits the parameter)
    or invent one (a same-named call that passes it), and an invented one
    goes in ``NONE_DEFAULT_EXEMPT`` with its reason.
    """
    found = _overridden_none_defaults(PACKAGE, REACHABILITY_ROOTS, NONE_DEFAULT_EXEMPT)
    assert not found, f"None defaults in src/ that every call in src/ or benchmarks/ overrides: {found}"


def test_none_default_exemptions_are_overridden():
    stale = NONE_DEFAULT_EXEMPT - set(_overridden_none_defaults(PACKAGE, REACHABILITY_ROOTS, set()))
    assert not stale, f"exempt None defaults that some call omits or that do not exist: {sorted(stale)}"


PLANTED_MODULE = """
from dataclasses import dataclass


@dataclass
class Report:
    kept: int
    unread: int

    def __post_init__(self):
        self.unread = int(self.unread)


class Probe:
    def __init__(self):
        self.level = 0

    def traced(self, scale=1.0):
        return self.traced(2.0) if scale == 1.0 else scale


def named_by_string():
    return Report(1, 2).kept


def scaled(x, factor=None):
    return x if factor is None else x * factor


def rounded(x, digits=3):
    return round(x, digits)


def clipped(x, limit):
    return min(x, limit)


def sphere(n_lat=24, n_lon=48, radius=1.0):
    return n_lat * n_lon * radius


def ring(n=8, radius=1.0):
    return n * radius


def shifted(x, by=1.0):
    return x + by
"""

PLANTED_BENCHMARK = """
import pkg.mod as mod

PROBE = mod.Probe
TRACED = ("traced", "level")
MESSAGE = "named_by_string"
DOUBLED = mod.scaled(1.0, factor=2.0)
HALVED = mod.scaled(1.0, 0.5)
ROUNDED = mod.rounded(1.25, 3)
LIMIT = 4
LOW = mod.clipped(1.0, LIMIT)
HIGH = mod.clipped(9.0, limit=LIMIT)
for shape in ((48, 96), (24, 48)):
    SPHERE = mod.sphere(*shape)
for args in ((4,), (6, 2.0)):
    RING = mod.ring(*args)
PAIR = (1.0, 0.5)
SHIFTED = mod.shifted(*PAIR)
"""


def test_checks_on_a_planted_source(tmp_path):
    """The checks on a small planted package: a field read only in its
    ``__post_init__`` is unread, members that only benchmark strings name
    are read, a default that only the method's own body passes is unset,
    so is one that calls pass only as its own literal, a None default
    that every call overrides is found until one call passes it as
    ``None``, a parameter that every call passes one upper-case constant
    is found until one call passes another value, as is each that every
    call passes one literal, and a module-level function that only a
    string in the package names is unreached. A ``*`` argument bound only
    by a loop over literal tuples sets just the positions they fill
    (``sphere.radius`` stays unset, ``ring.radius`` is set); any other
    ``*`` argument may set every parameter (``shifted.by``)."""
    package = tmp_path / "src" / "pkg"
    bench = tmp_path / "benchmarks"
    package.mkdir(parents=True)
    bench.mkdir()
    (package / "mod.py").write_text(PLANTED_MODULE)
    (bench / "bench.py").write_text(PLANTED_BENCHMARK)
    roots = (package, bench)
    assert _unread_members(package, roots, set()) == ["mod.py:Report.unread"]
    assert _unread_members(package, roots, {"mod.py:Report.unread"}) == []
    assert _unset_defaults(package, roots, set()) == ["mod.py:Probe.traced.scale",
                                                      "mod.py:rounded.digits", "mod.py:sphere.radius"]
    assert _overridden_none_defaults(package, roots, set()) == ["mod.py:scaled.factor"]
    assert _overridden_none_defaults(package, roots, {"mod.py:scaled.factor"}) == []
    assert _unreached_definitions(package, roots, {}) == []
    # every call passes each of these one literal
    one_value = ["mod.py:Report.kept", "mod.py:Report.unread", "mod.py:scaled.x",
                 "mod.py:rounded.x", "mod.py:rounded.digits"]
    assert _one_value_parameters(package, roots) == one_value + ["mod.py:clipped.limit"]

    (bench / "bench.py").write_text(PLANTED_BENCHMARK.replace('"named_by_string"', '"other"'))
    (package / "mod.py").write_text(PLANTED_MODULE + '\nNAME = "named_by_string"\n'
                                    'PLAIN = scaled(1.0, None)\nMID = clipped(5.0, 4)\n')
    assert _overridden_none_defaults(package, roots, set()) == []
    assert _one_value_parameters(package, roots) == one_value
    assert _unreached_definitions(package, roots, {}) == ["mod.py:named_by_string"]


# Autodiff ops that no forward or backward pass of the model runs, kept
# for a reason of their own: reshape composes the group-norm oracle
OP_EXEMPT = {"reshape"}
OP_MODULES = [PACKAGE / "tensorcore" / "tensor.py", PACKAGE / "tensorcore" / "nn.py"]


def _op_tags(paths: list[Path]) -> set[str]:
    """Every op tag passed to ``Tensor._result(data, parents, tag)``."""
    tags = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_result"):
                tag = node.args[2]
                assert isinstance(tag, ast.Constant), f"{path.name}:{node.lineno}: op tag is not a literal"
                tags.add(tag.value)
    return tags


def test_every_op_runs_in_a_model_pass():
    """Every autodiff op is reached by ``backward`` from a stage-1 loss or
    from an inference pass with the images as the leaf; this one check
    imports and runs the package."""
    from normalbridge import nirne
    from normalbridge.tensorcore import SeededRng, Tensor, backward
    from normalbridge.toydata import Domain, make_dataset

    samples = make_dataset(2, Domain.REAL, 0, size=16)
    imgs, tgts, masks = nirne._batch_arrays(samples, [0, 1])
    model = nirne.DualStreamModel(seed=0)
    ran = set(backward(nirne._masked_mse(model.forward_t(Tensor(imgs), rng=SeededRng(0, 1)), tgts, masks)))
    ran |= set(backward(model.forward_t(Tensor(imgs, requires_grad=True)).sum()))
    unrun = _op_tags(OP_MODULES) - ran - OP_EXEMPT
    assert not unrun, f"autodiff ops no model pass runs: {sorted(unrun)}"


def test_op_exemptions_are_ops():
    assert OP_EXEMPT <= _op_tags(OP_MODULES)
