"""Static checks over the package source, read as syntax trees.

Nothing is imported or run: every module under ``src/normalbridge`` is
parsed with ``ast`` and checked for imports it never uses, ``__all__``
names it never binds, a package docstring whose module table has
drifted from the submodules on disk, module-level functions and
classes that nothing in ``src/`` or ``benchmarks/`` refers to, and
defaulted parameters that no call there sets.
"""

import ast
from pathlib import Path

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
    # probes of the fusion terms read these, and the closed-form SNR tests
    # pin them
    "freq.py": {"dft2", "idft2", "radial_power_spectrum", "fit_alpha", "snr_curve",
                "radial_snr_curves", "snr_crossing_time", "power_law_image"},
    # OBJ I/O: the way to bring an outside mesh to the renderer and the
    # sharp-edge statistics; primitive meshes with known sharp-edge counts
    # and normals, the fixtures of the rasterizer and edge tests
    "geom.py": {"load_obj", "save_obj", "cube_mesh", "icosahedron_mesh"},
}
REACHABILITY_ROOTS = (PACKAGE, PACKAGE.parents[1] / "benchmarks")


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references() -> list[tuple[str, Path, str | None]]:
    """(name, file, enclosing top-level definition) for every reference.

    A reference is a Name, an Attribute or a string constant (the
    benchmark tracer wraps functions by name); ``__all__`` lists, imports
    and the benchmark's own tests are not references.
    """
    refs = []
    for root in REACHABILITY_ROOTS:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            for stmt in _tree(path).body:
                if _is_all(stmt):
                    continue
                owner = getattr(stmt, "name", None)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        refs.append((node.id, path, owner))
                    elif isinstance(node, ast.Attribute):
                        refs.append((node.attr, path, owner))
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        refs.append((node.value, path, owner))
    return refs


def _definitions(path: Path) -> list[str]:
    return [node.name for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_every_definition_is_reachable():
    """Every module-level function and class in src/ is referenced from
    src/ or benchmarks/, outside its own definition.

    Methods are not covered: matching by name cannot tell a method from
    a numpy function or method of the same name, such as ``Tensor.sqrt``
    and ``np.sqrt`` or ``Tensor.sum`` and ``ndarray.sum``.
    """
    used = {}
    for name, path, owner in _references():
        used.setdefault(name, set()).add((path, owner))
    unreached = []
    for path, rel in zip(MODULES, IDS):
        for name in _definitions(path):
            if name in REACHABILITY_EXEMPT.get(rel, ()):
                continue
            if not used.get(name, set()) - {(path, name)}:
                unreached.append(f"{rel}:{name}")
    assert not unreached, f"defined in src/ but referenced nowhere in src/ or benchmarks/: {unreached}"


def test_reachability_exemptions_are_defined():
    for rel, names in REACHABILITY_EXEMPT.items():
        missing = names - set(_definitions(PACKAGE / rel))
        assert not missing, f"{rel}: exempt names not defined: {sorted(missing)}"


# Defaulted parameters kept though no call in src/ or benchmarks/ sets
# them, as "module:callable.parameter", each group for a reason of its own.
DEFAULT_EXEMPT = {
    # the frequency/SNR analysis of noise injection: the planned spectral
    # probes choose these, and the closed-form SNR tests sweep them
    "freq.py:radial_power_spectrum.n_bins", "freq.py:snr_curve.g", "freq.py:radial_snr_curves.g",
    "freq.py:power_law_image.seed", "freq.py:power_law_image.random_amplitude",
    # the perspective camera and its field of view, and the orthographic
    # width: the rasterizer oracle tests render with them
    "geom.py:viewpoints.mode", "geom.py:Camera.ortho_width", "geom.py:Camera.fov_y_deg",
    # fixture meshes of the rasterizer and sharp-edge tests
    "geom.py:cube_mesh.size", "geom.py:icosahedron_mesh.radius",
    # the training and data factors that the search for a task NiRNE
    # measurably learns varies one at a time; they become constants once
    # that task is frozen
    "nirne.py:TrainConfig.lr", "nirne.py:TrainConfig.weight_decay",
    "nirne.py:DualStreamModel.channels",
    "toydata.py:corrupt_labels_real_domain.blur_sigma",
    "toydata.py:corrupt_labels_real_domain.angle_noise_deg",
    "toydata.py:corrupt_labels_real_domain.band_radius",
    "toydata.py:make_dataset.complexity_range", "toydata.py:make_dataset.cell_size",
    "toydata.py:generate_scene.primitives",
    # the ablation arms of the noise-injection comparison: single stream,
    # and no injection
    "nirne.py:DualStreamModel.dual_stream", "nirne.py:DualStreamModel.schedule",
    "nirne.py:NoiseSchedule.sigma_lo", "nirne.py:NoiseSchedule.sigma_hi",
    # algorithm parameters that tests sweep against oracles and references
    "metrics.py:canny.low", "metrics.py:canny.high",
    "geom.py:sharp_edge_report.dihedral_threshold_deg",
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


def _defaulted_params(fn: ast.FunctionDef, skip_self: bool) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter; keyword-only ones have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    if skip_self:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _settings(path: Path) -> list[tuple[str, str, int | None]]:
    """(callable, parameter, position) of every defaulted parameter of a
    module-level function, a class ``__init__`` or a dataclass init field."""
    out = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(node.name, name, pos) for name, pos in _defaulted_params(node, False)]
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    out += [(node.name, name, pos) for name, pos in _defaulted_params(item, True)]
            if _is_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name) and not _not_in_init(item.value)]
                out += [(node.name, item.target.id, pos) for pos, item in enumerate(fields)
                        if item.value is not None]
    return out


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/ and benchmarks/ (not its tests), by callee name."""
    calls = {}
    for root in REACHABILITY_ROOTS:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name:
                        calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
        return True  # *args or **kwargs may carry it
    if any(kw.arg == param for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_set():
    """Every defaulted parameter of a module-level function, a class
    ``__init__`` or a dataclass init field in src/ is passed, by keyword,
    by position or through ``*args``/``**kwargs``, by some call of that
    name in src/ or benchmarks/; a setting no caller sets is a constant.

    Methods are not covered: matching calls by name cannot tell which
    class's method a call such as ``model.forward_t`` or ``rng.normal``
    reaches.
    """
    calls = _calls()
    unset = []
    for path, rel in zip(MODULES, IDS):
        for name, param, position in _settings(path):
            key = f"{rel}:{name}.{param}"
            if key not in DEFAULT_EXEMPT and not any(
                    _passes(call, param, position) for call in calls.get(name, [])):
                unset.append(key)
    assert not unset, f"defaulted in src/ but set by no call in src/ or benchmarks/: {unset}"


def test_default_exemptions_are_defaulted():
    defaulted = {f"{rel}:{name}.{param}" for path, rel in zip(MODULES, IDS)
                 for name, param, _ in _settings(path)}
    missing = DEFAULT_EXEMPT - defaulted
    assert not missing, f"exempt settings that are not defaulted parameters: {sorted(missing)}"
