import ast
import importlib
from pathlib import Path

import sharbly

SOURCES = sorted(Path(sharbly.__file__).resolve().parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_no_bare_assert_in_the_package():
    # `python -O` strips assert statements: invariants raise InternalCheckError
    assert "homology.py" in TREES
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, f"bare assert in {offenders}"


def test_no_unused_import():
    # __init__.py imports to re-export
    offenders = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{name}:{line} {imp}" for imp, line in imported.items() if imp not in used]
    assert not offenders, f"unused import in {offenders}"


def test_every_private_function_is_referenced():
    referenced = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    offenders = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not offenders, f"private function referenced nowhere in the package: {offenders}"


def test_no_unused_local():
    # a name stored in a function and never loaded there; `_` names are
    # deliberate throwaways, and nested functions count as the same scope
    offenders = []
    for name, tree in TREES.items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            stored, loaded = {}, set()
            for node in ast.walk(func):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    else:
                        loaded.add(node.id)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    loaded.update(node.names)
            offenders += [
                f"{name}:{line} {func.name}: {local}"
                for local, line in stored.items()
                if local not in loaded and not local.startswith("_")
            ]
    assert not offenders, f"local stored and never loaded in {offenders}"


def test_no_package_attribute_shadows_a_submodule():
    # a re-exported function named like a module would replace it on the
    # package, and `import sharbly.<name> as m` would then bind the function
    offenders = []
    for path in SOURCES:
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module("sharbly." + path.stem)
        if getattr(sharbly, path.stem) is not module:
            offenders.append(path.stem)
    assert not offenders, f"package attribute is not the submodule: {offenders}"


def test_no_module_level_mutable_container():
    # module state that code mutates is shared by every caller in the
    # process, so one job or test could change the next one's work;
    # `lru_cache` on pure functions is the allowed cache
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    makers = {"dict", "list", "set", "Counter", "defaultdict", "OrderedDict", "deque"}
    offenders = []
    for name, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            callee = node.value.func if isinstance(node.value, ast.Call) else None
            callee = getattr(callee, "attr", getattr(callee, "id", None))
            if isinstance(node.value, containers) or callee in makers:
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, f"module-level mutable container in {offenders}"


def test_fields_define_no_arithmetic_of_their_own():
    # field arithmetic is Python's on the elements, then one conversion
    # f(x); a second idiom of per-field methods would drift from it
    arithmetic = {"add", "sub", "mul", "neg", "inv", "div"}
    defined = {
        node.name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in TREES["fields.py"].body
        if isinstance(node, ast.ClassDef) and node.name in ("Rationals", "PrimeField")
    }
    assert defined.keys() == {"Rationals", "PrimeField"}
    offenders = {name: sorted(methods & arithmetic) for name, methods in defined.items()}
    assert not any(offenders.values()), f"field arithmetic methods: {offenders}"


def test_chain_maps_keep_the_normal_form():
    # the boundary, the right action and theta lifts map normal-form keys
    # to normal-form keys; normalizing each image again redoes that work
    guarded = {
        ("sharbly.py", "act"), ("sharbly.py", "boundary"), ("sharbly.py", "key_image"),
        ("homology.py", "theta_lift"),
    }
    calls = {}
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) in guarded:
                calls[name, node.name] = {
                    getattr(call.func, "attr", getattr(call.func, "id", None))
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                }
    assert calls.keys() == guarded
    offenders = {
        f"{name}:{func}": sorted(called & {"normalize", "add_term"})
        for (name, func), called in calls.items()
    }
    assert not any(offenders.values()), f"re-normalizing chain maps: {offenders}"


def test_coset_kernels_build_no_generator_frames():
    # the products and the permutation of P^{n-1}(Z/N) run once per boundary
    # entry and stabilizer generator; they work on whole rows and columns,
    # and a generator expression per entry is the slow form they replaced
    guarded = {("intlinalg.py", "vec_mat"), ("intlinalg.py", "mat_mul"), ("congruence.py", "perm")}
    generators = {}
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) in guarded:
                generators[name, node.name] = [
                    sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.GeneratorExp)
                ]
    assert generators.keys() == guarded
    offenders = {f"{name}:{func}": lines for (name, func), lines in generators.items() if lines}
    assert not offenders, f"generator expressions in the kernels: {offenders}"


def test_intlinalg_imports_nothing_from_fractions():
    # integer linear algebra runs on ints alone; short vectors walk the
    # ellipsoid's bounding box, which needs no rational Cholesky
    modules = set()
    for node in ast.walk(TREES["intlinalg.py"]):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "math" in modules  # the scan does find the module's imports
    assert "fractions" not in modules


def test_hnf_is_the_only_unimodular_elimination():
    # snf and reduce_to_e1 read their results off hnf; a second loop of
    # _elim_block steps would be a second elimination to keep in step
    callers = {
        node.name
        for node in ast.walk(TREES["intlinalg.py"])
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_elim_block"
    }
    assert callers == {"hnf"}, f"_elim_block called by {sorted(callers)}"


def test_voronoi_geometry_imports_nothing_from_fields():
    # ranks, pivots and kernels of the cell geometry are read off
    # intlinalg.hnf; the neighbor walk keeps only its step t = a/b as a
    # Fraction, and every form it builds is an int matrix
    tree = TREES["voronoi.py"]
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "intlinalg" in modules  # the scan does find the module's imports
    assert "fields" not in modules

    def fraction_names(node):
        return sum(isinstance(sub, ast.Name) and sub.id == "Fraction" for sub in ast.walk(node))

    walk = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_neighbor_form"]
    assert len(walk) == 1 and fraction_names(walk[0])
    assert fraction_names(tree) == fraction_names(walk[0]), "Fraction used outside _neighbor_form"


def test_no_module_reads_a_cell_table_back():
    # the cell table is computed; cells-n{n}.json is an export that no
    # command reads, and cells_from_json is kept for outside callers only
    names = {
        (name, node.lineno)
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if "cells_from_json" in (getattr(node, "id", None), getattr(node, "attr", None))
        or isinstance(node, ast.ImportFrom) and any(a.name == "cells_from_json" for a in node.names)
    }
    defined = [
        node.name for node in TREES["voronoi.py"].body if isinstance(node, ast.FunctionDef)
    ]
    assert "cells_from_json" in defined  # the scan looks where the name lives
    assert not names, f"cells_from_json used at {sorted(names)}"
