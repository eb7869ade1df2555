"""Checks on the package source: no unused imports, no private module-level
function or class that nothing else refers to, one implementation of each
shared kernel, and fixed parameters for the search entry points."""

import ast
import inspect
from pathlib import Path

import antimark
from antimark import exclusion

SRC = Path(__file__).resolve().parents[1] / "src" / "antimark"


def parsed_modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def exported(tree: ast.Module) -> set[str]:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def references(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_no_unused_imports():
    unused = []
    for mod, tree in parsed_modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{mod}.{bound}")
    assert unused == []


def test_no_unreferenced_private_definitions():
    tops = [top for tree in parsed_modules().values() for top in tree.body]
    refs = [references(top) for top in tops]
    dead = []
    for i, node in enumerate(tops):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in r for j, r in enumerate(refs) if j != i):
            dead.append(name)
    assert dead == []


def test_every_exported_name_resolves():
    assert len(set(antimark.__all__)) == len(antimark.__all__)
    missing = [name for name in antimark.__all__ if not hasattr(antimark, name)]
    assert missing == []


def test_one_kronecker_product():
    """qcore.kron is the package's one Kronecker product: no code in the
    package calls numpy's kron."""
    calls = [f"{mod}:{node.lineno}" for mod, tree in parsed_modules().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "kron"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert calls == []


def test_one_measurement_check():
    """qcore.measurement_failures is the package's one measurement check: no
    module but qcore calls povm_residuals."""
    calls = [f"{mod}:{node.lineno}" for mod, tree in parsed_modules().items()
             if mod != "qcore" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)) == "povm_residuals"]
    assert calls == []


def test_the_search_entry_points_keep_their_parameters():
    """The core's polish runs at the first idle look below POLISH_AT and
    where the stall rule fires, and takes no setting: the parameters of the
    core and of every route into it stay these, names and defaults alike."""
    def params(f):
        return [(p.name, p.default) for p in inspect.signature(f).parameters.values()]
    empty = inspect.Parameter.empty
    assert params(exclusion._core_answers) == [
        ("groups", empty), ("dim", empty), ("tol", empty), ("restarts", empty),
        ("iters", empty), ("seed", empty)]
    assert params(exclusion._search) == [
        ("e", empty), ("restarts", empty), ("iters", empty), ("seed", empty),
        ("check_tol", empty)]
    assert params(exclusion.search_exclusion_povm) == [
        ("e", empty), ("restarts", 3), ("iters", 4000), ("seed", 0)]
    assert params(exclusion.decide_antidist) == [
        ("ensemble", empty), ("tol", 1e-9), ("seed", 0), ("restarts", 3), ("iters", 4000)]


def test_only_the_command_line_reads_the_environment_and_only_its_tolerance():
    """Solver constants stay constants: the one environment read in the
    package is cli.py's ANTIMARK_TOL, a default for --tol."""
    modules = parsed_modules()
    reads = [f"{mod}:{node.lineno}" for mod, tree in modules.items() for node in ast.walk(tree)
             if (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None))
             in ("environ", "environb", "getenv")]
    assert len(reads) == 1 and reads[0].startswith("cli:"), reads
    keys = [node.args[0].value for node in ast.walk(modules["cli"])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "environ"]
    assert keys == ["ANTIMARK_TOL"]


def callers(name: str) -> list[str]:
    """The functions of the package, as module.function, that call name."""
    return [f"{mod}.{fn.name}" for mod, tree in parsed_modules().items()
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == name]


def test_one_qubit_weight_program():
    """The single-qubit weight program runs in one place, the builder of the
    qubit route, and the route is the builder's one caller: the rank-2
    triples of _triple_elements take their weights in closed form, and call
    neither the builder nor the simplex."""
    assert callers("simplex_maximize") == ["exclusion._qubit_elements"]
    assert callers("_qubit_elements") == ["exclusion._qubit_verdict"]


def test_the_command_line_decides_nothing_itself():
    """check_lsam holds the local dispatch: cli.py reads neither is_orthogonal
    nor is_product, and builds a pairwise protocol only for build-protocol."""
    tree = parsed_modules()["cli"]
    assert not {"is_orthogonal", "is_product"} & references(tree)
    assert [c for c in callers("build_pairwise_lad_protocol")
            if c.startswith("cli.")] == ["cli._cmd_build_protocol"]
