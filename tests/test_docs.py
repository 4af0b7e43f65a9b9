"""README's Python examples run as written, and the public names are pinned,
so adding or removing one shows up here and README cannot call a deleted
function.  Every public name must also have a caller."""

import ast
import re
import sys
from pathlib import Path

import pytest

import gleason
from gleason import serialize

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(block):
    exec(compile(PYTHON_BLOCKS[block], f"README.md python block {block}", "exec"), {})


def test_package_public_names():
    assert sorted(gleason.__all__) == [
        "ATOL", "CheckReport", "ConvergenceError", "DensityMatrix", "ExactOracle",
        "ImplicitConfig", "NoisyOracle", "OracleLookupError", "OrthonormalBasis",
        "Projector", "ReconstructionReport", "SpectralDecomposition", "TabulatedOracle",
        "TransitionMatrix", "UnitVector", "ValuationOracle", "check_additivity",
        "check_basis_independence", "check_density", "check_haar_moment",
        "check_unistochastic", "explicit_query_vectors", "explicit_reconstruct",
        "explicit_reconstruct_real", "haar_average_reconstruct", "haar_random_basis",
        "implicit_reconstruct", "nearest_density_matrix", "pauli_reconstruct_2d",
        "random_density_matrix", "spectral_decomposition", "standard_basis",
        "transition_matrix",
    ]


def test_serialize_public_names():
    assert sorted(serialize.__all__) == [
        "dump_json", "load_json", "matrix_from_json", "matrix_to_json",
        "oracle_table_from_json", "oracle_table_to_json",
    ]


def loaded_names(source: str) -> set[str]:
    """Names a module reads, as a bare name or an attribute; a definition, an
    assignment or an ``__all__`` string is not a read."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def public_definitions() -> set[str]:
    """Every public function and class defined at the top level of a module
    of the package."""
    return {node.name for path in (ROOT / "src" / "gleason").glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_public_name_has_a_caller():
    # a caller is the package itself, the benchmark, the acceptance tests or
    # README; every exported name and every public top-level def needs one
    package = set().union(*(loaded_names(p.read_text(encoding="utf-8"))
                            for p in (ROOT / "src" / "gleason").glob("*.py")))
    texts = [p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")]
    texts += [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"), *PYTHON_BLOCKS]
    public = {*gleason.__all__, *serialize.__all__, *public_definitions()}
    unused = sorted(name for name in public if name not in package
                    and not any(re.search(rf"\b{name}\b", text) for text in texts))
    assert unused == []


# a private name, bare or qualified by its module: _name or module._name
PRIVATE = r"(?:\w+\.)?(_\w+)"


def written_private_names() -> set[str]:
    """Private names README writes as `_name` or `module._name` and the
    package's docstrings as ``_name`` or ``module._name``."""
    names = set(re.findall(rf"(?<!`)`{PRIVATE}`(?!`)", README.read_text(encoding="utf-8")))
    for path in (ROOT / "src" / "gleason").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                names.update(re.findall(rf"``{PRIVATE}``", ast.get_docstring(node) or ""))
    return names


def defined_names() -> set[str]:
    """Names the package defines: every def and class, and every module-level
    assignment."""
    names = set()
    for path in (ROOT / "src" / "gleason").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_private_name_in_the_docs_is_defined():
    # a docstring or README line naming a deleted helper is stale; README
    # writes _at_least only qualified, as hilbert._at_least
    written = written_private_names()
    assert {"_born", "_column_error", "_at_least"} <= written
    assert sorted(written - defined_names()) == []


def imported_top_level_modules() -> set[str]:
    """The top-level module of every absolute import in the package."""
    names = set()
    for path in (ROOT / "src" / "gleason").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def declared_dependencies() -> set[str]:
    """The distribution names in pyproject's ``dependencies`` line, read without
    ``tomllib``, which Python 3.10 lacks."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    line = re.search(r"^dependencies = \[(.*)\]$", text, flags=re.MULTILINE)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', line.group(1))}


def test_third_party_imports_are_the_declared_dependencies():
    # every distribution here installs a module of its own name
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"gleason"}
    assert third_party == declared_dependencies()
    assert third_party >= {"numpy", "orjson"}
