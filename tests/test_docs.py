"""README's Python examples run as written, and the public names are pinned,
so adding or removing one shows up here and README cannot call a deleted
function."""

import re
from pathlib import Path

import pytest

import gleason
from gleason import serialize

README = Path(__file__).resolve().parent.parent / "README.md"
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
        "TransitionMatrix", "UnitVector", "ValuationOracle", "bloch_vector_of",
        "check_additivity", "check_basis_independence", "check_density",
        "check_haar_moment", "check_unistochastic", "explicit_query_vectors",
        "explicit_reconstruct", "explicit_reconstruct_real", "haar_average_reconstruct",
        "haar_random_basis", "implicit_reconstruct", "nearest_density_matrix",
        "pauli_reconstruct_2d", "random_density_matrix", "spectral_decomposition",
        "standard_basis", "transition_matrix",
    ]


def test_serialize_public_names():
    assert sorted(serialize.__all__) == [
        "dump_json", "load_json", "matrix_from_json", "matrix_to_json",
        "oracle_table_from_json", "oracle_table_to_json",
    ]
