"""The names ``import rulnet`` exports.  A change to the public API is an
edit to the list below."""

import rulnet

PUBLIC_NAMES = [
    "Tape",
    "Tensor",
    "exact_arithmetic",
    "RulModel",
    "RulnetError",
    "DimensionError",
    "ContractError",
    "NumericInputError",
    "TapeError",
    "ConfigurationError",
    "ParseError",
    "IntegrityError",
    "ClusteringError",
    "CheckpointError",
    "CapabilityError",
    "UnitLookupError",
    "__version__",
]


def test_all_lists_the_public_names_and_each_resolves():
    assert rulnet.__all__ == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(rulnet, name)]
    assert not missing, f"rulnet.__all__ names what the package does not define: {missing}"
