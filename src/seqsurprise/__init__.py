"""Structural complexity, unexpectedness and subjective probability for
finite number sequences, with a lottery-combination experiment lab.

The public names resolve on first use (PEP 562), so that importing the
package, or one of its modules, loads only the modules a caller needs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "analyzer": ("analyze", "derive_10_to_70", "naive_cost", "price_many"),
        "costmodel": (
            "Bits",
            "CostModel",
            "DEFAULT_MODEL",
            "model_from_config_text",
            "number_complexity",
        ),
        "lottery": (
            "ChoiceModel",
            "DEFAULT_FIXED_COMBINATIONS",
            "ExperimentConfig",
            "ExperimentResult",
            "LotteryCombination",
            "REFERENCE_COMBINATIONS",
            "avoidance_probability",
            "avoidance_probability_mc",
            "combination_complexity",
            "format_bulletin",
            "generate_bulletin",
            "histogram_csv",
            "parse_bulletin",
            "rank_combinations",
            "reference_rank_report",
            "simulate_subjects",
        ),
        "oracle": (
            "DEFAULT_OPERATORS",
            "FULL_OPERATORS",
            "SOFT_LENGTH_LIMIT",
            "SearchBudget",
            "oracle_min_cost",
        ),
        "program": (
            "DescriptionProgram",
            "Operation",
            "OpKind",
            "ReplayError",
            "StmState",
            "replay",
        ),
        "surprise": (
            "ExpectationTemplate",
            "FixedBits",
            "KDigitNumber",
            "MonteCarloPool",
            "SurpriseReport",
            "expected_complexity",
            "number_surprise",
            "observed_number_complexity",
            "sequence_surprise",
            "subjective_probability",
        ),
    }.items()
    for name in names
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # A home module is an attribute too, as ``seqsurprise.lottery``; importing
    # it binds it in this namespace, so this runs once per module.
    if name in _HOMES.values():
        return importlib.import_module(f".{name}", __name__)
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())

