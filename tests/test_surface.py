"""The public surface of ``qjunction`` and the independence of the test oracles."""

import ast
from pathlib import Path

import qjunction

PUBLIC = [
    "BathKind",
    "BathSpec",
    "ChannelRates",
    "CorrelationReport",
    "DegeneratePhysicsError",
    "NonUniqueSteadyStateError",
    "Populations",
    "RateSet",
    "RectificationPoint",
    "SweepRow",
    "SweepSpec",
    "SweepVariable",
    "SystemParams",
    "channel_rates",
    "correlation_report",
    "heat_current",
    "occupation",
    "rate_pair",
    "rectification_scan",
    "run_sweep",
    "solve_point",
    "steady_populations",
    "sudden_death_temperature",
]


def test_public_names():
    assert sorted(qjunction.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(qjunction, name).__module__.startswith("qjunction.")


def test_oracles_import_nothing_from_qjunction():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    # a relative import reads as a leading "."
    assert imported and all(name.split(".")[0] not in ("qjunction", "") for name in imported)
