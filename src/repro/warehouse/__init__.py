"""Data warehouse facade: views, rewriting, maintenance, execution."""

from repro.warehouse.evolution import MigrationPlan, plan_migration
from repro.warehouse.maintenance import (
    INCREMENTAL,
    RECOMPUTE,
    RefreshReport,
    ViewMaintainer,
)
from repro.warehouse.rewriter import rewrite_with_views
from repro.warehouse.view import MaterializedView
from repro.warehouse.warehouse import DataWarehouse, QueryProfile, ServedResult

__all__ = [
    "DataWarehouse",
    "QueryProfile",
    "ServedResult",
    "INCREMENTAL",
    "MaterializedView",
    "MigrationPlan",
    "plan_migration",
    "RECOMPUTE",
    "RefreshReport",
    "ViewMaintainer",
    "rewrite_with_views",
]
