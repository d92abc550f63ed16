"""Tests for the MCAR hypothesis, synthetic missing data, and Monte-Carlo studies."""

from .data import (
    ColumnRoles,
    Dataset,
    DEFAULT_NA_TOKENS,
    infer_roles,
    load_csv,
    response_matrix,
    write_csv,
)
from .em import EmResult, em_mvn
from .errors import (
    DataFormatError,
    DegenerateDataError,
    McartestError,
    SingularMatrixError,
)
from .harness import (
    CellResult,
    Scenario,
    TestCellStats,
    results_to_csv,
    run_cell,
    run_grid,
    wilson_interval,
)
from .numerics import rng_stream
from .stats import (
    TestResult,
    bivariate_mcar_test,
    little_mcar_general,
    little_mcar_univariate,
    mean_product_gap,
    ustat_mcar_test,
)
from .synthesis import (
    DistributionSpec,
    MechanismSpec,
    apply_mechanism,
    generate,
    pattern_names,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnRoles",
    "Dataset",
    "DEFAULT_NA_TOKENS",
    "infer_roles",
    "load_csv",
    "response_matrix",
    "write_csv",
    "EmResult",
    "em_mvn",
    "DataFormatError",
    "DegenerateDataError",
    "McartestError",
    "SingularMatrixError",
    "CellResult",
    "Scenario",
    "TestCellStats",
    "results_to_csv",
    "run_cell",
    "run_grid",
    "wilson_interval",
    "rng_stream",
    "TestResult",
    "bivariate_mcar_test",
    "little_mcar_general",
    "little_mcar_univariate",
    "mean_product_gap",
    "ustat_mcar_test",
    "DistributionSpec",
    "MechanismSpec",
    "apply_mechanism",
    "generate",
    "pattern_names",
    "__version__",
]
