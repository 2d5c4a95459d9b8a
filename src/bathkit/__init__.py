"""bathkit: compress structured harmonic environments into minimal
discrete mode sets and validate the resulting system-bath models."""

__version__ = "0.1.0"

from .discretize import (
    BathModel,
    FdrGrid,
    FdrOperator,
    assemble_fdr,
    discretize_bath,
    load_bath_model,
    reconstruct_bcf,
    reference_bcf,
    save_bath_model,
)
from .dynamics import (
    FockTruncation,
    PropagationResult,
    convergence_study,
    dephasing_gamma,
    dephasing_gamma_continuum,
    propagate,
)
from .errors import (
    BathkitError,
    ConvergenceError,
    ResourceLimitError,
    SchemaError,
    ValidationError,
)
from .hamiltonian import (
    DiscreteModel,
    SystemSpec,
    build_model,
    export_model,
    import_model,
)
from .lowrank import IdResult, NnlsResult, column_id, nnls
from .specdens import (
    Debye,
    LorentzianSum,
    NoiseKernel,
    OhmicExp,
    SpectralDensity,
    Tabulated,
    Temperature,
    load_tabulated,
    sd_from_config,
)

__all__ = [
    "__version__",
    "BathModel",
    "FdrGrid",
    "FdrOperator",
    "assemble_fdr",
    "discretize_bath",
    "load_bath_model",
    "reconstruct_bcf",
    "reference_bcf",
    "save_bath_model",
    "FockTruncation",
    "PropagationResult",
    "convergence_study",
    "dephasing_gamma",
    "dephasing_gamma_continuum",
    "propagate",
    "BathkitError",
    "ConvergenceError",
    "ResourceLimitError",
    "SchemaError",
    "ValidationError",
    "DiscreteModel",
    "SystemSpec",
    "build_model",
    "export_model",
    "import_model",
    "IdResult",
    "NnlsResult",
    "column_id",
    "nnls",
    "Debye",
    "LorentzianSum",
    "NoiseKernel",
    "OhmicExp",
    "SpectralDensity",
    "Tabulated",
    "Temperature",
    "load_tabulated",
    "sd_from_config",
]
