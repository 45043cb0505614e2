"""Shell structure of the 3-dimensional deformed harmonic oscillator.

The deformed oscillator splits the familiar equidistant shells through a
single parameter tau, reordering levels so that large gaps reproduce the
magic numbers observed in alkali metal clusters.  This package exposes
the q-bracket primitive, the spectrum, level-scheme and magic-number
machinery, bundled observational datasets, and a grid-search fit of tau.
"""

from .qmath import DeformationParameter, q_bracket
from .spectrum import (
    InvalidLevelError,
    Level,
    ModelParameters,
    allowed_l,
    casimir_eigenvalue,
    energy,
    energy_taylor,
    enumerate_levels,
)
from .shells import (
    InsufficientNMaxError,
    LevelScheme,
    MagicGrade,
    MagicRecord,
    build_scheme,
    detect_shells,
    render_table,
)
from .empirics import (
    DatasetParseError,
    DatasetValidationError,
    ExperimentalDataset,
    FitResult,
    MatchReport,
    ObservedMagic,
    bundled_dataset_names,
    fit_tau,
    load_dataset,
    load_named_dataset,
    match_magics,
    predicted_primary_magics,
)

__version__ = "0.1.0"
