"""gsp-lab: centroid moments, scaling identities, and power-law detection.

The toolkit studies positive functions f on (0, inf) that vanish at 0
through the geometry of the region under their graph on [0, a]: its
centroid, scale-free moments, and the integral identities those satisfy.
Power laws are exactly the functions whose centroid ordinate stays
proportional to f at the centroid abscissa across every truncation scale,
and the detector module turns that rigidity into a numerical test.
"""

import os
import sys

# No gsp_lab code calls BLAS, yet OpenBLAS's thread pool is half of numpy's
# import; a value the user set, or numpy loaded first, keeps its threads.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    CsvFormatError,
    DomainExceeded,
    GspLabError,
    Inadmissible,
    NonPositiveValue,
    ToleranceNotReached,
)
from .functions import (
    Custom,
    FunctionSpec,
    PerturbedPowerLaw,
    PowerLaw,
    Tabulated,
    load_tabulated_csv,
    validate,
)
from .quadrature import QuadResult, cumulative
from .moments import Moments, moment_bundles
from .identities import IdentityReport, identity_reports
from .sampler import MCEstimate, SamplerState, mc_estimates
from .detector import (
    DetectionResult,
    Verdict,
    classify,
    fit_lambda,
    gsp_residual_sweep,
    invert_lambda,
    lambda_of_p,
    recover_p,
)

__version__ = "0.1.0"
