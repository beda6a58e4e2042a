"""hopial: explicit constants and numerical verification for weighted
Hardy- and Opial-type integral inequalities on a finite interval.

Subpackage map:

* funcspace - structural catalog of weights/test functions
* quad      - adaptive singularity-aware quadrature, cumulative integrals,
              supremum location
* special   - Gamma and the Boyd inequality constants N, sigma, I, L
* constants - the theorem and lemma rows, and their constants with factors
* eigen     - smallest eigenvalue of the associated boundary value problems
* opial     - test paths and the front end of the Opial-type lemma checks
* verify    - end-to-end inequality verification, sweeps, sharpness search
* cli       - command line front end (JSON/CSV reports, SVG ratio plots)
"""

from ._kernel import BACKEND as kernel_backend

__version__ = "0.1.0"

__all__ = ["kernel_backend", "__version__"]
