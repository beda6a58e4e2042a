"""The array kernels: spec-program evaluation and the RK4 shooting march.

Callers reach them through this package (``_kernel.eval_program``,
``_kernel.shoot_quasilinear``), so a tracer can wrap the names here; the
implementation lives in ``fallback``.
"""

from .fallback import BACKEND, Points, eval_program, shoot_quasilinear

__all__ = ["BACKEND", "Points", "eval_program", "shoot_quasilinear"]
