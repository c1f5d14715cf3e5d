"""Names the benchmark tracer still imports; no solver uses this module.

Round-or-cut runs are driven by ``nukc.cutting_plane`` (LP cutting planes),
so the ellipsoid geometry is gone.  This module goes once
``perfbench/tracing.py`` stops naming it.
"""

# The oracle verdicts live with the driver and are re-exported as the same classes.
from .cutting_plane import Rounded, Separating  # noqa: F401


def ellipsoid_update(*args, **kwargs):
    """Retired: the solver makes no ellipsoid step."""
    raise NotImplementedError("the ellipsoid update is retired; nukc.cutting_plane drives every run")
