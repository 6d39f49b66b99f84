"""Exception types shared across the package."""


class MapcalcError(Exception):
    """Base class for all package errors."""


class BeyondInjectivityRadius(MapcalcError):
    """Geodesic inversion requested outside its domain of definition."""


class BaseMismatch(MapcalcError):
    """Two objects anchored at different base points or base maps."""


class FormulaOutOfTarget(MapcalcError):
    """A closed-form map produced points that violate target invariants."""


class TargetChartViolated(MapcalcError):
    """Map values leave the target chart over the relevant compact set."""


class ResolutionMismatch(MapcalcError):
    """Operands sampled on incompatible atlases or grid resolutions."""


class TrialAxisUnsupported(MapcalcError):
    """A batch of maps or sections on a leading trial axis reached a layer
    that reads grid axes and takes one map at a time."""


class HypothesisViolated(MapcalcError):
    """A probe sample breaks the hypotheses it is required to satisfy."""


class WellDefinednessViolated(MapcalcError):
    """Chart or transition preconditions fail at some grid node."""


class FiberBoxViolated(MapcalcError):
    """Function values leave the fiber box of a composition kernel."""


class ThickeningViolated(MapcalcError):
    """A (point, displacement) pair is not admissible for the expansion."""


class StepOutOfChart(MapcalcError):
    """Even the minimal descent step would leave the current chart."""


class ConfigError(MapcalcError):
    """Invalid experiment configuration."""
