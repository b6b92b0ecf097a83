"""Domain exception types raised across the pipeline."""


class EdgemalError(Exception):
    """Base class for all domain errors in this package."""


# --- model construction / inference ---

class ShapeMismatch(EdgemalError):
    """Layer shapes do not chain, or an input has the wrong shape."""


class Unsupported(EdgemalError):
    """Unknown layer kind or activation."""


class UnresolvedShape(EdgemalError):
    """A parameter count was requested on a layer whose shape fields are unset."""


# --- training ---

class EmptyCorpus(EdgemalError):
    """Training was requested on an empty sample set."""


class LabelOutOfRange(EdgemalError):
    """A label falls outside [0, classes)."""


# --- featurization ---

class EmptyTraceSet(EdgemalError):
    """Event ranking needs at least two samples and one event."""


class KOutOfRange(EdgemalError):
    """Top-k selection with k outside [1, event count]."""


class EmptyInput(EdgemalError):
    """Image construction received neither trace values nor bytes."""


class WrongSide(EdgemalError):
    """Downsampling expects a 256-pixel-side image."""


# --- offload regressor ---

class DegenerateLabels(EdgemalError):
    """Regressor fitting needs both label classes present."""


class UnfittedModel(EdgemalError):
    """Offload prediction was requested without a fitted regressor."""


# --- partitioning / simulation ---

class InsufficientResources(EdgemalError):
    """The candidate fleet cannot cover the model's memory need."""


class NoRoute(EdgemalError):
    """A chosen child node has no direct link to the parent."""


class InfeasiblePartition(EdgemalError):
    """Some layer exceeds the free memory of every remaining node."""


class InvalidPlacement(EdgemalError):
    """Simulation was started on a placement that fails validation."""


class InvalidFault(EdgemalError):
    """A fault event targets the parent or an unknown node, or its time is not >= 0."""


class UnroutableTransfer(EdgemalError):
    """An activation transfer has no link between the executing nodes."""
