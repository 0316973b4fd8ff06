"""Exception types shared across the toolkit."""


class SmaleOrderError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- order input


class OrderSpecError(SmaleOrderError):
    """Invalid order description."""


class MalformedOrder(OrderSpecError):
    """Wrong JSON shape; the message names the JSON path, e.g. relations[3]."""


class DuplicateElement(OrderSpecError):
    pass


class UnknownElementInRelation(OrderSpecError):
    pass


class CycleInRelation(OrderSpecError):
    pass


class IsolatedElement(OrderSpecError):
    """An element unrelated to everything is both maximal and minimal.

    Such an element would have to be an attractor and a repeller at once,
    which the role trichotomy does not allow, so it is rejected at load time.
    """


# ---------------------------------------------------------------- cycle stage


class MalformedCycles(SmaleOrderError):
    """Wrong JSON shape of a cycle assignment; the message names the JSON
    path, e.g. w[1]."""


class NotExtremal(SmaleOrderError):
    pass


class ConnectivityFailure(SmaleOrderError):
    """The order fails the connectivity condition at some extremal element;
    the message names them from the connectivity report."""

    def __init__(self, report):
        super().__init__(f"connectivity condition fails at {', '.join(report.failures())}")
        self.report = report


class NoMediator(SmaleOrderError):
    """An extremal element is related to an opposite extremal that mediates
    no transition (north-south style degeneracy)."""


class PreconditionViolated(SmaleOrderError):
    pass


# ----------------------------------------------------------------- band stage


class StarViolated(SmaleOrderError):
    """Cycle assignment does not balance transition counts across sides."""


# ---------------------------------------------------------- assembly stage


class BrokenInvariant(AssertionError):
    """A construction broke an invariant that every correct construction
    keeps: a bug, not a property of the input.  ``stage`` names the stage
    that found it."""

    def __init__(self, stage: str, detail: str):
        super().__init__(detail)
        self.stage = stage


# --------------------------------------------------------- certificate input


class MalformedCertificate(SmaleOrderError):
    """Wrong JSON shape of a certificate: a key is missing or holds a value
    of another JSON type; the message names the JSON path, e.g. gluing[0]."""


# --------------------------------------------------------------- domain stage


class NonIntegralGenus(SmaleOrderError):
    """A profile slipped past the congruence check (internal assertion)."""


# ------------------------------------------------------------- gradient stage


class NotGradientShape(SmaleOrderError):
    """Order has saddles outside the gradient-like class (generation > 1 or
    more than two related extremals on a side)."""


class DisconnectedGraph(SmaleOrderError):
    pass
