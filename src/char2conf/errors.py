"""Exception types shared across the package.

Every error kind the library can raise deliberately lives here, so callers
can distinguish bad input (ValueError subclasses) from broken internal
expectations (ContractViolationError).  `document_fields` is the shape
check shared by the ``from_json`` readers.
"""


class Char2ConfError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ModulusReducibleError(Char2ConfError, ValueError):
    """The requested field modulus factors over GF(2)."""


class UnsupportedDegreeError(Char2ConfError, ValueError):
    """Extension degree outside the supported range."""


class FieldMismatchError(Char2ConfError, ValueError):
    """Two carriers built over different fields were combined."""


class DimMismatchError(Char2ConfError, ValueError):
    """Vector or matrix dimension does not match the form."""


class DegenerateBilinearError(Char2ConfError, ValueError):
    """The derived bilinear form is degenerate where it must not be."""


class DegenerateFormError(Char2ConfError, ValueError):
    """The quadratic form has a nontrivial radical where it must not."""


class TooLargeError(Char2ConfError, ValueError):
    """Requested exhaustive enumeration exceeds the desk-scale guard."""


class NotPartialIsometryError(Char2ConfError, ValueError):
    """The given domain/image vectors do not define an isometry of spans."""


class NotEmbeddableError(Char2ConfError, ValueError):
    """The space admits no non-degenerate virtual embedding."""


class PreconditionViolatedError(Char2ConfError, ValueError):
    """A documented operation precondition does not hold."""


class BuildFailedError(Char2ConfError, RuntimeError):
    """Geometry construction could not satisfy the requested invariants."""


class DegenerateOmegaError(Char2ConfError, ValueError):
    """A replacement omega vector has Q = 0."""


class NotDefinedError(Char2ConfError, ValueError):
    """The requested quantity is undefined for this input."""


class NotIndependentError(Char2ConfError, ValueError):
    """The given cycle is linearly dependent on the geometry frame."""


class IdealLineError(Char2ConfError, ValueError):
    """The operation needs a non-ideal line."""


class NotConnectedError(Char2ConfError, ValueError):
    """No isometry in the allowed group connects the two points."""


class AmbiguousDistanceError(Char2ConfError, RuntimeError):
    """More than one allowed isometry connects the two points."""


class ContractViolationError(Char2ConfError, RuntimeError):
    """An internal invariant guaranteed by the theory failed to hold."""


class MalformedDocumentError(Char2ConfError, ValueError):
    """A JSON document does not have the shape its reader expects."""


def _is_int(x):
    # JSON true/false load as bool, which is a subclass of int
    return type(x) is int


def _is_ints(x):
    return isinstance(x, list) and all(map(_is_int, x))


# what each kind of document value must be, and how a message names it
_KINDS = {
    "int": (_is_int, "an integer"),
    "ints": (_is_ints, "a list of integers"),
    "rows": (lambda x: isinstance(x, list) and all(map(_is_ints, x)),
             "a list of lists of integers"),
    "any": (lambda x: True, None),
}


def document_fields(doc, what, **kinds):
    """Values of the named keys of a JSON object, in the order given.

    Each keyword names a required key and the kind of its value: "int",
    "ints", "rows", or "any" for a nested document that its own reader
    checks.  Raises MalformedDocumentError on any other shape.
    """
    if not isinstance(doc, dict):
        raise MalformedDocumentError("%s document must be a JSON object, not"
                                     " %s" % (what, type(doc).__name__))
    values = []
    for key, kind in kinds.items():
        if key not in doc:
            raise MalformedDocumentError("%s document has no %r key"
                                         % (what, key))
        ok, name = _KINDS[kind]
        if not ok(doc[key]):
            raise MalformedDocumentError("%s document: %r must be %s"
                                         % (what, key, name))
        values.append(doc[key])
    return values
