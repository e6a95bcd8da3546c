"""Exception hierarchy shared by the toolkit.

DomainError covers mathematically meaningful rejections (failed congruence,
inadmissible invariants, lemma hypotheses not met).  ParseError covers
malformed CLI input.  The CLI maps them to exit codes 2 and 3.
CertificateError marks an exact check that failed inside the toolkit (a
bug, not bad input); ``certify`` raises it, and unlike ``assert`` it still
runs under ``python -O``.  The CLI maps it to exit code 1.
"""


class LLVError(Exception):
    """Base class for all toolkit errors."""


class DomainError(LLVError):
    """Input is well-formed but violates a mathematical precondition."""


class NotRealizableError(DomainError):
    """A congruence or lattice-membership gate failed.

    ``condition`` carries the violated condition verbatim for display.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        self.detail = detail
        msg = condition if not detail else f"{condition} ({detail})"
        super().__init__(msg)


class InadmissibleError(DomainError):
    """Lagrangian surface data fails an admissibility requirement."""


class InconclusiveError(DomainError):
    """Lemma hypotheses fail, so no verdict can be certified."""


class ParseError(LLVError):
    """Malformed request document or CLI argument."""


class CertificateError(LLVError):
    """An exact identity the toolkit certifies did not hold."""


def certify(cond, what: str) -> None:
    """Raise CertificateError naming ``what`` unless ``cond`` holds."""
    if not cond:
        raise CertificateError(f"certificate failed: {what}")
