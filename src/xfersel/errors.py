"""Exception hierarchy.

Every error carries a short machine-readable ``code`` used by the CLI in its
``ERROR <code>: <detail>`` lines and mapped to exit status 2 (validation/I-O)
or 3 (no compatible source).  Each class is made by ``_error`` from its code
alone, so the class for code ``X`` is always ``XError``.
"""


class XferselError(Exception):
    """Base class for all library errors."""

    code = "Error"
    exit_code = 2

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail)

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}" if self.detail else self.code


def _error(code: str, exit_code: int = 2) -> type[XferselError]:
    name = f"{code}Error"
    return type(name, (XferselError,), {
        "code": code, "exit_code": exit_code,
        "__module__": __name__, "__qualname__": name})


MissingManifestError = _error("MissingManifest")
ShapeMismatchError = _error("ShapeMismatch")
CorruptBinaryError = _error("CorruptBinary")
NonFiniteFeatureError = _error("NonFiniteFeature")
IoFailureError = _error("IoFailure")
EmptyFeatureSetError = _error("EmptyFeatureSet")
EmptyImageError = _error("EmptyImage")
EmptyLabelSetError = _error("EmptyLabelSet")
DegenerateInputError = _error("DegenerateInput")
DimensionMismatchError = _error("DimensionMismatch")
NonFiniteCostError = _error("NonFiniteCost")
LengthMismatchError = _error("LengthMismatch")
DuplicateTaskIdError = _error("DuplicateTaskId")
NonFiniteScoreError = _error("NonFiniteScore")
IdSetMismatchError = _error("IdSetMismatch")
KOutOfRangeError = _error("KOutOfRange")
UnknownTaskError = _error("UnknownTask")
NoCompatibleSourceError = _error("NoCompatibleSource", exit_code=3)
MissingLabelsError = _error("MissingLabels")
MissingFeaturesError = _error("MissingFeatures")
InvalidSpecError = _error("InvalidSpec")
