"""The error table: every code, its class, its exit status and its text.

The codes are written out here and in README's "Error codes" table, so a
class dropped, renamed or added in ``xfersel.errors`` fails one of these.
"""

import pickle
import re
from pathlib import Path

import pytest

from xfersel import errors
from xfersel.errors import XferselError

README = Path(__file__).resolve().parent.parent / "README.md"

CODES = (
    "MissingManifest", "ShapeMismatch", "CorruptBinary", "NonFiniteFeature",
    "IoFailure", "EmptyFeatureSet", "EmptyImage", "EmptyLabelSet",
    "DegenerateInput", "DimensionMismatch", "NonFiniteCost", "LengthMismatch",
    "DuplicateTaskId", "NonFiniteScore", "IdSetMismatch", "KOutOfRange",
    "UnknownTask", "NoCompatibleSource", "MissingLabels", "MissingFeatures",
    "InvalidSpec",
)
EXIT_3 = {"NoCompatibleSource"}


def _module_table() -> dict[str, int]:
    """code -> exit status of every XferselError subclass the module binds."""
    return {obj.code: obj.exit_code for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, XferselError)
            and obj is not XferselError}


def _readme_table() -> dict[str, int]:
    """code -> exit status from the rows of README's "Error codes" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Error codes", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|", section, flags=re.M)
    assert len(rows) == len({code for code, _ in rows}), "a code listed twice"
    return {code: int(status) for code, status in rows}


@pytest.mark.parametrize("code", CODES)
def test_error_class(code):
    cls = getattr(errors, code + "Error")
    assert issubclass(cls, XferselError)
    assert cls.__name__ == code + "Error"
    assert cls.code == code
    assert cls.exit_code == (3 if code in EXIT_3 else 2)
    assert str(cls("some detail")) == f"{code}: some detail"
    assert str(cls()) == code
    back = pickle.loads(pickle.dumps(cls("some detail")))
    assert type(back) is cls
    assert back.detail == "some detail"


def test_module_binds_exactly_the_listed_codes():
    assert sorted(_module_table()) == sorted(CODES)


def test_readme_lists_every_code_with_its_exit_status():
    assert _readme_table() == _module_table()
