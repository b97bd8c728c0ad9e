import json
import pathlib

import pytest

from hopforder import CoefficientRing, Permutation, build_bundle, load_document

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the fixtures that carry a field and a Hopf action
FIELD_FIXTURES = (
    "cubic_eisenstein",
    "cubic_eisenstein_alt",
    "quadratic",
    "quadratic_i_local3",
    "quadratic_sqrtm3_local3",
    "trivial",
)


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def load(name: str):
    return load_document(fixture_path(name))


def bundle_for(name: str):
    doc = load(name)
    return build_bundle(doc.hopf, doc.ring)


def one_based_cycles(dest):
    """Cycles of a permutation in dest form, with points counted from 1."""
    return tuple(tuple(i + 1 for i in c) for c in Permutation(dest).cycles())


def i_over_3_document() -> dict:
    """Q(i) over Z on the basis {1, i/3}, which is not integral: its
    discriminant is -4/9.  The action is that of quadratic_i_local3."""
    doc = json.loads(pathlib.Path(fixture_path("quadratic_i_local3")).read_text())
    doc["ring"] = {"kind": "integers"}
    doc["field"]["structure_constants"][1][1] = ["-1/9", "0"]
    return doc


@pytest.fixture
def z_ring():
    return CoefficientRing.integers()


@pytest.fixture
def z3_ring():
    return CoefficientRing.localized_at(3)
