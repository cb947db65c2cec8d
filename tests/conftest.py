import sys

import pytest

# Set before fairassign is imported: a test run leaves no bytecode cache in
# src/, and a tree holding one starts faster, which skews bench comparisons
# between trees.
sys.dont_write_bytecode = True

from fairassign import Instance


@pytest.fixture
def two_agent() -> Instance:
    # contested top item, diverging middle ranks
    return Instance.from_prefs({"1": list("abcd"), "2": list("acbd")}, items=list("abcd"))


@pytest.fixture
def four_agent() -> Instance:
    # two clones plus two agents pulling item d apart
    return Instance.from_prefs(
        {
            "1": list("abcd"),
            "2": list("abcd"),
            "3": list("adbc"),
            "4": list("dabc"),
        },
        items=list("abcd"),
    )


@pytest.fixture
def conflict() -> Instance:
    # opposed top choices; the misreport-audit family
    return Instance.from_prefs({"1": list("abcd"), "2": list("dabc")}, items=list("abcd"))


@pytest.fixture
def identical() -> Instance:
    return Instance.from_prefs({"1": list("abcd"), "2": list("abcd")}, items=list("abcd"))


@pytest.fixture
def fhr_gap() -> Instance:
    # three clones wanting a,b,c,d plus one agent wanting c,d; tail identical
    return Instance.from_prefs(
        {
            "1": list("abcdefgh"),
            "2": list("abcdefgh"),
            "3": list("abcdefgh"),
            "4": list("cdefghab"),
        },
        items=list("abcdefgh"),
    )
