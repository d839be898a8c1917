"""Fixtures shared by the test modules."""
import pytest


def _constructor(base, **fields):
    return type(base)(**{**base._asdict(), **fields})


def _replace(base, **fields):
    return base._replace(**fields)


def _make(base, **fields):
    return type(base)._make({**base._asdict(), **fields}.values())


@pytest.fixture
def routes():
    """The three routes to a checked named tuple (``tree.CheckedTuple``):
    each ``build(base, **fields)`` builds ``base`` with ``fields``
    replaced, through the constructor, ``_replace`` or ``_make``."""
    return (_constructor, _replace, _make)
