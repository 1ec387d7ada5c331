from __future__ import annotations

import pytest

from biliaison import families, fixtures, qprofile
from biliaison.polyring import FieldSpec, MultiPoly


@pytest.fixture(scope="session")
def field() -> FieldSpec:
    return FieldSpec.prime()


@pytest.fixture(scope="session")
def poly(field):
    def parse(text: str) -> MultiPoly:
        return MultiPoly.parse(text, field)

    return parse


class ExampleRuns:
    """Lazily computed (descriptor, profile, report) per example.

    Shared across the whole session so the expensive example (3.4) is run
    once; the results kept on the cached fixture matrices make repeated
    library calls cheap anyway.
    """

    def __init__(self):
        self._runs = {}

    def get(self, name: str):
        if name not in self._runs:
            desc = fixtures.example(name)
            profile = qprofile.compute_q_profile(desc.matrix)
            report = families.minimal_family(desc.matrix, profile=profile)
            self._runs[name] = (desc, profile, report)
        return self._runs[name]


@pytest.fixture(scope="session")
def example_runs() -> ExampleRuns:
    return ExampleRuns()
