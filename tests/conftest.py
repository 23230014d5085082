"""Test configuration: Hypothesis runs derandomized, so that the suite draws
the same examples on every run and a pass or a failure can be repeated; and
a fixture that makes reading a polynomial's terms dict fail."""

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "deterministic", derandomize=True, database=None, deadline=None, max_examples=60
    )
    settings.load_profile("deterministic")


@pytest.fixture
def refuse_terms(monkeypatch):
    """A function that makes every later read of MultilinearPolynomial.terms
    fail, for tests that show a path builds no terms dict."""
    from matchcover import MultilinearPolynomial

    def refuse():
        def read(self):
            raise AssertionError("the terms dict was read")

        monkeypatch.setattr(MultilinearPolynomial, "terms", property(read))

    return refuse
