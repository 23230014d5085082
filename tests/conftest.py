"""Test configuration: Hypothesis runs derandomized, so that the suite draws
the same examples on every run and a pass or a failure can be repeated."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "deterministic", derandomize=True, database=None, deadline=None, max_examples=60
    )
    settings.load_profile("deterministic")
