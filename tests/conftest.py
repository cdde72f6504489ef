"""Test-suite configuration: a deterministic hypothesis profile.

Property tests draw the same examples on every run and have no per-example
deadline, so a slow or noisy host cannot make them flaky.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")
