"""Shared Hypothesis settings: reproducible examples, no example database,
no per-example deadline.  Property tests set only max_examples."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("klform", derandomize=True, database=None, deadline=None)
    settings.load_profile("klform")
