"""One `hypothesis` profile for every property test: 300 examples, no
deadline, and a fixed derandomized example sequence, so runs repeat."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("circparikh", max_examples=300, deadline=None, derandomize=True)
    settings.load_profile("circparikh")
