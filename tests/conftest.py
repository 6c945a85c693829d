"""One hypothesis profile for the whole suite: the same examples on every run."""

from hypothesis import settings

settings.register_profile("tdlab", derandomize=True, deadline=None, database=None)
settings.load_profile("tdlab")
