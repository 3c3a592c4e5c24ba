"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is kept between runs.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
