"""Suite-wide test settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run of the suite tries the same examples.
"""

from hypothesis import settings

settings.register_profile("fixed-examples", derandomize=True, database=None)
settings.load_profile("fixed-examples")
