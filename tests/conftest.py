"""Test-session settings.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` hypothesis profile: examples
derived from each test's name instead of drawn at random, no example
database, and the reproduction blob printed with any failure, so a
pinned CI run explores the same inputs every time.  Without the
variable hypothesis keeps its default random exploration.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
