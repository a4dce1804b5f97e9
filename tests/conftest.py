"""Repo-wide hypothesis profiles.

``default`` drops the per-example deadline: property tests here run whole
simulations, and a wall-clock deadline would make them pass or fail with
host speed.  ``ci`` (``pytest --hypothesis-profile=ci``) also
derandomizes, so a red CI run reproduces locally.
"""

from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("default")
