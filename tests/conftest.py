"""Shared test harness configuration.

Three concerns live here:

- **Hypothesis profiles** — property-based tests run under the ``ci``
  profile by default: ``derandomize=True`` pins example generation to
  the test's own source (no ambient randomness, no flaky CI), and the
  example database keeps previously-found failures replaying first.
  Set ``HYPOTHESIS_PROFILE=dev`` locally for a wider randomized search.
- **Golden fixtures** — ``pytest --update-golden`` rewrites the
  committed expectations under ``tests/golden/`` from current output
  instead of diffing against them (see ``docs/TESTING.md`` for when
  that is legitimate).
- **The ``[numpy]`` cell** — the similarity kernels have one
  arithmetic arm, NumPy; tests that ran it beside a pure-stdlib arm
  request :func:`numpy_arm`, which keeps their ids unchanged.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ expectations from current output",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden fixtures, not assert them."""
    return request.config.getoption("--update-golden")


@pytest.fixture(params=["numpy"])
def numpy_arm():
    """The one arithmetic arm (NumPy): a single ``[numpy]`` cell."""
