"""Benchmark-suite setup.

Every experiment's paper-shape claims live in ``repro.bench.experiments``;
registering that module for assertion rewriting makes a failing claim show
the values it compared, as an assertion in a test module would.
"""

import pytest

pytest.register_assert_rewrite("repro.bench.experiments")
