"""The suite's own pytest settings: one failing test never ends the session."""

import os

from conftest import SRC

PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")


def test_a_failing_given_test_does_not_stop_the_session(pytester):
    # hypothesis imports libcst to report a failing example; under the
    # suite's warning filters that import must not end the run, so the
    # passing test after it still runs and is reported
    with open(PYPROJECT) as fh:
        pytester.makefile(".toml", pyproject=fh.read())
    pytester.makepyfile(test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1


def test_a_deprecation_warning_is_still_an_error(pytester):
    # the ignore names one third-party message; any other deprecation fails
    with open(PYPROJECT) as fh:
        pytester.makefile(".toml", pyproject=fh.read())
    pytester.makepyfile(test_inner="""
        import warnings

        def test_warns():
            warnings.warn("TypedDict is deprecated", DeprecationWarning)
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
