"""The lint-checker registry honours the shared registry contract."""

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    available_checkers,
    checker_description,
    get_checker,
    register_checker,
    unregister_checker,
)

BUILTINS = {"determinism", "broad-except"}


def test_builtins_registered():
    assert BUILTINS <= set(available_checkers())


def test_get_checker_returns_coded_checker():
    codes = {get_checker(name).code for name in BUILTINS}
    assert codes == {"RPL002", "RPL004"}


def test_unknown_checker_raises_configuration_error():
    with pytest.raises(ConfigurationError) as excinfo:
        get_checker("no-such-checker")
    message = str(excinfo.value)
    assert "no-such-checker" in message
    for name in BUILTINS:
        assert name in message


def test_register_and_unregister_roundtrip():
    class ExtraChecker:
        """Fires on nothing."""

        name = "extra"
        code = "XYZ001"

        def check(self, context):
            return []

    register_checker(ExtraChecker)
    try:
        assert "extra" in available_checkers()
        assert get_checker("extra").code == "XYZ001"
        assert checker_description(get_checker("extra")) == "Fires on nothing."
    finally:
        unregister_checker("extra")
    assert "extra" not in available_checkers()


def test_double_registration_rejected():
    class CloneChecker:
        name = "determinism"
        code = "RPL999"

        def check(self, context):
            return []

    with pytest.raises(ConfigurationError, match="already registered"):
        register_checker(CloneChecker)


def test_register_validates_structure():
    class NoName:
        code = "X1"

        def check(self, context):
            return []

    class NoCode:
        name = "no-code"

        def check(self, context):
            return []

    class NoCheck:
        name = "no-check"
        code = "X2"

    with pytest.raises(ConfigurationError, match="name"):
        register_checker(NoName)
    with pytest.raises(ConfigurationError, match="code"):
        register_checker(NoCode)
    with pytest.raises(ConfigurationError, match="check"):
        register_checker(NoCheck)
    assert "no-code" not in available_checkers()
    assert "no-check" not in available_checkers()
