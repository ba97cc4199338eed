"""Error taxonomy shared across the package.

Exit-code mapping used by the command line: ConfigError -> 2,
NumericError -> 3, IntegrityError -> 4.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, unknown names, missing fields."""


class NumericError(ArithmeticError):
    """Non-finite value produced where the math requires finite numbers."""


class IntegrityError(RuntimeError):
    """Corrupt or tampered artifact (checkpoint checksum, replay log)."""


def open_input(path):
    """Open an input file for reading bytes; a path that names no readable
    file, such as a missing file or a directory, is a configuration error."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
