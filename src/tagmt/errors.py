"""Exception hierarchy shared by all tagmt modules.

A class's `exit_code` attribute is the CLI's exit-code contract: 2 for
DataError and its subclasses, 3 for Divergence, 1 for everything else (usage,
bad configuration). Every class survives a pickle round trip with its message
and fields, so an error can cross a process boundary. A subclass exists only
where a caller catches it or several raise sites share its message format.
"""


class TagmtError(Exception):
    """Base class for all tagmt errors."""

    exit_code = 1

    def __reduce__(self):
        # Rebuild without calling __init__: the subclasses' constructors take
        # fields, not the formatted message that self.args holds.
        return Exception.__new__, (type(self),), {**self.__dict__, "args": self.args}


class ConfigError(TagmtError):
    """Invalid configuration value or combination."""


def check_choice(key, value, choices):
    """Raise ConfigError, its message led by key, unless value is one of choices."""
    if value not in choices:
        *rest, last = map(repr, choices)
        raise ConfigError(f"{key} must be {', '.join(rest)} or {last}, got {value!r}")


class DataError(TagmtError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class MalformedLine(DataError):
    def __init__(self, line_number: int, message: str = "malformed line"):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class LengthMismatch(DataError):
    def __init__(self, n_source: int, n_target: int):
        self.n_source = n_source
        self.n_target = n_target
        super().__init__(
            f"aligned inputs differ in length: {n_source} source vs {n_target} target"
        )


class UnknownImage(DataError):
    def __init__(self, image_id: str, record_index: int):
        self.image_id = image_id
        self.record_index = record_index
        super().__init__(f"no detections for image id {image_id!r} (record {record_index})")


class SeparatorCollision(DataError):
    def __init__(self, separator: str, text: str):
        self.separator = separator
        self.text = text
        super().__init__(f"text contains the reserved separator {separator!r}: {text!r}")


class Divergence(TagmtError):
    exit_code = 3

    def __init__(self, step: int, loss: float):
        self.step = step
        self.loss = loss
        super().__init__(f"training loss became non-finite at step {step}: {loss!r}")
