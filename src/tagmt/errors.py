"""Exception hierarchy shared by all tagmt modules.

DataError subclasses map to CLI exit code 2, Divergence to exit code 3,
everything else (usage, bad configuration) to exit code 1. Every class
survives a pickle round trip with its message and fields, so an error can
cross a process boundary.
"""


class TagmtError(Exception):
    """Base class for all tagmt errors."""

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


class MalformedLine(DataError):
    def __init__(self, line_number: int, message: str = "malformed line"):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyText(DataError):
    def __init__(self, line_number: int, side: str = "text"):
        self.line_number = line_number
        self.side = side
        super().__init__(f"line {line_number}: empty {side} field")


class LengthMismatch(DataError):
    def __init__(self, n_source: int, n_target: int):
        self.n_source = n_source
        self.n_target = n_target
        super().__init__(
            f"aligned inputs differ in length: {n_source} source vs {n_target} target"
        )


class UnknownImage(DataError):
    def __init__(self, image_id: str, record_index: int | None = None):
        self.image_id = image_id
        self.record_index = record_index
        at = f" (record {record_index})" if record_index is not None else ""
        super().__init__(f"no detections for image id {image_id!r}{at}")


class UnknownLabel(DataError):
    def __init__(self, label: str, line_number: int | None = None):
        self.label = label
        self.line_number = line_number
        at = f"line {line_number}: " if line_number is not None else ""
        super().__init__(f"{at}label {label!r} is not in the tag vocabulary")


class InvalidConfidence(DataError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"confidence {value!r} outside [0, 1]")


class SeparatorCollision(DataError):
    def __init__(self, separator: str, text: str):
        self.separator = separator
        self.text = text
        super().__init__(f"text contains the reserved separator {separator!r}: {text!r}")


class EmptyCorpus(DataError):
    def __init__(self, message: str = "corpus has no records"):
        super().__init__(message)


class MissingBaseline(DataError):
    def __init__(self, task: str, line_number: int | None = None):
        self.task = task
        self.line_number = line_number
        at = f"line {line_number}: " if line_number is not None else ""
        super().__init__(f"{at}no text-only baseline score for task {task!r}")


class TrainingError(TagmtError):
    """Errors raised while optimizing a model."""


class Divergence(TrainingError):
    def __init__(self, step: int, loss: float):
        self.step = step
        self.loss = loss
        super().__init__(f"training loss became non-finite at step {step}: {loss!r}")


class ArchitectureMismatch(TrainingError):
    def __init__(self, field: str, base_value, new_value):
        self.field = field
        super().__init__(
            f"fine-tuning may not change {field}: checkpoint has {base_value}, "
            f"override requests {new_value}"
        )
