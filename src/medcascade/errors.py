"""Exception hierarchy shared across the pipeline.

Every module raises subclasses of MedcascadeError so the CLI can map
failures to exit codes and a single machine-parseable category line.
UserError covers bad inputs/configuration (exit 1); anything else that
escapes is an internal error (exit 2).
"""


class MedcascadeError(Exception):
    """Base class for all pipeline errors."""

    @property
    def category(self) -> str:
        return type(self).__name__


class UserError(MedcascadeError):
    """Errors caused by bad inputs, files, or configuration."""


# corpus
class MalformedRecord(UserError):
    def __init__(self, line_no, field, detail=""):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}: bad field {field!r}" + (f": {detail}" if detail else ""))

    def in_file(self, path) -> "MalformedRecord":
        """This error, its message naming ``path`` first."""
        self.args = (f"{path}, {self}",)
        return self


class UnknownLabel(UserError):
    def __init__(self, record_id, task, label):
        self.record_id = record_id
        self.task = task
        self.label = label
        super().__init__(f"record {record_id!r}: label {label!r} not in {task} vocabulary")


class DuplicateId(UserError):
    def __init__(self, record_id):
        self.record_id = record_id
        super().__init__(f"duplicate record id {record_id!r}")


class ClassTooSmall(UserError):
    def __init__(self, class_name, count, minimum):
        self.class_name = class_name
        super().__init__(f"class {class_name!r} has {count} records, needs >= {minimum}")


# gateway
class BackendUnavailable(MedcascadeError):
    pass


class RetriesExhausted(BackendUnavailable):
    """Every attempt the retry policy allows failed transiently: not final."""


class AuthError(UserError):
    pass


class ResponseEmpty(MedcascadeError):
    pass


class UnknownSentinel(UserError):
    pass


class UnknownBackend(UserError):
    pass


# preprocess
class RefusalDetected(MedcascadeError):
    pass


class ParseFailure(MedcascadeError):
    pass


class EmptySourceText(UserError):
    pass


class CorruptArtifact(UserError):
    """A file on disk cannot be read back (truncated, not UTF-8, not JSON,
    missing keys); the message names the file."""

    # what a damaged JSON file raises while it is decoded and unpacked
    DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)

    @classmethod
    def at(cls, path, error: Exception, how: str = "unreadable") -> "CorruptArtifact":
        detail = error.strerror if isinstance(error, OSError) and error.strerror else error
        return cls(f"{path} is {how}: {type(error).__name__}: {detail}")


# variants
class MissingBundle(UserError):
    pass


# adapter / trainer
class RankTooLarge(UserError):
    pass


class ShapeMismatch(UserError):
    pass


class EmptyClass(UserError):
    pass


class IndexOutOfVocab(UserError):
    pass


class NonFiniteLoss(MedcascadeError):
    def __init__(self, batch_id, value):
        self.batch_id = batch_id
        super().__init__(f"non-finite loss {value!r} at batch {batch_id}")


class VocabMismatch(UserError):
    pass


class EncoderUnavailable(UserError):
    pass


class VocabInvalid(UserError):
    """A tokenizer vocabulary lacks a token the encoder needs."""


# evaluator
class EmptyInput(UserError):
    pass


# cli
class ConfigInvalid(UserError):
    pass


class MissingUpstreamArtifact(UserError):
    pass
