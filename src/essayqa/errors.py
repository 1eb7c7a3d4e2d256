"""Exception types shared across the engine, and the text-file reader that
turns undecodable input into one of them."""


class EssayQAError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EssayQAError):
    """Input data violates a documented invariant (bad offsets, empty fields, ...)."""


class OversizedQuestionError(EssayQAError):
    """Question tokens alone exhaust the sequence budget; no essay token fits."""


class VocabularyError(EssayQAError):
    """Vocabulary file malformed or inconsistent with the model."""


class CheckpointError(EssayQAError):
    """Checkpoint file unreadable, wrong magic, or inconsistent with its header."""


class PlanError(EssayQAError):
    """Experiment or training plan is unresolvable or malformed."""


def read_text(path: str) -> str:
    """The whole UTF-8 text file at ``path``, newlines translated as text mode
    does; a file that is not UTF-8 raises ValidationError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
