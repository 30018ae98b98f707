"""Exception hierarchy shared across the toolkit.

Config/validation problems map to CLI exit code 2, numerical failures to 3,
and I/O failures to 1 (see cli.main).
"""

from __future__ import annotations


class SogtokError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SogtokError):
    """Invalid input, configuration, or contract violation (exit code 2)."""


class NumericalError(SogtokError):
    """Training or numeric failure (exit code 3)."""


class IOFailure(SogtokError):
    """File read/write failure (exit code 1)."""


# graph-core

class GraphTooLarge(ValidationError):
    pass


class AlreadyAugmented(ValidationError):
    pass


class InvalidPermutation(ValidationError):
    pass


class NodeOutOfRange(ValidationError):
    pass


# ingest-parsers

class GraphFileSyntaxError(ValidationError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class GraphFileSemanticError(ValidationError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class SmilesError(ValidationError):
    """Base class for SMILES parse failures."""


class UnsupportedToken(SmilesError):
    def __init__(self, position: int, token: str):
        super().__init__(f"unsupported token {token!r} at position {position}")
        self.position = position
        self.token = token


class UnbalancedBranch(SmilesError):
    def __init__(self, position: int):
        super().__init__(f"unbalanced branch parenthesis at position {position}")
        self.position = position


class UnclosedRing(SmilesError):
    def __init__(self, digit: int):
        super().__init__(f"ring-closure label {digit} opened but never closed")
        self.digit = digit


# structural-attributes / encoder-vq

class DimensionMismatch(ValidationError):
    pass


# tokenizer-train

class EmptyDataset(ValidationError):
    pass


class NonFiniteLoss(NumericalError):
    def __init__(self, epoch: int, detail: str = ""):
        msg = f"non-finite loss at epoch {epoch}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.epoch = epoch


class CheckpointError(ValidationError):
    pass


# corpus-gen

class DegenerateCodebook(ValidationError):
    pass


class GraphTooLargeForDescription(ValidationError):
    pass


# prompt-gen

class MissingText(ValidationError):
    pass


class UnknownTask(ValidationError):
    pass


class PolicyOnEvalSplit(ValidationError):
    pass


# eval-metrics

class DegenerateLabels(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass
