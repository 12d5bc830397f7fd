"""Exception types shared across the toolkit."""
import json
import sys


class TreeStealerError(Exception):
    """Base class for all toolkit errors."""


class MalformedTreeError(TreeStealerError):
    """Tree structure violates an invariant (dangling child, bad depth, ...)."""


class DimensionMismatchError(TreeStealerError):
    """Input vector length does not match the tree's feature count."""


class SchemaError(TreeStealerError):
    """A serialized tree or report file violates the expected schema."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def read_json(path):
    """The JSON document at ``path``; a file that does not parse raises ``SchemaError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as two-space indented JSON and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def require_keys(data, keys, where: str = "") -> None:
    """Raise ``SchemaError`` unless ``data`` is a JSON object holding every key;
    ``where`` prefixes the message."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise SchemaError(f'{where}missing required key "{key}"', field=key)


def require_arrays(data, keys, where: str = "") -> None:
    """Raise ``SchemaError`` unless each of ``keys`` in ``data`` holds a
    JSON array; ``where`` prefixes the message."""
    for key in keys:
        if not isinstance(data[key], list):
            raise SchemaError(f'{where}"{key}" must be a JSON array, '
                              f"got {type(data[key]).__name__}", field=key)


def require_lengths(data, keys, length: int, where: str = "") -> None:
    """Raise ``SchemaError`` unless each of ``keys`` in ``data`` holds
    ``length`` values; ``where`` prefixes the message."""
    for key in keys:
        if len(data[key]) != length:
            raise SchemaError(f'{where}"{key}" has {len(data[key])} values, '
                              f"expected {length}", field=key)


def json_number(value, key: str, where: str = "", integer: bool = False,
                nullable: bool = False):
    """A JSON integer, any finite JSON number (as a float) unless ``integer``,
    or None where ``nullable``; else ``SchemaError``, so a bool, a string,
    ``NaN``, ``Infinity`` or an integer too large for a float is never coerced."""
    if (nullable and value is None) or (integer and type(value) is int):
        return value
    if not integer and type(value) in (int, float):
        if -sys.float_info.max <= value <= sys.float_info.max:  # false for NaN
            return float(value)
        raise SchemaError(f'{where}"{key}" must be a finite number, got {json.dumps(value)}',
                          field=key)
    kind = "an integer" if integer else "a number"
    raise SchemaError(f'{where}"{key}" must be {kind}, got {json.dumps(value)}', field=key)


def label_fault(label) -> str | None:
    """Why ``label`` cannot be a class label, or None when it can. Labels
    are compared by hash and ``==``, so each must be hashable and equal
    to itself."""
    try:
        hash(label)
    except TypeError:
        return f"label {label!r} is unhashable"
    return f"label {label!r} is unequal to itself" if label != label else None


class InfeasibleGridError(TreeStealerError):
    """The threshold grid has too few points for the requested tree shape."""


class TreeSizeError(TreeStealerError):
    """A random tree would pass the node bound ``trees.MAX_TREE_NODES``."""


class TruncatedTraceError(TreeStealerError):
    """A side-channel trace lost its oldest decisions."""

    def __init__(self, message: str, recovered_depth: int, true_depth: int):
        super().__init__(message)
        self.recovered_depth = recovered_depth
        self.true_depth = true_depth


class DoubletDecodeError(TreeStealerError):
    """A doublet stream does not parse as per-node branch patterns."""

    def __init__(self, message: str, block_index: int):
        super().__init__(message)
        self.block_index = block_index


class PathDeviationError(TreeStealerError):
    """A crafted input left its intended path above the target node.

    Raised instead of corrupting the shadow tree; the usual cause is an
    extraction resolution coarser than the target's threshold spacing,
    so sweep harnesses respond by halving epsilon.
    """

    def __init__(self, message: str, node_id: int):
        super().__init__(message)
        self.node_id = node_id


class FeatureNotFoundError(TreeStealerError):
    """No feature probe flipped the target node's decision."""

    def __init__(self, message: str, node_id: int):
        super().__init__(message)
        self.node_id = node_id


class ChannelInconsistencyError(TreeStealerError):
    """Observed traces contradict the shadow structure built so far."""
