"""Cross-cutting utilities: atomic file writes and serialization of
certificates and results."""

from repro.utils.fileio import atomic_write_text

_SERIALIZE = (
    "polynomial_to_dict",
    "polynomial_from_dict",
    "snbc_result_to_dict",
    "save_certificate",
    "load_certificate",
)


def __getattr__(name):
    # serialize pulls in numpy (via repro.poly); resolving its names on
    # first use keeps the stdlib-only telemetry layer, which needs just
    # atomic_write_text, free of that import
    if name in _SERIALIZE:
        from repro.utils import serialize

        return getattr(serialize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["atomic_write_text", *_SERIALIZE]
