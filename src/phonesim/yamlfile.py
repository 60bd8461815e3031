"""Reading YAML files: scenarios, policy scripts and LLM configs."""

from __future__ import annotations

import gc

import yaml

from .errors import ScenarioParseError

# PyYAML's C loader is several times faster than the pure-Python one on large
# scenarios. Both use the safe constructor and build the same objects.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path):
    """Parse one YAML document from `path` with the safe constructor.

    The cyclic garbage collector is paused for the parse. Composing a
    document allocates a tracked node object per scalar and collection, none
    of them in a cycle, and the collections those allocations set off grow
    faster than the document: on a 10,000-record `init` block they take a
    third to a half of the parse. Reference counting still frees everything;
    only cycle detection waits until the parse ends. The collector is
    re-enabled only if it was enabled on entry, also when the parse raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_LOADER)
    finally:
        if was_enabled:
            gc.enable()


def read_yaml(path):
    """`load_yaml`, raising `ScenarioParseError` with the path and a one-line
    message for a file that cannot be read or is not valid YAML."""
    try:
        return load_yaml(path)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: invalid YAML: {' '.join(str(exc).split())}") from exc
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
