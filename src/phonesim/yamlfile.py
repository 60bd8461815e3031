"""Reading YAML files: scenarios, policy scripts and LLM configs."""

from __future__ import annotations

import yaml

# PyYAML's C loader is several times faster than the pure-Python one on large
# scenarios. Both use the safe constructor and build the same objects.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path):
    """Parse one YAML document from `path` with the safe constructor."""
    with open(path, encoding="utf-8") as fh:
        return yaml.load(fh, Loader=_LOADER)
