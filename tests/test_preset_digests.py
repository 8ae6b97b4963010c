"""tools/preset_digests.py: every fixed edge-case config still loads.

The digest tool writes each ``CONFIGS`` text to a file and runs it with
``itcsim run --config``; a key that left the config schema would make that
run exit 1 with a config error, which the digests record as just another
output.  This loads every text the way the CLI does, without running it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from itcsim.config import load_config

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "preset_digests.py"
_spec = importlib.util.spec_from_file_location("preset_digests", _TOOL)
preset_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_digests)


@pytest.mark.parametrize("name", list(preset_digests.CONFIGS))
def test_every_digest_config_loads(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    path.write_text(preset_digests.CONFIGS[name])
    load_config(str(path), environ={})
