"""Record the preset outcomes the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py > perfbench/reference.json

Run once, on the commit whose outcomes are the reference; the committed
``reference.json`` came from the commit that added the benchmark.  For every
preset scenario the benchmark runs it stores status, impact time and control
effort exactly as the metrics JSON writes them.  A later run fails an
engagement whose value moves more than 1e-9 relative from these.
"""

import json
import sys
import warnings

from itcsim.config import run_scenario
from itcsim.presets import preset_scenarios

PRESETS = ("table1-nominal", "fig6-planar-compare")


def main() -> int:
    warnings.simplefilter("ignore")
    out = {}
    for preset in PRESETS:
        for label, cfg in preset_scenarios(preset):
            _, outcome, mets = run_scenario(cfg)
            out[label] = {
                "status": outcome.status.value,
                "impactTime": mets.impact_time,
                "controlEffort": mets.control_effort,
            }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
