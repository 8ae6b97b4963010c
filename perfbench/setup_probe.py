"""Set-up probe: import ``itcsim.cli`` and build a workload's configs and laws.

    python3 perfbench/setup_probe.py preset <name>
    python3 perfbench/setup_probe.py configs <file>...

Nothing is integrated.  The benchmark times this script as a fresh
interpreter to get ``setup_s``.  A single-scenario preset goes through
``load_config`` as ``itcsim run --preset`` does; a multi-scenario preset is
validated scenario by scenario as ``itcsim batch`` does; config files go
through ``load_config`` as ``itcsim run --config`` does.
"""

import sys

from itcsim.cli import load_config, preset_scenarios


def main(argv: list[str]) -> int:
    kind, names = argv[0], argv[1:]
    if kind == "preset":
        scenarios = preset_scenarios(names[0])
        if len(scenarios) == 1:
            cfgs = [load_config(None, base=scenarios[0][1])]
        else:
            cfgs = [cfg for _, cfg in scenarios]
            for cfg in cfgs:
                cfg.validate()
    else:
        cfgs = [load_config(path) for path in names]
    for cfg in cfgs:
        cfg.make_law()
        cfg.initial_state()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
