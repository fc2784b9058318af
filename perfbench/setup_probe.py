"""Set-up probe: import the fraceq CLI and load one workload's inputs.

    python3 perfbench/setup_probe.py CLI_ARGS...

CLI_ARGS are the workload's `fraceq` arguments.  The probe parses and
validates the netlist, builds its topology and, for `train`, parses the
training config, then exits.  Its wall time from spawn to exit is the
benchmark's setup_s.
"""

import sys


def main(cli_args: list) -> int:
    from fraceq.circuit import parse_netlist, validate
    from fraceq.cli import parse_train_config
    from fraceq.topology import build_topology

    with open(cli_args[1]) as fh:
        circuit = parse_netlist(fh.read())
    diags = validate(circuit)
    if diags:
        print("; ".join(map(str, diags)), file=sys.stderr)
        return 2
    build_topology(circuit)
    if cli_args[0] == "train":
        with open(cli_args[2]) as fh:
            parse_train_config(fh.read(), circuit)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
