"""Time what a CLI user pays before the first draw, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py NETLIST FAULTS  (with src/ on PYTHONPATH)

Prints the seconds spent importing ``ganfault.cli``, parsing the netlist
and the fault list, and injecting the faults.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import ganfault.cli  # noqa: F401  (the import is what is timed)
    from ganfault.faults import inject_all, parse_fault_list
    from ganfault.netlist import parse_netlist

    with open(sys.argv[1], encoding="utf-8") as fh:
        circuit = parse_netlist(fh.read())
    inject_all(circuit, parse_fault_list(sys.argv[2]))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
