"""Set-up of a fresh process, timed from outside by run.py.

Imports the package with its command-line front end (which pulls in the
serialization and validation modules), builds the four benchmark models and
prices one contract.  Usage: ``python3 setup_probe.py <path to src>``.
"""
import sys

sys.path.insert(0, sys.argv[1])

import levyexotic.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    models = workloads.build_models()
    call = workloads.european(1.0, 100.0)
    print(levyexotic.price_contract(call, models["nig"], workloads.SPOT).value)
