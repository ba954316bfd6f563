"""Library step of the ``exact`` workload: a multimode twin-beam joint table.

Computes ``multimode_convolve(thin_joint(twin_beam_joint(n_mean), eff), mu)``
and saves the table as ``joint_multimode.npy`` with its tail mass in
``joint_multimode.json``.  Run as a fresh interpreter, like a CLI step:

    PYTHONPATH=src python perfbench/libstep.py --config lib.json --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def compute(cfg, out_dir):
    import numpy as np

    from photocorr import EfficiencyPair, multimode_convolve, thin_joint, twin_beam_joint

    eff = EfficiencyPair(*cfg["eta"])
    joint = multimode_convolve(thin_joint(twin_beam_joint(cfg["n_mean"]), eff), cfg["mu"])
    out_dir = Path(out_dir)
    np.save(out_dir / "joint_multimode.npy", joint.probs)
    with open(out_dir / "joint_multimode.json", "w") as fh:
        json.dump({"tail_mass": joint.tail_mass, "config": cfg}, fh)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.config) as fh:
        cfg = json.load(fh)
    return compute(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
