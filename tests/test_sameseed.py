"""Same-seed digests against the stored ones for this host.

`scripts/sameseed.py` writes digests of what a source tree computes from
fixed seeds: checkpoint and metrics bytes, evaluations, predictions, the
gradcheck and the IDX writer. Those bits depend on the numpy and BLAS build,
the CPU and the BLAS thread count, so the stored file is chosen by the
script's key record; a host with no matching file skips, naming its key.

The test trains a subset of the rows, one per model kind, encoding, feedback
scheme and hidden activation, a narrower batch and training from IDX files;
the full script stays the gate of a refactor. A change that means to move
bits regenerates the stored files (the full script, at 1 and at 2 BLAS
threads) and says which rows moved; a change that claims the same bits
leaves them as they are.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# kp + threshold + tanh; random + division + positivity; backprop, shifted;
# Kolen-Pollack at batch 48; pc with subtractive errors, trained from IDX files.
ROWS = ("kp_threshold_tanh", "rand_pc_div", "backprop_tanh_bias", "kp_pc_b48", "pc_idx")


def _sameseed():
    spec = importlib.util.spec_from_file_location("sameseed", ROOT / "scripts" / "sameseed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _differences(got, want, path="") -> list:
    """The paths at which two JSON values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [d for k in sorted(set(got) | set(want))
                for d in _differences(got.get(k), want.get(k), f"{path}/{k}")]
    return [] if got == want else [path or "/"]


def test_same_seed_digests_match_the_stored_ones(tmp_path):
    sameseed = _sameseed()
    key = sameseed.key_record()
    golden = GOLDEN / f"sameseed-{sameseed.key_name(key)}.json"
    if not golden.exists():
        pytest.skip(f"no stored digests for key {golden.stem} ({json.dumps(key, sort_keys=True)})")
    out = tmp_path / "digests.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "sameseed.py"), str(ROOT / "src"),
                    str(out), "--rows", ",".join(ROWS)], check=True, cwd=tmp_path)
    got = json.loads(out.read_text())
    want = json.loads(golden.read_text())
    want["rows"] = {name: want["rows"][name] for name in ROWS}
    moved = _differences(got, want)
    assert not moved, f"digests differ from {golden.name} at {moved}"
