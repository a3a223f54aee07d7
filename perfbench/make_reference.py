"""Regenerate the reference tables the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every shipped scenario through the CLI at its own seed and stores
the CSVs gzipped under perfbench/reference/<scenario>/.  Each scenario
also runs at a second seed; tables whose bytes change are marked
``seeded`` in reference/index.json.  Regenerate only on a commit whose
outputs are known to be right: the benchmark treats these files as the
answer.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OTHER_SEED = 1


def run(cli, scenario: Path, out_dir: Path, seed=None) -> dict[str, bytes]:
    argv = ["run", str(scenario), "--out-dir", str(out_dir), "--threads", "1"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{scenario.name} exited with {rc}")
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from lqmarket import cli

    ref_dir = HERE / "reference"
    index = {"files": {}}
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench_out"))
    try:
        for scenario in sorted((ROOT / "scenarios").glob("*.yaml")):
            stem = scenario.stem
            tables = run(cli, scenario, work / stem / "default")
            other = run(cli, scenario, work / stem / "other", OTHER_SEED)
            target = ref_dir / stem
            if target.exists():
                shutil.rmtree(target)
            target.mkdir(parents=True)
            index["files"][stem] = {}
            for name, data in tables.items():
                (target / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))
                index["files"][stem][name] = {"seeded": other[name] != data}
            print(stem, ", ".join(tables))
    finally:
        shutil.rmtree(work)
    (ref_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
