"""State files, CSV import, machine-readable reports, and the CLI.

The on-disk convention is pinned in every file header (shot noise 1/2,
interleaved quadrature ordering); anything else is rejected loudly or
rescaled on request.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from cvmodes import (
    distribution_config,
    emit_report,
    load_cov_csv,
    load_state,
    run_pipeline,
    save_state,
)
from cvmodes.fixtures import load_state_fixture
from cvmodes.io import parse_register_spec

with tempfile.TemporaryDirectory(prefix="cvmodes_demo_") as tmp:
    workdir = Path(tmp)
    print("working in", workdir)

    # bundled fixtures: the measured source matrix and a four-mode vacuum
    source = load_state_fixture("sigma2_exp")
    print("\nfixture sigma2_exp:", ", ".join(str(m) for m in source.register))

    path = workdir / "source.json"
    save_state(source, path)
    print("saved; file starts with:")
    print("\n".join(path.read_text().splitlines()[:6]), "...")

    again = load_state(path)
    print("round trip exact:", (again.cov == source.cov).all())

    # covariance matrices published as bare tables go through CSV + a register spec
    csv_path = workdir / "source.csv"
    csv_path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in source.cov)
    )
    imported = load_cov_csv(csv_path, parse_register_spec("a:H:0,b:V:0"))
    print("CSV import exact:", (imported.cov == source.cov).all())

    # run the distribution pipeline and render both report formats
    result = run_pipeline(
        distribution_config(analyses=("pairwise", "scan")), state=source
    )
    print("\ntext report:")
    print(emit_report(result.report, "text").decode())

    blob = emit_report(result.report, "json")
    doc = json.loads(blob.decode())
    print("json report keys:", sorted(doc))
    print("byte-identical on re-emission:",
          blob == emit_report(result.report, "json"))

    # the same functionality is scripted behind the cvmodes CLI
    print("\nCLI: cvmodes validate", path.name)
    proc = subprocess.run(
        [sys.executable, "-m", "cvmodes.cli", "validate", str(path)],
        capture_output=True, text=True,
    )
    print(proc.stdout.strip())
    print("exit code:", proc.returncode)

    print("\nCLI: cvmodes reproduce-paper --json (first 200 bytes)")
    proc = subprocess.run(
        [sys.executable, "-m", "cvmodes.cli", "reproduce-paper", "--json"],
        capture_output=True, text=True,
    )
    print(proc.stdout[:200], "...")
