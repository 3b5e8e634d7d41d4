"""Set-up probe: what a fresh interpreter pays before its first result.

Imports cogia from ``src/``, loads the README scenario, draws one channel
set and makes the first construction and water-fill calls (numpy and LAPACK
initialise lazily, so their set-up lands here).  Exits 0 only when the
construction cancels interference and both rates are finite.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cogia  # noqa: E402
from cogia import alignment, rates, scenario  # noqa: E402

if Path(cogia.__file__).resolve().parent != SRC / "cogia":
    sys.exit(f"cogia imported from {cogia.__file__}, not from {SRC}")

sc = scenario.load_scenario(ROOT / "perfbench" / "scenarios" / "readme.json")
ch = scenario.generate_channels(sc.dims, sc.seed)
prs = alignment.build_all(ch, sc.alloc, sc.seed)
report = alignment.interference_report(ch, prs)
eff = alignment.effective_channels(ch, prs)
rp = rates.pcell_sum_rate(prs, eff, sc.noise)
rs = rates.scell_sum_rate(prs, eff, sc.noise)
ok = report.worst_case <= 1e-9 and math.isfinite(rp.sum_rate) and math.isfinite(rs.sum_rate)
sys.exit(0 if ok else 1)
