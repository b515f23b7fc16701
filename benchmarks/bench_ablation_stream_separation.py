"""Ablation/extension: hot/cold stream separation in the FTL.

The paper's reference [67] (Stoica & Ailamaki) shows that separating
data by *update frequency* improves flash write performance.  Our FTL
implements the hint-free variant — first-write/overwrite host streams
plus a generational GC stream for twice-relocated data — and this
ablation documents the honest result: **without real heat estimation
the separation is WA-neutral** on the B+Tree-over-preconditioned-drive
workload.  Hot pages survive GC cycles long enough to pollute the
frozen stream, so segregation never converges.  This is exactly why
[67] builds an update-frequency estimator rather than relying on
structural signals, and why our simulated (mixed-stream) WA-D
overshoots the paper's hardware on that workload (DESIGN.md §3,
"One write stream").
"""

from benchmarks.conftest import run_once
from repro.core.experiment import Engine, run_experiment
from repro.core.figures import spec_for
from repro.core.report import render_table
from repro.flash.state import DriveState


def test_stream_separation_ablation(benchmark, scale, archive):
    def run():
        out = {}
        for separated in (False, True):
            out[separated] = run_experiment(
                spec_for(scale, Engine.BTREE,
                         drive_state=DriveState.PRECONDITIONED,
                         ssd_options={"stream_separation": separated})
            )
        return out

    results = run_once(benchmark, run)
    rows = [
        ["separated" if separated else "mixed (default)",
         f"{r.steady.kv_tput / 1000:.2f}", f"{r.steady.wa_d:.2f}"]
        for separated, r in results.items()
    ]
    text = render_table(
        ["write streams", "KOps/s", "steady WA-D"],
        rows,
        title="Ablation: hot/cold stream separation, hint-free variant "
              "(B+Tree, preconditioned drive) — documented negative result",
    )
    archive("ablation_stream_separation", text)

    # The hint-free mechanism must be correct and roughly WA-neutral;
    # see the module docstring for why it is not a win.
    assert results[True].completed and results[False].completed
    assert results[True].steady.wa_d < 1.35 * results[False].steady.wa_d