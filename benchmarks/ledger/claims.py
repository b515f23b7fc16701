"""The paper's qualitative claims as a table of predicates.

Ported from the assertions in ``benchmarks/bench_fig02…fig11_*.py``
(which stay as they are): each row is ``(id, figure, predicate over
that figure's FigureResult.data)``.  The ledger counts how many hold
at SMALL scale — its accuracy metric — and lists every id pass/fail;
a claim that does not hold is a number in the report, not an error.
Claims the bench files only assert at larger scales are left out.
"""

from __future__ import annotations

from repro.core.pitfalls import check_plan

TB = 10**12
FIG5_FRACTIONS = (0.25, 0.37, 0.5, 0.62)
SSDS = ("ssd1", "ssd2", "ssd3")


def _avoids_pitfall(data, pitfall_id: int) -> bool:
    plan = data["campaign"].plan()
    return pitfall_id not in {v.pitfall_id for v in check_plan(plan)}


def _winners(grid) -> set:
    return {winner for row in grid.winners for winner in row}


def _fig2():
    lsm = lambda d: d["results"]["lsm"]  # noqa: E731
    btree = lambda d: d["results"]["btree"]  # noqa: E731
    yield "lsm-early-burst-overestimates", lambda d: (
        lsm(d).samples[0].kv_tput > 1.5 * lsm(d).steady.kv_tput)
    yield "lsm-wa-a-rises", lambda d: (
        lsm(d).samples[-1].wa_a > lsm(d).samples[0].wa_a)
    yield "btree-wa-a-flat", lambda d: (
        abs(btree(d).samples[-1].wa_a - btree(d).samples[0].wa_a) < 1.5)
    yield "lsm-gc-kicks-in", lambda d: lsm(d).samples[-1].wa_d > 1.2


def _fig3():
    steady = lambda d, *key: d["results"][key].steady  # noqa: E731

    def rel_gap(d, engine):
        trim = steady(d, engine, "trimmed").wa_d
        prec = steady(d, engine, "preconditioned").wa_d
        return abs(prec - trim) / prec

    yield "btree-trimmed-faster", lambda d: (
        steady(d, "btree", "trimmed").kv_tput
        > 1.2 * steady(d, "btree", "preconditioned").kv_tput)
    yield "btree-preconditioned-wa-d-higher", lambda d: (
        steady(d, "btree", "preconditioned").wa_d
        > 1.5 * steady(d, "btree", "trimmed").wa_d)
    yield "lsm-converges-more-than-btree", lambda d: (
        rel_gap(d, "lsm") < rel_gap(d, "btree"))
    yield "preconditioned-starts-with-gc", lambda d: (
        d["results"][("btree", "preconditioned")].samples[0].wa_d > 1.2)


def _fig4():
    yield "lsm-covers-lba-space", lambda d: d["lsm"]["coverage"] > 0.9
    yield "btree-never-writes-a-tail", lambda d: (
        d["btree"]["never_written"] > 0.25)
    yield "btree-cdf-knee-early", lambda d: d["btree"]["knee"] < 0.75
    yield "btree-cdf-well-formed", lambda d: d["btree"]["cdf"][1][-1] == 1.0


def _fig5():
    steady = lambda d, *key: d["results"][key].steady  # noqa: E731
    yield "plan-avoids-pitfall-4", lambda d: _avoids_pitfall(d, 4)
    for engine in ("lsm", "btree"):
        yield f"{engine}-larger-dataset-more-wa-d", lambda d, e=engine: (
            steady(d, e, "trimmed", 0.62).wa_d
            >= steady(d, e, "trimmed", 0.25).wa_d - 0.1)
        yield f"{engine}-larger-dataset-not-faster", lambda d, e=engine: (
            steady(d, e, "trimmed", 0.62).kv_tput
            <= steady(d, e, "trimmed", 0.25).kv_tput * 1.15)

    def lsm_wa_a_mild(d):
        wa_a = [steady(d, "lsm", "trimmed", f).wa_a for f in FIG5_FRACTIONS]
        return max(wa_a) < 1.8 * min(wa_a)

    yield "lsm-wa-a-moves-mildly", lsm_wa_a_mild
    for fraction in FIG5_FRACTIONS:
        yield f"trimmed-btree-wa-d-below-lsm-{fraction}", lambda d, f=fraction: (
            steady(d, "btree", "trimmed", f).wa_d
            <= steady(d, "lsm", "trimmed", f).wa_d + 0.1)


def _fig6():
    at = lambda d, *key: d["measurements"][key]  # noqa: E731
    yield "lsm-out-of-space-at-0.88", lambda d: at(d, "lsm", 0.88).out_of_space
    yield "btree-fits-at-0.75", lambda d: not at(d, "btree", 0.75).out_of_space
    for fraction in (0.25, 0.5):
        yield f"lsm-space-amp-above-btree-{fraction}", lambda d, f=fraction: (
            at(d, "lsm", f).peak_space_amp > at(d, "btree", f).peak_space_amp)
        # 1.6 is the bench file's bound for devices under 96 MiB (SMALL).
        yield f"btree-space-amp-bounded-{fraction}", lambda d, f=fraction: (
            at(d, "btree", f).peak_space_amp < 1.6)
    yield "lsm-space-amp-shrinks-with-dataset", lambda d: (
        at(d, "lsm", 0.62).peak_space_amp < at(d, "lsm", 0.25).peak_space_amp)
    yield "btree-wins-some-cost-cell", lambda d: "btree" in _winners(d["grid"])


def _fig7():
    def steady(d, engine, state, extra_op):
        results = d["results"]
        reserved = max(key[2] for key in results) if extra_op else 0.0
        return results[(engine, state, reserved)].steady

    yield "plan-avoids-pitfall-6", lambda d: _avoids_pitfall(d, 6)
    yield "every-configuration-fits", lambda d: (
        all(result.completed for result in d["results"].values()))
    for state in ("trimmed", "preconditioned"):
        yield f"lsm-{state}-op-faster", lambda d, s=state: (
            steady(d, "lsm", s, True).kv_tput
            > 1.2 * steady(d, "lsm", s, False).kv_tput)
        yield f"lsm-{state}-op-cuts-wa-d", lambda d, s=state: (
            steady(d, "lsm", s, True).wa_d
            < steady(d, "lsm", s, False).wa_d - 0.2)
    yield "btree-trimmed-op-indifferent", lambda d: (
        abs(steady(d, "btree", "trimmed", True).kv_tput
            - steady(d, "btree", "trimmed", False).kv_tput)
        / steady(d, "btree", "trimmed", False).kv_tput < 0.15)
    yield "btree-preconditioned-op-cuts-wa-d", lambda d: (
        steady(d, "btree", "preconditioned", True).wa_d
        < steady(d, "btree", "preconditioned", False).wa_d)


def _fig8():
    yield "large-dataset-low-target-no-op-wins", lambda d: (
        d["grid"].winner_at(5 * TB, 5000.0) == "no-OP")
    yield "no-op-wins-somewhere", lambda d: "no-OP" in _winners(d["grid"])
    yield "extra-op-wins-or-ties-somewhere", lambda d: (
        bool({"extra-OP", "tie"} & _winners(d["grid"])))


def _fig9():
    tput = lambda d, *key: d["results"][key].steady.kv_tput  # noqa: E731
    yield "plan-avoids-pitfall-7", lambda d: _avoids_pitfall(d, 7)
    yield "lsm-ssd3-fastest-ssd2-slowest", lambda d: (
        tput(d, "lsm", "ssd3") > tput(d, "lsm", "ssd1") > tput(d, "lsm", "ssd2"))
    yield "btree-ssd3-faster-than-ssd1", lambda d: (
        tput(d, "btree", "ssd3") > tput(d, "btree", "ssd1"))
    yield "lsm-wins-on-ssd1", lambda d: (
        tput(d, "lsm", "ssd1") > tput(d, "btree", "ssd1"))
    yield "btree-wins-on-ssd2", lambda d: (
        tput(d, "btree", "ssd2") > tput(d, "lsm", "ssd2"))
    yield "lsm-spread-exceeds-btree", lambda d: (
        tput(d, "lsm", "ssd3") / tput(d, "lsm", "ssd2")
        > 2 * tput(d, "btree", "ssd3")
        / min(tput(d, "btree", "ssd1"), tput(d, "btree", "ssd2")))


def _fig10():
    def cv(d, engine, ssd):
        rows = {(row[0], row[1]): row for row in d["rows"]}
        return float(rows[(engine, ssd)][2])

    yield "lsm-most-variable-on-qlc", lambda d: (
        cv(d, "lsm", "ssd2") > cv(d, "lsm", "ssd3"))
    for ssd in SSDS:
        yield f"btree-steady-on-{ssd}", lambda d, s=ssd: cv(d, "btree", s) < 0.3
        yield f"btree-steadier-than-lsm-on-{ssd}", lambda d, s=ssd: (
            cv(d, "btree", s) < cv(d, "lsm", s))


def _fig11():
    at = lambda d, *key: d["results"][key]  # noqa: E731
    for variant in ("mixed-50-50", "small-values-128B"):
        yield f"{variant}-btree-trimmed-faster", lambda d, v=variant: (
            at(d, v, "btree", "trimmed").steady.kv_tput
            > at(d, v, "btree", "preconditioned").steady.kv_tput)
        yield f"{variant}-btree-preconditioned-wa-d-higher", lambda d, v=variant: (
            at(d, v, "btree", "preconditioned").steady.wa_d
            > at(d, v, "btree", "trimmed").steady.wa_d)
    yield "small-values-initial-wa-d-above-1", lambda d: (
        at(d, "small-values-128B", "btree", "trimmed").samples[0].wa_d > 1.0)
    yield "mixed-lsm-slows-over-time", lambda d: (
        at(d, "mixed-50-50", "lsm", "trimmed").samples[0].kv_tput
        > at(d, "mixed-50-50", "lsm", "trimmed").steady.kv_tput)


_BUILDERS = {
    "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "fig6": _fig6,
    "fig7": _fig7, "fig8": _fig8, "fig9": _fig9, "fig10": _fig10,
    "fig11": _fig11,
}

#: ``[(claim id, figure id, predicate)]`` in figure order.
CLAIMS = [
    (f"{figure}.{name}", figure, predicate)
    for figure, build in _BUILDERS.items()
    for name, predicate in build()
]

#: What a predicate raises when the data it reads is missing (a run
#: that ended out of space has ``steady=None``, a dropped grid cell has
#: no key): the claim then does not hold.
_NOT_HELD = (KeyError, IndexError, AttributeError, TypeError, ZeroDivisionError)


def evaluate(figure_data: dict) -> dict[str, bool]:
    """``{claim id: held}`` for the claims whose figure was run."""
    verdicts = {}
    for claim_id, figure, predicate in CLAIMS:
        if figure not in figure_data:
            continue
        try:
            verdicts[claim_id] = bool(predicate(figure_data[figure]))
        except _NOT_HELD:
            verdicts[claim_id] = False
    return verdicts
