"""Table and series formatting for experiment output.

Every figure in the paper is a grouped bar chart over benchmarks; in a
terminal that is a table with one row per benchmark and one column per
series, closed by the paper's summary statistic (gmean for throughput
and execution time, amean for conflict percentages).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.stats import arithmetic_mean, geometric_mean


class FigureTable:
    """Rows = benchmarks, columns = series; renders aligned text."""

    def __init__(self, title: str, columns: Sequence[str],
                 summary: str = "gmean") -> None:
        if summary not in ("gmean", "amean", "none"):
            raise ValueError(f"unknown summary kind {summary!r}")
        self.title = title
        self.columns = list(columns)
        self.summary = summary
        self.rows: List[tuple] = []

    def add_row(self, name: str, values: Sequence[float]) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row {name!r} has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append((name, list(values)))

    # ------------------------------------------------------------------
    def summary_row(self) -> Optional[tuple]:
        if self.summary == "none" or not self.rows:
            return None
        mean = geometric_mean if self.summary == "gmean" else arithmetic_mean
        values = [
            mean([row[1][i] for row in self.rows])
            for i in range(len(self.columns))
        ]
        return (self.summary, values)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        out = {
            name: dict(zip(self.columns, values))
            for name, values in self.rows
        }
        summary = self.summary_row()
        if summary is not None:
            out[summary[0]] = dict(zip(self.columns, summary[1]))
        return out

    def render(self, precision: int = 3) -> str:
        name_width = max(
            [len(self.title)]
            + [len(name) for name, _ in self.rows]
            + [len(self.summary)]
        )
        col_width = max(
            [precision + 4] + [len(c) for c in self.columns]
        ) + 2
        lines = [
            self.title,
            "-" * (name_width + col_width * len(self.columns)),
            "".ljust(name_width)
            + "".join(c.rjust(col_width) for c in self.columns),
        ]

        def fmt(name: str, values: Sequence[float]) -> str:
            return name.ljust(name_width) + "".join(
                f"{v:.{precision}f}".rjust(col_width) for v in values
            )

        for name, values in self.rows:
            lines.append(fmt(name, values))
        summary = self.summary_row()
        if summary is not None:
            lines.append("-" * (name_width + col_width * len(self.columns)))
            lines.append(fmt(summary[0], summary[1]))
        return "\n".join(lines)


def all_to_all_counters(hs: Dict[str, float], banks: int) -> Dict[str, float]:
    """The all-to-all strawman's handshake counters for an arbiter run.

    The paper's arbiter collects one BankAck per bank and broadcasts one
    PersistCMP per bank: O(n) messages per flush.  The strawman it
    argues against has every bank announce its ack to all ``banks``
    participants so each can determine completion locally, and sends no
    PersistCMP: O(n^2) messages per flush.  Completion is known the
    cycle the last ack lands either way, so the event timeline is the
    arbiter's and only the accounting differs: each BankAck costs
    ``banks`` messages and PersistCMP costs none.

    ``hs`` holds an arbiter run's handshake counters (a
    :meth:`~repro.system.Multicore.handshake_counters` dict or the
    bench's summary of one).  The per-flush mean and maximum shift by
    the per-flush average of the change, which is exact for fault-free
    runs: every such flush carries ``banks`` BankAcks and ``banks``
    PersistCMPs.
    """
    extra = hs["bank_ack_msgs"] * (banks - 1) - hs["persist_cmp_msgs"]
    per_flush = extra / hs["flushes"] if hs["flushes"] else 0.0
    return {
        "flushes": hs["flushes"],
        "flush_epoch_msgs": hs["flush_epoch_msgs"],
        "bank_ack_msgs": hs["bank_ack_msgs"] * banks,
        "persist_ack_msgs": hs["persist_ack_msgs"],
        "persist_cmp_msgs": 0,
        "idt_notify_msgs": hs["idt_notify_msgs"],
        "total_msgs": hs["total_msgs"] + extra,
        "mean_flush_msgs": round(hs["mean_flush_msgs"] + per_flush, 2),
        "max_flush_msgs": hs["max_flush_msgs"] + round(per_flush),
    }


def scaling_table(record: Dict) -> FigureTable:
    """Render a ``scaling`` bench family as a per-core-count table.

    One row per core count; columns are the mean handshake messages per
    flush for the arbiter design (pingpong and sharded serving) and the
    all-to-all strawman derived from the pingpong run.  Means across
    core counts would be meaningless for a scaling curve, so the table
    carries no summary row.
    """
    lbpp = "LB++"
    pingpong = record["pingpong"][lbpp]
    sharded = record["sharded_serving"][lbpp]
    a2a = record["all_to_all"][lbpp]
    table = FigureTable(
        "msgs/flush (mean)", ["arbiter", "sharded", "all-to-all"],
        summary="none",
    )
    for n in record["cores"]:
        key = str(n)
        table.add_row(f"{n} cores", [
            pingpong[key]["handshake"]["mean_flush_msgs"],
            sharded[key]["handshake"]["mean_flush_msgs"],
            a2a[key]["handshake"]["mean_flush_msgs"],
        ])
    return table


def plan_table(plan) -> FigureTable:
    """Per-figure breakdown of a figure build's plan.

    ``plan`` is a list of :class:`~repro.harness.experiments.PlanEntry`.
    One row per figure tag; a spec shared by several figures (the NP
    baselines, the fig11/fig12 sweep) counts in each consumer's row, so
    the columns answer "what does *this* figure still need", not "how
    is the deduplicated plan split" -- the plan summary line gives the
    deduplicated totals.  Counts do not average, so there is no
    summary row.
    """
    stats: Dict[str, List[int]] = {}
    for entry in plan:
        for tag in entry.figures:
            row = stats.setdefault(tag, [0, 0, 0])  # specs/cached/pending
            row[0] += 1
            row[1 if entry.cached else 2] += 1
    table = FigureTable(
        "sweep plan", ["specs", "cached", "to run"], summary="none",
    )
    for tag, row in stats.items():
        table.add_row(tag, row)
    return table


def normalize_rows(
    raw: Dict[str, Dict[str, float]],
    baseline_column: str,
    invert: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Normalize each row to its value in ``baseline_column``.

    ``invert=False`` gives value/baseline (throughput-style, higher is
    better); ``invert`` keeps the same ratio orientation but is provided
    for callers that pass times and want slowdowns -- time/baseline is
    already a slowdown, so both orientations reduce to value/baseline.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, row in raw.items():
        base = row[baseline_column]
        if base == 0:
            raise ZeroDivisionError(f"zero baseline for {name!r}")
        out[name] = {col: value / base for col, value in row.items()}
    return out
