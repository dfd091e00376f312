"""Cost-based optimizer: statistics, one cost model, chooser.

The paper's central observation (Sections IV-VII, Figures 1-9) is that
no pushdown strategy dominates: server-side vs S3-side filtering flips
with selectivity, Bloom joins win only below a size ratio, S3-side
group-by degrades with the group count, and sampling top-K needs K well
under the table size.  This package makes the reproduction choose for
itself:

* :mod:`repro.optimizer.stats` — per-table/per-column statistics
  collected at load time into the catalog;
* :mod:`repro.optimizer.selectivity` — predicate selectivity estimation
  from those statistics, plus an optional (metered) ScanRange sampling
  probe;
* :mod:`repro.optimizer.cost` — pricing: predicted phases (requests,
  bytes scanned/returned/transferred, term evaluations, ingest, CPU)
  become simulated runtime and dollar cost through the *same*
  :mod:`repro.cloud.perf` phase math and :mod:`repro.cloud.pricing`
  sheet the execution layer is billed with.  *Which* phases a plan will
  meter is the one cost walker's business
  (:mod:`repro.planner.costing`), for SQL plans and paper strategies
  alike;
* :mod:`repro.optimizer.chooser` — builds each candidate's physical
  plan (the plans the strategy runners execute), prices them through
  that walker, ranks them, runs the winning plan, and renders an
  EXPLAIN-style report;
* :mod:`repro.optimizer.feedback` — the session feedback store: every
  executed plan's measured selectivities and join cardinalities
  override the System-R heuristics for the rest of the session, and
  the adaptive executor re-plans mid-flight around them.
"""

from repro.optimizer.chooser import (  # noqa: F401
    Choice,
    choose,
    render_choice_summary,
    run_auto,
)
from repro.optimizer.cost import StrategyEstimate  # noqa: F401
from repro.optimizer.feedback import (  # noqa: F401
    FeedbackStore,
    estimate_selectivity_with_feedback,
    harvest_plan,
)
from repro.optimizer.selectivity import (  # noqa: F401
    estimate_selectivity,
    probe_selectivity,
)
from repro.optimizer.stats import (  # noqa: F401
    ColumnStats,
    TableStats,
    collect_table_stats,
)
