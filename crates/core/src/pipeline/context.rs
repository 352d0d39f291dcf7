//! The per-run state [`Pipeline::generate`](super::Pipeline::generate)
//! threads through Steps 1–3, and the stage timing table.

use std::time::Duration;

use polyinv_constraints::SynthesisOptions;
use polyinv_lang::{Cfg, Precondition, Program};
use polyinv_poly::MonomialTable;

/// Canonical stage names, in execution order (see DESIGN.md §2).
pub mod stage_names {
    /// Step 1 — template instantiation.
    pub const TEMPLATES: &str = "templates";
    /// Step 2 — constraint-pair generation.
    pub const PAIRS: &str = "pairs";
    /// Step 3 — Putinar/Handelman reduction to a quadratic system.
    pub const REDUCTION: &str = "reduction";
    /// The affine presolve fixpoint shrinking the system before Step 4.
    pub const PRESOLVE: &str = "presolve";
    /// Step 4 — QCQP solving.
    pub const SOLVE: &str = "solve";
}

/// Wall-clock time spent in each pipeline stage, in execution order.
///
/// Stage names repeat across attempts (the orchestrator's ϒ ladder runs
/// Steps 1–3 once per rung), so recording accumulates into the existing
/// entry.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    entries: Vec<(&'static str, Duration)>,
}

impl StageTimings {
    /// Creates an empty timing table.
    pub fn new() -> Self {
        StageTimings::default()
    }

    /// Adds `elapsed` to the entry for `stage` (creating it at the end of
    /// the table on first use).
    pub fn record(&mut self, stage: &'static str, elapsed: Duration) {
        match self.entries.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, total)) => *total += elapsed,
            None => self.entries.push((stage, elapsed)),
        }
    }

    /// The accumulated time of one stage (zero if it never ran).
    pub fn get(&self, stage: &str) -> Duration {
        self.entries
            .iter()
            .find(|(name, _)| *name == stage)
            .map(|(_, total)| *total)
            .unwrap_or_default()
    }

    /// Iterates over `(stage, duration)` in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.entries.iter().copied()
    }

    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, d)| *d).sum()
    }

    /// Combined time of the generation stages (Steps 1–3), the quantity
    /// historically reported as "generation time".
    pub fn generation(&self) -> Duration {
        self.get(stage_names::TEMPLATES)
            + self.get(stage_names::PAIRS)
            + self.get(stage_names::REDUCTION)
    }

    /// Time spent in the affine presolve (between Steps 3 and 4).
    pub fn presolve(&self) -> Duration {
        self.get(stage_names::PRESOLVE)
    }

    /// Time spent solving (Step 4).
    pub fn solve(&self) -> Duration {
        self.get(stage_names::SOLVE)
    }

    /// Merges another table into this one (stage-wise accumulation).
    pub fn absorb(&mut self, other: &StageTimings) {
        for (stage, duration) in other.iter() {
            self.record(stage, duration);
        }
    }
}

/// Per-run state shared by Steps 1–3: the program under analysis, the
/// (augmented) pre-condition, the reduction options, and the diagnostics and
/// timings accumulated as the steps run.
#[derive(Debug, Clone)]
pub struct SynthesisContext<'p> {
    /// The program being analyzed.
    pub program: &'p Program,
    /// The pre-condition, already extended with the bounded-reals
    /// assertions of Remark 5 when the options request them.
    pub precondition: Precondition,
    /// The reduction options of this run.
    pub options: SynthesisOptions,
    /// Whether the recursive variants of the algorithms apply.
    pub recursive: bool,
    /// The control-flow graph of the program.
    pub cfg: Cfg,
    /// The monomial arena of this run: one table serves every step, so
    /// interned ids stay meaningful from pair generation through reduction.
    /// The reduction moves it into the `GeneratedSystem` it produces.
    pub mono_table: MonomialTable,
    timings: StageTimings,
    diagnostics: Vec<String>,
}

impl<'p> SynthesisContext<'p> {
    /// Builds the context for one pipeline run: augments the pre-condition
    /// and decides recursive treatment (via [`polyinv_constraints::prepare`],
    /// shared with the single-call `generate`), then builds the CFG.
    pub fn new(program: &'p Program, pre: &Precondition, options: SynthesisOptions) -> Self {
        let (precondition, recursive) = polyinv_constraints::prepare(program, pre, &options);
        let cfg = Cfg::build(program);
        SynthesisContext {
            program,
            precondition,
            options,
            recursive,
            cfg,
            mono_table: MonomialTable::new(),
            timings: StageTimings::new(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a human-readable diagnostic line.
    pub fn note(&mut self, message: impl Into<String>) {
        self.diagnostics.push(message.into());
    }

    /// The diagnostics recorded so far, in order.
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// The per-stage timings recorded so far.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Records time spent in a stage (used by `Pipeline::generate`).
    pub(crate) fn record(&mut self, stage: &'static str, elapsed: Duration) {
        self.timings.record(stage, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_accumulate_per_stage_and_preserve_order() {
        let mut timings = StageTimings::new();
        timings.record(stage_names::TEMPLATES, Duration::from_millis(5));
        timings.record(stage_names::PAIRS, Duration::from_millis(7));
        timings.record(stage_names::TEMPLATES, Duration::from_millis(3));
        assert_eq!(
            timings.get(stage_names::TEMPLATES),
            Duration::from_millis(8)
        );
        assert_eq!(timings.get(stage_names::PAIRS), Duration::from_millis(7));
        assert_eq!(timings.get(stage_names::SOLVE), Duration::ZERO);
        let order: Vec<&str> = timings.iter().map(|(name, _)| name).collect();
        assert_eq!(order, vec![stage_names::TEMPLATES, stage_names::PAIRS]);
        assert_eq!(timings.total(), Duration::from_millis(15));
        assert_eq!(timings.generation(), Duration::from_millis(15));
    }

    #[test]
    fn absorb_merges_stage_wise() {
        let mut a = StageTimings::new();
        a.record(stage_names::SOLVE, Duration::from_millis(2));
        let mut b = StageTimings::new();
        b.record(stage_names::SOLVE, Duration::from_millis(5));
        b.record(stage_names::TEMPLATES, Duration::from_millis(1));
        a.absorb(&b);
        assert_eq!(a.get(stage_names::SOLVE), Duration::from_millis(7));
        assert_eq!(a.get(stage_names::TEMPLATES), Duration::from_millis(1));
    }
}
