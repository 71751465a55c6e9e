//! The experiment registry: one experiment per paper figure/table.
//!
//! Every experiment produces the same rows/series the paper plots
//! (missing points are `NaN` with a note — the paper's OOM/unsupported
//! gaps), plus a list of [`ShapeCheck`]s encoding the paper's qualitative
//! claims about that artifact. The integration suite asserts every check.

mod amd;
mod common;
mod dsmii;
mod extensions;
mod gaudi;
mod insights;
mod llamacpp;
mod nvidia;
mod perplexity;
mod preliminary;
mod sn40l;
mod tables;
mod trtllm;
mod vllm;

pub use common::{dominates, last_finite, mean_finite, sweep_batches, sweep_lengths, tput_or_gap};

use llmib_perf::PerfModel;
use llmib_report::{Figure, Table};
use serde::Serialize;

/// Context shared by experiment runs.
#[derive(Debug, Clone, Default)]
pub struct ExperimentContext {
    /// The analytical performance model (calibration included).
    pub perf: PerfModel,
}

impl ExperimentContext {
    /// Context with default calibration.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What an experiment emits.
#[derive(Debug, Clone, Serialize)]
pub enum ExperimentOutput {
    /// A figure (series of points).
    Figure(Figure),
    /// A table.
    Table(Table),
}

impl ExperimentOutput {
    /// The figure, if this output is one.
    pub fn figure(&self) -> Option<&Figure> {
        match self {
            ExperimentOutput::Figure(f) => Some(f),
            ExperimentOutput::Table(_) => None,
        }
    }

    /// The table, if this output is one.
    pub fn table(&self) -> Option<&Table> {
        match self {
            ExperimentOutput::Table(t) => Some(t),
            ExperimentOutput::Figure(_) => None,
        }
    }
}

/// One machine-checked qualitative claim about an experiment's output.
#[derive(Debug, Clone, Serialize)]
pub struct ShapeCheck {
    /// What the paper claims, e.g. `"GH200 tops every batch size"`.
    pub claim: String,
    /// Whether the reproduced data satisfies it.
    pub passed: bool,
    /// Observed values backing the verdict.
    pub detail: String,
}

impl ShapeCheck {
    /// Build a check from a claim, a predicate result, and detail text.
    pub fn new(claim: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Self {
            claim: claim.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// A reproducible experiment (one paper artifact).
pub trait Experiment: Sync + Send {
    /// Stable id, e.g. `"fig08"`.
    fn id(&self) -> &'static str;
    /// Paper reference, e.g. `"Fig. 8"`.
    fn paper_ref(&self) -> &'static str;
    /// Title (the paper's caption).
    fn title(&self) -> &'static str;
    /// Produce the figure/table.
    fn run(&self, ctx: &ExperimentContext) -> ExperimentOutput;
    /// Shape checks over the produced output.
    fn check(&self, out: &ExperimentOutput) -> Vec<ShapeCheck>;
}

/// Every experiment in the suite, in paper order.
pub fn all_experiments() -> Vec<Box<dyn Experiment>> {
    let mut v: Vec<Box<dyn Experiment>> = Vec::new();
    v.extend(preliminary::experiments());
    v.extend(trtllm::experiments());
    v.extend(vllm::experiments());
    v.extend(dsmii::experiments());
    v.extend(llamacpp::experiments());
    v.extend(nvidia::experiments());
    v.extend(amd::experiments());
    v.extend(sn40l::experiments());
    v.extend(gaudi::experiments());
    v.extend(insights::experiments());
    v.extend(perplexity::experiments());
    v.extend(tables::experiments());
    v.extend(extensions::experiments());
    v
}

/// Find one experiment by id.
pub fn find_experiment(id: &str) -> Option<Box<dyn Experiment>> {
    all_experiments().into_iter().find(|e| e.id() == id)
}

/// Result of running one experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentRun {
    /// Experiment id.
    pub id: String,
    /// Paper reference.
    pub paper_ref: String,
    /// Output artifact.
    pub output: ExperimentOutput,
    /// Shape-check verdicts.
    pub checks: Vec<ShapeCheck>,
}

/// Run every experiment, in registry order.
pub fn run_all(ctx: &ExperimentContext) -> Vec<ExperimentRun> {
    all_experiments()
        .iter()
        .map(|e| {
            let output = e.run(ctx);
            let checks = e.check(&output);
            ExperimentRun {
                id: e.id().to_string(),
                paper_ref: e.paper_ref().to_string(),
                output,
                checks,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id()).collect();
        // Main-body figures.
        for want in [
            "fig01a", "fig01b", "fig02a", "fig02b", "fig03", "fig04a", "fig04b", "fig05a",
            "fig05b", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
            "fig23", "fig24", "fig25",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
        // Appendix figures and tables.
        for want in [
            "fig29", "fig30", "fig31", "fig32", "fig33", "fig34", "fig35", "fig36", "fig37",
            "fig38", "tab1", "tab2", "tab3",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
        // Extensions (the paper's declared future work) on top.
        for want in ["extA", "extB", "extC", "extD", "extE", "extF"] {
            assert!(ids.contains(&want), "missing {want}");
        }
        assert!(ids.len() >= 48, "got {}", ids.len());
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = all_experiments().iter().map(|e| e.id()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn find_experiment_works() {
        assert!(find_experiment("fig08").is_some());
        assert!(find_experiment("fig99").is_none());
    }
}
