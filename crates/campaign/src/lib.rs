//! `abv-campaign` — the parallel verification-campaign engine.
//!
//! A verification campaign multiplies everything the paper's flow offers —
//! designs, abstraction levels, abstracted property suites, randomized
//! workloads — into a grid of independent simulation runs. This crate
//! expresses that grid declaratively and executes it on a worker pool:
//!
//! - **plan** ([`CampaignPlan`]): design × abstraction level × checker
//!   selection cells, a repetition count and a base seed. Per-run seeds
//!   are forked from plan coordinates alone, so the work list is fixed
//!   before any thread starts.
//! - **shard** ([`run_campaign`]): the calling thread and `workers − 1`
//!   scoped helpers claim runs off a shared cursor; each keeps its
//!   indexed outcomes and hands them back when joined. Each run constructs
//!   its own isolated [`desim::Simulation`] inside the worker thread
//!   (kernel state is deliberately not `Send`; only results cross
//!   threads) and attaches its checkers from the per-process suite table
//!   ([`designs::suite_view`]) without copying a property.
//! - **merge** ([`CampaignReport`]): per-run reports and kernel counters
//!   fold in work-list order into per-cell aggregates with wall-clock
//!   and event-throughput stats, first-failure capture (repetition,
//!   seed, property, violation) and a
//!   [`deterministic_summary`](CampaignReport::deterministic_summary)
//!   that is byte-identical across worker counts.
//!
//! ```
//! use abv_campaign::{run_campaign, CampaignPlan, CheckerMode};
//! use designs::{AbsLevel, DesignKind};
//!
//! let plan = CampaignPlan::new("smoke")
//!     .cell(DesignKind::ColorConv, AbsLevel::TlmCa, CheckerMode::All)
//!     .runs(4)
//!     .size(6)
//!     .seed(0xC0FFEE);
//! let report = run_campaign(&plan, 2).unwrap();
//! assert!(report.all_pass());
//! let summary = report.deterministic_summary();
//! assert_eq!(summary, run_campaign(&plan, 1).unwrap().deterministic_summary());
//! ```

mod engine;
mod plan;
mod report;

pub use engine::{execute_run, execute_run_with, run_campaign, run_campaign_with, TraceSettings};
pub use plan::{run_seed, CampaignPlan, CellSpec, CheckerMode, PlanError, RunSpec};
pub use report::{CampaignReport, CellReport, FirstFailure, RunOutcome};
