//! Scheduling policies.
//!
//! Baselines: [`fcfs`], [`conservative`] backfilling, [`easy`] (aggressive)
//! backfilling — the paper's **NS** scheme — the Immediate Service
//! preemptive baseline [`is`], time-sliced [`gang`] scheduling
//! (Section II's classical alternative), and the reservation-depth
//! spectrum between EASY and conservative in [`flex`]. The paper's contribution lives in [`ss`]
//! (Selective Suspension) and [`tss`] (the per-category preemption-disable
//! limits that turn SS into Tunable Selective Suspension).
//!
//! The mechanics shared by every policy's `decide` — the planning free
//! pool, claim protection, victim tables, claim-aware placement, and
//! profile anchor searches — live in the crate-private `planner`
//! module, driven by the simulator's incremental occupancy index.

pub(crate) mod planner;

pub mod conservative;
pub mod easy;
pub mod fcfs;
pub mod flex;
pub mod gang;
pub mod is;
pub mod ss;
pub mod tss;

pub use conservative::Conservative;
pub use easy::Easy;
pub use fcfs::Fcfs;
pub use flex::FlexBackfill;
pub use gang::GangScheduling;
pub use is::ImmediateService;
pub use ss::{SelectiveSuspension, SsConfig};
pub use tss::TssLimits;
