//! # sps-workload
//!
//! The workload substrate: parallel-job traces and everything the paper
//! derives from them.
//!
//! * [`Job`] — a rigid parallel job (submit time, actual run time, user
//!   estimate, width, memory footprint),
//! * [`category`] — the paper's 16-way (Table I) and 4-way (Table VI) job
//!   classifications,
//! * [`swf`] — a reader/writer for the Standard Workload Format used by
//!   Feitelson's workload archive, so the original CTC/SDSC/KTH logs can be
//!   fed to the simulator verbatim when available,
//! * [`synthetic`] — calibrated synthetic trace generators reproducing the
//!   paper's published category mixes (Tables II & III) and a target
//!   offered load; this is the substitution for the archive logs, which are
//!   not redistributable here,
//! * [`estimate`] — user-estimate models (accurate, and the well/badly
//!   estimated mixture of Section V),
//! * [`load`] — the load-variation transformation of Section VI (divide
//!   arrival times by a constant factor),
//! * [`source`] — the pull-based [`JobSource`] boundary: finite traces and
//!   unbounded open-system arrival processes (Poisson, MMPP, ramps,
//!   diurnal) behind one trait.

pub mod cache;
pub mod category;
pub mod estimate;
pub mod job;
pub mod load;
pub mod source;
pub mod swf;
pub mod synthetic;
pub mod traces;

pub use cache::{TraceCache, TraceKey};
pub use category::{Category, CoarseCategory, RuntimeClass, WidthClass};
pub use estimate::{EstimateModel, EstimateSampler};
pub use job::{Job, JobId};
pub use source::{parse_secs, ArrivalSpec, JobSource, OpenSource, ShapedSource, TraceSource};
pub use swf::{StreamingSwfSource, SwfError, SwfWarnings};
pub use synthetic::{ShapeSampler, SyntheticConfig};
pub use traces::SystemPreset;
