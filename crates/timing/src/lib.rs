//! # The DARCO timing simulator
//!
//! A parameterized **in-order superscalar** core model (paper §V-C): a
//! decoupled front-end (BTB + gshare branch predictor, I-cache, I-TLB)
//! and back-end (scoreboard for dependences and resource tracking; simple,
//! complex and FP/vector units) separated by an instruction queue; a
//! two-level cache and TLB hierarchy with a stride data prefetcher.
//!
//! The simulator is trace-driven: it implements
//! [`darco_host::InsnSink`] and consumes the retired host-instruction
//! stream the co-designed component produces ("receives the dynamic
//! instruction stream from the co-designed component").
//!
//! As an extension for the paper's "wide in-order or narrow out-of-order"
//! challenge (§III), [`ooo::OooCore`] models a narrow out-of-order core
//! with a ROB window over the same event stream, so the two
//! microarchitecture styles can be compared on identical instruction
//! streams (ablation A4).

pub mod bpred;
pub mod cache;
pub mod config;
pub mod core;
pub mod fast;
pub mod ooo;
pub mod prefetch;

pub use config::{CacheConfig, TimingConfig, TlbConfig};
pub use core::{InOrderCore, TimingStats};
pub use fast::{FastStats, FastTimer};
pub use ooo::OooCore;
