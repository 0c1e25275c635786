//! # TOL — DARCO's Translation Optimization Layer
//!
//! The software half of the HW/SW co-designed processor (paper §II, §V-B).
//! TOL executes the guest program in three modes and promotes code between
//! them as it gets hotter:
//!
//! 1. **IM** (interpretation mode): basic blocks are interpreted through
//!    the guest crate's block replay (`darco_guest::DecodeCache::run`)
//!    while software repetition counters profile them;
//! 2. **BBM** (basic-block translation mode): a block whose counter
//!    crosses `bbm_threshold` is translated to the host ISA
//!    ([`translate`]) with basic optimizations (constant folding + DCE)
//!    and instrumented with execution and edge counters;
//! 3. **SBM** (superblock mode): when the translated block's execution
//!    counter trips `sbm_threshold`, TOL forms a superblock along the
//!    biased branch directions ([`sbm`]), converts inner branches to
//!    `assert`s, optionally unrolls single-block loops, and runs the full
//!    optimizer pipeline (SSA-style forward passes, DCE, DDG with
//!    speculative memory disambiguation, list scheduling, linear-scan
//!    register allocation).
//!
//! Translations live in the [code cache](cache) and are chained to each
//! other (direct branches are patched into straight host jumps; indirect
//! branches go through the IBTC), so TOL is invoked "only when absolutely
//! necessary" (§V-D). All TOL work is charged to the paper's seven
//! overhead categories ([`overhead`]), which is what regenerates Figs. 6
//! and 7.
//!
//! Speculation failures (asserts, alias violations) roll back to the
//! region checkpoint and fall back to interpretation; a superblock that
//! fails more than `assert_fail_limit` times is recreated as a
//! single-entry **multiple-exit** region without asserts, exactly as §V-B3
//! describes.
//!
//! ## Debug hooks
//!
//! Two environment variables support the paper's "powerful debug
//! toolchain" requirement (beyond `darco::debug::diagnose`):
//! `DARCO_DUMP_REGIONS=1` prints every region's IR before code
//! generation, and `DARCO_TRACE_EXITS=1` logs every code-cache exit with
//! the guest state it published. [`CodeCache::disassemble`] renders any
//! installed translation.

pub mod cache;
pub mod config;
pub mod flags;
pub mod obs;
pub mod overhead;
pub mod sbm;
pub mod tol;
pub mod translate;

pub use cache::{CodeCache, TransKind, Translation};
pub use config::{BugKind, Injection, TolConfig, VerifyLevel, VerifyMode};
pub use flags::PendingFlags;
pub use obs::TolObs;
pub use overhead::{CostModel, Overhead, OverheadKind};
pub use tol::{Tol, TolEvent, TolStats};

// Send audit: darco-fleet moves whole per-job TOL states across worker
// threads. A field change that introduces `Rc`, `RefCell`-of-shared or a
// raw pointer would otherwise surface as a distant trait-bound error
// inside the pool; keep the constraint stated (and checked) at the type's
// home instead.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Tol>();
    assert_send::<TolConfig>();
    assert_send::<TolStats>();
    assert_send::<CodeCache>();
    assert_send::<TolObs>();
    assert_send::<Overhead>();
};
