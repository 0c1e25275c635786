//! Golden pin for the timing models.
//!
//! One fixed, deterministic event stream goes through [`InOrderCore`],
//! [`FastTimer`] and [`OooCore`], and FNV-1a digests of each model's
//! `stats()` and serialized state are compared against constants. The
//! fast-vs-full tests only check that the two in-order paths agree with
//! each other; this test also catches both of them drifting together, and
//! pins the out-of-order core and the memo's decisions (the fast timer's
//! snapshot carries its `fast.*` counters).
//!
//! The stream mixes what the engine produces: an `Accountant`-style
//! synthesized TOL-overhead mix sent one event at a time, complete and
//! incomplete translated blocks (one longer than the memo's block limit),
//! loads and stores that hit, stride through memory or thrash the caches,
//! and conditional branches that are always taken, alternate, or follow a
//! pseudo-random direction.
//!
//! If a change to a model is *meant* to move its results, re-record the
//! constants and say so in the change's notes.

use darco_host::sink::{EventKind, InsnSink, RetireEvent};
use darco_timing::{FastTimer, InOrderCore, OooCore, TimingConfig};

/// One unit of the stream: a single retired event, or a translated block
/// with its completeness flag.
enum Item {
    Event(RetireEvent),
    Block(Vec<RetireEvent>, bool),
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 11
}

/// The synthesized TOL-overhead mix (same formula as the TOL's
/// `Accountant::charge`): ~45% ALU, 25% loads, 10% stores, 15% branches,
/// 5% other, over small rotating code and data footprints.
fn overhead(rot: &mut u64, region: u64, n: u64, out: &mut Vec<Item>) {
    for _ in 0..n {
        *rot = rot.wrapping_add(0x9E37_79B9);
        let r = *rot % 100;
        let pc = 0x4000_0000 + region * 0x10_0000 + (*rot >> 8) % 256;
        let addr = 0xF400_0000u32
            .wrapping_add((region as u32) << 16)
            .wrapping_add(((*rot >> 16) % 64) as u32 * 8);
        let kind = if r < 45 {
            EventKind::IntAlu
        } else if r < 70 {
            EventKind::Load { addr, bytes: 4 }
        } else if r < 80 {
            EventKind::Store { addr, bytes: 4 }
        } else if r < 95 {
            EventKind::Branch { taken: !r.is_multiple_of(4), target: pc + 8, cond: true }
        } else {
            EventKind::Other
        };
        let d = 16 + (*rot >> 24) as u8 % 8;
        out.push(Item::Event(RetireEvent {
            host_pc: pc,
            kind,
            dst: Some(d),
            srcs: [Some(16 + (d + 1) % 8), None],
        }));
    }
}

/// A loop-body block at `base`: a load, a mix of integer/FP/multiply
/// work, a store and a closing conditional branch.
fn block(base: u64, len: usize, load: u32, store: u32, taken: bool) -> Vec<RetireEvent> {
    let mut evs = vec![RetireEvent {
        host_pc: base,
        kind: EventKind::Load { addr: load, bytes: 4 },
        dst: Some(16),
        srcs: [Some(17), None],
    }];
    for k in 1..len.saturating_sub(2) {
        let kind = match k % 7 {
            3 => EventKind::IntMul,
            5 => EventKind::FpAdd,
            6 if k % 14 == 6 => EventKind::FpMul,
            _ if k % 11 == 10 => EventKind::IntDiv,
            _ => EventKind::IntAlu,
        };
        let (dst, srcs) = if matches!(kind, EventKind::FpAdd | EventKind::FpMul) {
            (64 + (k % 4) as u8, [Some(64 + ((k + 1) % 4) as u8), Some(65)])
        } else {
            (16 + (k % 4) as u8, [Some(16), Some(17 + (k % 3) as u8)])
        };
        evs.push(RetireEvent { host_pc: base + k as u64, kind, dst: Some(dst), srcs });
    }
    evs.push(RetireEvent {
        host_pc: base + len as u64 - 2,
        kind: EventKind::Store { addr: store, bytes: 4 },
        dst: None,
        srcs: [Some(16), Some(17)],
    });
    evs.push(RetireEvent {
        host_pc: base + len as u64 - 1,
        kind: EventKind::Branch { taken, target: base, cond: true },
        dst: None,
        srcs: [Some(18), None],
    });
    evs
}

fn stream() -> Vec<Item> {
    let mut out = Vec::new();
    let mut x = 0x5eed_u64;
    let mut rot = 0u64;
    let mut stride = 0u32;
    let mut i = 0u64;
    for phase in 0..300u64 {
        let r = lcg(&mut x);
        // A loop of one block shape, iterated a few to a few dozen times.
        let shape = r % 6;
        let base = 0x1000 + shape * 0x47;
        let len = 6 + (shape as usize * 5) % 17;
        for _ in 0..4 + (r >> 8) % 40 {
            let q = lcg(&mut x);
            i += 1;
            // Strided for one shape (trains the prefetcher); mostly
            // stable, now and then thrashing (a working set far larger
            // than L2) for the others.
            let load = match (shape, q % 8) {
                (4, _) => {
                    stride = stride.wrapping_add(64) % (4 << 20);
                    0x0020_0000 + stride
                }
                (_, 0) => ((q >> 16) % (48 << 20)) as u32 & !3,
                _ => 0x0010_0000 + shape as u32 * 0x100,
            };
            let store = if (q >> 12).is_multiple_of(5) { load ^ 0x40 } else { 0x0030_0000 + shape as u32 * 8 };
            // Always taken, alternating, or pseudo-random direction.
            let taken = match shape % 3 {
                0 => true,
                1 => i.is_multiple_of(2),
                _ => (q >> 30) & 1 == 1,
            };
            let complete = !(q >> 20).is_multiple_of(16);
            out.push(Item::Block(block(base, len, load, store, taken), complete));
            // A little TOL overhead inside the loop (chaining, lookups).
            if (q >> 24).is_multiple_of(10) {
                overhead(&mut rot, 5, 3 + (q >> 32) % 8, &mut out);
            }
        }
        // TOL overhead between loops, sometimes a long run of it.
        let n = if (r >> 28).is_multiple_of(8) { 600 } else { 12 + (r >> 32) % 60 };
        overhead(&mut rot, (r >> 40) % 7, n, &mut out);
        // Now and then a block longer than the memo's limit.
        if phase % 50 == 49 {
            out.push(Item::Block(block(0x9000, 600, 0x0010_0000, 0x0030_0000, true), true));
        }
    }
    out
}

fn feed<S: InsnSink>(sink: &mut S, items: &[Item]) {
    for item in items {
        match item {
            Item::Event(ev) => sink.retire(ev),
            Item::Block(evs, complete) => sink.retire_block(evs, *complete),
        }
    }
}

fn digests(stats: impl std::fmt::Debug, snapshot: impl FnOnce(&mut darco_guest::Wire)) -> (u64, u64) {
    let mut w = darco_guest::Wire::new();
    snapshot(&mut w);
    (fnv(format!("{stats:?}").as_bytes()), fnv(&w.finish()))
}

#[test]
fn timing_models_match_their_recorded_digests() {
    let items = stream();
    let cfg = TimingConfig::default();

    let mut full = InOrderCore::new(cfg.clone());
    feed(&mut full, &items);
    let mut fast = FastTimer::new(cfg.clone());
    feed(&mut fast, &items);
    let mut ooo = OooCore::new(cfg);
    feed(&mut ooo, &items);

    // The stream must reach every route of the fast timer.
    let fs = fast.fast_stats();
    assert!(fs.memo_blocks > 0 && fs.escapes > 0 && fs.learns > 0 && fs.plain_blocks > 0, "{fs:?}");
    let s = full.stats();
    assert!(s.mispredicts > 0 && s.dl1_misses > 0 && s.l2_misses > 0 && s.prefetches > 0, "{s:?}");
    assert_eq!(fast.stats(), s, "fast == full");

    let got = [
        digests(full.stats(), |w| full.snapshot_into(w)),
        digests(fast.fast_stats(), |w| fast.snapshot_into(w)),
        digests(ooo.stats(), |w| ooo.snapshot_into(w)),
    ];
    let want = [
        (0xf651145503b7990f, 0x4864fd4c75dc2c7e),
        (0x0b620036f43c9f12, 0x380768f1e7bcc69b),
        (0x9c08c0daa310bb23, 0x0f871e4309a29de5),
    ];
    assert_eq!(got, want, "in-order, fast and out-of-order digests (stats, snapshot)");
}
