//! The translation code cache: arena, lookup, chaining, IBTC,
//! invalidation and flushing (paper §V-B, §V-D "minimum TOL overhead").

use crate::sbm::SbShape;
use darco_guest::{Wire, WireError, WireReader};
use darco_host::codegen::MutationLog;
use darco_host::emu::IbtcTable;
use darco_host::encode::{decode_insn, encode_all};
use darco_host::runtime::build_runtime;
use darco_ir::codegen::ExitMeta;
use darco_ir::{ExitKind, FlagsKind};
use darco_host::HInsn;
use std::collections::HashMap;

/// Kind of translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransKind {
    /// Basic-block translation (BBM).
    Bb,
    /// Superblock (SBM); `asserts` distinguishes the speculative
    /// single-exit form from the multi-exit recreation.
    Sb {
        /// Inner branches are asserts.
        asserts: bool,
    },
}

/// One installed translation.
#[derive(Debug, Clone)]
pub struct Translation {
    /// Guest entry PC.
    pub guest_pc: u32,
    /// Kind.
    pub kind: TransKind,
    /// Host address of the first instruction.
    pub host_base: usize,
    /// Number of host instructions.
    pub len: usize,
    /// Encoded size in words (code-cache space accounting).
    pub encoded_words: usize,
    /// Exit metadata by exit id.
    pub exits: Vec<ExitMeta>,
    /// Guest instructions in the source region (static).
    pub src_insns: u32,
    /// Host instructions emitted (static, for emulation-cost stats).
    pub host_insns: u32,
    /// Mask (CF|ZF<<1|…) of guest flags the translation reads on entry.
    /// A chain into this translation is only legal from an exit that
    /// publishes at least these flags in r8–r12; otherwise the software
    /// layer must resolve deferred flags first.
    pub needs_flags_mask: u8,
    /// Assert/alias failures so far (recreation trigger).
    pub spec_fails: u32,
    /// Superblock shape for deterministic recreation.
    pub shape: Option<SbShape>,
    /// Still dispatchable?
    pub valid: bool,
}

/// The code cache.
pub struct CodeCache {
    /// The host-code arena (runtime routines live at the bottom).
    pub arena: Vec<HInsn>,
    /// Indirect-branch translation cache (guest pc → host address).
    pub ibtc: IbtcTable,
    sin_addr: usize,
    cos_addr: usize,
    runtime_len: usize,
    map: HashMap<u32, usize>,
    translations: Vec<Translation>,
    /// For each target translation: chain patches into it
    /// `(slot_host_addr, original_instruction)`.
    chains_in: HashMap<usize, Vec<(usize, HInsn)>>,
    /// IBTC entries per owning translation.
    ibtc_owner: HashMap<usize, Vec<u32>>,
    capacity_words: usize,
    used_words: usize,
    /// Number of full-cache flushes performed.
    pub flushes: u64,
    /// Records every arena range whose already-installed words changed
    /// meaning: chain patch, invalidation (unpatch + IBTC removal),
    /// flush, restore. Plain appends do NOT bump — existing code is
    /// unchanged by them. The native backend drops exactly the compiled
    /// fragments covering a mutated range (unpatching native jumps into
    /// them), falling back to a full recompile only when the bounded log
    /// cannot cover the gap. Not serialized (it is a cache-validity
    /// token, not simulated state).
    mutations: MutationLog,
}

impl std::fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodeCache")
            .field("translations", &self.translations.len())
            .field("used_words", &self.used_words)
            .field("flushes", &self.flushes)
            .finish()
    }
}

impl CodeCache {
    /// Creates a cache with the given capacity (in encoded words) and the
    /// runtime routines installed.
    pub fn new(capacity_words: usize) -> CodeCache {
        let rt = build_runtime();
        let runtime_len = rt.code.len();
        CodeCache {
            arena: rt.code,
            ibtc: IbtcTable::new(),
            sin_addr: rt.sin_entry,
            cos_addr: rt.cos_entry,
            runtime_len,
            map: HashMap::new(),
            translations: Vec::new(),
            chains_in: HashMap::new(),
            ibtc_owner: HashMap::new(),
            capacity_words,
            used_words: 0,
            flushes: 0,
            mutations: MutationLog::new(),
        }
    }

    /// Current arena-mutation epoch (see the `mutations` field doc).
    pub fn mutation_epoch(&self) -> u64 {
        self.mutations.epoch()
    }

    /// The arena-mutation log backends sync their compiled code against.
    pub fn mutations(&self) -> &MutationLog {
        &self.mutations
    }

    /// Host address of the `sin` runtime routine.
    pub fn sin_addr(&self) -> usize {
        self.sin_addr
    }

    /// Host address of the `cos` runtime routine.
    pub fn cos_addr(&self) -> usize {
        self.cos_addr
    }

    /// Host address where the next translation will be installed.
    pub fn next_base(&self) -> usize {
        self.arena.len()
    }

    /// Whether installing `words` more would overflow the cache.
    pub fn would_overflow(&self, words: usize) -> bool {
        self.used_words + words > self.capacity_words
    }

    /// Looks up a dispatchable translation for a guest PC.
    pub fn lookup(&self, guest_pc: u32) -> Option<usize> {
        self.map.get(&guest_pc).copied().filter(|&i| self.translations[i].valid)
    }

    /// The translation with the given id.
    pub fn translation(&self, id: usize) -> &Translation {
        &self.translations[id]
    }

    /// Mutable access (spec-failure accounting).
    pub fn translation_mut(&mut self, id: usize) -> &mut Translation {
        &mut self.translations[id]
    }

    /// Number of live (valid) translations.
    pub fn live_translations(&self) -> usize {
        self.translations.iter().filter(|t| t.valid).count()
    }

    /// Code-cache words currently occupied (occupancy metric).
    pub fn used_words(&self) -> usize {
        self.used_words
    }

    /// Finds the translation containing a host address (exit handling:
    /// chained execution can stop in any translation).
    pub fn translation_at_host(&self, host_pc: usize) -> Option<usize> {
        // Arena allocation is monotonic, so binary search over bases.
        let mut lo = 0usize;
        let mut hi = self.translations.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.translations[mid].host_base <= host_pc {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let idx = lo.checked_sub(1)?;
        let t = &self.translations[idx];
        (host_pc < t.host_base + t.len).then_some(idx)
    }

    /// Installs a translation, replacing (and invalidating) any previous
    /// translation at the same guest PC.
    ///
    /// Returns the new translation id.
    ///
    /// # Panics
    /// Panics if the code does not fit the capacity even after a flush.
    pub fn install(&mut self, mut t: Translation, code: Vec<HInsn>) -> usize {
        assert_eq!(t.host_base, self.arena.len(), "translation must be placed at next_base");
        assert!(
            t.encoded_words <= self.capacity_words,
            "translation larger than the entire code cache"
        );
        if let Some(old) = self.map.get(&t.guest_pc).copied() {
            self.invalidate(old);
        }
        t.len = code.len();
        self.used_words += t.encoded_words;
        self.arena.extend(code);
        let id = self.translations.len();
        self.map.insert(t.guest_pc, id);
        self.translations.push(t);
        id
    }

    /// Invalidates a translation: unpatches chains into it and removes its
    /// IBTC entries. Its arena space is reclaimed at the next flush.
    pub fn invalidate(&mut self, id: usize) {
        if !self.translations[id].valid {
            return;
        }
        let (base, len) = (self.translations[id].host_base, self.translations[id].len);
        self.mutations.record(base, base + len);
        self.translations[id].valid = false;
        let pc = self.translations[id].guest_pc;
        if self.map.get(&pc) == Some(&id) {
            self.map.remove(&pc);
        }
        if let Some(slots) = self.chains_in.remove(&id) {
            for (addr, orig) in slots {
                self.arena[addr] = orig;
                // The unpatched slot lives inside a *different*
                // translation; native code compiled over it is stale too.
                self.mutations.record(addr, addr + 1);
            }
        }
        if let Some(pcs) = self.ibtc_owner.remove(&id) {
            for p in pcs {
                self.ibtc.remove(&p);
            }
        }
    }

    /// Patches a chain: the `ChainSlot` at `slot_addr` (inside translation
    /// `from`) becomes a direct branch to translation `to`.
    ///
    /// # Panics
    /// Panics if the slot does not hold a `ChainSlot`.
    pub fn chain(&mut self, from: usize, slot_addr: usize, to: usize) {
        let _ = from;
        let orig = self.arena[slot_addr];
        assert!(matches!(orig, HInsn::ChainSlot { .. }), "chain target slot is {orig:?}");
        let target = self.translations[to].host_base;
        let rel = target as i32 - (slot_addr as i32 + 1);
        self.mutations.record(slot_addr, slot_addr + 1);
        self.arena[slot_addr] = HInsn::B { rel };
        self.chains_in.entry(to).or_default().push((slot_addr, orig));
    }

    /// Inserts an IBTC entry for `guest_pc` resolving to translation `to`.
    pub fn ibtc_insert(&mut self, guest_pc: u32, to: usize) {
        self.ibtc.insert(guest_pc, self.translations[to].host_base);
        self.ibtc_owner.entry(to).or_default().push(guest_pc);
    }

    /// Disassembles a translation (the debug toolchain's view of emitted
    /// host code).
    pub fn disassemble(&self, id: usize) -> String {
        use std::fmt::Write;
        let t = &self.translations[id];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; translation {id} for guest {:#010x} ({:?}, {} guest insns, {} words{})",
            t.guest_pc,
            t.kind,
            t.src_insns,
            t.encoded_words,
            if t.valid { "" } else { ", INVALID" },
        );
        for i in 0..t.len {
            let _ = writeln!(out, "{:6}: {}", t.host_base + i, self.arena[t.host_base + i]);
        }
        for (eid, e) in t.exits.iter().enumerate() {
            let _ = writeln!(out, "; exit {eid}: {:?}", e.kind);
        }
        out
    }

    /// Flushes everything except the runtime routines.
    pub fn flush(&mut self) {
        self.arena.truncate(self.runtime_len);
        self.map.clear();
        self.translations.clear();
        self.chains_in.clear();
        self.ibtc.clear();
        self.ibtc_owner.clear();
        self.used_words = 0;
        self.flushes += 1;
        self.mutations.record_full();
    }

    /// Serializes the full code-cache state: arena (including chain
    /// patches), every translation ever installed (arena layout and
    /// translation ids are history-dependent, so invalid entries must
    /// survive too), chain bookkeeping, IBTC, and space accounting.
    ///
    /// The lookup map is *not* serialized — it is always exactly
    /// `{t.guest_pc → id | t.valid}` (install invalidates any previous
    /// same-PC translation before inserting), so restore rebuilds it.
    pub fn snapshot_into(&self, w: &mut Wire) {
        w.put_usize(self.runtime_len);
        w.put_u32s(&encode_all(&self.arena));
        // Sidecar: sequence numbers of *non-speculative* memory
        // operations. The ISA encoding carries `seq` only in the
        // two-word speculative form, but the emulator's store-buffer
        // ordering (store-to-load forwarding) keys on `seq` for every
        // memory operation, so dropping them would change execution
        // after restore.
        w.put_u32s(&nonspec_seqs(&self.arena));
        w.put_usize(self.translations.len());
        for t in &self.translations {
            w.put_u32(t.guest_pc);
            w.put_u8(match t.kind {
                TransKind::Bb => 0,
                TransKind::Sb { asserts: false } => 1,
                TransKind::Sb { asserts: true } => 2,
            });
            w.put_usize(t.host_base);
            w.put_usize(t.len);
            w.put_usize(t.encoded_words);
            w.put_usize(t.exits.len());
            for e in &t.exits {
                match e.kind {
                    ExitKind::Jump { target } => {
                        w.put_u8(0);
                        w.put_u32(target);
                    }
                    ExitKind::Indirect => w.put_u8(1),
                    ExitKind::Syscall { pc } => {
                        w.put_u8(2);
                        w.put_u32(pc);
                    }
                    ExitKind::Halt => w.put_u8(3),
                }
                w.put_u8(e.flags_valid);
                // FlagsKind codes start at 1, so 0 is free for "none".
                w.put_u32(e.deferred.map_or(0, |k| u32::from(k.code())));
                w.put_bool(e.chain_slot.is_some());
                if let Some(s) = e.chain_slot {
                    w.put_usize(s);
                }
            }
            w.put_u32(t.src_insns);
            w.put_u32(t.host_insns);
            w.put_u8(t.needs_flags_mask);
            w.put_u32(t.spec_fails);
            w.put_bool(t.shape.is_some());
            if let Some(s) = &t.shape {
                w.put_u32(s.entry);
                w.put_u32s(&s.bbs);
                w.put_usize(s.dirs.len());
                for d in &s.dirs {
                    w.put_u8(match d {
                        None => 0,
                        Some(false) => 1,
                        Some(true) => 2,
                    });
                }
                w.put_u8(s.unroll);
            }
            w.put_bool(t.valid);
        }
        let mut chains: Vec<_> = self.chains_in.iter().collect();
        chains.sort_by_key(|(id, _)| **id);
        w.put_usize(chains.len());
        for (id, slots) in chains {
            w.put_usize(*id);
            w.put_usize(slots.len());
            for (addr, orig) in slots {
                w.put_usize(*addr);
                w.put_u32s(&encode_all(std::slice::from_ref(orig)));
            }
        }
        let mut ibtc: Vec<_> = self.ibtc.iter().collect();
        ibtc.sort_by_key(|(pc, _)| **pc);
        w.put_usize(ibtc.len());
        for (pc, host) in ibtc {
            w.put_u32(*pc);
            w.put_usize(*host);
        }
        let mut owners: Vec<_> = self.ibtc_owner.iter().collect();
        owners.sort_by_key(|(id, _)| **id);
        w.put_usize(owners.len());
        for (id, pcs) in owners {
            w.put_usize(*id);
            w.put_u32s(pcs);
        }
        w.put_usize(self.capacity_words);
        w.put_usize(self.used_words);
        w.put_u64(self.flushes);
    }

    fn decode_arena(words: &[u32], at: usize) -> Result<Vec<HInsn>, WireError> {
        let mut arena = Vec::new();
        let mut pos = 0;
        while pos < words.len() {
            let (insn, n) = decode_insn(&words[pos..])
                .map_err(|_| WireError::Malformed { at, what: "undecodable host instruction" })?;
            arena.push(insn);
            pos += n;
        }
        Ok(arena)
    }

    /// Restores from a [`CodeCache::snapshot_into`] stream into a cache
    /// built with the same capacity (fresh or in use — all prior contents
    /// are replaced).
    ///
    /// # Errors
    /// Wire decode failures; runtime-length or capacity mismatches (the
    /// snapshot belongs to a differently-configured cache).
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let runtime_len = r.get_usize()?;
        if runtime_len != self.runtime_len {
            return Err(WireError::Malformed {
                at: r.pos(),
                what: "code-cache runtime length mismatch",
            });
        }
        let words = r.get_u32s()?;
        let mut arena = Self::decode_arena(&words, r.pos())?;
        if arena.len() < runtime_len {
            return Err(WireError::Malformed {
                at: r.pos(),
                what: "code-cache arena shorter than runtime",
            });
        }
        let seqs = r.get_u32s()?;
        restore_nonspec_seqs(&mut arena, &seqs)
            .map_err(|what| WireError::Malformed { at: r.pos(), what })?;
        // Minimum encoded sizes (no exits, no superblock shape): u32 pc,
        // u8 kind, four u64s, three u32s, u8 flags mask, two bools.
        let n_trans = r.get_count(4 + 1 + 4 * 8 + 3 * 4 + 1 + 2)?;
        let mut translations = Vec::with_capacity(n_trans);
        for _ in 0..n_trans {
            let guest_pc = r.get_u32()?;
            let kind = match r.get_u8()? {
                0 => TransKind::Bb,
                1 => TransKind::Sb { asserts: false },
                2 => TransKind::Sb { asserts: true },
                _ => {
                    return Err(WireError::Malformed {
                        at: r.pos(),
                        what: "unknown translation kind",
                    })
                }
            };
            let host_base = r.get_usize()?;
            let len = r.get_usize()?;
            let encoded_words = r.get_usize()?;
            // u8 kind, u8 flags, u32 deferred code, bool chain slot.
            let n_exits = r.get_count(1 + 1 + 4 + 1)?;
            let mut exits = Vec::with_capacity(n_exits);
            for _ in 0..n_exits {
                let kind = match r.get_u8()? {
                    0 => ExitKind::Jump { target: r.get_u32()? },
                    1 => ExitKind::Indirect,
                    2 => ExitKind::Syscall { pc: r.get_u32()? },
                    3 => ExitKind::Halt,
                    _ => {
                        return Err(WireError::Malformed { at: r.pos(), what: "unknown exit kind" })
                    }
                };
                let flags_valid = r.get_u8()?;
                let deferred = match r.get_u32()? {
                    0 => None,
                    c => Some(FlagsKind::from_code(c).ok_or(WireError::Malformed {
                        at: r.pos(),
                        what: "unknown deferred-flags code",
                    })?),
                };
                let chain_slot = if r.get_bool()? { Some(r.get_usize()?) } else { None };
                exits.push(ExitMeta { kind, flags_valid, deferred, chain_slot });
            }
            let src_insns = r.get_u32()?;
            let host_insns = r.get_u32()?;
            let needs_flags_mask = r.get_u8()?;
            let spec_fails = r.get_u32()?;
            let shape = if r.get_bool()? {
                let entry = r.get_u32()?;
                let bbs = r.get_u32s()?;
                let n_dirs = r.get_count(1)?;
                let mut dirs = Vec::with_capacity(n_dirs);
                for _ in 0..n_dirs {
                    dirs.push(match r.get_u8()? {
                        0 => None,
                        1 => Some(false),
                        2 => Some(true),
                        _ => {
                            return Err(WireError::Malformed {
                                at: r.pos(),
                                what: "unknown branch direction",
                            })
                        }
                    });
                }
                let unroll = r.get_u8()?;
                Some(SbShape { entry, bbs, dirs, unroll })
            } else {
                None
            };
            let valid = r.get_bool()?;
            translations.push(Translation {
                guest_pc,
                kind,
                host_base,
                len,
                encoded_words,
                exits,
                src_insns,
                host_insns,
                needs_flags_mask,
                spec_fails,
                shape,
                valid,
            });
        }
        let n_chains = r.get_usize()?;
        let mut chains_in = HashMap::new();
        for _ in 0..n_chains {
            let id = r.get_usize()?;
            // u64 address plus an (empty at minimum) u32 slice.
            let n_slots = r.get_count(8 + 8)?;
            let mut slots = Vec::with_capacity(n_slots);
            for _ in 0..n_slots {
                let addr = r.get_usize()?;
                let words = r.get_u32s()?;
                let insns = Self::decode_arena(&words, r.pos())?;
                if insns.len() != 1 {
                    return Err(WireError::Malformed {
                        at: r.pos(),
                        what: "chain slot original must be one instruction",
                    });
                }
                slots.push((addr, insns[0]));
            }
            chains_in.insert(id, slots);
        }
        let n_ibtc = r.get_usize()?;
        let mut ibtc = IbtcTable::new();
        for _ in 0..n_ibtc {
            let pc = r.get_u32()?;
            let host = r.get_usize()?;
            ibtc.insert(pc, host);
        }
        let n_owners = r.get_usize()?;
        let mut ibtc_owner = HashMap::new();
        for _ in 0..n_owners {
            let id = r.get_usize()?;
            ibtc_owner.insert(id, r.get_u32s()?);
        }
        let capacity_words = r.get_usize()?;
        if capacity_words != self.capacity_words {
            return Err(WireError::Malformed {
                at: r.pos(),
                what: "code-cache capacity mismatch",
            });
        }
        let used_words = r.get_usize()?;
        let flushes = r.get_u64()?;
        let mut map = HashMap::new();
        for (id, t) in translations.iter().enumerate() {
            if t.valid {
                map.insert(t.guest_pc, id);
            }
        }
        self.arena = arena;
        self.map = map;
        self.translations = translations;
        self.chains_in = chains_in;
        self.ibtc = ibtc;
        self.ibtc_owner = ibtc_owner;
        self.used_words = used_words;
        self.flushes = flushes;
        self.mutations.record_full();
        Ok(())
    }
}

/// Collects the `seq` of every non-speculative memory operation in
/// program order (speculative ones carry theirs in the encoding).
fn nonspec_seqs(arena: &[HInsn]) -> Vec<u32> {
    arena
        .iter()
        .filter_map(|i| match *i {
            HInsn::Load { spec: false, seq, .. }
            | HInsn::Store { spec: false, seq, .. }
            | HInsn::LoadF { spec: false, seq, .. }
            | HInsn::StoreF { spec: false, seq, .. } => Some(u32::from(seq)),
            _ => None,
        })
        .collect()
}

/// Re-applies a [`nonspec_seqs`] sidecar to a freshly decoded arena.
fn restore_nonspec_seqs(arena: &mut [HInsn], seqs: &[u32]) -> Result<(), &'static str> {
    let mut it = seqs.iter();
    for insn in arena.iter_mut() {
        match insn {
            HInsn::Load { spec: false, seq, .. }
            | HInsn::Store { spec: false, seq, .. }
            | HInsn::LoadF { spec: false, seq, .. }
            | HInsn::StoreF { spec: false, seq, .. } => {
                let v = *it.next().ok_or("memory-op seq sidecar too short")?;
                *seq =
                    u16::try_from(v).map_err(|_| "memory-op seq sidecar value out of range")?;
            }
            _ => {}
        }
    }
    if it.next().is_some() {
        return Err("memory-op seq sidecar too long");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_ir::ExitKind;

    fn dummy_translation(cache: &CodeCache, pc: u32, code_len: usize) -> (Translation, Vec<HInsn>) {
        let code: Vec<HInsn> = std::iter::once(HInsn::Chkpt)
            .chain(std::iter::repeat_n(HInsn::Nop, code_len.saturating_sub(2)))
            .chain(std::iter::once(HInsn::TolExit { id: 0 }))
            .collect();
        let t = Translation {
            guest_pc: pc,
            kind: TransKind::Bb,
            host_base: cache.next_base(),
            len: 0,
            encoded_words: code.len(),
            exits: vec![ExitMeta {
                kind: ExitKind::Halt,
                flags_valid: 0,
                deferred: None,
                chain_slot: None,
            }],
            src_insns: 1,
            host_insns: code_len as u32,
            needs_flags_mask: 0,
            spec_fails: 0,
            shape: None,
            valid: true,
        };
        (t, code)
    }

    #[test]
    fn install_lookup_and_host_search() {
        let mut c = CodeCache::new(1 << 16);
        let (t1, code1) = dummy_translation(&c, 0x1000, 10);
        let id1 = c.install(t1, code1);
        let (t2, code2) = dummy_translation(&c, 0x2000, 12);
        let id2 = c.install(t2, code2);
        assert_eq!(c.lookup(0x1000), Some(id1));
        assert_eq!(c.lookup(0x2000), Some(id2));
        assert_eq!(c.lookup(0x3000), None);
        let base2 = c.translation(id2).host_base;
        assert_eq!(c.translation_at_host(base2), Some(id2));
        assert_eq!(c.translation_at_host(base2 + 5), Some(id2));
        assert_eq!(c.translation_at_host(base2 - 1), Some(id1));
        assert_eq!(c.translation_at_host(0), None, "runtime is not a translation");
    }

    #[test]
    fn reinstall_invalidates_previous() {
        let mut c = CodeCache::new(1 << 16);
        let (t1, code1) = dummy_translation(&c, 0x1000, 10);
        let id1 = c.install(t1, code1);
        let (t2, code2) = dummy_translation(&c, 0x1000, 20);
        let id2 = c.install(t2, code2);
        assert!(!c.translation(id1).valid);
        assert_eq!(c.lookup(0x1000), Some(id2));
        assert_eq!(c.live_translations(), 1);
    }

    #[test]
    fn chaining_patches_and_invalidation_unpatches() {
        let mut c = CodeCache::new(1 << 16);
        // Translation A with a chain slot in the middle.
        let base_a = c.next_base();
        let code_a = vec![HInsn::Chkpt, HInsn::ChainSlot { id: 0 }, HInsn::TolExit { id: 1 }];
        let (mut ta, _) = dummy_translation(&c, 0x1000, 3);
        ta.encoded_words = code_a.len();
        let id_a = c.install(ta, code_a);
        let (tb, code_b) = dummy_translation(&c, 0x2000, 6);
        let id_b = c.install(tb, code_b);
        let slot = base_a + 1;
        c.chain(id_a, slot, id_b);
        match c.arena[slot] {
            HInsn::B { rel } => {
                assert_eq!(slot as i32 + 1 + rel, c.translation(id_b).host_base as i32);
            }
            other => panic!("expected patched branch, got {other:?}"),
        }
        // Invalidate B: the chain must revert to the original slot.
        c.invalidate(id_b);
        assert!(matches!(c.arena[slot], HInsn::ChainSlot { id: 0 }));
    }

    #[test]
    fn ibtc_entries_follow_invalidation() {
        let mut c = CodeCache::new(1 << 16);
        let (t1, code1) = dummy_translation(&c, 0x1000, 4);
        let id1 = c.install(t1, code1);
        c.ibtc_insert(0x1000, id1);
        assert_eq!(c.ibtc.get(&0x1000), Some(&c.translation(id1).host_base));
        c.invalidate(id1);
        assert!(c.ibtc.is_empty());
    }

    #[test]
    fn flush_keeps_runtime() {
        let mut c = CodeCache::new(1 << 16);
        let rt_len = c.next_base();
        let (t1, code1) = dummy_translation(&c, 0x1000, 4);
        c.install(t1, code1);
        assert!(c.next_base() > rt_len);
        c.flush();
        assert_eq!(c.next_base(), rt_len);
        assert_eq!(c.lookup(0x1000), None);
        assert_eq!(c.flushes, 1);
        // Runtime entries still valid.
        assert!(c.sin_addr() < rt_len && c.cos_addr() < rt_len);
    }

    #[test]
    fn disassembly_is_readable() {
        let mut c = CodeCache::new(1 << 16);
        let (t, code) = dummy_translation(&c, 0x1000, 5);
        let id = c.install(t, code);
        let d = c.disassemble(id);
        assert!(d.contains("guest 0x00001000"));
        assert!(d.contains("chkpt"));
        assert!(d.contains("tolexit"));
        assert!(d.contains("exit 0"));
        c.invalidate(id);
        assert!(c.disassemble(id).contains("INVALID"));
    }

    #[test]
    fn snapshot_restore_round_trips_full_history() {
        let mut c = CodeCache::new(1 << 16);
        // History: install three translations (one with a chain slot and a
        // superblock shape), chain A→B, add IBTC entries, then invalidate
        // B so the arena holds dead space and an unpatched chain slot.
        let base_a = c.next_base();
        let code_a = vec![HInsn::Chkpt, HInsn::ChainSlot { id: 0 }, HInsn::TolExit { id: 1 }];
        let (mut ta, _) = dummy_translation(&c, 0x1000, 3);
        ta.encoded_words = code_a.len();
        ta.exits[0].deferred = Some(FlagsKind::Add);
        ta.exits[0].chain_slot = Some(base_a + 1);
        let id_a = c.install(ta, code_a);
        let (mut tb, code_b) = dummy_translation(&c, 0x2000, 6);
        tb.kind = TransKind::Sb { asserts: true };
        tb.shape = Some(SbShape {
            entry: 0x2000,
            bbs: vec![0x2000, 0x2040],
            dirs: vec![Some(true), None],
            unroll: 2,
        });
        tb.spec_fails = 3;
        let id_b = c.install(tb, code_b);
        let (tc, code_c) = dummy_translation(&c, 0x3000, 4);
        let id_c = c.install(tc, code_c);
        c.chain(id_a, base_a + 1, id_b);
        c.ibtc_insert(0x2000, id_b);
        c.ibtc_insert(0x3000, id_c);
        c.invalidate(id_b);

        let mut w = Wire::new();
        c.snapshot_into(&mut w);
        let bytes = w.finish();

        let mut c2 = CodeCache::new(1 << 16);
        let mut r = WireReader::new(&bytes);
        c2.restore_from(&mut r).unwrap();
        r.expect_end().unwrap();

        // Behavioural equivalence.
        assert_eq!(c2.lookup(0x1000), Some(id_a));
        assert_eq!(c2.lookup(0x2000), None, "invalidated B stays invalid");
        assert_eq!(c2.lookup(0x3000), Some(id_c));
        assert!(
            matches!(c2.arena[base_a + 1], HInsn::ChainSlot { id: 0 }),
            "chain into B was unpatched before snapshot"
        );
        assert_eq!(c2.ibtc.get(&0x3000), Some(&c2.translation(id_c).host_base));
        assert_eq!(c2.ibtc.get(&0x2000), None);
        assert_eq!(c2.translation(id_b).spec_fails, 3);
        assert_eq!(c2.translation(id_b).shape.as_ref().unwrap().bbs, vec![0x2000, 0x2040]);
        assert_eq!(c2.used_words(), c.used_words());
        // Invalidation after restore still unpatches chains correctly:
        // re-chain A→C and invalidate C on both caches.
        c.chain(id_a, base_a + 1, id_c);
        c2.chain(id_a, base_a + 1, id_c);
        c.invalidate(id_c);
        c2.invalidate(id_c);
        assert!(matches!(c2.arena[base_a + 1], HInsn::ChainSlot { id: 0 }));

        // Byte-identical re-snapshot.
        let mut w1 = Wire::new();
        c.snapshot_into(&mut w1);
        let mut w2 = Wire::new();
        c2.snapshot_into(&mut w2);
        assert_eq!(w1.finish(), w2.finish());
    }

    #[test]
    fn restore_rejects_wrong_capacity() {
        let mut c = CodeCache::new(1 << 16);
        let (t, code) = dummy_translation(&c, 0x1000, 4);
        c.install(t, code);
        let mut w = Wire::new();
        c.snapshot_into(&mut w);
        let bytes = w.finish();
        let mut other = CodeCache::new(1 << 12);
        assert!(other.restore_from(&mut WireReader::new(&bytes)).is_err());
    }

    #[test]
    fn restore_rejects_forged_translation_count() {
        let mut c = CodeCache::new(1 << 16);
        let (t, code) = dummy_translation(&c, 0x1000, 4);
        c.install(t, code);
        let mut w = Wire::new();
        c.snapshot_into(&mut w);
        let mut bytes = w.finish();
        // Walk the header to the translation count and forge it.
        let mut r = WireReader::new(&bytes);
        r.get_usize().unwrap();
        r.get_u32s().unwrap();
        r.get_u32s().unwrap();
        let at = r.pos();
        bytes[at..at + 8].copy_from_slice(&(u64::MAX >> 8).to_le_bytes());
        let mut fresh = CodeCache::new(1 << 16);
        let err = fresh.restore_from(&mut WireReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, WireError::Malformed { at: a, .. } if a == at), "{err}");
    }

    #[test]
    fn overflow_accounting() {
        let mut c = CodeCache::new(64);
        assert!(!c.would_overflow(64));
        assert!(c.would_overflow(65));
        let (t1, code1) = dummy_translation(&c, 0x1000, 40);
        c.install(t1, code1);
        assert!(c.would_overflow(30));
    }
}
