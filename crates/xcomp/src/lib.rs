//! # The authoritative guest component (DARCO's "x86 component")
//!
//! A full-system functional emulator for the guest ISA (paper §V: "runs an
//! unmodified operating system and is the only component that interacts
//! with the operating system"). In this reproduction the operating system
//! is OS-lite ([`os`]): a deterministic syscall layer (exit/write/read/
//! sbrk/time/getpid) with demand paging — the co-designed component models
//! user code only, so everything system-level lives here.
//!
//! The component keeps the **authoritative architectural and memory
//! state**. The controller (in the `darco` crate) drives it to the same
//! execution point as the co-designed component (measured in retired guest
//! instructions — deterministic execution makes the two streams
//! identical), then serves data requests, executes system calls, and
//! validates the co-designed state against this one.
//!
//! Catch-up replays guest code through `darco_guest::DecodeCache::run`,
//! the same block replay the TOL's interpretation mode uses. This
//! component adds only the OS side of each stop: a syscall retires
//! through [`XComponent::exec_syscall`], `halt` ends the application, a
//! page fault demand-maps a zero page and re-enters, and any other fault
//! is an [`XcompError::GuestFault`]. Catch-up is the bulk of a validated
//! run's wall time, so its speed is the replay's: blocks are entered
//! through successor links rather than a hash lookup, and guest loads and
//! stores that stay in one page are fixed-size copies (DESIGN.md §7).

pub mod os;
pub mod process;

pub use os::{SyscallOutcome, OS_EXIT, OS_GETPID, OS_READ, OS_SBRK, OS_TIME, OS_WRITE};
pub use process::ProcessTracker;

use darco_guest::exec;
use darco_guest::insn::Insn;
use darco_guest::predecode::BlockStop;
use darco_guest::{DecodeCache, Fault, GuestProgram, GuestState};

/// Errors from driving the authoritative component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XcompError {
    /// The guest program faulted (bad opcode / division by zero).
    GuestFault(Fault),
    /// The component was asked to run past a halt/exit.
    RanPastEnd,
    /// The controller expected a syscall here but found something else.
    ProtocolMismatch(&'static str),
}

impl std::fmt::Display for XcompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XcompError::GuestFault(fa) => write!(f, "authoritative guest fault: {fa}"),
            XcompError::RanPastEnd => write!(f, "ran past end of application"),
            XcompError::ProtocolMismatch(m) => write!(f, "protocol mismatch: {m}"),
        }
    }
}

impl std::error::Error for XcompError {}

/// The authoritative full-system component.
#[derive(Debug, Clone)]
pub struct XComponent {
    /// The authoritative architectural state.
    pub state: GuestState,
    /// Retired guest instructions (syscalls count as one; `halt` does
    /// not retire).
    pub insns: u64,
    /// Process tracker (the paper's CR3-based tracker).
    pub tracker: ProcessTracker,
    /// Captured stdout of the guest.
    pub output: Vec<u8>,
    os: os::OsState,
    halted: bool,
    exited: Option<u32>,
    /// Predecoded guest-block cache the catch-up replay runs over.
    decode: DecodeCache,
}

impl XComponent {
    /// Launches a program: boots the full image and initializes the
    /// process tracker (the paper's EXECVE pause point).
    pub fn new(program: &GuestProgram) -> XComponent {
        XComponent {
            state: GuestState::boot(program),
            insns: 0,
            tracker: ProcessTracker::new(&program.name),
            output: Vec::new(),
            os: os::OsState::new(program),
            halted: false,
            exited: None,
            decode: DecodeCache::new(),
        }
    }

    /// The initial architectural state (registers only) the controller
    /// forwards to the co-designed component during Initialization.
    pub fn initial_regs(&self) -> GuestState {
        let mut st = GuestState::new();
        st.copy_regs_from(&self.state);
        st
    }

    /// Whether the application has ended (halt or exit syscall).
    pub fn ended(&self) -> bool {
        self.halted || self.exited.is_some()
    }

    /// Exit status, if the program exited via syscall.
    pub fn exit_status(&self) -> Option<u32> {
        self.exited
    }

    /// Registers the authoritative component's counters under `prefix`.
    pub fn register_metrics(&self, reg: &mut darco_obs::Registry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.insns"), self.insns);
        reg.set_counter(&format!("{prefix}.output_bytes"), self.output.len() as u64);
        reg.set_counter(&format!("{prefix}.asid"), self.tracker.asid() as u64);
    }

    /// Serializes the authoritative component: architectural state,
    /// retired-instruction count, captured output, kernel state and the
    /// ended/exited markers. The process tracker (derived from the program
    /// name) and the predecode cache (a pure cache) are re-materialized on
    /// restore, not serialized.
    pub fn snapshot_into(&self, w: &mut darco_guest::Wire) {
        self.state.snapshot_into(w);
        w.put_u64(self.insns);
        w.put_bytes(&self.output);
        self.os.snapshot_into(w);
        w.put_bool(self.halted);
        match self.exited {
            Some(code) => {
                w.put_bool(true);
                w.put_u32(code);
            }
            None => w.put_bool(false),
        }
    }

    /// Restores the component from an [`XComponent::snapshot_into`]
    /// stream. `self` must have been created with [`XComponent::new`] for
    /// the same program the snapshot was taken from (the engine enforces
    /// this with a program fingerprint); the predecode cache starts cold.
    ///
    /// # Errors
    /// Propagates wire decode failures.
    pub fn restore_from(&mut self, r: &mut darco_guest::WireReader<'_>) -> Result<(), darco_guest::WireError> {
        self.state.restore_from(r)?;
        self.insns = r.get_u64()?;
        self.output = r.get_bytes()?;
        self.os.restore_from(r)?;
        self.halted = r.get_bool()?;
        self.exited = if r.get_bool()? { Some(r.get_u32()?) } else { None };
        self.decode = DecodeCache::new();
        Ok(())
    }

    /// Runs until exactly `count` guest instructions have retired
    /// (executing any system calls encountered on the way). Stops early —
    /// with an error — if the application ends first.
    ///
    /// # Errors
    /// Returns [`XcompError::GuestFault`] on a program error, and
    /// [`XcompError::RanPastEnd`] if `count` lies beyond program end.
    pub fn run_until(&mut self, count: u64) -> Result<(), XcompError> {
        self.replay(count)?;
        if self.insns < count {
            return Err(XcompError::RanPastEnd);
        }
        Ok(())
    }

    /// Executes the system call the guest is stopped at, returning its
    /// outcome (used by the controller's Synchronization phase).
    ///
    /// # Errors
    /// [`XcompError::ProtocolMismatch`] if the next instruction is not a
    /// syscall.
    pub fn exec_syscall(&mut self) -> Result<SyscallOutcome, XcompError> {
        match exec::fetch(&self.state.mem, self.state.eip) {
            Ok((Insn::Syscall, len)) => {
                self.state.eip = self.state.eip.wrapping_add(len);
                self.insns += 1;
                let outcome = os::do_syscall(&mut self.state, &mut self.os, &mut self.output);
                if let SyscallOutcome::Exit(code) = outcome {
                    self.exited = Some(code);
                }
                Ok(outcome)
            }
            _ => Err(XcompError::ProtocolMismatch("expected syscall")),
        }
    }

    /// Confirms the guest is stopped at `halt` and marks the application
    /// ended.
    ///
    /// # Errors
    /// [`XcompError::ProtocolMismatch`] if the next instruction is not
    /// `halt`.
    pub fn confirm_halt(&mut self) -> Result<(), XcompError> {
        match exec::fetch(&self.state.mem, self.state.eip) {
            Ok((Insn::Halt, _)) => {
                self.halted = true;
                Ok(())
            }
            _ => Err(XcompError::ProtocolMismatch("expected halt")),
        }
    }

    /// Returns a copy of the page containing `addr`, demand-mapping it
    /// first (OS behaviour) if needed — this serves the co-designed
    /// component's *data request*.
    pub fn page_for(&mut self, addr: u32) -> Vec<u8> {
        let page = darco_guest::GuestMem::page_of(addr);
        self.state.mem.map_zero(page);
        self.state.mem.page(page).expect("just mapped").to_vec()
    }

    /// Runs until the application ends (halt or exit), up to `max`
    /// instructions.
    ///
    /// # Errors
    /// Propagates guest faults; errors if `max` is exceeded.
    pub fn run_to_end(&mut self, max: u64) -> Result<(), XcompError> {
        self.replay(max)?;
        if !self.ended() {
            return Err(XcompError::RanPastEnd);
        }
        Ok(())
    }

    /// Replays predecoded blocks (`darco_guest::DecodeCache::run`) until
    /// `limit` instructions have retired or the application ends,
    /// executing syscalls and demand-paging on the way (OS behaviour).
    fn replay(&mut self, limit: u64) -> Result<(), XcompError> {
        while self.insns < limit && !self.ended() {
            let run = self.decode.run(&mut self.state, limit - self.insns);
            self.insns += run.insns;
            match run.stop {
                BlockStop::End | BlockStop::Budget => {}
                // The replay stops before a syscall only with budget left
                // to retire it, as one instruction on both components.
                BlockStop::Syscall => {
                    self.exec_syscall()?;
                }
                BlockStop::Halt => self.halted = true,
                // A real OS would fault on wild kernel-space addresses;
                // OS-lite maps a zero page and the access retries (see
                // DESIGN.md).
                BlockStop::PageFault { addr, .. } => {
                    self.state.mem.map_zero(darco_guest::GuestMem::page_of(addr));
                }
                BlockStop::GuestError(f) => return Err(XcompError::GuestFault(f)),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::program::DEFAULT_CODE_BASE;
    use darco_guest::reg::{Addr, Cond};
    use darco_guest::{Asm, Gpr};

    #[test]
    fn runs_to_halt_and_counts() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Eax, 1);
        a.mov_ri(Gpr::Ebx, 2);
        a.add_rr(Gpr::Eax, Gpr::Ebx);
        a.halt();
        let p = a.into_program();
        let mut x = XComponent::new(&p);
        x.run_to_end(1000).unwrap();
        assert_eq!(x.insns, 3);
        assert_eq!(x.state.gpr(Gpr::Eax), 3);
        assert!(x.ended());
    }

    #[test]
    fn run_until_stops_exactly() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        for _ in 0..10 {
            a.inc(Gpr::Eax);
        }
        a.halt();
        let p = a.into_program();
        let mut x = XComponent::new(&p);
        x.run_until(4).unwrap();
        assert_eq!(x.state.gpr(Gpr::Eax), 4);
        x.run_until(10).unwrap();
        assert_eq!(x.state.gpr(Gpr::Eax), 10);
    }

    #[test]
    fn write_syscall_captures_output() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Eax, OS_WRITE as i32);
        a.mov_ri(Gpr::Ebx, 1);
        a.mov_ri(Gpr::Ecx, 0x0040_0000);
        a.mov_ri(Gpr::Edx, 5);
        a.syscall();
        a.halt();
        let p = a.into_program().with_data(b"hello world".to_vec());
        let mut x = XComponent::new(&p);
        // Run to the syscall (4 movs), then execute it.
        x.run_until(4).unwrap();
        let out = x.exec_syscall().unwrap();
        assert!(matches!(out, SyscallOutcome::Ok { .. }));
        assert_eq!(&x.output, b"hello");
        assert_eq!(x.state.gpr(Gpr::Eax), 5, "write returns length");
        assert_eq!(x.insns, 5, "the syscall retired");
    }

    #[test]
    fn sbrk_read_and_time_are_deterministic() {
        let build = || {
            let mut a = Asm::new(DEFAULT_CODE_BASE);
            // sbrk(4096) -> EAX = old brk
            a.mov_ri(Gpr::Eax, OS_SBRK as i32);
            a.mov_ri(Gpr::Ebx, 4096);
            a.syscall();
            a.mov_rr(Gpr::Esi, Gpr::Eax);
            // read(0, heap, 4)
            a.mov_ri(Gpr::Eax, OS_READ as i32);
            a.mov_ri(Gpr::Ebx, 0);
            a.mov_rr(Gpr::Ecx, Gpr::Esi);
            a.mov_ri(Gpr::Edx, 4);
            a.syscall();
            a.load(Gpr::Edi, Addr::base(Gpr::Esi));
            // time()
            a.mov_ri(Gpr::Eax, OS_TIME as i32);
            a.syscall();
            a.halt();
            a.into_program().with_input(vec![0x11, 0x22, 0x33, 0x44])
        };
        let run = |p: &darco_guest::GuestProgram| {
            let mut x = XComponent::new(p);
            x.run_to_end(10_000).unwrap();
            x
        };
        let p = build();
        let x1 = run(&p);
        let x2 = run(&p);
        assert_eq!(x1.state.gpr(Gpr::Edi), 0x4433_2211);
        assert_eq!(x1.state.gpr(Gpr::Eax), x2.state.gpr(Gpr::Eax), "time is deterministic");
    }

    #[test]
    fn exit_syscall_ends_program() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Eax, OS_EXIT as i32);
        a.mov_ri(Gpr::Ebx, 7);
        a.syscall();
        a.nop(); // never reached
        let p = a.into_program();
        let mut x = XComponent::new(&p);
        x.run_to_end(100).unwrap();
        assert_eq!(x.exit_status(), Some(7));
    }

    #[test]
    fn demand_paging_on_wild_access() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.mov_ri(Gpr::Ebx, 0x0A00_0000);
        a.store(Addr::base(Gpr::Ebx), Gpr::Eax, darco_guest::Width::D);
        let l = a.label();
        a.jcc_to(Cond::E, l);
        a.bind(l);
        a.halt();
        let p = a.into_program();
        let mut x = XComponent::new(&p);
        x.run_to_end(100).unwrap();
        assert!(x.state.mem.is_mapped(0x0A00_0000));
    }

    #[test]
    fn snapshot_mid_run_resumes_identically() {
        let build = || {
            let mut a = Asm::new(DEFAULT_CODE_BASE);
            // Alternate computation and syscalls so kernel state matters.
            a.mov_ri(Gpr::Eax, OS_SBRK as i32);
            a.mov_ri(Gpr::Ebx, 64);
            a.syscall();
            a.mov_ri(Gpr::Ecx, 50);
            let top = a.here();
            a.add_rr(Gpr::Edx, Gpr::Ecx);
            a.dec(Gpr::Ecx);
            a.jcc_to(Cond::Ne, top);
            a.mov_ri(Gpr::Eax, OS_TIME as i32);
            a.syscall();
            a.halt();
            a.into_program().with_input(vec![5, 6])
        };
        let p = build();
        let mut full = XComponent::new(&p);
        full.run_to_end(100_000).unwrap();

        let mut x = XComponent::new(&p);
        x.run_until(40).unwrap();
        let mut w = darco_guest::Wire::new();
        x.snapshot_into(&mut w);
        let bytes = w.finish();

        let mut y = XComponent::new(&p);
        let mut r = darco_guest::WireReader::new(&bytes);
        y.restore_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(y.insns, 40);
        y.run_to_end(100_000).unwrap();
        assert_eq!(y.insns, full.insns);
        assert_eq!(y.state.first_reg_mismatch(&full.state, true), None);
        assert_eq!(y.state.mem.first_difference(&full.state.mem), None);
        assert_eq!(y.output, full.output);
        assert_eq!(y.exit_status(), full.exit_status());
    }

    #[test]
    fn page_for_serves_data_requests() {
        let mut a = Asm::new(DEFAULT_CODE_BASE);
        a.halt();
        let p = a.into_program().with_data(vec![9u8; 16]);
        let mut x = XComponent::new(&p);
        let page = x.page_for(p.data_base + 3);
        assert_eq!(page.len(), darco_guest::PAGE_SIZE as usize);
        assert_eq!(page[3], 9);
        // Unmapped page: demand-mapped zero.
        let page = x.page_for(0x0777_7000);
        assert!(page.iter().all(|&b| b == 0));
    }
}
