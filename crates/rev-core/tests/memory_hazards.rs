//! The one memory, its store overlay and page shadowing's window under
//! the paths that write or read memory outside the commit stream:
//! external (DMA) writes, page shadowing's promotion, contained stores
//! after a violation, and checkpoint restore. Each test checks what the core reads
//! (`oracle().mem()`) against what memory holds (`committed()`).

use rev_core::{
    Containment, CpuConfig, RevConfig, RevSimulator, RunOutcome, Session, SessionStatus,
};
use rev_isa::{BranchCond, Instruction, Reg};
use rev_prog::{ModuleBuilder, Program};

/// Stores `100 + i` to `buf[i]` for `i < 64`, each slot once, then
/// halts. `r5` ends one past the last slot.
fn writer_program() -> Program {
    let mut b = ModuleBuilder::new("writer", 0x1000);
    let f = b.begin_function("main");
    let buf = b.data_zeroed(64 * 8);
    let top = b.new_label();
    b.li_data(Reg::R5, buf);
    b.push(Instruction::Li { rd: Reg::R2, imm: 64 });
    b.bind(top);
    b.push(Instruction::AddI { rd: Reg::R6, rs: Reg::R1, imm: 100 });
    b.push(Instruction::Store { rs: Reg::R6, rbase: Reg::R5, off: 0 });
    b.push(Instruction::AddI { rd: Reg::R5, rs: Reg::R5, imm: 8 });
    b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
    b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
    b.push(Instruction::Halt);
    b.end_function(f);
    let mut pb = Program::builder();
    pb.module(b.finish().expect("assembles"));
    pb.build()
}

fn buffer_base() -> u64 {
    writer_program().modules()[0].data_base()
}

/// A writer session under `containment`, parked after `instrs`.
fn parked(containment: Containment, instrs: u64) -> Session {
    let config = RevConfig { containment, ..RevConfig::paper_default() };
    let mut s = Session::new(RevSimulator::new(writer_program(), config).unwrap(), u64::MAX);
    assert!(matches!(s.run(instrs), SessionStatus::Yielded { .. }), "must park mid-loop");
    s
}

fn finish(mut s: Session) -> (Session, RunOutcome) {
    loop {
        if let SessionStatus::Done(report) = s.run(u64::MAX) {
            return (s, report.outcome);
        }
    }
}

/// The buffer as the core reads it and as memory holds it.
fn buffer(s: &Session) -> (Vec<u64>, Vec<u64>) {
    let sim = s.simulator();
    let slots = (0..64).map(|i| buffer_base() + i * 8);
    let view = slots.clone().map(|a| sim.pipeline().oracle().mem().read_u64(a)).collect();
    let committed = slots.map(|a| sim.monitor().committed().read_u64(a)).collect();
    (view, committed)
}

/// Deferred stores: at a park the core sees every store it executed,
/// memory only the validated ones, and the two agree once the run ends.
#[test]
fn memory_lags_the_core_by_the_stores_in_flight() {
    let s = parked(Containment::DeferredStores, 120);
    let (view, committed) = buffer(&s);
    let in_flight = s.simulator().pipeline().oracle().mem().overlay().len();
    assert!(in_flight > 0, "stores in flight at the park");
    let cpu = CpuConfig::paper_default();
    let bound = cpu.fetch_queue + cpu.rob_size + RevConfig::paper_default().defer_capacity;
    assert!(in_flight <= bound, "{in_flight} stores in flight, bound {bound}");
    let differ = view.iter().zip(&committed).filter(|(v, c)| v != c).count();
    assert!(differ > 0 && differ <= in_flight, "{differ} slots differ, {in_flight} in flight");
    let (s, outcome) = finish(s);
    assert_eq!(outcome, RunOutcome::Halted);
    let (view, committed) = buffer(&s);
    assert_eq!(view, (100..164).collect::<Vec<u64>>());
    assert_eq!(committed, view);
    assert!(s.simulator().pipeline().oracle().mem().overlay().is_empty());
}

/// Page shadowing: nothing of the window reaches memory mid-run, and
/// promotion at the end releases all of it.
#[test]
fn the_shadow_window_reaches_memory_only_at_promotion() {
    let s = parked(Containment::ShadowPages, 200);
    let (view, committed) = buffer(&s);
    assert!(view.iter().filter(|&&v| v != 0).count() > 20, "the core ran the loop");
    assert!(committed.iter().all(|&v| v == 0), "memory holds none of the window");
    let (s, _) = finish(s);
    let (view, committed) = buffer(&s);
    assert_eq!(committed, view);
    assert_eq!(committed, (100..164).collect::<Vec<u64>>());
}

/// A violation contains the stores still held back: the core, which ran
/// them, keeps reading them, and memory never takes them, not even when
/// the run ends.
#[test]
fn contained_stores_never_reach_memory() {
    let s = parked(Containment::DeferredStores, 120);
    let program = writer_program();
    let module = &program.modules()[0];
    let body = Instruction::AddI { rd: Reg::R6, rs: Reg::R1, imm: 100 }.encode();
    let patch = Instruction::AddI { rd: Reg::R6, rs: Reg::R1, imm: 200 }.encode();
    assert_eq!(body.len(), patch.len());
    let at = module.code().windows(body.len()).position(|w| w == body).expect("loop body");
    let mut sim = s.into_simulator();
    sim.inject(|mem| mem.write_bytes(module.base() + at as u64, &patch));
    let (s, outcome) = finish(Session::new(sim, u64::MAX));
    assert!(matches!(outcome, RunOutcome::Violation(_)), "{outcome:?}");
    let mem = s.simulator().pipeline().oracle().mem();
    let buf = buffer_base()..buffer_base() + 64 * 8;
    let held: Vec<_> = mem.overlay().iter().filter(|e| buf.contains(&e.addr)).copied().collect();
    assert!(!held.is_empty(), "stores contained at the violation");
    for e in held {
        assert_eq!(mem.read_u64(e.addr), e.value, "the core reads its store at {:#x}", e.addr);
        assert_eq!(mem.committed().read_u64(e.addr), 0, "memory took {:#x}", e.addr);
    }
    let (_, committed) = buffer(&s);
    let validated = |(i, &c): (usize, &u64)| c == 0 || c == 100 + i as u64;
    assert!(committed.iter().enumerate().all(validated), "{committed:?}");
}

/// Page shadowing's window keeps one value per byte written: a loop that
/// rewrites its buffer many times over holds the buffer's eight words,
/// and only the stores in flight stay in the overlay.
#[test]
fn the_shadow_window_grows_with_the_bytes_written() {
    let mut b = ModuleBuilder::new("rewriter", 0x1000);
    let f = b.begin_function("main");
    let buf = b.data_zeroed(8 * 8);
    let top = b.new_label();
    b.li_data(Reg::R5, buf);
    b.push(Instruction::Li { rd: Reg::R2, imm: 4000 });
    b.bind(top);
    b.push(Instruction::AndI { rd: Reg::R7, rs: Reg::R1, imm: 7 });
    b.push(Instruction::MulI { rd: Reg::R7, rs: Reg::R7, imm: 8 });
    b.push(Instruction::Alu { op: rev_isa::AluOp::Add, rd: Reg::R7, rs1: Reg::R7, rs2: Reg::R5 });
    b.push(Instruction::Store { rs: Reg::R1, rbase: Reg::R7, off: 0 });
    b.push(Instruction::AddI { rd: Reg::R1, rs: Reg::R1, imm: 1 });
    b.branch(BranchCond::Lt, Reg::R1, Reg::R2, top);
    b.push(Instruction::Halt);
    b.end_function(f);
    let mut pb = Program::builder();
    pb.module(b.finish().expect("assembles"));
    let program = pb.build();
    let base = program.modules()[0].data_base();
    let config = RevConfig { containment: Containment::ShadowPages, ..RevConfig::paper_default() };
    let mut s = Session::new(RevSimulator::new(program, config).unwrap(), u64::MAX);
    assert!(matches!(s.run(20_000), SessionStatus::Yielded { .. }), "must park mid-loop");
    let cpu = CpuConfig::paper_default();
    let mem = s.simulator().pipeline().oracle().mem();
    let in_flight = mem.overlay().len();
    assert!(in_flight <= cpu.fetch_queue + cpu.rob_size, "{in_flight} stores in flight");
    let words: Vec<u64> = mem.window().iter().map(|&(word, ..)| word << 3).collect();
    assert_eq!(words, (0..8).map(|i| base + i * 8).collect::<Vec<_>>());
    assert_eq!(mem.committed().read_u64(base), 0, "promoted mid-run");
    let (s, outcome) = finish(s);
    assert_eq!(outcome, RunOutcome::Halted);
    let committed: Vec<u64> =
        (0..8).map(|i| s.simulator().monitor().committed().read_u64(base + i * 8)).collect();
    assert_eq!(committed, (3992..4000).collect::<Vec<u64>>());
    let mem = s.simulator().pipeline().oracle().mem();
    assert!(mem.overlay().is_empty() && mem.window().is_empty());
}

/// An external write over an in-flight store lands beneath it: the core
/// keeps reading the store's value, memory shows the external bytes
/// until the store is released, and then the store's value.
#[test]
fn an_external_write_lands_beneath_an_in_flight_store() {
    let mut s = parked(Containment::DeferredStores, 120);
    let target = {
        let sim = s.simulator();
        let overlay = sim.pipeline().oracle().mem().overlay();
        let buf = buffer_base()..buffer_base() + 64 * 8;
        *overlay.iter().find(|e| buf.contains(&e.addr)).expect("a buffer store in flight")
    };
    let mut sim = s.into_simulator();
    sim.inject(|mem| mem.write_u64(target.addr, 0xdead));
    assert_eq!(sim.pipeline().oracle().mem().read_u64(target.addr), target.value);
    assert_eq!(sim.monitor().committed().read_u64(target.addr), 0xdead);
    s = Session::new(sim, u64::MAX);
    let (s, outcome) = finish(s);
    assert_eq!(outcome, RunOutcome::Halted);
    assert_eq!(s.simulator().monitor().committed().read_u64(target.addr), target.value);
}

/// A checkpoint taken with stores in flight (ROB, fetch queue, deferred
/// buffer) restores the overlay from them, and one taken under page
/// shadowing restores the window: the restored core reads what the
/// parked one did, and finishes the same way.
#[test]
fn restore_rebuilds_the_stores_in_flight() {
    for containment in [Containment::DeferredStores, Containment::ShadowPages] {
        let s = parked(containment, 150);
        let env = s.checkpoint(b"hazard").unwrap();
        let config = RevConfig { containment, ..RevConfig::paper_default() };
        let restored =
            Session::restore(RevSimulator::new(writer_program(), config).unwrap(), &env).unwrap();
        let overlay = |s: &Session| -> Vec<_> {
            s.simulator().pipeline().oracle().mem().overlay().iter().copied().collect()
        };
        assert!(!overlay(&s).is_empty());
        assert_eq!(overlay(&restored), overlay(&s), "{containment:?}");
        let window = |s: &Session| s.simulator().pipeline().oracle().mem().window();
        assert_eq!(window(&restored), window(&s), "{containment:?}");
        if containment == Containment::ShadowPages {
            assert!(!window(&s).is_empty(), "the window holds the loop's stores");
        }
        assert_eq!(buffer(&restored), buffer(&s), "{containment:?}");
        let (a, _) = finish(s);
        let (b, _) = finish(restored);
        assert_eq!(buffer(&a), buffer(&b), "{containment:?}");
    }
}
