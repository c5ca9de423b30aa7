//! Pins what a simulator holds in memory.
//!
//! * The build image: the loader writes only real bytes. The stack (and
//!   any other zero-filled region) is a segment's zero-fill length, not a
//!   vector of zeros, so no quick-scale image materializes a page that
//!   only reads zero.
//! * A parked job: at `rev-serve`'s park points (std-32K, 50k warmup,
//!   four 50k slices), one line per quick profile gives the memory's
//!   private pages, the stores in flight and the checkpoint envelope's
//!   length, byte-compared with `baselines/footprint_quick.txt`. A second
//!   copy of memory or a regrown envelope moves a line. On a deliberate
//!   change the test prints the whole new text; it replaces the file.

use rev_bench::BenchOptions;
use rev_core::{RevConfig, RevSimulator, Session, SessionStatus, ValidationMode};

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/footprint_quick.txt");

/// Warmup and slice of `rev-serve`'s default job shape.
const WARMUP: u64 = 50_000;
const SLICE: u64 = 50_000;

#[test]
fn quick_build_images_hold_no_zero_page() {
    let opts = BenchOptions::parse(["--quick", "--quiet"]).expect("well-formed options");
    let profiles = opts.profiles();
    assert_eq!(profiles.len(), 18);
    for profile in profiles {
        let program = rev_workloads::generate(&profile);
        for seg in program.segments() {
            assert!(
                seg.bytes.is_empty() || seg.bytes.iter().any(|&b| b != 0),
                "{}: segment at {:#x} carries {} zero bytes",
                profile.name,
                seg.addr,
                seg.bytes.len()
            );
        }
        let stack = program.segments().into_iter().find(|s| s.addr == program.stack_base());
        let stack = stack.expect("the stack is a segment");
        assert!(stack.bytes.is_empty() && stack.end() == program.initial_sp(), "{}", profile.name);
        for mode in [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly]
        {
            let config = RevConfig::paper_default().with_mode(mode);
            let sim = RevSimulator::cached(program.clone(), config).expect("simulator builds");
            // A fresh simulator's views are its build image, unwritten.
            let image = sim.monitor().committed();
            assert!(image.resident_pages() > 0);
            assert_eq!(image.zero_pages(), 0, "{} {mode}: all-zero image pages", profile.name);
        }
    }
}

/// One line per quick profile: its memory's private pages, the stores in
/// flight and the envelope length, after a warmup and four slices.
fn park_footprint_text() -> String {
    let opts = BenchOptions::parse(["--quick", "--quiet"]).expect("well-formed options");
    let profiles = opts.profiles();
    let lines = rev_trace::parallel_map(2, &profiles, |_, profile| {
        let program = rev_workloads::generate(profile);
        let mut sim = RevSimulator::cached(program, RevConfig::paper_default()).expect("builds");
        sim.warmup(WARMUP);
        let mut session = Session::new(sim, u64::MAX);
        for _ in 0..4 {
            let status = session.run(SLICE);
            assert!(matches!(status, SessionStatus::Yielded { .. }), "{} ended", profile.name);
        }
        let sim = session.simulator();
        let memory = sim.monitor().committed();
        let envelope = session.checkpoint(profile.name.as_bytes()).expect("checkpoints");
        format!(
            "{:<10}  {:>13}  {:>8}  {:>9}\n",
            profile.name,
            memory.resident_pages() - memory.shared_pages(),
            sim.pipeline().oracle().mem().overlay().len(),
            envelope.len()
        )
    });
    let header = format!(
        "{:<10}  {:>13}  {:>8}  {:>9}\n",
        "profile", "private_pages", "overlay", "envelope"
    );
    std::iter::once(header).chain(lines).collect()
}

#[test]
fn parked_job_footprint_matches_the_committed_baseline() {
    let actual = park_footprint_text();
    let expected = std::fs::read_to_string(BASELINE).unwrap_or_default();
    assert!(
        actual == expected,
        "parked-job footprint differs from baselines/footprint_quick.txt; \
         if the change is deliberate, replace the file with this text:\n{actual}"
    );
}
