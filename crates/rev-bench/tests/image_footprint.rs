//! Pins what a simulator's build image holds: the loader writes only
//! real bytes. The stack (and any other zero-filled region) is a
//! segment's zero-fill length, not a vector of zeros, so no quick-scale
//! image materializes a page that only reads zero.

use rev_bench::BenchOptions;
use rev_core::{RevConfig, RevSimulator, ValidationMode};

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
