//! `reproduce_all`'s command line: a bad `--only` or a malformed shared
//! flag is a usage error, and a section that simulates nothing runs no
//! sweep.

use std::process::Command;

#[test]
fn malformed_arguments_exit_2_with_the_usage_and_valid_ids() {
    let cases: [&[&str]; 7] = [
        &["--only", "fig13"],
        &["--only"],
        &["--only", "fig7_overhead", "--only", "nope"],
        // Retired flags and malformed shared flags.
        &["--pool=off"],
        &["--superblocks=off"],
        &["--jobs", "many"],
        &["--instructions"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: no usage text in {stderr}");
        for id in ["table1_attacks", "fig7_overhead", "ablation_containment"] {
            assert!(stderr.contains(id), "{args:?}: '{id}' not listed in {stderr}");
        }
        assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the usage error");
    }
}

/// Table 2 renders without a sweep, and an `--only` run without
/// `--json` leaves no snapshot behind.
#[test]
fn table2_renders_without_a_sweep_or_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("rev-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(["--quick", "--only", "table2_config"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr was {stderr}");
    assert!(stdout.starts_with("=== Table 2"), "{stdout}");
    assert!(stdout.contains("ROB size                : 128"), "{stdout}");
    assert!(!stderr.contains("[sweep"), "a configuration-free section swept: {stderr}");
    assert!(!dir.join("BENCH_rev.json").exists(), "an --only run wrote the default snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}
