//! The `perf` binary treats a malformed command line as a usage error:
//! exit status 2 with the usage text on stderr, never a panic.

use std::process::Command;

#[test]
fn malformed_perf_arguments_exit_2_with_usage() {
    let cases: [&[&str]; 5] = [
        &["--band", "wide"],
        &["--quick", "--check"],
        &["--band"],
        &["--pool=off"],
        &["--superblocks=off"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_perf")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: no usage text in {stderr}");
        assert!(stderr.contains("--check BASELINE"), "{args:?}: no perf flags in {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the usage error");
    }
}
