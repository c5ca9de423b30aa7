//! The `rev-serve` binary treats a malformed command line as a usage
//! error — exit status 2 with the usage text on stderr, never a panic —
//! and a `--listen` address it cannot bind as a plain failure (exit 1).

use std::net::TcpListener;
use std::process::{Command, Output};

fn rev_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rev-serve")).args(args).output().unwrap()
}

#[test]
fn malformed_arguments_exit_2_with_usage() {
    let cases: [&[&str]; 10] = [
        &["--workers"],
        &["--slice", "many"],
        &["--slice", "0"],
        &["--queue-cap", "-1"],
        &["--idle-timeout", "0"],
        &["--idle-timeout"],
        &["--chaos-panic", "j1"],
        &["--chaos-stall", "j1:soon"],
        &["--chaos-panic"],
        &["--bogus"],
    ];
    for args in cases {
        let out = rev_serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
        assert!(stderr.contains("usage: rev-serve"), "{args:?}: no usage text in {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: error must name the flag: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may be served before the usage error");
    }
}

#[test]
fn unbindable_listen_address_exits_1() {
    let taken = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let out = rev_serve(&["--listen", &addr]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr was {stderr}");
    assert!(stderr.contains("cannot bind"), "no bind message in {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
}
