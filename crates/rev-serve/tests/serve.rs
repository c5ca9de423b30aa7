//! End-to-end tests for the `rev-serve` gateway: protocol conversations
//! against the in-process [`serve`] loop, determinism across worker
//! counts, byte-identity of verdict payloads with the batch harness,
//! quota and cancellation semantics, the fault-tolerance contract
//! (crash recovery from checkpoints, fail-closed corrupt checkpoints,
//! deadlines, load shedding, suspending shutdown, oversized lines,
//! client disconnects, parser fuzzing) and a spawned-binary stdio smoke
//! test.

use rev_serve::proto::{
    ErrorCode, JobSpec, Request, Response, VerdictOutcome, MAX_LINE_BYTES, PROTOCOL, RESULT_SCHEMA,
};
use rev_serve::server::{serve, ServeOptions};
use std::collections::BTreeMap;

/// Runs one full protocol conversation in-process and parses every
/// response line back through the typed client-side parser.
fn converse(requests: &[Request], opts: &ServeOptions) -> Vec<Response> {
    let mut input = String::new();
    for r in requests {
        input.push_str(&r.to_json().render());
        input.push('\n');
    }
    let mut output = Vec::new();
    serve(input.as_bytes(), &mut output, opts);
    String::from_utf8(output)
        .expect("utf-8 output")
        .lines()
        .map(|line| {
            let v = rev_trace::json::parse(line).expect("each output line is JSON");
            Response::from_json(&v).expect("each output line is a typed response")
        })
        .collect()
}

fn opts(workers: usize) -> ServeOptions {
    // Zero backoff keeps the crash-recovery tests fast; everything else
    // is the production default.
    ServeOptions { workers, slice: 2_000, retry_backoff_ms: 0, ..ServeOptions::default() }
}

/// A job small enough for tests: scaled-down profile, short window.
fn tiny_job(id: &str, profile: &str, instructions: u64) -> JobSpec {
    let mut spec = JobSpec::new(id, profile, instructions);
    spec.scale = 0.05;
    spec.warmup = 2_000;
    spec
}

fn verdicts(responses: &[Response]) -> BTreeMap<String, (String, String)> {
    responses
        .iter()
        .filter_map(|r| match r {
            Response::Verdict { id, outcome, snapshot } => {
                Some((id.clone(), (outcome.as_str().to_string(), snapshot.render())))
            }
            _ => None,
        })
        .collect()
}

fn metric(responses: &[Response], name: &str) -> u64 {
    let Some(Response::Metrics { metrics }) =
        responses.iter().rev().find(|r| matches!(r, Response::Metrics { .. }))
    else {
        panic!("no metrics event in the conversation");
    };
    metrics.get(name).and_then(rev_trace::Json::as_u64).unwrap_or_else(|| {
        panic!("metrics event lacks {name}: {}", metrics.render());
    })
}

fn error_of(responses: &[Response], id: &str) -> (ErrorCode, String) {
    responses
        .iter()
        .find_map(|r| match r {
            Response::Error { id: Some(i), code, message, .. } if i == id => {
                Some((*code, message.clone()))
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected an error for {id:?}"))
}

#[test]
fn handshake_and_lifecycle() {
    let responses = converse(
        &[
            Request::Hello { proto: PROTOCOL.to_string() },
            Request::Submit(Box::new(tiny_job("j1", "mcf", 10_000))),
            Request::Shutdown { suspend: false },
        ],
        &opts(2),
    );
    let Response::Hello { proto, schema, workers, slice } = &responses[0] else {
        panic!("first response must answer the handshake, got {:?}", responses[0]);
    };
    assert_eq!(proto, PROTOCOL);
    assert_eq!(schema, RESULT_SCHEMA);
    assert_eq!((*workers, *slice), (2, 2_000));
    assert!(
        matches!(&responses[1], Response::Accepted { id, profile, target }
            if id == "j1" && profile == "mcf" && *target == 10_000),
        "submit must be acknowledged before any job event"
    );
    // With a 2k slice and a 10k target the job must yield progress.
    let progress: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Progress { id, committed, target } if id == "j1" => {
                assert_eq!(*target, 10_000);
                Some(*committed)
            }
            _ => None,
        })
        .collect();
    assert!(progress.len() >= 2, "expected multiple progress events, got {progress:?}");
    assert!(progress.windows(2).all(|w| w[0] < w[1]), "progress is monotone: {progress:?}");
    let verdicts = verdicts(&responses);
    assert_eq!(verdicts.len(), 1);
    assert_eq!(verdicts["j1"].0, "budget");
    // Shutdown epilogue: metrics, then bye, then nothing.
    assert!(matches!(responses[responses.len() - 2], Response::Metrics { .. }));
    assert!(matches!(responses[responses.len() - 1], Response::Bye));
    assert_eq!(metric(&responses, "serve.jobs.submitted"), 1);
    assert_eq!(metric(&responses, "serve.jobs.completed"), 1);
    assert!(metric(&responses, "serve.slices") >= 5);
    assert!(metric(&responses, "serve.instructions_committed") >= 10_000);
    // The default cadence seals a checkpoint at every yield.
    assert!(metric(&responses, "ckpt.taken") >= 2);
    assert_eq!(metric(&responses, "ckpt.corrupt"), 0);
}

/// The determinism contract: N concurrent jobs on 1 worker and on 4
/// workers produce the *same verdict payload bytes* per job — scheduling
/// interleave is an observability knob, never a measurement knob.
#[test]
fn verdicts_are_identical_across_worker_counts() {
    let jobs = [
        tiny_job("a", "mcf", 10_000),
        tiny_job("b", "gobmk", 10_000),
        tiny_job("c", "bzip2", 10_000),
    ];
    let run = |workers: usize| {
        let mut requests: Vec<Request> =
            jobs.iter().map(|j| Request::Submit(Box::new(j.clone()))).collect();
        requests.push(Request::Shutdown { suspend: false });
        verdicts(&converse(&requests, &opts(workers)))
    };
    let serial = run(1);
    let fanned = run(4);
    assert_eq!(serial.len(), 3, "all three jobs must produce verdicts");
    assert_eq!(serial, fanned, "worker count must never change a verdict payload byte");
}

/// A verdict's result payload is byte-identical to the registry the
/// batch harness (`rev-bench`) computes for the same profile, window and
/// configuration — the gateway and `BENCH_rev.json` can be diffed.
#[test]
fn verdict_payload_matches_batch_harness() {
    let job = tiny_job("j1", "mcf", 10_000);
    let responses = converse(
        &[Request::Submit(Box::new(job.clone())), Request::Shutdown { suspend: false }],
        &opts(2),
    );
    let (_, snapshot_bytes) = &verdicts(&responses)["j1"];

    // The batch-harness side, exactly as `snapshot_from_runs` builds it.
    let bench_opts = rev_bench::BenchOptions {
        instructions: job.instructions,
        warmup: job.warmup,
        scale: job.scale,
        quiet: true,
        ..rev_bench::BenchOptions::default()
    };
    let profile =
        rev_bench::BenchOptions { benches: vec![job.profile.clone()], ..bench_opts.clone() }
            .profiles()
            .remove(0);
    let report =
        rev_bench::run_rev_only(&profile, &bench_opts, rev_core::RevConfig::paper_default());

    let expected = rev_serve::verdict_snapshot(&job, &report).to_json().render();
    assert_eq!(
        snapshot_bytes, &expected,
        "gateway verdict payload must be byte-identical to the batch harness"
    );
    // And the registry inside really is the harness registry.
    let snap = rev_trace::Snapshot::parse(snapshot_bytes).expect("payload is rev-trace/1");
    let reg = &snap.profiles["mcf"]["rev"];
    assert!(reg.get("cpu.cycles").is_some() && reg.get("rev.validations").is_some());
}

/// A quota smaller than the target aborts the job with `quota-exceeded`
/// after committing no more than quota + one commit width.
#[test]
fn quota_exceeded_aborts_the_job() {
    let mut job = tiny_job("q1", "mcf", 50_000);
    job.quota = Some(5_000);
    let responses =
        converse(&[Request::Submit(Box::new(job)), Request::Shutdown { suspend: false }], &opts(1));
    let err = error_of(&responses, "q1");
    assert_eq!(err.0, ErrorCode::QuotaExceeded, "{}", err.1);
    assert!(verdicts(&responses).is_empty(), "no verdict for an aborted job");
    assert_eq!(metric(&responses, "serve.jobs.quota_exceeded"), 1);
    assert_eq!(metric(&responses, "serve.jobs.completed"), 0);
    // The scheduler clamps slices to the quota: committed stays within
    // one commit width of it.
    assert!(metric(&responses, "serve.instructions_committed") <= 5_000 + 4);
}

/// Cancelling a live job retires it with a `cancelled` event (no
/// verdict); cancelling an unknown id is an `unknown-job` error.
#[test]
fn cancellation_retires_the_job() {
    let responses = converse(
        &[
            Request::Submit(Box::new(tiny_job("c1", "mcf", 1_000_000))),
            Request::Cancel { id: "c1".to_string() },
            Request::Cancel { id: "ghost".to_string() },
            Request::Shutdown { suspend: false },
        ],
        &opts(1),
    );
    let cancelled = responses
        .iter()
        .find_map(|r| match r {
            Response::Cancelled { id, committed } if id == "c1" => Some(*committed),
            _ => None,
        })
        .expect("the job must be cancelled");
    assert!(cancelled < 1_000_000, "cancel must land before the target");
    assert!(verdicts(&responses).is_empty(), "no verdict for a cancelled job");
    assert!(
        responses.iter().any(|r| matches!(r, Response::Error { id: Some(id), code, .. }
            if id == "ghost" && *code == ErrorCode::UnknownJob)),
        "cancelling an unknown id must be an unknown-job error"
    );
    assert_eq!(metric(&responses, "serve.jobs.cancelled"), 1);
}

/// Synchronous submit rejections and protocol-level errors.
#[test]
fn rejections_are_classified() {
    let mut bad_config = tiny_job("bc", "mcf", 1_000);
    bad_config.config.sc_kib = 7; // does not imply a power-of-two set count
    let responses = converse(
        &[
            Request::Hello { proto: "rev-serve/99".to_string() },
            Request::Submit(Box::new(tiny_job("dup", "mcf", 2_000))),
            Request::Submit(Box::new(tiny_job("dup", "mcf", 2_000))),
            Request::Submit(Box::new(tiny_job("np", "no-such-profile", 1_000))),
            Request::Submit(Box::new(bad_config)),
            Request::Shutdown { suspend: false },
        ],
        &opts(1),
    );
    assert!(
        responses.iter().any(|r| matches!(r, Response::Error { id: None, code, .. }
            if *code == ErrorCode::UnsupportedProto)),
        "a foreign hello must be rejected"
    );
    assert_eq!(error_of(&responses, "dup").0, ErrorCode::DuplicateId);
    assert_eq!(error_of(&responses, "np").0, ErrorCode::UnknownProfile);
    assert_eq!(error_of(&responses, "bc").0, ErrorCode::BadConfig);
    assert_eq!(metric(&responses, "serve.jobs.rejected"), 3);
    // The first "dup" submit was legitimate and still completes.
    assert_eq!(verdicts(&responses)["dup"].0, "budget");
}

/// Malformed lines are answered with `bad-json` / `bad-request` and do
/// not kill the connection.
#[test]
fn malformed_lines_do_not_kill_the_connection() {
    let input = "{\"type\":\n{\"type\":\"warp\"}\n{\"type\":\"shutdown\"}\n";
    let mut output = Vec::new();
    serve(input.as_bytes(), &mut output, &opts(1));
    let text = String::from_utf8(output).unwrap();
    let responses: Vec<Response> = text
        .lines()
        .map(|l| Response::from_json(&rev_trace::json::parse(l).unwrap()).unwrap())
        .collect();
    assert!(matches!(&responses[0], Response::Error { code: ErrorCode::BadJson, .. }));
    assert!(matches!(&responses[1], Response::Error { code: ErrorCode::BadRequest, .. }));
    assert!(matches!(responses.last(), Some(Response::Bye)));
}

/// The real binary, over real pipes: spawn `rev-serve`, feed it the
/// conversation on stdin, and require verdicts byte-identical to the
/// in-process loop (process boundary changes nothing).
#[test]
fn stdio_binary_smoke() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    let requests = [
        Request::Hello { proto: PROTOCOL.to_string() },
        Request::Submit(Box::new(tiny_job("s1", "mcf", 10_000))),
        Request::Submit(Box::new(tiny_job("s2", "gobmk", 10_000))),
        Request::Shutdown { suspend: false },
    ];
    let mut input = String::new();
    for r in &requests {
        input.push_str(&r.to_json().render());
        input.push('\n');
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_rev-serve"))
        .args(["--workers", "2", "--slice", "2000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rev-serve");
    child.stdin.take().expect("stdin").write_all(input.as_bytes()).expect("feed requests");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "daemon must exit cleanly: {:?}", out.status);

    let responses: Vec<Response> = String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|l| Response::from_json(&rev_trace::json::parse(l).unwrap()).unwrap())
        .collect();
    let spawned = verdicts(&responses);
    let in_process = verdicts(&converse(&requests, &opts(2)));
    assert_eq!(spawned.len(), 2, "both jobs must produce verdicts");
    assert_eq!(spawned, in_process, "process boundary must not change a verdict byte");
    assert!(matches!(responses.last(), Some(Response::Bye)));
}

/// EOF without a `shutdown` drains exactly like a shutdown.
#[test]
fn eof_drains_like_shutdown() {
    let responses = converse(&[Request::Submit(Box::new(tiny_job("e1", "mcf", 5_000)))], &opts(2));
    assert_eq!(verdicts(&responses)["e1"].0, VerdictOutcome::Budget.as_str());
    assert!(matches!(responses.last(), Some(Response::Bye)));
}

// ---------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------

/// The crash-recovery contract: a worker panic mid-job is caught, the
/// job resumes from its last checkpoint, and the final verdict payload
/// is byte-identical to an undisturbed run — crashing is invisible in
/// the measurement.
#[test]
fn crashed_worker_resumes_from_checkpoint() {
    let requests = [
        Request::Submit(Box::new(tiny_job("k1", "mcf", 10_000))),
        Request::Shutdown { suspend: false },
    ];
    let clean = verdicts(&converse(&requests, &opts(1)));
    let mut faulty_opts = opts(1);
    // Panic at the entry of the job's second slice: one checkpoint (the
    // default cadence seals at every yield) already exists.
    faulty_opts.chaos.panics.push(("k1".to_string(), 1));
    let responses = converse(&requests, &faulty_opts);
    let faulty = verdicts(&responses);
    assert_eq!(faulty.len(), 1, "the crashed job must still produce its verdict");
    assert_eq!(faulty, clean, "crash recovery must not move a verdict payload byte");
    assert_eq!(metric(&responses, "serve.retries"), 1);
    assert_eq!(metric(&responses, "ckpt.restored"), 1);
    assert_eq!(metric(&responses, "serve.jobs.crashed"), 0);
    assert_eq!(metric(&responses, "serve.jobs.completed"), 1);
}

/// A crash before the first checkpoint retries from scratch (full
/// rebuild including warmup) — still byte-identical.
#[test]
fn crash_without_checkpoint_retries_from_scratch() {
    let requests = [
        Request::Submit(Box::new(tiny_job("k2", "mcf", 10_000))),
        Request::Shutdown { suspend: false },
    ];
    let clean = verdicts(&converse(&requests, &opts(1)));
    let mut faulty_opts = opts(1);
    faulty_opts.ckpt_every = 0; // checkpointing disabled
    faulty_opts.chaos.panics.push(("k2".to_string(), 1));
    let responses = converse(&requests, &faulty_opts);
    assert_eq!(verdicts(&responses), clean, "scratch retry must reproduce the verdict");
    assert_eq!(metric(&responses, "serve.retries"), 1);
    assert_eq!(metric(&responses, "ckpt.restored"), 0);
    assert_eq!(metric(&responses, "ckpt.taken"), 0);
}

/// An exhausted retry budget retires the job with a structured
/// `crashed` error carrying the panic payload — never a daemon death.
#[test]
fn exhausted_retries_retire_with_crashed() {
    let mut faulty_opts = opts(1);
    faulty_opts.max_retries = 0;
    faulty_opts.chaos.panics.push(("k3".to_string(), 1));
    let responses = converse(
        &[
            Request::Submit(Box::new(tiny_job("k3", "mcf", 10_000))),
            Request::Shutdown { suspend: false },
        ],
        &faulty_opts,
    );
    let (code, message) = error_of(&responses, "k3");
    assert_eq!(code, ErrorCode::Crashed, "{message}");
    assert!(message.contains("chaos"), "the panic payload must surface: {message}");
    assert!(verdicts(&responses).is_empty(), "no verdict for a crashed job");
    assert_eq!(metric(&responses, "serve.jobs.crashed"), 1);
    assert!(matches!(responses.last(), Some(Response::Bye)), "the daemon drains cleanly");
}

/// The fail-closed contract: a corrupted checkpoint is detected by the
/// envelope checksum and the job is retired with `ckpt-corrupt` — the
/// daemon never resumes from corrupt state and never emits a verdict
/// computed from it.
#[test]
fn corrupted_checkpoint_is_detected_never_restored() {
    let mut faulty_opts = opts(1);
    faulty_opts.chaos.panics.push(("x1".to_string(), 1));
    faulty_opts.chaos.corrupt_ckpt.push("x1".to_string());
    let responses = converse(
        &[
            Request::Submit(Box::new(tiny_job("x1", "mcf", 10_000))),
            Request::Shutdown { suspend: false },
        ],
        &faulty_opts,
    );
    let (code, message) = error_of(&responses, "x1");
    assert_eq!(code, ErrorCode::CkptCorrupt, "{message}");
    assert!(verdicts(&responses).is_empty(), "a corrupt checkpoint must never yield a verdict");
    assert_eq!(metric(&responses, "ckpt.corrupt"), 1);
    assert_eq!(metric(&responses, "ckpt.restored"), 0);
    assert_eq!(metric(&responses, "serve.jobs.completed"), 0);
}

/// A wall-clock deadline kills a stuck job (here: stalled by chaos) at
/// its next scheduling point with a structured `deadline` error.
#[test]
fn deadline_kills_stuck_jobs() {
    let mut job = tiny_job("d1", "mcf", 1_000_000);
    job.deadline_ms = Some(1);
    let mut stall_opts = opts(1);
    stall_opts.chaos.stall_ms.push(("d1".to_string(), 30));
    let responses = converse(
        &[Request::Submit(Box::new(job)), Request::Shutdown { suspend: false }],
        &stall_opts,
    );
    let (code, message) = error_of(&responses, "d1");
    assert_eq!(code, ErrorCode::Deadline, "{message}");
    assert!(verdicts(&responses).is_empty(), "no verdict for a deadlined job");
    assert_eq!(metric(&responses, "serve.jobs.deadline"), 1);
}

/// The bounded admission queue sheds overload: past `queue_cap` live
/// jobs, submits are rejected with `overloaded` + a `retry_after_ms`
/// hint, and the daemon keeps serving.
#[test]
fn overloaded_queue_sheds_submits() {
    let mut capped = opts(1);
    capped.queue_cap = 1;
    let responses = converse(
        &[
            Request::Submit(Box::new(tiny_job("o1", "mcf", 1_000_000))),
            Request::Submit(Box::new(tiny_job("o2", "mcf", 10_000))),
            Request::Cancel { id: "o1".to_string() },
            Request::Shutdown { suspend: false },
        ],
        &capped,
    );
    let shed = responses
        .iter()
        .find_map(|r| match r {
            Response::Error { id: Some(id), code, retry_after_ms, .. } if id == "o2" => {
                Some((*code, *retry_after_ms))
            }
            _ => None,
        })
        .expect("the second submit must be shed");
    assert_eq!(shed.0, ErrorCode::Overloaded);
    assert!(shed.1.is_some(), "an overloaded rejection carries a retry hint");
    assert_eq!(metric(&responses, "serve.jobs.shed"), 1);
    assert_eq!(metric(&responses, "serve.jobs.submitted"), 1, "o2 was never admitted");
}

/// A suspending shutdown drains the in-flight job to a checkpoint and a
/// `suspended` event instead of running it to its verdict.
#[test]
fn suspending_shutdown_drains_to_checkpoints() {
    let responses = converse(
        &[
            Request::Submit(Box::new(tiny_job("z1", "mcf", 1_000_000))),
            Request::Shutdown { suspend: true },
        ],
        &opts(1),
    );
    let (committed, ckpt_bytes) = responses
        .iter()
        .find_map(|r| match r {
            Response::Suspended { id, committed, target, ckpt_bytes } if id == "z1" => {
                assert_eq!(*target, 1_000_000);
                Some((*committed, *ckpt_bytes))
            }
            _ => None,
        })
        .expect("the in-flight job must be suspended");
    assert!(committed < 1_000_000, "suspension lands before the target");
    // The suspend may race the job's first slice: once any progress was
    // made, a sealed envelope must be reported.
    if committed > 0 {
        assert!(ckpt_bytes > 0, "a progressed job suspends to a sealed envelope");
    }
    assert!(verdicts(&responses).is_empty(), "no verdict under a suspending shutdown");
    assert_eq!(metric(&responses, "serve.jobs.suspended"), 1);
    assert!(matches!(responses.last(), Some(Response::Bye)));
}

/// Input-boundary hardening: a line longer than [`MAX_LINE_BYTES`] is
/// rejected with `bad-request` without buffering it, and the reader
/// resynchronizes at the next newline — later requests still work.
#[test]
fn oversized_lines_are_rejected_and_resynchronized() {
    let mut input = String::new();
    input.push_str(&Request::Hello { proto: PROTOCOL.to_string() }.to_json().render());
    input.push('\n');
    input.push_str(&"x".repeat(MAX_LINE_BYTES + 5_000));
    input.push('\n');
    input.push_str(&Request::Submit(Box::new(tiny_job("v1", "mcf", 5_000))).to_json().render());
    input.push('\n');
    input.push_str(&Request::Shutdown { suspend: false }.to_json().render());
    input.push('\n');
    let mut output = Vec::new();
    serve(input.as_bytes(), &mut output, &opts(1));
    let responses: Vec<Response> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| Response::from_json(&rev_trace::json::parse(l).unwrap()).unwrap())
        .collect();
    assert!(matches!(&responses[0], Response::Hello { .. }));
    assert!(
        responses.iter().any(|r| matches!(r, Response::Error { id: None, code, message, .. }
            if *code == ErrorCode::BadRequest && message.contains("exceeds"))),
        "the oversized line must be rejected"
    );
    assert_eq!(verdicts(&responses)["v1"].0, "budget", "the connection must survive");
    assert!(matches!(responses.last(), Some(Response::Bye)));
}

/// Fuzz-style parser robustness: random byte mutations of canonical
/// request lines never panic the parser — every input is answered with
/// `Ok` or a structured `ProtoError`.
#[test]
fn mutated_request_lines_never_panic_the_parser() {
    let canonical: Vec<String> = [
        Request::Hello { proto: PROTOCOL.to_string() },
        Request::Submit(Box::new(tiny_job("f1", "mcf", 10_000))),
        Request::Cancel { id: "f1".to_string() },
        Request::Status,
        Request::Shutdown { suspend: true },
    ]
    .iter()
    .map(|r| r.to_json().render())
    .collect();
    // Deterministic xorshift64, same idiom as the chaos campaigns.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..2_000 {
        let mut bytes = canonical[round % canonical.len()].clone().into_bytes();
        // 1-4 mutations: overwrite, bit-flip, truncate or duplicate.
        for _ in 0..=(next() % 4) {
            if bytes.is_empty() {
                break;
            }
            let pos = (next() % bytes.len() as u64) as usize;
            match next() % 4 {
                0 => bytes[pos] = (next() & 0xFF) as u8,
                1 => bytes[pos] ^= 1 << (next() % 8),
                2 => bytes.truncate(pos),
                _ => {
                    let byte = bytes[pos];
                    bytes.insert(pos, byte);
                }
            }
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        // The contract under fuzzing is "no panic"; the result value is
        // free to be either a parse or a structured rejection.
        let _ = Request::parse_line(&line);
    }
}

/// A writer that dies after a fixed byte budget — a client that
/// disconnects while the daemon is streaming verdicts.
struct DyingWriter {
    budget: usize,
}

impl std::io::Write for DyingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "client gone"));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A client disconnect mid-stream never panics the daemon or wedges a
/// worker: the drain completes and `serve` returns.
#[test]
fn client_disconnect_mid_stream_drains_cleanly() {
    let mut input = String::new();
    for r in [
        Request::Hello { proto: PROTOCOL.to_string() },
        Request::Submit(Box::new(tiny_job("g1", "mcf", 10_000))),
        Request::Submit(Box::new(tiny_job("g2", "gobmk", 10_000))),
        Request::Shutdown { suspend: false },
    ] {
        input.push_str(&r.to_json().render());
        input.push('\n');
    }
    // Enough budget for the hello + an accepted, then the pipe breaks.
    serve(input.as_bytes(), DyingWriter { budget: 200 }, &opts(2));
    // Reaching this line is the assertion: no panic, no deadlock.
}
