//! # rev-serve — validation as a service
//!
//! A long-running gateway that accepts REV validation jobs over a
//! line-delimited JSON protocol (**`rev-serve/2`**, specified normatively
//! in `docs/SERVE.md`), runs them concurrently on a pool of suspendable
//! [`rev_core::Session`]s, and streams back progress events, `serve.*`
//! metrics and — per job — a verdict whose result payload is a
//! deterministic `rev-trace/1` measurement snapshot, byte-identical to
//! what the batch harness (`rev-bench`) produces for the same profile
//! and configuration.
//!
//! The gateway is *fault tolerant*: workers are supervised, a crashed
//! job resumes from its last `rev-ckpt/1` checkpoint with bounded retry
//! and backoff (without moving a verdict byte), corrupt checkpoints are
//! rejected fail-closed, per-job deadlines kill stuck jobs, the bounded
//! admission queue sheds overload, and a suspending shutdown drains
//! in-flight jobs to checkpoints. See the Fault tolerance section of
//! `docs/SERVE.md` and `docs/CHECKPOINT.md` for the contracts.
//!
//! The crate splits into:
//!
//! * [`proto`] — the typed wire messages ([`proto::Request`],
//!   [`proto::Response`]) with strict, versioned JSON serde;
//! * [`server`] — the scheduler: round-robin queue, supervised worker
//!   pool, per-job quotas, deadlines and cancellation, checkpoint-based
//!   crash recovery, [`server::serve`] as the one-connection entry
//!   point, [`server::ChaosPlan`] for injected service-layer faults.
//!
//! The binary (`src/main.rs`) wires [`server::serve`] to stdio (the
//! default, and what the smoke gates in `scripts/check.sh` drive) or to
//! a TCP listener via `--listen` (with `--idle-timeout` hardening).
//!
//! ```
//! use rev_serve::proto::{JobSpec, Request, Response};
//! use rev_serve::server::{serve, ServeOptions};
//!
//! let mut spec = JobSpec::new("demo", "mcf", 5_000);
//! spec.scale = 0.02; // shrink the static footprint for a doctest-sized run
//! let input = format!(
//!     "{}\n{}\n{}\n",
//!     Request::Hello { proto: rev_serve::proto::PROTOCOL.to_string() }.to_json().render(),
//!     Request::Submit(Box::new(spec)).to_json().render(),
//!     Request::Shutdown { suspend: false }.to_json().render(),
//! );
//! let mut output = Vec::new();
//! serve(input.as_bytes(), &mut output, &ServeOptions { workers: 1, ..Default::default() });
//! let lines: Vec<Response> = String::from_utf8(output)
//!     .unwrap()
//!     .lines()
//!     .map(|l| Response::from_json(&rev_trace::json::parse(l).unwrap()).unwrap())
//!     .collect();
//! assert!(lines.iter().any(|r| matches!(r, Response::Verdict { .. })));
//! assert!(matches!(lines.last(), Some(Response::Bye)));
//! ```

// A panic outside a supervised job would take the gateway down, so
// library code states its invariants with `expect("…")` instead of a
// bare `unwrap`; unit tests may unwrap freely.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod proto;
pub mod server;

pub use proto::{
    ErrorCode, JobConfig, JobSpec, ProtoError, Request, Response, MAX_LINE_BYTES, PROTOCOL,
};
pub use server::{serve, verdict_snapshot, ChaosPlan, ServeOptions};
