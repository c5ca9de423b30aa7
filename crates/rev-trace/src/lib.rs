//! `rev-trace` — the observability layer of the REV simulator.
//!
//! The paper's whole evaluation (Figs. 8–12) is a story told in
//! counters: SC hit rates, CHG latency hiding, deferred-store occupancy,
//! validation stall cycles. This crate gives those counters one home and
//! three faces:
//!
//! * [`event`] — a zero-overhead-when-disabled **trace event bus**. Tap
//!   sites across `rev-cpu`, `rev-core`, and `rev-mem` emit cycle-stamped
//!   events ([`TraceEvent`]) into a shared ring buffer; when tracing is
//!   off (the default) each tap is a single branch and the payload is
//!   never constructed.
//! * [`metrics`] — a typed **metrics registry** ([`MetricRegistry`]:
//!   counters, gauges, log2-bucket histograms). Component stats structs
//!   implement [`MetricSink`] to project their hot-path fields into the
//!   registry under the names documented in `docs/METRICS.md`.
//! * [`snapshot`] — schema-versioned, deterministic **JSON baselines**
//!   ([`Snapshot`], rendered as `BENCH_rev.json`) and a regression
//!   [`compare`] used by the `rev-trace compare` subcommand and
//!   `scripts/check.sh`.
//! * [`ckpt`] — the **`rev-ckpt/1` binary checkpoint codec**
//!   ([`CkptWriter`] / [`CkptReader`]): a checksummed, schema-versioned
//!   envelope the simulator crates use to serialize suspended sessions
//!   (see `docs/CHECKPOINT.md`). Corruption is detected before a single
//!   field is parsed; a corrupt checkpoint can never be silently
//!   restored.
//! * [`fault`] — a deterministic, seeded **fault-injection substrate**
//!   ([`FaultInjector`]): the same null-handle pattern as the event bus,
//!   consulted at injection sites across the simulator layers and driven
//!   by `rev-chaos` campaigns (see `docs/FAULTS.md`).
//!
//! This crate is a dependency *leaf*: it knows nothing about the
//! simulator crates, which all depend on it. Event payload enums
//! ([`Verdict`], [`ProbeOutcome`]) therefore mirror — rather than
//! import — the simulator's types.

#![warn(missing_docs)]
// Library code states its invariants with `expect("invariant: …")`
// instead of a bare `unwrap`; unit tests may unwrap freely.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod ckpt;
pub mod event;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod snapshot;

pub use ckpt::{
    fnv1a64, Ckpt, CkptError, CkptFields, CkptReader, CkptWriter, CKPT_MAGIC, CKPT_SCHEMA,
    CKPT_VERSION,
};
pub use event::{EventKind, ProbeOutcome, TraceBus, TraceEvent, Verdict};
pub use fault::{FaultInjector, FaultKind, FaultLayer, FaultSpec, FAULT_LAYERS};
pub use json::Json;
pub use metrics::{Histogram, MetricRegistry, MetricSink, MetricValue, HISTOGRAM_BUCKETS};
pub use pool::{lock_unpoisoned, parallel_map};
pub use snapshot::{compare, AttackRecord, CompareReport, Snapshot, SCHEMA};
