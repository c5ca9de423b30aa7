//! What one workload run hands back to the command line: attempted and
//! failed operations, end-to-end samples, per-layer values and notes.

use crate::stats::Counters;
use crate::trace::secs;
use rev_trace::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: name, unit. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
];

/// Per-layer metrics of the traced run: name, unit. A layer a workload
/// does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("prog.analyze_s", "s"),
    ("sigtable.build_s", "s"),
    ("sigtable.image_bytes", "bytes"),
    ("core.assemble_s", "s"),
    ("core.warmup_s", "s"),
    ("core.run_s", "s"),
    ("core.rev_ns_per_instr", "ns"),
    ("core.monitor_ns_per_instr", "ns"),
    ("core.fork_s", "s"),
    ("core.ckpt_encode_s", "s"),
    ("core.ckpt_bytes", "bytes"),
    ("core.ckpt_count", "count"),
    ("core.ckpt_restore_s", "s"),
    ("cpu.base_ns_per_instr", "ns"),
    ("bench.pool.program_s", "s"),
    ("bench.pool.table_s", "s"),
    ("bench.pool.warm_s", "s"),
    ("bench.pool.warm_hit_ratio", "ratio"),
    ("bench.worker_idle_frac", "ratio"),
    ("lint.audit_s", "s"),
    ("attacks.mount_s", "s"),
    ("trace.snapshot_render_s", "s"),
    ("serve.admit_s", "s"),
    ("serve.first_progress_s", "s"),
    ("serve.slice_interval_s", "s"),
    ("serve.verdict_tail_s", "s"),
    ("serve.gen_lag_s", "s"),
    ("trace.overhead_s", "s"),
    ("cpu.cycles_per_instr", "1/instr"),
    ("cpu.stall_validation_per_instr", "1/instr"),
    ("mem.l1_accesses_per_instr", "1/instr"),
    ("mem.sigfetch_accesses_per_instr", "1/instr"),
    ("mem.dram_accesses_per_kinstr", "1/kinstr"),
    ("rev.sc_probes_per_instr", "1/instr"),
    ("rev.sc_miss_rate", "ratio"),
    ("rev.digest_checks_per_instr", "1/instr"),
    ("rev.chg_lanes_per_instr", "1/instr"),
    ("rev.fill_touches_per_instr", "1/instr"),
    ("rev.bbcache_hit_ratio", "ratio"),
    ("rev.superblock_hit_ratio", "ratio"),
    ("count.runs", "count"),
    ("count.committed_instrs", "count"),
    ("count.cpu.cycles", "count"),
    ("count.cpu.stall_validation", "count"),
    ("count.mem.l1_accesses", "count"),
    ("count.mem.sigfetch_l1_accesses", "count"),
    ("count.mem.dram_accesses", "count"),
    ("count.rev.sc_probes", "count"),
    ("count.rev.sc_misses", "count"),
    ("count.rev.validations", "count"),
    ("count.rev.digest_checks", "count"),
    ("count.rev.chg_lanes", "count"),
    ("count.rev.fill_touches", "count"),
    ("count.rev.bbcache_hits", "count"),
    ("count.rev.bbcache_misses", "count"),
    ("count.rev.superblock_hits", "count"),
    ("unreached.perf.bbcache.invalidations", "count"),
    ("unreached.perf.superblock.flushes", "count"),
    ("unreached.rev.sag_refills", "count"),
    ("unreached.rev.shadow.pages_created", "count"),
    ("unreached.rev.shadow.stores_buffered", "count"),
    ("unreached.rev.shadow.pages_promoted", "count"),
    ("unreached.rev.shadow.pages_discarded", "count"),
    ("unreached.ckpt.restored", "count"),
];

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, work items, measured windows).
    pub attempted: u64,
    /// Operations that failed or whose output did not match its
    /// reference, with the reason.
    pub failures: Vec<String>,
    /// Set when the run cannot be trusted as a measurement (e.g. the
    /// open-loop generator ran late); its latencies are then withheld.
    pub invalid: Option<String>,
    /// End-to-end samples by metric name (the reported value is the
    /// median).
    pub e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values by metric name (traced runs only).
    pub layers: BTreeMap<String, Json>,
    /// Extra facts for the report line (digests, check results).
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Adds end-to-end samples.
    pub fn sample(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.e2e.entry(name).or_default().extend(values);
    }

    /// Sets a per-layer value in seconds (or any float).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), Json::Float(value));
    }

    /// Sets a per-layer integer.
    pub fn layer_int(&mut self, name: &str, value: u64) {
        self.layers.insert(name.to_string(), Json::Int(value as i64));
    }

    /// Sets the build-chain layers from the self times of the spans
    /// `trace::build_traced` records, plus warmup.
    pub fn build_layers(&mut self, own: &BTreeMap<&'static str, f64>) {
        self.layer("workloads.generate_s", secs(own, "workloads.generate"));
        self.layer("prog.analyze_s", secs(own, "prog.analyze"));
        // `linked_tables` analyses the program again before it builds.
        self.layer(
            "sigtable.build_s",
            (secs(own, "sigtable.linked_tables") - secs(own, "prog.analyze")).max(0.0),
        );
        self.layer("core.assemble_s", secs(own, "core.assemble"));
        self.layer("core.warmup_s", secs(own, "core.warmup"));
    }

    /// Sets the exact counters (`count.*`, `unreached.*`) and the ratios
    /// derived from them.
    pub fn counter_layers(&mut self, c: &Counters) {
        for (name, v) in c.integers() {
            self.layer_int(name, v);
        }
        for (name, v) in c.ratios() {
            self.layer(name, v);
        }
    }

    /// Adds an informational note to the report line.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }
}
