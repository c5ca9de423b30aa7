//! Small measurement helpers: quantiles, peak memory, exact counters, the
//! seeded generator and the host fingerprint.

use rev_core::RevReport;
use rev_mem::Requester;
use rev_trace::Json;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A sample summarised as median, quartiles and count (the spread that
/// travels with every end-to-end metric in the report line).
pub fn spread(values: &[f64]) -> Json {
    Json::obj(vec![
        ("median", Json::Float(median(values))),
        ("q1", Json::Float(quantile(values, 0.25))),
        ("q3", Json::Float(quantile(values, 0.75))),
        ("n", Json::Int(values.len() as i64)),
    ])
}

/// splitmix64: the only source of randomness in the generated inputs.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Who measured: CPU model, available parallelism and compiler. Timings
/// are only comparable between runs with the same fingerprint.
pub fn host_fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        ("cpu_model", Json::Str(model)),
        ("nproc", Json::Int(nproc as i64)),
        ("rustc", Json::Str(rustc)),
    ])
}

/// Exact simulated work, summed over REV runs. Every field is a pure
/// function of the simulated inputs: a change that only speeds up the
/// host must leave all of them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub runs: u64,
    pub committed: u64,
    pub cycles: u64,
    pub stall_validation: u64,
    pub l1_accesses: u64,
    pub sigfetch_l1_accesses: u64,
    pub dram_accesses: u64,
    pub sc_probes: u64,
    pub sc_misses: u64,
    pub validations: u64,
    pub digest_checks: u64,
    pub chg_lanes: u64,
    pub fill_touches: u64,
    pub bbcache_hits: u64,
    pub bbcache_misses: u64,
    pub bbcache_invalidations: u64,
    pub sb_hits: u64,
    pub sb_flushes: u64,
    pub sag_refills: u64,
    pub shadow_pages_created: u64,
    pub shadow_stores_buffered: u64,
    pub shadow_pages_promoted: u64,
    pub shadow_pages_discarded: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counters {
    /// Adds one REV run's report.
    pub fn add(&mut self, r: &RevReport) {
        let m = &r.mem;
        self.runs += 1;
        self.committed += r.cpu.committed_instrs;
        self.cycles += r.cpu.cycles;
        self.stall_validation += r.cpu.validation_stall_cycles;
        self.l1_accesses += m.l1_accesses.iter().sum::<u64>();
        self.sigfetch_l1_accesses += m.l1_accesses[Requester::SigFetch.idx()];
        self.dram_accesses += m.dram_accesses.iter().sum::<u64>();
        self.sc_probes += r.rev.sc.probes();
        self.sc_misses += r.rev.sc.misses();
        self.validations += r.rev.validations;
        self.digest_checks += r.rev.digest_checks;
        self.chg_lanes += r.rev.chg_lanes;
        self.fill_touches += r.rev.fill_touches;
        self.bbcache_hits += r.rev.bb_cache_hits;
        self.bbcache_misses += r.rev.bb_cache_misses;
        self.bbcache_invalidations += r.rev.bb_cache_invalidations;
        self.sb_hits += r.rev.sb_hits;
        self.sb_flushes += r.rev.sb_flushes;
        self.sag_refills += r.rev.sag_refills;
        self.shadow_pages_created += r.rev.shadow.pages_created;
        self.shadow_stores_buffered += r.rev.shadow.stores_buffered;
        self.shadow_pages_promoted += r.rev.shadow.pages_promoted;
        self.shadow_pages_discarded += r.rev.shadow.pages_discarded;
    }

    /// The raw integers, by name (`count.*`), in a fixed order.
    pub fn integers(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("count.runs", self.runs),
            ("count.committed_instrs", self.committed),
            ("count.cpu.cycles", self.cycles),
            ("count.cpu.stall_validation", self.stall_validation),
            ("count.mem.l1_accesses", self.l1_accesses),
            ("count.mem.sigfetch_l1_accesses", self.sigfetch_l1_accesses),
            ("count.mem.dram_accesses", self.dram_accesses),
            ("count.rev.sc_probes", self.sc_probes),
            ("count.rev.sc_misses", self.sc_misses),
            ("count.rev.validations", self.validations),
            ("count.rev.digest_checks", self.digest_checks),
            ("count.rev.chg_lanes", self.chg_lanes),
            ("count.rev.fill_touches", self.fill_touches),
            ("count.rev.bbcache_hits", self.bbcache_hits),
            ("count.rev.bbcache_misses", self.bbcache_misses),
            ("count.rev.superblock_hits", self.sb_hits),
            ("unreached.perf.bbcache.invalidations", self.bbcache_invalidations),
            ("unreached.perf.superblock.flushes", self.sb_flushes),
            ("unreached.rev.sag_refills", self.sag_refills),
            ("unreached.rev.shadow.pages_created", self.shadow_pages_created),
            ("unreached.rev.shadow.stores_buffered", self.shadow_stores_buffered),
            ("unreached.rev.shadow.pages_promoted", self.shadow_pages_promoted),
            ("unreached.rev.shadow.pages_discarded", self.shadow_pages_discarded),
        ]
    }

    /// The per-committed-instruction ratios derived from the integers.
    pub fn ratios(&self) -> Vec<(&'static str, f64)> {
        let c = self.committed;
        vec![
            ("cpu.cycles_per_instr", ratio(self.cycles, c)),
            ("cpu.stall_validation_per_instr", ratio(self.stall_validation, c)),
            ("mem.l1_accesses_per_instr", ratio(self.l1_accesses, c)),
            ("mem.sigfetch_accesses_per_instr", ratio(self.sigfetch_l1_accesses, c)),
            ("mem.dram_accesses_per_kinstr", 1000.0 * ratio(self.dram_accesses, c)),
            ("rev.sc_probes_per_instr", ratio(self.sc_probes, c)),
            ("rev.sc_miss_rate", ratio(self.sc_misses, self.sc_probes)),
            ("rev.digest_checks_per_instr", ratio(self.digest_checks, c)),
            ("rev.chg_lanes_per_instr", ratio(self.chg_lanes, c)),
            ("rev.fill_touches_per_instr", ratio(self.fill_touches, c)),
            (
                "rev.bbcache_hit_ratio",
                ratio(self.bbcache_hits, self.bbcache_hits + self.bbcache_misses),
            ),
            ("rev.superblock_hit_ratio", ratio(self.sb_hits, self.validations)),
        ]
    }

    /// A stable digest of every integer (FNV-1a-64 over `name=value;`).
    pub fn digest(&self) -> String {
        let text: String = self.integers().iter().map(|(name, v)| format!("{name}={v};")).collect();
        format!("{:016x}", rev_trace::fnv1a64(text.as_bytes()))
    }
}
