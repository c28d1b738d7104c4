//! The repository benchmark: three workloads measured on both clocks.
//!
//! A run sets a workload up several times (`setup_s` is the median), then
//! repeats the workload's measured calls for at least the requested
//! number of seconds (`host_s` is the median pass), checks the first
//! pass's results, and derives the simulated-clock metrics from it. The
//! simulated-clock metrics are a pure function of the seed; every later
//! pass must reproduce the first one exactly.
//!
//! A traced run alternates untraced and traced passes, keeps the spans
//! the benchmark records around its own calls, and reports the per-layer
//! metrics plus the tracing overhead (median traced pass minus median
//! untraced pass).

pub mod paper_joins;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod traffic;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hcj_engines::PlannedStrategy;
use hcj_gpu::CounterRollup;

use crate::stats::median;
use crate::trace::{Span, Tracer};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper-joins", "serve-cache", "fleet-exchange"];

/// End-to-end metrics: name and unit, in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_throughput_btps", "Gtuples/s"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_p99_ms", "ms"),
    ("sim_throughput_rps", "req/s"),
    ("host_s", "s"),
    ("setup_s", "s"),
    ("correct_share", "ratio"),
    ("host_peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit, in print order. Every workload
/// prints all of them; a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("workload.generate_s", "s"),
    ("workload.oracle_s", "s"),
    ("workload.oracle_ns_per_tuple", "ns"),
    ("planner.resident_share", "ratio"),
    ("planner.streamed_share", "ratio"),
    ("planner.coproc_share", "ratio"),
    ("planner.cross_device_share", "ratio"),
    ("planner.kept_ratio", "ratio"),
    ("core.resident_host_s", "s"),
    ("core.streamed_host_s", "s"),
    ("core.coproc_host_s", "s"),
    ("core.host_ns_per_tuple", "ns"),
    ("core.partition_sim_s", "s"),
    ("core.join_sim_s", "s"),
    ("gpu.h2d_sim_s", "s"),
    ("gpu.d2h_sim_s", "s"),
    ("gpu.kernel_launches", "count"),
    ("gpu.pcie_transfers", "count"),
    ("gpu.h2d_bytes", "B"),
    ("gpu.d2h_bytes", "B"),
    ("gpu.device_bytes", "B"),
    ("gpu.coalescing_efficiency", "ratio"),
    ("cpu.partition_sim_s", "s"),
    ("host.staging_sim_s", "s"),
    ("host.jobs", "count"),
    ("sim.spans", "count"),
    ("sim.host_us_per_span", "us"),
    ("sim.validate_s", "s"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.exec_p50_ms", "ms"),
    ("service.exec_p99_ms", "ms"),
    ("service.admission_retries", "count"),
    ("service.degraded_share", "ratio"),
    ("service.backpressured", "count"),
    ("service.device_peak_frac", "ratio"),
    ("service.deadline_misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.reclaims", "count"),
    ("cache.invalidations", "count"),
    ("dag.plan_ops", "count"),
    ("dag.pinned_ratio", "ratio"),
    ("dag.plan_latency_p50_ms", "ms"),
    ("fleet.admit_imbalance", "ratio"),
    ("fleet.rerouted", "count"),
    ("fleet.cpu_spilled", "count"),
    ("fleet.breaker_trips", "count"),
    ("exchange.requests", "count"),
    ("exchange.shuffle_bytes", "B"),
    ("exchange.admit_ratio", "ratio"),
    ("bench.trace_overhead_s", "s"),
];

/// Set-up is timed in batches. A batch repeats the set-up until it has
/// taken [`SETUP_BATCH`] and contributes the mean of its set-ups; batches
/// run until [`SETUP_BUDGET`] is spent, at least [`MIN_SETUP_BATCHES`] of
/// them. `setup_s` is the median batch, so a sub-millisecond set-up is
/// timed over the whole budget rather than a handful of samples.
const MIN_SETUP_BATCHES: usize = 3;
const SETUP_BATCH: Duration = Duration::from_millis(50);
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Workload size: `Full` is the benchmark, `Small` a shrunken copy for the
/// benchmark's own test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workloads.
    Full,
    /// Every workload shrunk to run in a test.
    Small,
}

/// What the correctness gate found in one pass's results.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Joins or requests attempted.
    pub attempted: usize,
    /// Those that did not finish oracle-correct: typed errors and missed
    /// deadlines. Counted, not fatal.
    pub failed: usize,
    /// Wrong results and broken invariants. Any entry fails the run.
    pub wrong: Vec<String>,
    /// Context for the failures.
    pub notes: Vec<String>,
}

impl Verdict {
    /// An empty verdict over `attempted` joins or requests.
    pub fn new(attempted: usize) -> Self {
        Verdict { attempted, ..Verdict::default() }
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// The generated inputs and the constructed engine or service.
    type Inputs;
    /// What one pass of the measured calls returns.
    type Output;

    /// The workload's name, as `--workload` takes it.
    fn name(&self) -> &'static str;
    /// Generate the inputs and construct the engine or service.
    fn setup(&self, seed: u64, tr: &mut Tracer, parent: u64) -> Self::Inputs;
    /// Run the measured calls once; returns their output and the host
    /// seconds spent inside them.
    fn pass(&self, inputs: &Self::Inputs, tr: &mut Tracer, parent: u64) -> (Self::Output, f64);
    /// A digest of the simulated results every pass must reproduce.
    fn fingerprint(&self, out: &Self::Output) -> String;
    /// The correctness gate.
    fn verify(
        &self,
        inputs: &Self::Inputs,
        out: &Self::Output,
        tr: &mut Tracer,
        parent: u64,
    ) -> Verdict;
    /// Simulated-clock end-to-end metrics: `(name, value, samples)`.
    fn end_to_end(
        &self,
        inputs: &Self::Inputs,
        out: &Self::Output,
    ) -> Vec<(&'static str, f64, usize)>;
    /// Per-layer metrics from the results and the traced spans.
    fn per_layer(&self, inputs: &Self::Inputs, out: &Self::Output, layers: &mut Layers);
}

/// A measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`END_TO_END`] and [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// Per-layer values being collected, plus the spans they come from.
pub struct Layers<'a> {
    values: BTreeMap<&'static str, f64>,
    spans: &'a [Span],
    traced_passes: Vec<u64>,
}

impl Layers<'_> {
    /// Record `name`; it must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Summed seconds of every kept span called `name`.
    pub fn span_seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).sum()
    }

    /// Spans called `name` directly under a traced pass.
    pub fn pass_spans<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| {
            s.name == name && s.parent.is_some_and(|p| self.traced_passes.contains(&p))
        })
    }

    /// Number of traced passes.
    pub fn traced_passes(&self) -> usize {
        self.traced_passes.len()
    }

    /// Share of each strategy among the `executed` strategies.
    pub fn planner_shares(&mut self, executed: &[PlannedStrategy]) {
        let share = |pred: fn(&PlannedStrategy) -> bool| {
            executed.iter().filter(|s| pred(s)).count() as f64 / executed.len().max(1) as f64
        };
        self.set("planner.resident_share", share(|s| *s == PlannedStrategy::GpuResident));
        self.set("planner.streamed_share", share(|s| *s == PlannedStrategy::StreamedProbe));
        self.set("planner.coproc_share", share(|s| *s == PlannedStrategy::CoProcessing));
        self.set(
            "planner.cross_device_share",
            share(|s| matches!(s, PlannedStrategy::CrossDevice(_))),
        );
    }

    /// The simulated hardware counters.
    pub fn counters(&mut self, c: &CounterRollup) {
        self.set("gpu.kernel_launches", c.kernel_launches as f64);
        self.set("gpu.pcie_transfers", c.transfers as f64);
        self.set("gpu.h2d_bytes", c.h2d_bytes as f64);
        self.set("gpu.d2h_bytes", c.d2h_bytes as f64);
        self.set("gpu.device_bytes", c.device_bytes as f64);
        self.set("gpu.coalescing_efficiency", c.coalescing_efficiency());
    }
}

/// What to run.
#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Minimum measured seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// Everything one run found.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Host pool workers the run used.
    pub jobs: usize,
    /// Untraced and traced measured passes.
    pub passes: (usize, usize),
    /// The correctness gate's verdict on the first pass.
    pub verdict: Verdict,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics in [`PER_LAYER`] order; empty when untraced.
    pub per_layer: Vec<Metric>,
    /// The kept spans as JSON; `None` when untraced.
    pub spans_json: Option<String>,
}

/// Run one workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    use crate::serving::{Kind, Serving};
    match opts.workload.as_str() {
        "paper-joins" => Ok(drive(&paper_joins::PaperJoins::new(opts.size), opts)),
        "serve-cache" => Ok(drive(&Serving::new(Kind::ServeCache, opts.size), opts)),
        "fleet-exchange" => Ok(drive(&Serving::new(Kind::FleetExchange, opts.size), opts)),
        other => Err(format!("unknown workload `{other}` (known: {})", WORKLOADS.join(", "))),
    }
}

fn drive<W: Workload>(w: &W, opts: &Opts) -> Report {
    let mut tr = Tracer::new(opts.trace);

    // Set-up, repeated in batches; the last inputs are the ones measured.
    // A traced run keeps the spans of each batch's first set-up only.
    let mut setup_times = Vec::new();
    let mut setup_ids = Vec::new();
    let mut setups = 0;
    let mut inputs = None;
    let started = Instant::now();
    while setup_times.len() < MIN_SETUP_BATCHES || started.elapsed() < SETUP_BUDGET {
        let batch = Instant::now();
        let (mut seconds, mut count) = (0.0, 0);
        while count == 0 || batch.elapsed() < SETUP_BATCH {
            drop(inputs.take());
            tr.set_keep(opts.trace && count == 0);
            let open = tr.open();
            let made = w.setup(opts.seed, &mut tr, open.id());
            seconds += tr.close(open, "setup", None, setups, "");
            if count == 0 {
                setup_ids.push(open.id());
            }
            count += 1;
            setups += 1;
            inputs = Some(made);
        }
        setup_times.push(seconds / count as f64);
    }
    let inputs = inputs.expect("at least one set-up");

    // Measured passes. A traced run alternates untraced and traced ones.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut traced_ids = Vec::new();
    let mut first: Option<(W::Output, String)> = None;
    let mut wrong = Vec::new();
    let started = Instant::now();
    for pass in 0.. {
        let keep = opts.trace && pass % 2 == 1;
        tr.set_keep(keep);
        let open = tr.open();
        let (out, host) = w.pass(&inputs, &mut tr, open.id());
        tr.close(open, "pass", None, pass, if keep { "traced" } else { "untraced" });
        if keep {
            traced.push(host);
            traced_ids.push(open.id());
        } else {
            untraced.push(host);
        }
        match &first {
            None => {
                let fingerprint = w.fingerprint(&out);
                first = Some((out, fingerprint));
            }
            Some((_, fingerprint)) => {
                if w.fingerprint(&out) != *fingerprint {
                    wrong.push(format!("pass {pass} simulated a different result than pass 0"));
                }
            }
        }
        let enough = !untraced.is_empty() && (!opts.trace || !traced.is_empty());
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let (out, _) = first.expect("at least one pass");
    tr.set_keep(opts.trace);

    let open = tr.open();
    let mut verdict = w.verify(&inputs, &out, &mut tr, open.id());
    tr.close(open, "verify", None, 0, "");
    verdict.wrong.extend(wrong);

    let rss = peak_rss_mib().unwrap_or_else(|| {
        verdict.wrong.push("cannot read the peak resident set".into());
        0.0
    });
    let attempted = verdict.attempted;
    let correct = attempted.saturating_sub(verdict.failed) as f64 / attempted.max(1) as f64;
    let mut values: Vec<(&str, f64, usize)> = w.end_to_end(&inputs, &out);
    values.push(("host_s", median(&untraced), untraced.len()));
    values.push(("setup_s", median(&setup_times), setup_times.len()));
    values.push(("correct_share", correct, attempted));
    values.push(("host_peak_rss_mb", rss, 1));
    let end_to_end = collect(&END_TO_END, &values, &mut verdict.wrong);

    let jobs = hcj_host::pool::jobs();
    let per_layer = if opts.trace {
        let spans = tr.spans();
        let generate: Vec<f64> = setup_ids
            .iter()
            .map(|id| {
                spans
                    .iter()
                    .filter(|s| s.name == "workload.generate" && s.parent == Some(*id))
                    .map(Span::seconds)
                    .sum()
            })
            .collect();
        let mut layers = Layers { values: BTreeMap::new(), spans, traced_passes: traced_ids };
        w.per_layer(&inputs, &out, &mut layers);
        layers.set("workload.generate_s", median(&generate));
        layers.set("host.jobs", jobs as f64);
        layers.set("bench.trace_overhead_s", median(&traced) - median(&untraced));
        let values: Vec<(&str, f64, usize)> =
            layers.values.iter().map(|(name, value)| (*name, *value, 1)).collect();
        collect(&PER_LAYER, &values, &mut verdict.wrong)
    } else {
        Vec::new()
    };
    Report {
        workload: w.name(),
        seed: opts.seed,
        jobs,
        passes: (untraced.len(), traced.len()),
        verdict,
        end_to_end,
        per_layer,
        spans_json: opts.trace.then(|| tr.to_json()),
    }
}

/// Order `values` by `table`, filling a metric the workload did not set
/// with 0. A non-finite value is a benchmark fault.
fn collect(
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64, usize)],
    wrong: &mut Vec<String>,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) =
                values.iter().find(|v| v.0 == name).map_or((0.0, 0), |v| (v.1, v.2));
            if !value.is_finite() {
                wrong.push(format!("metric {name} is not finite ({value})"));
            }
            Metric { name, unit, value: if value.is_finite() { value } else { 0.0 }, samples }
        })
        .collect()
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

impl Report {
    /// True when the correctness gate found nothing wrong.
    pub fn correct(&self) -> bool {
        self.verdict.wrong.is_empty()
    }

    /// The metrics the result line carries.
    pub fn metrics(&self) -> &[Metric] {
        if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        }
    }

    /// The one-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.verdict.attempted,
            self.verdict.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table of every metric, with units and samples.
    pub fn table(&self) -> String {
        let v = &self.verdict;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} seed {}: {} pool workers, {} untraced + {} traced passes",
            self.workload, self.seed, self.jobs, self.passes.0, self.passes.1
        );
        let _ = writeln!(
            out,
            "# {} attempted, {} failed (failed_share {:.6}), {} wrong",
            v.attempted,
            v.failed,
            v.failed as f64 / v.attempted.max(1) as f64,
            v.wrong.len()
        );
        for note in &v.notes {
            let _ = writeln!(out, "# note: {note}");
        }
        for wrong in &v.wrong {
            let _ = writeln!(out, "# WRONG: {wrong}");
        }
        for (title, metrics) in [("end to end", &self.end_to_end), ("per layer", &self.per_layer)] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# {title}");
            for m in metrics.iter() {
                let _ = writeln!(
                    out,
                    "{:<30} {:>16.6} {:<10} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        out
    }
}
