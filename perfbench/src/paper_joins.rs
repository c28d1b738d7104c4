//! `paper-joins`: the figure user's traffic. Fourteen fixed single
//! equi-joins go through [`HcjEngine::execute`] (planner plus degradation
//! ladder) with aggregate output and fused refinement on, as in the
//! figure harness. Half run on the full 8 GB GTX 1080 model, half on a
//! GTX 1080 whose capacity is divided so that the planner picks the
//! streamed-probe and co-processing strategies as well.

use std::collections::BTreeMap;

use hcj_core::{GpuJoinConfig, JoinOutcome, Phase};
use hcj_engines::{HcjEngine, PlannedStrategy};
use hcj_gpu::{DeviceSpec, JoinError};
use hcj_sim::ScheduleValidator;
use hcj_workload::generate::{KeyDistribution, RelationSpec};
use hcj_workload::oracle::JoinCheck;
use hcj_workload::Relation;

use crate::stats::{geomean, nearest_rank};
use crate::trace::Tracer;
use crate::{Layers, Size, Verdict, Workload};

/// A failed join's latency for the percentiles: it counts as missing
/// this (nominal) limit, far above any healthy join here.
const LATENCY_LIMIT_MS: f64 = 1_000.0;

/// One join of the workload.
#[derive(Clone, Copy, Debug)]
struct Case {
    /// Device capacity divisor (1 = the full 8 GB part).
    capacity_div: u64,
    /// Build-side tuples (unique keys).
    build: usize,
    /// Probe side = `probe_mult * build` foreign keys.
    probe_mult: usize,
    /// Zipf(1.0) foreign keys instead of uniform ones.
    zipf: bool,
}

/// The fixed join list, at the full size.
const CASES: [Case; 14] = [
    // Full device: everything stays resident.
    Case { capacity_div: 1, build: 1 << 19, probe_mult: 1, zipf: false },
    Case { capacity_div: 1, build: 1 << 19, probe_mult: 4, zipf: false },
    Case { capacity_div: 1, build: 1 << 19, probe_mult: 4, zipf: true },
    Case { capacity_div: 1, build: 1 << 20, probe_mult: 1, zipf: false },
    Case { capacity_div: 1, build: 1 << 20, probe_mult: 1, zipf: true },
    Case { capacity_div: 1, build: 1 << 20, probe_mult: 4, zipf: false },
    Case { capacity_div: 1, build: 1 << 20, probe_mult: 4, zipf: true },
    // 8 MB device: resident, streamed-probe and co-processing joins.
    Case { capacity_div: 1024, build: 1 << 17, probe_mult: 4, zipf: false },
    Case { capacity_div: 1024, build: 1 << 17, probe_mult: 4, zipf: true },
    Case { capacity_div: 1024, build: 1 << 17, probe_mult: 16, zipf: false },
    Case { capacity_div: 1024, build: 1 << 18, probe_mult: 4, zipf: true },
    Case { capacity_div: 1024, build: 1 << 18, probe_mult: 16, zipf: false },
    Case { capacity_div: 1024, build: 1 << 19, probe_mult: 4, zipf: false },
    Case { capacity_div: 1024, build: 1 << 19, probe_mult: 16, zipf: true },
];

/// One join, ready to execute.
pub struct Join {
    engine: HcjEngine,
    r: Relation,
    s: Relation,
}

/// The result of one `execute` call.
pub struct Executed {
    planned: PlannedStrategy,
    result: Result<(PlannedStrategy, JoinOutcome), JoinError>,
}

/// The `paper-joins` workload at a given size.
pub struct PaperJoins {
    /// Size divisor applied to every relation and device (1 = full size).
    shrink: usize,
}

impl PaperJoins {
    /// The workload at `size`.
    pub fn new(size: Size) -> Self {
        PaperJoins {
            shrink: match size {
                Size::Full => 1,
                Size::Small => 64,
            },
        }
    }

    fn config(&self, case: &Case) -> GpuJoinConfig {
        let build = case.build / self.shrink;
        let device = DeviceSpec::gtx1080().scaled_capacity(case.capacity_div * self.shrink as u64);
        // Partitions of about 4096 build tuples (the shared-memory budget),
        // as the figures' scaled radix depth gives; co-processing needs
        // more GPU bits than its 4 CPU bits.
        let bits = (build.ilog2().saturating_sub(12)).max(5);
        GpuJoinConfig::paper_default(device)
            .with_radix_bits(bits)
            .with_tuned_buckets(build)
            .with_fused_refinement(true)
    }
}

fn tuples(join: &Join) -> u64 {
    (join.r.len() + join.s.len()) as u64
}

impl Workload for PaperJoins {
    type Inputs = Vec<Join>;
    type Output = Vec<Executed>;

    fn name(&self) -> &'static str {
        "paper-joins"
    }

    fn setup(&self, seed: u64, tr: &mut Tracer, parent: u64) -> Vec<Join> {
        CASES
            .iter()
            .enumerate()
            .map(|(i, case)| {
                let open = tr.open();
                let build = case.build / self.shrink;
                let join_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
                let r = RelationSpec::unique(build, join_seed).generate();
                let distinct = build as u64;
                let s = RelationSpec {
                    tuples: build * case.probe_mult,
                    distribution: if case.zipf {
                        KeyDistribution::Zipf { distinct, theta: 1.0 }
                    } else {
                        KeyDistribution::UniformFk { distinct }
                    },
                    payload_width: 4,
                    seed: join_seed ^ 0x5DEE_CE66,
                }
                .generate();
                tr.close(open, "workload.generate", Some(parent), i as u64, "");
                Join { engine: HcjEngine::new(self.config(case)), r, s }
            })
            .collect()
    }

    fn pass(&self, joins: &Vec<Join>, tr: &mut Tracer, parent: u64) -> (Vec<Executed>, f64) {
        let mut host = 0.0;
        let out = joins
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let (build, probe) =
                    if j.r.len() <= j.s.len() { (&j.r, &j.s) } else { (&j.s, &j.r) };
                let planned = j.engine.plan(build, probe);
                let open = tr.open();
                let result = std::hint::black_box(j.engine.execute(&j.r, &j.s));
                let tag = match &result {
                    Ok((ran, _)) => ran.to_string(),
                    Err(e) => e.tag().to_string(),
                };
                host += tr.close(open, "engine.execute", Some(parent), i as u64, &tag);
                Executed { planned, result }
            })
            .collect();
        (out, host)
    }

    fn fingerprint(&self, out: &Vec<Executed>) -> String {
        out.iter()
            .map(|e| match &e.result {
                Ok((ran, o)) => format!("{ran} {:?} {}\n", o.check, o.schedule.makespan()),
                Err(err) => format!("{}\n", err.tag()),
            })
            .collect()
    }

    fn verify(
        &self,
        joins: &Vec<Join>,
        out: &Vec<Executed>,
        tr: &mut Tracer,
        parent: u64,
    ) -> Verdict {
        let mut verdict = Verdict::new(joins.len());
        for (i, (j, e)) in joins.iter().zip(out).enumerate() {
            let key = i as u64;
            let open = tr.open();
            let expected = JoinCheck::compute(&j.r, &j.s);
            tr.close(open, "workload.oracle", Some(parent), key, "");
            let outcome = match &e.result {
                Ok((_, outcome)) => outcome,
                Err(err) => {
                    verdict.failed += 1;
                    verdict.notes.push(format!("join {i}: typed error {}", err.tag()));
                    continue;
                }
            };
            if outcome.check != expected {
                verdict.wrong.push(format!(
                    "join {i}: result {:?} but the oracle says {expected:?}",
                    outcome.check
                ));
            }
            let open = tr.open();
            let valid = ScheduleValidator::new().validate(&outcome.schedule);
            tr.close(open, "sim.validate", Some(parent), key, "");
            if let Err(err) = valid {
                verdict.wrong.push(format!("join {i}: invalid schedule: {err}"));
            }
        }
        verdict
    }

    fn end_to_end(
        &self,
        joins: &Vec<Join>,
        out: &Vec<Executed>,
    ) -> Vec<(&'static str, f64, usize)> {
        let mut btps = Vec::new();
        let mut latencies = Vec::new();
        let mut ok_seconds = 0.0;
        for (j, e) in joins.iter().zip(out) {
            match &e.result {
                Ok((_, o)) => {
                    let seconds = o.total_seconds();
                    btps.push(tuples(j) as f64 / seconds / 1e9);
                    latencies.push(seconds * 1e3);
                    ok_seconds += seconds;
                }
                Err(_) => latencies.push(LATENCY_LIMIT_MS),
            }
        }
        // The joins run one after another, so the run's virtual makespan
        // is the sum of theirs.
        let total_seconds: f64 =
            ok_seconds + (latencies.len() - btps.len()) as f64 * LATENCY_LIMIT_MS / 1e3;
        let n = latencies.len();
        vec![
            ("sim_throughput_btps", geomean(&btps), btps.len()),
            ("sim_latency_p50_ms", nearest_rank(&mut latencies, 0.50), n),
            ("sim_latency_p99_ms", nearest_rank(&mut latencies, 0.99), n),
            ("sim_throughput_rps", btps.len() as f64 / total_seconds, btps.len()),
        ]
    }

    fn per_layer(&self, joins: &Vec<Join>, out: &Vec<Executed>, layers: &mut Layers) {
        let ok: Vec<(&Join, &PlannedStrategy, &JoinOutcome)> = joins
            .iter()
            .zip(out)
            .filter_map(|(j, e)| e.result.as_ref().ok().map(|(ran, o)| (j, ran, o)))
            .collect();
        let all_tuples: u64 = joins.iter().map(tuples).sum();
        let oracle_s = layers.span_seconds("workload.oracle");
        layers.set("workload.oracle_s", oracle_s);
        layers.set("workload.oracle_ns_per_tuple", oracle_s / all_tuples as f64 * 1e9);

        let executed: Vec<PlannedStrategy> = ok.iter().map(|(_, ran, _)| **ran).collect();
        layers.planner_shares(&executed);
        let kept = joins
            .iter()
            .zip(out)
            .filter(|(_, e)| matches!(&e.result, Ok((ran, _)) if *ran == e.planned))
            .count();
        layers.set("planner.kept_ratio", kept as f64 / ok.len().max(1) as f64);

        // Host time of the execute calls, per traced pass, grouped by the
        // strategy that ran.
        let mut by_tag: BTreeMap<String, f64> = BTreeMap::new();
        for span in layers.pass_spans("engine.execute") {
            *by_tag.entry(span.tag.clone()).or_default() += span.seconds();
        }
        let per_pass = 1.0 / layers.traced_passes().max(1) as f64;
        let tag_s = |tag: PlannedStrategy| by_tag.get(&tag.to_string()).copied().unwrap_or(0.0);
        let execute_s: f64 = by_tag.values().sum::<f64>() * per_pass;
        layers.set("core.resident_host_s", tag_s(PlannedStrategy::GpuResident) * per_pass);
        layers.set("core.streamed_host_s", tag_s(PlannedStrategy::StreamedProbe) * per_pass);
        layers.set("core.coproc_host_s", tag_s(PlannedStrategy::CoProcessing) * per_pass);
        layers.set("core.host_ns_per_tuple", execute_s / all_tuples as f64 * 1e9);

        let phase =
            |p: Phase| -> f64 { ok.iter().map(|(_, _, o)| o.phases.time(p).as_secs_f64()).sum() };
        layers.set("core.partition_sim_s", phase(Phase::GpuPartition));
        layers.set("core.join_sim_s", phase(Phase::Join));
        layers.set("gpu.h2d_sim_s", phase(Phase::TransferIn));
        layers.set("gpu.d2h_sim_s", phase(Phase::TransferOut));
        layers.set("cpu.partition_sim_s", phase(Phase::CpuPartition));
        layers.set("host.staging_sim_s", phase(Phase::Staging));
        let mut counters = hcj_gpu::CounterRollup::default();
        for (_, _, o) in &ok {
            counters.absorb(&o.counters.rollup());
        }
        layers.counters(&counters);

        let spans: usize = ok.iter().map(|(_, _, o)| o.schedule.spans().len()).sum();
        layers.set("sim.spans", spans as f64);
        layers.set("sim.host_us_per_span", execute_s / spans.max(1) as f64 * 1e6);
        layers.set("sim.validate_s", layers.span_seconds("sim.validate"));
    }
}
