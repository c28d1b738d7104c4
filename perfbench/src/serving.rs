//! The two serving workloads, driven through `JoinService::run` and
//! `FleetService::run`:
//!
//! - `serve-cache`: contended single-device traffic with the build cache
//!   on. Twelve closed-loop clients of skewed-popularity single joins plus
//!   four clients of chain plans, on the 512 KB serve device.
//! - `fleet-exchange`: overflow traffic on a heterogeneous
//!   `gtx1080,v100,gtx1080` fleet of 128/256/128 KB devices with the
//!   exchange on and the cache off. Sixteen closed-loop clients of mixed
//!   single joins.
//!
//! A pass serves several independent sessions back to back, each one
//! `run` over its own traffic; the simulated figures pool all of them. Every
//! request carries a virtual deadline, so a request that never gets
//! admitted ends as a counted `deadline-exceeded` failure instead of a
//! hang.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};

use hcj_core::GpuJoinConfig;
use hcj_engines::{
    BuildCacheConfig, ClientSpec, FleetConfig, FleetService, HcjEngine, JoinService,
    PlannedStrategy, QuerySpec, RequestMetrics, ServiceConfig, ServiceReport,
};
use hcj_gpu::{CacheCounters, CounterRollup, DeviceSpec};
use hcj_sim::SimTime;
use hcj_workload::oracle::JoinCheck;
use hcj_workload::plan::{plan_oracle, PlanOp};

use crate::stats::nearest_rank;
use crate::trace::Tracer;
use crate::traffic::{self, BASE_TUPLES};
use crate::{Layers, Size, Verdict, Workload};

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `serve-cache`.
    ServeCache,
    /// `fleet-exchange`.
    FleetExchange,
}

/// A serving workload at a given size.
pub struct Serving {
    kind: Kind,
    /// Independent sessions per pass, each one service run over its own
    /// traffic, run back to back.
    sessions: usize,
    /// Requests per single-join client (plan clients issue a quarter).
    per_client: usize,
}

/// The service under test.
pub enum Service {
    /// One device.
    Single(JoinService),
    /// A fleet.
    Fleet(FleetService),
}

/// A service and the traffic of each session.
pub struct Inputs {
    service: Service,
    sessions: Vec<Vec<ClientSpec>>,
    deadline: SimTime,
}

impl Serving {
    /// `kind` at `size`.
    pub fn new(kind: Kind, size: Size) -> Self {
        // 5200 and 4096 requests per pass, in independent sessions: the
        // pooled percentiles and throughputs then hold steady from seed to
        // seed. A fleet session's closed loop varies more from seed to seed
        // than a single device's, so fleet-exchange runs more, shorter
        // sessions.
        let (sessions, per_client) = match (kind, size) {
            (Kind::ServeCache, Size::Full) => (4, 100),
            (Kind::FleetExchange, Size::Full) => (16, 16),
            (_, Size::Small) => (2, 4),
        };
        Serving { kind, sessions, per_client }
    }

    fn engine(capacity_div: u64) -> HcjEngine {
        // The `serve` engine: buckets tuned for the largest build side the
        // traffic can draw, radix bits above the co-processing CPU bits.
        let device = DeviceSpec::gtx1080().scaled_capacity(capacity_div);
        HcjEngine::new(
            GpuJoinConfig::paper_default(device)
                .with_radix_bits(8)
                .with_tuned_buckets(4 * BASE_TUPLES),
        )
    }
}

/// Input tuples of one request: both sides of a join, every scan of a plan.
fn input_tuples(query: &QuerySpec) -> u64 {
    match query {
        QuerySpec::Join(spec) => (spec.r.tuples + spec.s.tuples) as u64,
        QuerySpec::Plan(plan) => plan
            .ops
            .iter()
            .map(|op| match op {
                PlanOp::Scan { spec, .. } => spec.tuples as u64,
                _ => 0,
            })
            .sum(),
    }
}

/// One request of a pass: its session, its traffic and its metrics.
struct Request<'a> {
    session: usize,
    query: &'a QuerySpec,
    m: &'a RequestMetrics,
}

/// Every request of every session, in session order.
fn requests<'a>(inputs: &'a Inputs, reports: &'a [ServiceReport]) -> Vec<Request<'a>> {
    reports
        .iter()
        .enumerate()
        .flat_map(|(session, report)| {
            let clients = &inputs.sessions[session];
            report.requests.iter().map(move |m| Request {
                session,
                query: &clients[m.client].requests[m.index],
                m,
            })
        })
        .collect()
}

fn ok(m: &RequestMetrics) -> bool {
    m.finished() && m.check_ok
}

fn ms(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e3
}

/// Admitted requests: a request cancelled before admission keeps
/// `admitted_at == 0`, so its queue wait would read 0.
fn admitted(m: &RequestMetrics) -> bool {
    m.executed.is_some() || m.admitted_at > SimTime::ZERO
}

impl Workload for Serving {
    type Inputs = Inputs;
    type Output = Vec<ServiceReport>;

    fn name(&self) -> &'static str {
        match self.kind {
            Kind::ServeCache => "serve-cache",
            Kind::FleetExchange => "fleet-exchange",
        }
    }

    fn setup(&self, seed: u64, tr: &mut Tracer, parent: u64) -> Inputs {
        let sessions = (0..self.sessions)
            .map(|session| {
                let open = tr.open();
                let seed = seed.wrapping_mul(0x100_0000_01B3).wrapping_add(session as u64);
                let clients = match self.kind {
                    Kind::ServeCache => {
                        let catalog = traffic::catalog();
                        let mut clients = traffic::skewed(&catalog, 12, self.per_client, seed);
                        clients.extend(traffic::chains(&catalog, 4, self.per_client / 4, seed));
                        clients
                    }
                    Kind::FleetExchange => traffic::mixed(16, self.per_client, seed),
                };
                tr.close(open, "workload.generate", Some(parent), session as u64, "");
                clients
            })
            .collect();
        let (service, deadline) = match self.kind {
            Kind::ServeCache => {
                // 20 ms is at least 5x the worst healthy latency.
                let deadline = SimTime::from_nanos(20_000_000);
                let config = ServiceConfig::default()
                    .with_deadline(Some(deadline))
                    .with_cache(Some(BuildCacheConfig::default()));
                (Service::Single(JoinService::new(Self::engine(1 << 14), config)), deadline)
            }
            Kind::FleetExchange => {
                // 100 ms is at least 4x the worst healthy latency.
                let deadline = SimTime::from_nanos(100_000_000);
                let config = ServiceConfig::default().with_deadline(Some(deadline));
                let div = 1 << 16;
                let mix = vec![
                    DeviceSpec::gtx1080().scaled_capacity(div),
                    DeviceSpec::v100().scaled_capacity(div),
                    DeviceSpec::gtx1080().scaled_capacity(div),
                ];
                let fleet = FleetConfig::new(0).with_device_mix(mix).with_exchange();
                (Service::Fleet(FleetService::new(Self::engine(div), config, fleet)), deadline)
            }
        };
        Inputs { service, sessions, deadline }
    }

    fn pass(&self, inputs: &Inputs, tr: &mut Tracer, parent: u64) -> (Vec<ServiceReport>, f64) {
        let mut host = 0.0;
        let reports = inputs
            .sessions
            .iter()
            .enumerate()
            .map(|(session, clients)| {
                let open = tr.open();
                let report = std::hint::black_box(match &inputs.service {
                    Service::Single(s) => s.run(clients),
                    Service::Fleet(f) => f.run(clients),
                });
                host += tr.close(open, "service.run", Some(parent), session as u64, self.name());
                report
            })
            .collect();
        (reports, host)
    }

    fn fingerprint(&self, reports: &Vec<ServiceReport>) -> String {
        // The summary holds only aggregates; the latency and throughput
        // figures come from each request's own record, so those are
        // hashed in too.
        reports
            .iter()
            .map(|report| {
                let mut requests = DefaultHasher::new();
                requests.write(format!("{:?}", report.requests).as_bytes());
                format!("{}requests {:016x}\n", report.summary(), requests.finish())
            })
            .collect()
    }

    fn verify(
        &self,
        inputs: &Inputs,
        reports: &Vec<ServiceReport>,
        tr: &mut Tracer,
        parent: u64,
    ) -> Verdict {
        let attempted: usize =
            inputs.sessions.iter().flatten().map(|client| client.requests.len()).sum();
        let mut verdict = Verdict::new(attempted);
        for (session, report) in reports.iter().enumerate() {
            let wrong = &mut verdict.wrong;
            for v in &report.invariant_violations {
                wrong.push(format!("session {session}: invariant violation: {v}"));
            }
            if report.device_used_at_end != 0 {
                wrong.push(format!(
                    "session {session}: {} device bytes leaked",
                    report.device_used_at_end
                ));
            }
            if let Some(fleet) = &report.fleet {
                for d in fleet.devices.iter().filter(|d| d.used_at_end != 0) {
                    wrong.push(format!(
                        "session {session}: device {}: {} bytes leaked",
                        d.id, d.used_at_end
                    ));
                }
            }
            let total = report.counters_total();
            if total.exchange_out_bytes != total.exchange_in_bytes {
                wrong.push(format!(
                    "session {session}: exchange bytes out {} != in {}",
                    total.exchange_out_bytes, total.exchange_in_bytes
                ));
            }
        }
        let all = requests(inputs, reports);
        if all.len() != attempted {
            verdict.wrong.push(format!("{} of {attempted} requests accounted for", all.len()));
        }
        for (key, r) in all.iter().enumerate() {
            let m = r.m;
            let id = format!("session {} client {} request {}", r.session, m.client, m.index);
            if !m.finished() {
                verdict.failed += 1;
                if m.error.is_none() {
                    verdict.wrong.push(format!("{id}: neither finished nor failed with a tag"));
                }
                continue;
            }
            if !m.check_ok || m.plan_ops.iter().any(|op| !op.check_ok) {
                verdict.wrong.push(format!("{id}: the service's oracle check failed"));
                continue;
            }
            // An independent recount of the result cardinality.
            let open = tr.open();
            let expected = match r.query {
                QuerySpec::Join(spec) => {
                    JoinCheck::compute(&spec.r.generate(), &spec.s.generate()).matches
                }
                QuerySpec::Plan(plan) => plan_oracle(plan).final_matches,
            };
            tr.close(open, "workload.oracle", Some(parent), key as u64, "");
            if expected != m.matches {
                verdict.wrong.push(format!("{id}: {} matches, oracle says {expected}", m.matches));
            }
        }
        let deadline: usize = reports.iter().map(ServiceReport::deadline_exceeded).sum();
        let errored: usize = reports.iter().map(ServiceReport::errored).sum();
        if verdict.failed > 0 {
            verdict.notes.push(format!(
                "{} requests failed: {deadline} deadline-exceeded, {errored} typed errors",
                verdict.failed
            ));
        }
        verdict
    }

    fn end_to_end(
        &self,
        inputs: &Inputs,
        reports: &Vec<ServiceReport>,
    ) -> Vec<(&'static str, f64, usize)> {
        let limit = ms(inputs.deadline);
        let all = requests(inputs, reports);
        let mut latencies: Vec<f64> = all
            .iter()
            .map(|r| {
                let latency = ms(r.m.completed_at - r.m.submitted_at);
                // A request that did not finish oracle-correct misses
                // every limit.
                if ok(r.m) {
                    latency
                } else {
                    latency.max(limit)
                }
            })
            .collect();
        let n = latencies.len();
        let served = all.iter().filter(|r| ok(r.m)).count();
        // Closed-loop throughput, per client: oracle-correct requests (and
        // their input tuples) over the client's busy span, first submit to
        // last completion, summed over the session's clients and averaged
        // over sessions. One stalled client lowers its own rate only.
        let mut rps = 0.0;
        let mut tps = 0.0;
        for session in 0..reports.len() {
            let mut clients: BTreeMap<usize, (f64, f64, f64, f64)> = BTreeMap::new();
            for r in all.iter().filter(|r| r.session == session) {
                let c = clients.entry(r.m.client).or_insert((f64::MAX, 0.0, 0.0, 0.0));
                c.0 = c.0.min(r.m.submitted_at.as_secs_f64());
                c.1 = c.1.max(r.m.completed_at.as_secs_f64());
                if ok(r.m) {
                    c.2 += 1.0;
                    c.3 += input_tuples(r.query) as f64;
                }
            }
            for (first, last, done, tuples) in clients.into_values() {
                let busy = last - first;
                if busy > 0.0 {
                    rps += done / busy;
                    tps += tuples / busy;
                }
            }
        }
        let sessions = reports.len().max(1) as f64;
        vec![
            ("sim_throughput_btps", tps / sessions / 1e9, served),
            ("sim_latency_p50_ms", nearest_rank(&mut latencies, 0.50), n),
            ("sim_latency_p99_ms", nearest_rank(&mut latencies, 0.99), n),
            ("sim_throughput_rps", rps / sessions, served),
        ]
    }

    fn per_layer(&self, inputs: &Inputs, reports: &Vec<ServiceReport>, layers: &mut Layers) {
        let all = requests(inputs, reports);
        let oracle_s = layers.span_seconds("workload.oracle");
        let checked: u64 = all.iter().filter(|r| ok(r.m)).map(|r| input_tuples(r.query)).sum();
        layers.set("workload.oracle_s", oracle_s);
        layers.set("workload.oracle_ns_per_tuple", oracle_s / checked.max(1) as f64 * 1e9);

        let finished: Vec<&RequestMetrics> =
            all.iter().map(|r| r.m).filter(|m| m.finished()).collect();
        let executed: Vec<PlannedStrategy> = finished.iter().filter_map(|m| m.executed).collect();
        layers.planner_shares(&executed);
        let kept = finished.iter().filter(|m| m.executed == Some(m.planned)).count();
        layers.set("planner.kept_ratio", kept as f64 / finished.len().max(1) as f64);
        let mut counters = CounterRollup::default();
        for report in reports {
            counters.absorb(&report.counters_total());
        }
        layers.counters(&counters);

        let mut waits: Vec<f64> =
            all.iter().map(|r| r.m).filter(|m| admitted(m)).map(|m| ms(m.queue_wait())).collect();
        let mut execs: Vec<f64> =
            finished.iter().map(|m| ms(m.completed_at - m.admitted_at)).collect();
        let sum = |f: fn(&ServiceReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
        layers.set("service.queue_wait_p50_ms", nearest_rank(&mut waits, 0.50));
        layers.set("service.queue_wait_p99_ms", nearest_rank(&mut waits, 0.99));
        layers.set("service.exec_p50_ms", nearest_rank(&mut execs, 0.50));
        layers.set("service.exec_p99_ms", nearest_rank(&mut execs, 0.99));
        layers.set("service.admission_retries", sum(|r| r.retries_total() as usize));
        layers.set(
            "service.degraded_share",
            sum(ServiceReport::degraded) / finished.len().max(1) as f64,
        );
        layers.set("service.backpressured", sum(ServiceReport::backpressured));
        let peak = reports
            .iter()
            .map(|r| r.device_peak as f64 / r.device_capacity.max(1) as f64)
            .fold(0.0, f64::max);
        layers.set("service.device_peak_frac", peak);
        layers.set("service.deadline_misses", sum(ServiceReport::deadline_exceeded));

        let mut cache = CacheCounters::default();
        for report in reports {
            if let Some(c) = &report.cache {
                cache.absorb(&c.counters);
            }
            for c in report.fleet.iter().flat_map(|f| &f.devices).filter_map(|d| d.cache.as_ref()) {
                cache.absorb(&c.counters);
            }
        }
        let lookups = cache.hits + cache.misses;
        layers.set("cache.hit_ratio", cache.hits as f64 / lookups.max(1) as f64);
        layers.set("cache.evictions", cache.evictions as f64);
        layers.set("cache.reclaims", cache.reclaims as f64);
        layers.set("cache.invalidations", cache.invalidations as f64);

        let pinned = sum(ServiceReport::pinned_intermediates);
        let spilled = sum(ServiceReport::spilled_intermediates);
        let mut plan_latencies: Vec<f64> = finished
            .iter()
            .filter(|m| !m.plan_ops.is_empty())
            .map(|m| ms(m.completed_at - m.admitted_at))
            .collect();
        layers.set("dag.plan_ops", sum(ServiceReport::plan_ops_executed));
        layers.set("dag.pinned_ratio", pinned / (pinned + spilled).max(1.0));
        layers.set("dag.plan_latency_p50_ms", nearest_rank(&mut plan_latencies, 0.50));

        let fleets: Vec<_> = reports.iter().filter_map(|r| r.fleet.as_ref()).collect();
        if !fleets.is_empty() {
            let mut admits = vec![0u64; fleets[0].devices.len()];
            for d in fleets.iter().flat_map(|f| &f.devices) {
                admits[d.id] += d.admitted;
            }
            let mean = admits.iter().sum::<u64>() as f64 / admits.len() as f64;
            let max = admits.iter().copied().max().unwrap_or(0) as f64;
            layers.set("fleet.admit_imbalance", if mean > 0.0 { max / mean } else { 0.0 });
            layers.set("fleet.rerouted", fleets.iter().map(|f| f.rerouted).sum::<u64>() as f64);
            layers
                .set("fleet.cpu_spilled", fleets.iter().map(|f| f.cpu_spilled).sum::<u64>() as f64);
            layers.set(
                "fleet.breaker_trips",
                fleets.iter().map(|f| f.breaker_trips).sum::<u32>() as f64,
            );
        }
        let planned_cross =
            all.iter().filter(|r| matches!(r.m.planned, PlannedStrategy::CrossDevice(_))).count();
        let cross = sum(ServiceReport::cross_device);
        layers.set("exchange.requests", cross);
        layers.set("exchange.shuffle_bytes", counters.exchange_out_bytes as f64);
        layers.set("exchange.admit_ratio", cross / planned_cross.max(1) as f64);
    }
}
