//! Chaos soak of the multi-device join fleet (`hcj_engines::fleet`): the
//! PR's acceptance run, in-process. A seeded fault plan kills devices of
//! a 3-GPU fleet mid-run; the fleet must drain the dead devices, re-route
//! their admitted requests to survivors, keep every result
//! oracle-correct, leak nothing, and stay byte-identical across worker
//! counts.

use hashjoin_gpu::prelude::*;
use hashjoin_gpu::sim::SimTime;

/// The `serve --devices 3 --chaos 8 --cache` regime: 16 clients x 25
/// mixed requests against three 512 KB devices, the chaos fault plan
/// armed. Seed 8 is pinned because its fault draws provably kill devices
/// mid-run with requests still in flight on them (asserted below, so a
/// behaviour change that defuses the seed fails loudly instead of
/// quietly testing nothing).
fn chaos_fleet() -> FleetService {
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device)
            .with_radix_bits(8)
            .with_tuned_buckets(8_000)
            .with_faults(FaultConfig::chaos(8)),
    );
    FleetService::new(
        engine,
        ServiceConfig::default().with_cache(Some(BuildCacheConfig::default())),
        FleetConfig::new(3),
    )
}

fn chaos_workload() -> Vec<ClientSpec> {
    mixed_workload(16, 25, 2_000, 1)
}

#[test]
fn fleet_survives_losing_devices_mid_run() {
    let workload = chaos_workload();
    let total: usize = workload.iter().map(|c| c.requests.len()).sum();
    assert_eq!(total, 400);
    let report = chaos_fleet().run(&workload);
    let summary = report.summary();
    let fleet = report.fleet.as_ref().expect("fleet runs attach a rollup");

    // The seed really kills hardware mid-run: at least one of the three
    // devices ends Lost, with requests drained off it.
    assert!(fleet.lost() >= 1, "seed 8 must kill at least one device:\n{summary}");
    assert!(fleet.lost() < 3, "at least one device survives:\n{summary}");
    assert!(fleet.drained >= 1, "the lost device had requests in flight:\n{summary}");
    assert!(
        fleet.rerouted >= 1,
        "at least one drained request re-admits on a survivor:\n{summary}"
    );

    // Every request is accounted for with a typed outcome, and every
    // request that finished produced the oracle join.
    let accounted = report.completed() + report.deadline_exceeded() + report.errored();
    assert_eq!(accounted, total, "no request vanishes:\n{summary}");
    assert_eq!(
        report.checks_passed(),
        report.completed(),
        "every finished request is oracle-correct:\n{summary}"
    );

    // At least one drained request completed on the device that adopted
    // it — failover produced a correct result, not just an error.
    let adopted_ok = report
        .requests
        .iter()
        .any(|m| m.rerouted > 0 && m.finished() && m.check_ok && m.device.is_some());
    assert!(adopted_ok, "a re-routed request completes on its adopter:\n{summary}");

    // Zero leaks, audited as typed invariant entries (never panics):
    // lost devices account zero bytes after their drain, the fleet never
    // exceeds its capacity, and the run ends with nothing reserved.
    assert!(
        report.invariant_violations.is_empty(),
        "leak/accounting audit is clean: {:?}",
        report.invariant_violations
    );
    assert_eq!(report.device_used_at_end, 0, "no reservation survives the run:\n{summary}");
    for d in &fleet.devices {
        assert_eq!(d.used_at_end, 0, "device {} leaks {} B:\n{summary}", d.id, d.used_at_end);
        assert!(d.peak_bytes <= d.capacity, "device {} over-reserved:\n{summary}", d.id);
        if d.health == DeviceHealth::Lost {
            assert!(!d.transitions.is_empty(), "a lost device records its transition:\n{summary}");
        }
    }

    // The rollup's books balance against the per-request metrics.
    let completed_on_devices: u64 = fleet.devices.iter().map(|d| d.completed).sum();
    let device_completions =
        report.requests.iter().filter(|m| m.finished() && m.device.is_some()).count() as u64;
    assert_eq!(completed_on_devices, device_completions, "completion books balance:\n{summary}");
    let adopted: u64 = fleet.devices.iter().map(|d| d.adopted).sum();
    assert_eq!(adopted, fleet.rerouted, "every re-route has an adopter:\n{summary}");
}

#[test]
fn fleet_chaos_summary_is_byte_identical_across_runs_and_jobs() {
    let workload = chaos_workload();
    let mut summaries: Vec<String> = Vec::new();
    for jobs in [1usize, 2, 4, 4] {
        hashjoin_gpu::host::pool::set_jobs(jobs);
        summaries.push(chaos_fleet().run(&workload).summary());
    }
    hashjoin_gpu::host::pool::set_jobs(1);
    assert_eq!(summaries[0], summaries[1], "jobs 1 vs 2: identical");
    assert_eq!(summaries[0], summaries[2], "jobs 1 vs 4: identical");
    assert_eq!(summaries[2], summaries[3], "same seed, same jobs: identical");
}

#[test]
fn armed_but_disabled_faults_match_the_unfaulted_fleet() {
    // `--chaos 0`: the fault layer is compiled in and consulted but every
    // probability is zero. The summary must be byte-identical to a fleet
    // run with no fault layer at all.
    let workload = chaos_workload();
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let base = GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(8_000);
    let plain = FleetService::new(
        HcjEngine::new(base.clone()),
        ServiceConfig::default(),
        FleetConfig::new(3),
    )
    .run(&workload);
    let armed = FleetService::new(
        HcjEngine::new(base.with_faults(FaultConfig::disabled(0))),
        ServiceConfig::default(),
        FleetConfig::new(3),
    )
    .run(&workload);
    assert_eq!(plain.summary(), armed.summary(), "disabled faults are a no-op");
    assert_eq!(plain.completed(), 400);
    assert_eq!(plain.checks_passed(), 400);
    assert!(plain.fleet.as_ref().is_some_and(|f| f.lost() == 0));
}

#[test]
fn unfaulted_fleet_spreads_tenants_and_completes_everything() {
    let workload = chaos_workload();
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(8_000),
    );
    let report =
        FleetService::new(engine, ServiceConfig::default(), FleetConfig::new(3)).run(&workload);
    let summary = report.summary();
    assert_eq!(report.completed(), 400, "everything completes:\n{summary}");
    assert_eq!(report.checks_passed(), 400, "everything oracle-correct:\n{summary}");
    let fleet = report.fleet.as_ref().expect("rollup present");
    // Consistent hashing spreads the 16 tenants: no device sits idle and
    // no device serves everyone.
    for d in &fleet.devices {
        assert!(d.admitted > 0, "device {} starved:\n{summary}", d.id);
        assert!((d.admitted as usize) < 400, "device {} hogged the fleet:\n{summary}", d.id);
        assert_eq!(d.health, DeviceHealth::Healthy, "no faults, no transitions:\n{summary}");
    }
    assert_eq!(fleet.drained, 0);
    assert_eq!(fleet.breaker_trips, 0);
    // Cache affinity precondition: a tenant's requests always land on the
    // same device unless pressure or failover moved them — with neither
    // here, each client maps to exactly one device.
    for c in 0..16 {
        let mut devices: Vec<_> = report
            .requests
            .iter()
            .filter(|m| m.client == c && m.device.is_some())
            .map(|m| m.device.unwrap())
            .collect();
        devices.sort_unstable();
        devices.dedup();
        assert!(
            devices.len() <= 1,
            "client {c} bounced across devices {devices:?} with no pressure:\n{summary}"
        );
    }
}

/// The `serve --quick --chaos S --deadline-ms 50` regime on the
/// single-device service (a 1-device fleet): 8 clients x 25 mixed
/// requests against one 512 KB device.
fn lone_device_run(fault_seed: u64) -> ServiceReport {
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device)
            .with_radix_bits(8)
            .with_tuned_buckets(4_000)
            .with_faults(FaultConfig::chaos(fault_seed)),
    );
    let config = ServiceConfig::default().with_deadline(Some(SimTime::from_nanos(50_000_000)));
    JoinService::new(engine, config).run(&mixed_workload(8, 25, 1_000, 1))
}

/// Summary lines every run prints that the pre-fleet single-device
/// summary did not: the fleet block and the always-present cross-device,
/// exchange, cache and plan lines.
fn is_topology_or_feature_line(line: &str) -> bool {
    let per_device = line
        .strip_prefix("device ")
        .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
    per_device
        || ["fleet ", "executed cross-device", "exchange ", "cache ", "plan ", "intermediates "]
            .iter()
            .any(|prefix| line.starts_with(prefix))
}

#[test]
fn lone_device_breaker_never_trips_without_a_peer() {
    // Chaos seed 11 piles enough transient faults onto the lone device to
    // fill its breaker window. Quarantine would have nowhere to shift the
    // load, so the breaker stays closed and every line the summaries share
    // with the golden (a single-device summary of this run that predates
    // the fleet block and the always-present feature lines) is unchanged.
    let report = lone_device_run(11);
    let summary = report.summary();
    let fleet = report.fleet.as_ref().expect("every run attaches a rollup");
    assert_eq!(fleet.devices.len(), 1);
    assert_eq!(fleet.breaker_trips, 0, "a lone device must not trip:\n{summary}");
    assert_eq!(fleet.cpu_spilled, 0, "nothing leaves the device:\n{summary}");
    assert!(
        fleet.devices[0].transitions.iter().all(|(_, h)| *h != DeviceHealth::Quarantined),
        "{summary}"
    );
    let kept: String = summary
        .lines()
        .filter(|l| !is_topology_or_feature_line(l))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(kept, include_str!("golden/lone_device_chaos11.txt"), "full summary:\n{summary}");
}

#[test]
fn lone_device_loss_is_sticky_and_later_joins_run_on_the_cpu_lane() {
    // Chaos seed 23 surfaces device-lost on the lone device. Loss is
    // terminal on every topology: the device drains, and every request
    // submitted afterwards runs host-side, still oracle-correct.
    let workload = mixed_workload(8, 25, 1_000, 1);
    let total: usize = workload.iter().map(|c| c.requests.len()).sum();
    let mut summaries = Vec::new();
    for jobs in [1usize, 4] {
        hashjoin_gpu::host::pool::set_jobs(jobs);
        let report = lone_device_run(23);
        let summary = report.summary();
        let fleet = report.fleet.as_ref().expect("every run attaches a rollup");
        assert_eq!(fleet.lost(), 1, "seed 23 must lose the device:\n{summary}");
        let &(lost_at, _) = fleet.devices[0]
            .transitions
            .iter()
            .find(|(_, h)| *h == DeviceHealth::Lost)
            .expect("the loss is recorded");
        let later: Vec<_> = report.requests.iter().filter(|m| m.submitted_at > lost_at).collect();
        assert!(!later.is_empty(), "requests arrive after the loss:\n{summary}");
        for m in later {
            assert_eq!(m.device, None, "client {} #{} ran on a lost device", m.client, m.index);
            assert_eq!(m.executed, Some(PlannedStrategy::CpuFallback), "{summary}");
        }
        let accounted = report.completed() + report.deadline_exceeded() + report.errored();
        assert_eq!(accounted, total, "every request is accounted for:\n{summary}");
        assert_eq!(report.checks_passed(), report.completed(), "{summary}");
        assert_eq!(report.device_used_at_end, 0, "no bytes leak:\n{summary}");
        assert_eq!(fleet.devices[0].used_at_end, 0, "{summary}");
        assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
        summaries.push(summary);
    }
    hashjoin_gpu::host::pool::set_jobs(1);
    assert_eq!(summaries[0], summaries[1], "jobs 1 vs 4: identical");
}
