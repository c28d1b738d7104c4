//! Client traffic of the two serving workloads.
//!
//! These follow the program's own generators (`skewed_workload`,
//! `plan_workload` and `mixed_workload` in `hcj_engines::service`) with two
//! changes that keep a run's figures steady from seed to seed:
//!
//! - The catalog of `serve-cache` is fixed. It is the served database: its
//!   table sizes stay put, and the seed draws only the traffic over it.
//!   With the catalog drawn from the seed, the sizes of the two or three
//!   hottest tables set the median latency: over eight seeds its
//!   interquartile range was 68% of its median.
//! - `fleet-exchange` draws relation sizes as whole tuple counts over the
//!   same ranges, where `mixed_workload` draws whole multiples of its base
//!   size. With a few discrete sizes, the fleet's p99 latency lands on one
//!   of a few backoff plateaus (about 2.0, 3.2 or 3.6 ms), chosen by the
//!   seed: at the benchmark's layout its interquartile range over ten seeds
//!   was 11% of its median, against 0.2% with sizes drawn per tuple.

use hcj_engines::{ClientSpec, RequestSpec};
use hcj_workload::generate::{KeyDistribution, RelationSpec};
use hcj_workload::plan::chain_plan;
use hcj_workload::rng::{Rng, SmallRng};
use hcj_workload::{BuildCatalog, PopularityStream};

/// Relation size unit (the `serve` default).
pub const BASE_TUPLES: usize = 2_000;
/// Catalog size and update cadence of the skewed and plan traffic (the
/// `serve` defaults).
const CATALOG_SIZE: usize = 12;
const BUMP_EVERY: usize = 40;
/// Zipf popularity of catalog relations.
const POPULARITY: f64 = 0.9;
/// Seed of the fixed `serve-cache` catalog.
const CATALOG_SEED: u64 = 1;

/// The served catalog of `serve-cache`: 12 dimension tables of 1-3x
/// [`BASE_TUPLES`] tuples, all at version 0.
pub fn catalog() -> BuildCatalog {
    BuildCatalog::dimension_tables(CATALOG_SIZE, BASE_TUPLES, CATALOG_SEED)
}

/// Skewed single joins over `catalog`: each draw picks a build side with
/// Zipf popularity and probes it with 2-5x as many uniform foreign keys;
/// every `BUMP_EVERY`-th draw first bumps the drawn table's content
/// version, so cached builds go stale mid-run.
pub fn skewed(
    catalog: &BuildCatalog,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Vec<ClientSpec> {
    let mut catalog = catalog.clone();
    let mut popularity = PopularityStream::new(catalog.len(), POPULARITY, seed ^ 0xA5A5_5A5A);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0BAD_CAFE);
    let mut specs = vec![ClientSpec::default(); clients];
    let mut draw = 0usize;
    // Slot-major draws approximate the order closed-loop clients reach
    // each slot, so version bumps land mid-run for every client.
    for _slot in 0..per_client {
        for (client, spec) in specs.iter_mut().enumerate() {
            draw += 1;
            let idx = popularity.next_index();
            if draw.is_multiple_of(BUMP_EVERY) {
                catalog.bump_version(idx);
            }
            let rel = *catalog.get(idx);
            let s = RelationSpec {
                tuples: rel.tuples() * rng.gen_range_u64(2, 5) as usize,
                distribution: KeyDistribution::UniformFk { distinct: rel.tuples() as u64 },
                payload_width: rel.payload_width,
                seed: seed
                    .wrapping_mul(0x100_0000_01B3)
                    .wrapping_add((client as u64) << 24)
                    .wrapping_add(draw as u64),
            };
            spec.requests
                .push(RequestSpec { r: rel.spec(), s, build: Some(rel.build_ref()) }.into());
        }
    }
    specs
}

/// Chain plans over `catalog`: each plan joins a fact scan of 2-4x
/// [`BASE_TUPLES`] foreign keys with 2-4 distinct dimensions drawn with
/// Zipf popularity; every `BUMP_EVERY`-th plan first bumps its first
/// dimension's content version.
pub fn chains(
    catalog: &BuildCatalog,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Vec<ClientSpec> {
    let mut catalog = catalog.clone();
    let mut popularity = PopularityStream::new(catalog.len(), POPULARITY, seed ^ 0x517C_C1B7);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0DDB_A11E);
    let mut specs = vec![ClientSpec::default(); clients];
    let mut draw = 0usize;
    for _slot in 0..per_client {
        for spec in specs.iter_mut() {
            draw += 1;
            let want = 2 + rng.gen_range_u64(0, 2) as usize;
            let mut dims: Vec<usize> = Vec::with_capacity(want);
            while dims.len() < want {
                let idx = popularity.next_index();
                if !dims.contains(&idx) {
                    dims.push(idx);
                }
            }
            if draw.is_multiple_of(BUMP_EVERY) {
                catalog.bump_version(dims[0]);
            }
            let fact = BASE_TUPLES * rng.gen_range_u64(2, 4) as usize;
            let plan_seed = seed.wrapping_mul(0x100_0000_01B3).wrapping_add(draw as u64);
            spec.requests.push(chain_plan(&catalog, &dims, fact, plan_seed).into());
        }
    }
    specs
}

/// Mixed single joins: build sides of 1-4x [`BASE_TUPLES`] unique keys,
/// probe sides of 1-6x the build side, foreign keys uniform or Zipf
/// 0.25/0.75/1.0 over the build side, payload widths of 4, 16 or 64 bytes.
/// Probe keys stay in the build domain, so a join matches every probe
/// tuple.
pub fn mixed(clients: usize, per_client: usize, seed: u64) -> Vec<ClientSpec> {
    let thetas = [0.0, 0.25, 0.75, 1.0];
    let widths = [4u32, 16, 64];
    let base = BASE_TUPLES as u64;
    (0..clients)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37_79B9));
            let requests = (0..per_client)
                .map(|i| {
                    let r_tuples = rng.gen_range_u64(base, 4 * base);
                    let s_tuples = rng.gen_range_u64(r_tuples, 6 * r_tuples);
                    let theta = thetas[rng.gen_range_u64(0, 3) as usize];
                    let width = widths[rng.gen_range_u64(0, 2) as usize];
                    let seed = seed
                        .wrapping_mul(0x100_0000_01B3)
                        .wrapping_add((c as u64) << 20)
                        .wrapping_add(i as u64);
                    let r = RelationSpec::unique(r_tuples as usize, seed).with_payload_width(width);
                    let s = RelationSpec {
                        tuples: s_tuples as usize,
                        distribution: if theta == 0.0 {
                            KeyDistribution::UniformFk { distinct: r_tuples }
                        } else {
                            KeyDistribution::Zipf { distinct: r_tuples, theta }
                        },
                        payload_width: width,
                        seed: seed ^ 0x5DEE_CE66,
                    };
                    RequestSpec { r, s, build: None }.into()
                })
                .collect();
            ClientSpec { requests }
        })
        .collect()
}
