//! Service-area analysis: one AP versus a mesh.
//!
//! Experiment E8's second claim: mesh "dramatically increases the area
//! served". We scatter test points over a region and ask what fraction can
//! reach a gateway (possibly via relays) at each rate tier.

use crate::metric::Metric;
use crate::topology::{best_rate_for_snr, MeshNetwork};
use wlan_math::par;
use wlan_math::rng::{Rng, WlanRng};
use wlan_channel::pathloss::{LinkBudget, PathLossModel};

/// Coverage statistics over a sampled region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Fraction of points with any service (≥ 6 Mbps path to a gateway).
    pub covered_fraction: f64,
    /// Mean end-to-end throughput over covered points, in Mbps.
    pub mean_throughput_mbps: f64,
    /// Points sampled.
    pub samples: usize,
}

/// One sampled client's contribution: covered flag plus its end-to-end
/// throughput (0 when uncovered).
fn mesh_sample(
    infrastructure: &[(f64, f64)],
    client: (f64, f64),
    pathloss: &PathLossModel,
    budget: &LinkBudget,
) -> (bool, f64) {
    let mut nodes = infrastructure.to_vec();
    nodes.push(client);
    let net = MeshNetwork::with_models(&nodes, pathloss, budget);
    let client_idx = nodes.len() - 1;
    if let Some(path) = net.best_path(client_idx, 0, Metric::Airtime) {
        let t = net.path_throughput_mbps(&path, 3);
        if t > 0.0 {
            return (true, t);
        }
    }
    (false, 0.0)
}

/// Draws and evaluates the single seed-addressed coverage sample `sample`:
/// the client position and everything downstream come from
/// `master.fork(sample)`, so the sample is a pure function of
/// `(infrastructure, side_m, seed, sample)` — the addressing scheme
/// [`estimate_coverage_seeded`] fans out over, exposed so campaign
/// runners can resume a coverage estimate mid-sweep bit-identically.
///
/// Returns `(covered, end_to_end_throughput_mbps)` (throughput 0 when
/// uncovered).
pub fn coverage_sample(
    infrastructure: &[(f64, f64)],
    side_m: f64,
    master: &WlanRng,
    sample: u64,
) -> (bool, f64) {
    let pathloss = PathLossModel::tgn_model_d();
    let budget = LinkBudget::typical_wlan();
    let mut rng = master.fork(sample);
    let client = (rng.gen::<f64>() * side_m, rng.gen::<f64>() * side_m);
    mesh_sample(infrastructure, client, &pathloss, &budget)
}

/// Estimates coverage of a square region of side `side_m` served by
/// `infrastructure` nodes (node 0 is the gateway; the rest are mesh relays).
///
/// Each sampled client joins the mesh as a temporary node and routes to the
/// gateway with the airtime metric. Sample `i` draws its client position
/// from `master.fork(i)`, and the covered-count/throughput reduction folds
/// per-sample results in sample order, so the estimate is a pure function
/// of `(infrastructure, side_m, samples, seed)` — bit-identical at any
/// `WLAN_THREADS` setting.
///
/// # Panics
///
/// Panics if `infrastructure` is empty or `samples` is zero.
pub fn estimate_coverage_seeded(
    infrastructure: &[(f64, f64)],
    side_m: f64,
    samples: usize,
    seed: u64,
) -> Coverage {
    assert!(!infrastructure.is_empty(), "need at least a gateway node");
    assert!(samples > 0, "need at least one sample");
    let master = WlanRng::seed_from_u64(seed);

    let ids: Vec<usize> = (0..samples).collect();
    let per_sample = par::parallel_map(&ids, |i, _| {
        coverage_sample(infrastructure, side_m, &master, i as u64)
    });

    // Fixed-order fold: the float sum is associated the same way at any
    // thread count.
    let mut covered = 0usize;
    let mut throughput_sum = 0.0;
    for &(hit, t) in &per_sample {
        covered += hit as usize;
        throughput_sum += t;
    }
    Coverage {
        covered_fraction: covered as f64 / samples as f64,
        mean_throughput_mbps: if covered > 0 {
            throughput_sum / covered as f64
        } else {
            0.0
        },
        samples,
    }
}

/// Direct (single-AP) coverage of the same region: a client is covered only
/// if its direct SNR to the gateway supports some rate.
pub fn estimate_single_ap_coverage(
    gateway: (f64, f64),
    side_m: f64,
    samples: usize,
    rng: &mut impl Rng,
) -> Coverage {
    let pathloss = PathLossModel::tgn_model_d();
    let budget = LinkBudget::typical_wlan();
    let mut covered = 0usize;
    let mut throughput_sum = 0.0;
    for _ in 0..samples {
        let client = (rng.gen::<f64>() * side_m, rng.gen::<f64>() * side_m);
        let d = ((client.0 - gateway.0).powi(2) + (client.1 - gateway.1).powi(2))
            .sqrt()
            .max(0.1);
        let snr = budget.snr_at_distance_db(&pathloss, d);
        if let Some(rate) = best_rate_for_snr(snr) {
            covered += 1;
            throughput_sum += rate;
        }
    }
    Coverage {
        covered_fraction: covered as f64 / samples as f64,
        mean_throughput_mbps: if covered > 0 {
            throughput_sum / covered as f64
        } else {
            0.0
        },
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::WlanRng;

    /// A 2×2 grid of mesh nodes (170 m spacing, within the ~190 m usable
    /// range of each other) over a 450 m square, gateway in a corner.
    fn mesh_layout() -> Vec<(f64, f64)> {
        vec![(50.0, 50.0), (220.0, 50.0), (50.0, 220.0), (220.0, 220.0)]
    }

    #[test]
    fn mesh_covers_more_area_than_single_ap() {
        let mut rng = WlanRng::seed_from_u64(210);
        let side = 450.0;
        let mesh = estimate_coverage_seeded(&mesh_layout(), side, 400, 210);
        let single = estimate_single_ap_coverage((50.0, 50.0), side, 400, &mut rng);
        assert!(
            mesh.covered_fraction > single.covered_fraction + 0.1,
            "mesh {} vs single AP {}",
            mesh.covered_fraction,
            single.covered_fraction
        );
    }

    #[test]
    fn tiny_region_is_fully_covered_either_way() {
        let mut rng = WlanRng::seed_from_u64(211);
        let single = estimate_single_ap_coverage((10.0, 10.0), 20.0, 200, &mut rng);
        assert!((single.covered_fraction - 1.0).abs() < 1e-9);
        assert!(single.mean_throughput_mbps > 50.0, "short links run at 54");
    }

    #[test]
    fn empty_region_far_from_gateway_is_uncovered() {
        let mut rng = WlanRng::seed_from_u64(212);
        // Gateway 100 km away from the sampled square.
        let c = estimate_single_ap_coverage((1e5, 1e5), 100.0, 100, &mut rng);
        assert_eq!(c.covered_fraction, 0.0);
        assert_eq!(c.mean_throughput_mbps, 0.0);
    }

    #[test]
    fn seeded_coverage_is_deterministic_and_agrees_statistically() {
        let a = estimate_coverage_seeded(&mesh_layout(), 300.0, 400, 5);
        let b = estimate_coverage_seeded(&mesh_layout(), 300.0, 400, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn more_relays_increase_throughput_at_range() {
        let side = 400.0;
        let sparse = estimate_coverage_seeded(&[(50.0, 50.0)], side, 300, 213);
        let dense = estimate_coverage_seeded(
            &[
                (50.0, 50.0),
                (200.0, 50.0),
                (350.0, 50.0),
                (50.0, 200.0),
                (200.0, 200.0),
                (350.0, 200.0),
                (50.0, 350.0),
                (200.0, 350.0),
                (350.0, 350.0),
            ],
            side,
            300,
            214,
        );
        assert!(dense.covered_fraction >= sparse.covered_fraction);
        assert!(
            dense.covered_fraction > 0.9,
            "dense mesh should cover nearly everything: {}",
            dense.covered_fraction
        );
    }
}
