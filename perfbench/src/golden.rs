//! Golden digests: every result a workload produces is checked against a
//! reference computed another way.
//!
//! * PHY campaigns: the tallies `run_per_campaign` reports are re-derived
//!   from per-frame verdicts of the streaming flowgraph
//!   (`flow_verdicts`), walked through the campaign's round-boundary
//!   stopping rule, and compared as `f64::to_bits` digests.
//! * City: the aggregates of a killed-and-resumed pair against an
//!   uninterrupted run.
//! * Fleet: `render_table` bytes against the in-process campaign's.

use wlan_city::CityReport;
use wlan_core::fault::FaultChain;
use wlan_core::linksim::{flow_verdicts, frame_trial_at, PhyLink};
use wlan_core::math::rng::WlanRng;
use wlan_dist::{DistPerReport, DistStats};
use wlan_runner::journal::fnv1a64;
use wlan_runner::per::{
    evaluate_status, PerCampaignConfig, PerCampaignReport, PointProgress, PointStatus, ROUND_TRIALS,
};

/// Digest of a campaign's per-point tallies, bit-exact.
pub fn tally_digest(points: &[PointProgress]) -> u64 {
    let mut bytes = Vec::new();
    for p in points {
        for word in [
            p.snr_db.to_bits(),
            p.trials,
            p.errors,
            p.erasures,
            p.per().to_bits(),
            p.erasure_rate().to_bits(),
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(format!("{:?}", p.status).as_bytes());
    }
    fnv1a64(&bytes)
}

/// The tallies a campaign must report, rebuilt from per-frame verdicts.
///
/// Point `i`'s verdicts come from the flowgraph on stream
/// `seed → fork(i) → fork(frame)` (the oracle `frame_trial_at` for a link
/// with no stage decomposition). The campaign's own trial count only bounds
/// how many verdicts are computed: the stopping rule is re-applied at every
/// round boundary, so a campaign that stopped early or late disagrees.
pub fn reference_points(
    link: &dyn PhyLink,
    faults: &FaultChain,
    cfg: &PerCampaignConfig,
    reported: &[PointProgress],
) -> Vec<PointProgress> {
    let master = WlanRng::seed_from_u64(cfg.seed);
    cfg.snrs_db
        .iter()
        .enumerate()
        .map(|(i, &snr_db)| {
            let point_rng = master.fork(i as u64);
            let n = reported.get(i).map_or(0, |p| p.trials) as usize;
            let verdicts = flow_verdicts(link, faults, snr_db, cfg.payload_len, &point_rng, n)
                .unwrap_or_else(|| {
                    (0..n as u64)
                        .map(|f| {
                            frame_trial_at(link, faults, snr_db, cfg.payload_len, &point_rng, f)
                        })
                        .collect()
                });
            let mut p = PointProgress {
                snr_db,
                trials: 0,
                errors: 0,
                erasures: 0,
                status: PointStatus::Active,
            };
            loop {
                p.status = evaluate_status(&p, cfg);
                if p.status != PointStatus::Active || p.trials as usize >= verdicts.len() {
                    break;
                }
                let end = cfg.max_frames.min(p.trials + ROUND_TRIALS) as usize;
                for v in &verdicts[p.trials as usize..end.min(verdicts.len())] {
                    match v {
                        Ok(true) => {}
                        Ok(false) => p.errors += 1,
                        Err(_) => {
                            p.errors += 1;
                            p.erasures += 1;
                        }
                    }
                }
                p.trials = end.min(verdicts.len()) as u64;
            }
            p
        })
        .collect()
}

/// Checks one campaign report against its reference; `Err` says why not.
pub fn check_campaign(
    link: &dyn PhyLink,
    faults: &FaultChain,
    cfg: &PerCampaignConfig,
    report: &PerCampaignReport,
) -> Result<(), String> {
    if !report.outcome.is_complete() {
        return Err(format!(
            "{} / {}: campaign incomplete",
            report.name, report.fault
        ));
    }
    let want = tally_digest(&reference_points(link, faults, cfg, &report.points));
    let got = tally_digest(&report.points);
    if want != got {
        return Err(format!(
            "{} / {} seed {}: tally digest {got:016x} != reference {want:016x}",
            report.name, report.fault, cfg.seed
        ));
    }
    Ok(())
}

/// Digest of every aggregate a city report carries, bit-exact.
pub fn city_digest(r: &CityReport) -> u64 {
    let floats = [
        r.throughput_mbps,
        r.loss_rate,
        r.jain_fairness,
        r.defer_frac,
        r.p_hidden,
        r.measured_protection_penalty.unwrap_or(f64::NAN),
    ];
    let words = [
        r.epochs_run,
        r.aps,
        r.stations,
        r.attempts,
        r.failures,
        r.handoffs,
        r.delivered_frames,
        u64::from(r.measured_protection_penalty.is_some()),
    ]
    .into_iter()
    .chain(
        floats
            .iter()
            .chain(&r.ac_throughput_mbps)
            .chain(&r.ac_jain)
            .map(|v| v.to_bits()),
    );
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// The fleet's deterministic table rendered for an in-process report, so
/// the two can be compared byte for byte.
pub fn in_process_table(report: &PerCampaignReport) -> Vec<u8> {
    let as_dist = DistPerReport {
        name: report.name.clone(),
        fault: report.fault.clone(),
        rate_mbps: report.rate_mbps,
        seed: report.seed,
        points: report.points.clone(),
        quarantine: report.quarantine.clone(),
        lease_quarantine: Vec::new(),
        outcome: report.outcome,
        resume: report.resume.clone(),
        journal_error: None,
        stats: DistStats::default(),
    };
    render(&as_dist)
}

pub fn render(report: &DistPerReport) -> Vec<u8> {
    let mut out = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = report.render_table(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_core::linksim::OfdmLink;
    use wlan_core::ofdm::OfdmRate;
    use wlan_runner::per::run_per_campaign;
    use wlan_runner::Budget;

    fn campaign() -> (OfdmLink, PerCampaignConfig, PerCampaignReport) {
        let link = OfdmLink::awgn(OfdmRate::R54);
        let cfg = PerCampaignConfig::new(&[18.0, 21.0], 40, 96, 7)
            .with_target_half_width(0.08)
            .with_budget(Budget::unlimited())
            .with_threads(1);
        let report = run_per_campaign(&link, &FaultChain::clean(), &cfg);
        (link, cfg, report)
    }

    #[test]
    fn a_genuine_campaign_matches_its_reference() {
        let (link, cfg, report) = campaign();
        assert_eq!(
            check_campaign(&link, &FaultChain::clean(), &cfg, &report),
            Ok(())
        );
    }

    #[test]
    fn a_perturbed_tally_fails_the_digest_check() {
        let (link, cfg, report) = campaign();
        let perturbations: [fn(&mut PointProgress); 4] = [
            |p| p.errors += 1,
            |p| p.erasures += 1,
            |p| p.trials += ROUND_TRIALS,
            |p| p.status = PointStatus::Active,
        ];
        for perturb in perturbations {
            let mut bad = report.clone();
            perturb(&mut bad.points[1]);
            assert!(
                check_campaign(&link, &FaultChain::clean(), &cfg, &bad).is_err(),
                "perturbed {:?} passed",
                bad.points[1]
            );
        }
    }

    #[test]
    fn in_process_table_matches_the_dist_renderer_fields() {
        let (_, _, report) = campaign();
        let table = String::from_utf8(in_process_table(&report)).expect("utf8 table");
        assert!(table.starts_with("campaign "));
        assert!(table.ends_with("abandoned leases 0\n"));
    }
}
