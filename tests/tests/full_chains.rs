//! End-to-end integration: every generation's complete transmit → channel →
//! receive chain, exercised across crates.

use wlan_core::math::rng::{Rng, WlanRng};
use wlan_core::channel::mimo::MimoMultipathChannel;
use wlan_core::channel::{Awgn, MultipathChannel, PowerDelayProfile};
use wlan_core::coding::crc::{append_fcs, check_fcs};
use wlan_core::coding::CodeRate;
use wlan_core::dsss::{DsssPhy, DsssRate};
use wlan_core::math::special::db_to_lin;
use wlan_core::mimo::detect::Detector;
use wlan_core::mimo::phy::{MimoOfdmConfig, MimoOfdmPhy};
use wlan_core::ofdm::params::Modulation;
use wlan_core::ofdm::{OfdmPhy, OfdmRate};

fn random_payload(len: usize, rng: &mut WlanRng) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn dsss_generations_roundtrip_with_noise_and_fcs() {
    let mut rng = WlanRng::seed_from_u64(1000);
    for rate in DsssRate::all() {
        let phy = DsssPhy::new(rate);
        // A MAC frame with FCS rides over the PHY.
        let frame = append_fcs(&random_payload(64, &mut rng));
        let bits = wlan_core::coding::bits::bytes_to_bits(&frame);
        let chips = phy.transmit(&bits);
        let noisy = Awgn::from_snr_db(15.0).apply(&chips, &mut rng);
        let rx_bits = phy.receive(&noisy);
        let rx_frame = wlan_core::coding::bits::bits_to_bytes(&rx_bits[..bits.len()]);
        assert_eq!(
            check_fcs(&rx_frame),
            Some(&frame[..frame.len() - 4]),
            "{rate}: FCS must validate after the PHY roundtrip"
        );
    }
}

#[test]
fn ofdm_all_rates_through_multipath_and_noise() {
    let mut rng = WlanRng::seed_from_u64(1001);
    let payload = random_payload(300, &mut rng);
    // Model B is mild enough that 30 dB decodes every rate most of the time.
    let pdp = PowerDelayProfile::tgn_model('B');
    for rate in OfdmRate::all() {
        let phy = OfdmPhy::new(rate);
        let mut ok = 0;
        let trials = 5;
        for _ in 0..trials {
            let ch = MultipathChannel::realize(&pdp, &mut rng);
            let frame = phy.transmit(&payload);
            let mut rx = ch.filter(&frame);
            rx.truncate(frame.len());
            let noisy = Awgn::from_snr_db(32.0).apply(&rx, &mut rng);
            if phy.receive(&noisy) == Ok(payload.clone()) {
                ok += 1;
            }
        }
        assert!(ok >= 3, "{rate}: only {ok}/{trials} frames decoded");
    }
}

#[test]
fn mimo_4x4_64qam_full_chain() {
    let mut rng = WlanRng::seed_from_u64(1002);
    let payload = random_payload(500, &mut rng);
    let phy = MimoOfdmPhy::new(MimoOfdmConfig {
        n_streams: 4,
        n_rx: 4,
        modulation: Modulation::Qam64,
        code_rate: CodeRate::R3_4,
        detector: Detector::Mmse,
    })
    .unwrap();
    // 4 streams of 64-QAM r=3/4 at 20 MHz: 216 Mbps class.
    assert!(phy.rate_mbps() > 200.0);
    let pdp = PowerDelayProfile::tgn_model('B');
    let n0 = db_to_lin(-38.0);
    let mut ok = 0;
    for _ in 0..5 {
        let ch = MimoMultipathChannel::realize(4, 4, &pdp, &mut rng);
        let tx = phy.transmit(&payload);
        let rx = ch.propagate(&tx, n0, &mut rng).unwrap();
        if phy.receive(&rx, n0, payload.len()).unwrap() == payload {
            ok += 1;
        }
    }
    assert!(ok >= 3, "4x4 64-QAM decoded only {ok}/5 at 38 dB");
}

#[test]
fn ofdm_receiver_rejects_wrong_generation_waveform() {
    let mut rng = WlanRng::seed_from_u64(1003);
    // Feed a DSSS chip stream to the OFDM receiver: it must error out, not
    // hallucinate a frame.
    let dsss = DsssPhy::new(DsssRate::Cck11M);
    let bits = random_payload(200, &mut rng)
        .iter()
        .flat_map(|&b| wlan_core::coding::bits::bytes_to_bits(&[b]))
        .collect::<Vec<u8>>();
    let chips = dsss.transmit(&bits);
    let ofdm = OfdmPhy::new(OfdmRate::R24);
    assert!(
        ofdm.receive(&chips).is_err(),
        "SIGNAL parity/rate checks must reject a non-OFDM waveform"
    );
}

#[test]
fn evolution_rates_come_from_the_phys_not_constants() {
    // Cross-crate consistency: what `Standard` reports must equal what the
    // underlying PHY crates compute.
    use wlan_core::standard::Standard;
    assert_eq!(
        Standard::Dot11a.peak_rate_mbps(),
        OfdmRate::R54.rate_mbps()
    );
    assert_eq!(
        Standard::Dot11b.peak_rate_mbps(),
        DsssRate::Cck11M.rate_mbps()
    );
    assert_eq!(
        Standard::Dot11n.peak_rate_mbps(),
        wlan_core::mimo::mcs::peak_rate_mbps()
    );
}

#[test]
fn link_simulator_orders_generations_by_robustness() {
    use wlan_core::linksim::{sweep_per, DsssLink, OfdmLink};
    // At 6 dB: 1997-era DSSS works, 54 Mbps OFDM cannot.
    let snr = [6.0];
    let dsss = sweep_per(
        &DsssLink {
            rate: DsssRate::Dbpsk1M,
        },
        &snr,
        60,
        30,
        77,
    );
    let ofdm54 = sweep_per(&OfdmLink::awgn(OfdmRate::R54), &snr, 60, 30, 77);
    assert!(dsss.points[0].per < 0.1, "DSSS per {}", dsss.points[0].per);
    assert!(ofdm54.points[0].per > 0.9, "54 Mbps per {}", ofdm54.points[0].per);
}
