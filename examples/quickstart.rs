//! Quickstart: one frame through every 802.11 generation.
//!
//! Run with: `cargo run --example quickstart`

use wlan_core::math::rng::WlanRng;
use wlan_core::channel::Awgn;
use wlan_core::dsss::{DsssPhy, DsssRate};
use wlan_core::ofdm::{OfdmPhy, OfdmRate};
use wlan_core::standard::Standard;

fn main() {
    let mut rng = WlanRng::seed_from_u64(2005);
    let message = b"Wireless LAN: Past, Present, and Future";

    println!("== The evolution the paper retraces ==\n");
    println!(
        "{}",
        wlan_core::evolution::format_table(&wlan_core::evolution::evolution_table())
    );

    // 1997: 2 Mbps DSSS with Barker spreading, through a noisy channel.
    let phy = DsssPhy::new(DsssRate::Dqpsk2M);
    let bits = wlan_core::coding::bits::bytes_to_bits(message);
    let chips = phy.transmit(&bits);
    let noisy = Awgn::from_snr_db(3.0).apply(&chips, &mut rng);
    let rx_bits = phy.receive(&noisy);
    let ok = rx_bits[..bits.len()] == bits[..];
    println!(
        "802.11  DSSS 2 Mbps at 3 dB chip SNR: {} ({} chips on air)",
        if ok { "decoded" } else { "FAILED" },
        chips.len()
    );

    // 1999: 54 Mbps OFDM with the full clause-17 chain.
    let phy = OfdmPhy::new(OfdmRate::R54);
    let frame = phy.transmit(message);
    let noisy = Awgn::from_snr_db(28.0).apply(&frame, &mut rng);
    match phy.receive(&noisy) {
        Ok(payload) if payload == message => println!(
            "802.11a OFDM 54 Mbps at 28 dB SNR: decoded ({} samples, {:.0} µs)",
            frame.len(),
            phy.frame_duration_us(message.len())
        ),
        other => println!("802.11a receive surprised us: {other:?}"),
    }

    // 2005 draft: 2×2 MIMO spatial multiplexing.
    use wlan_core::coding::CodeRate;
    use wlan_core::mimo::detect::Detector;
    use wlan_core::mimo::phy::{MimoOfdmConfig, MimoOfdmPhy};
    use wlan_core::ofdm::params::Modulation;

    let phy = MimoOfdmPhy::new(MimoOfdmConfig {
        n_streams: 2,
        n_rx: 2,
        modulation: Modulation::Qam16,
        code_rate: CodeRate::R1_2,
        detector: Detector::Mmse,
    })
    .expect("2x2 is a supported antenna configuration");
    let pdp = wlan_core::channel::PowerDelayProfile::tgn_model('B');
    let ch = wlan_core::channel::mimo::MimoMultipathChannel::realize(2, 2, &pdp, &mut rng);
    let n0 = wlan_core::math::special::db_to_lin(-28.0);
    let tx = phy.transmit(message);
    let rx = ch.propagate(&tx, n0, &mut rng).expect("two transmit streams");
    let decoded = phy
        .try_receive(&rx, n0, message.len())
        .expect("full-length frame");
    println!(
        "802.11n 2x2 MIMO ({:.0} Mbps) at 28 dB SNR: {}",
        phy.rate_mbps(),
        if decoded == message { "decoded" } else { "FAILED" }
    );

    println!("\nGenerations available as `Standard`: {:?}", Standard::all());
}
