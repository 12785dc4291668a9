//! Golden pins for the OFDM chains' kernels: FFT spectra, transmitted
//! 802.11a and 802.11n (HT-20 BCC and LDPC, spatial multiplexing, STBC)
//! sample streams, receiver outputs near each config's PER knee and the
//! metro-sized PER-table calibration, all as FNV-1a-64 digests over exact
//! IEEE bit patterns.
//!
//! The digests were recorded from the straightforward per-stage chain
//! (frame-sized bit vectors, one stage at a time, a per-butterfly
//! direction branch in the FFT). The streaming per-symbol chain must
//! reproduce every one of them: any change to a floating-point operation
//! or its order moves a digest. The receive pins sit near the knees, so
//! wrong decodes are pinned as well as clean ones.

use wlan_city::PerTableSet;
use wlan_core::channel::mimo::MimoMultipathChannel;
use wlan_core::channel::{Awgn, PowerDelayProfile};
use wlan_core::coding::CodeRate;
use wlan_core::math::fft::{self, FftPlan};
use wlan_core::math::rng::{Rng, WlanRng};
use wlan_core::math::special::db_to_lin;
use wlan_core::math::{Complex, WlanError};
use wlan_core::mimo::detect::Detector;
use wlan_core::mimo::ht::HtPhy;
use wlan_core::mimo::ht_ldpc::HtLdpcPhy;
use wlan_core::mimo::phy::{MimoOfdmConfig, MimoOfdmPhy};
use wlan_core::mimo::stbc_phy::StbcOfdmPhy;
use wlan_core::ofdm::params::Modulation;
use wlan_core::ofdm::{OfdmPhy, OfdmRate};
use wlan_runner::journal::fnv1a64;

fn push_samples(bytes: &mut Vec<u8>, samples: &[Complex]) {
    for s in samples {
        bytes.extend_from_slice(&s.re.to_bits().to_le_bytes());
        bytes.extend_from_slice(&s.im.to_bits().to_le_bytes());
    }
}

fn digest_samples(samples: &[Complex]) -> u64 {
    let mut bytes = Vec::with_capacity(samples.len() * 16);
    push_samples(&mut bytes, samples);
    fnv1a64(&bytes)
}

/// Seeded Gaussian blocks with exact zeros sprinkled in: whole zero
/// samples, zero real parts, zero imaginary parts and a negative zero,
/// so sign-of-zero handling in the butterflies is pinned too.
fn zero_salted_blocks(n: usize, blocks: usize, seed: u64) -> Vec<Complex> {
    let mut rng = WlanRng::seed_from_u64(seed);
    (0..n * blocks)
        .map(|i| {
            let v = Complex::new(rng.gen_gaussian(), rng.gen_gaussian());
            match i % 7 {
                0 => Complex::ZERO,
                3 => Complex::new(0.0, v.im),
                5 => Complex::new(v.re, -0.0),
                _ => v,
            }
        })
        .collect()
}

#[test]
fn fft_spectra_are_pinned() {
    // (n, forward digest, inverse digest) over 4 blocks per size.
    let golden: [(usize, u64, u64); 2] = [
        (64, 0xe789_631b_14d3_d152, 0x37f3_1d76_8fef_b8cc),
        (128, 0x4fa4_c385_fa9f_6588, 0x38be_ec5b_fb47_1476),
    ];
    for (n, want_fwd, want_inv) in golden {
        let input = zero_salted_blocks(n, 4, 0xF0F0 + n as u64);
        let plan = FftPlan::new(n);

        let mut fwd = input.clone();
        plan.fft_batch(&mut fwd);
        let mut inv = input.clone();
        plan.ifft_batch(&mut inv);
        let (got_fwd, got_inv) = (digest_samples(&fwd), digest_samples(&inv));
        assert_eq!(got_fwd, want_fwd, "n={n} forward digest {got_fwd:#018x}");
        assert_eq!(got_inv, want_inv, "n={n} inverse digest {got_inv:#018x}");

        // Every entry point runs the same arithmetic as the batch.
        for (b, block) in input.chunks_exact(n).enumerate() {
            let single = fft::fft(block);
            assert_eq!(
                digest_samples(&single),
                digest_samples(&fwd[b * n..(b + 1) * n])
            );
            let single = fft::ifft(block);
            assert_eq!(
                digest_samples(&single),
                digest_samples(&inv[b * n..(b + 1) * n])
            );
        }
    }
}

#[test]
fn ofdm_transmit_samples_are_pinned() {
    // Per rate: (digest of the 24-byte frame, digest of the 1200-byte frame).
    let golden: [(OfdmRate, u64, u64); 8] = [
        (OfdmRate::R6, 0xbdd2_2d6c_be81_0dd2, 0x3655_9d31_fce5_d59c),
        (OfdmRate::R9, 0x3224_a4d9_8618_1a4c, 0x0124_cd08_b417_96cd),
        (OfdmRate::R12, 0x7e92_14a7_8963_a1ae, 0x80e2_d7b4_058f_c331),
        (OfdmRate::R18, 0x08ac_e448_4b83_1ace, 0x8f01_37ea_a8b2_546e),
        (OfdmRate::R24, 0xa959_ac9a_e917_c15a, 0x47c9_20a8_c369_ec9f),
        (OfdmRate::R36, 0x8dd9_aef6_8148_72c0, 0x5384_80f0_5665_7a30),
        (OfdmRate::R48, 0x07cf_8970_f015_b724, 0xc051_cef7_79ea_8f53),
        (OfdmRate::R54, 0xd03e_3f96_4cc4_eb75, 0xeb13_6352_b119_479e),
    ];
    let mut rng = WlanRng::seed_from_u64(0x7A5);
    let short: Vec<u8> = (0..24).map(|_| rng.gen()).collect();
    let long: Vec<u8> = (0..1200).map(|_| rng.gen()).collect();
    for (rate, want_short, want_long) in golden {
        let phy = OfdmPhy::new(rate);
        let frame = phy.transmit(&short);
        assert_eq!(frame.len(), phy.frame_samples(short.len()));
        let got = digest_samples(&frame);
        assert_eq!(got, want_short, "{rate} 24-byte digest {got:#018x}");
        let frame = phy.transmit(&long);
        assert_eq!(frame.len(), phy.frame_samples(long.len()));
        let got = digest_samples(&frame);
        assert_eq!(got, want_long, "{rate} 1200-byte digest {got:#018x}");
    }
}

#[test]
fn ofdm_receive_near_each_knee_is_pinned() {
    // Per rate: (SNR dB near the 200-byte PER knee, digest of the
    // outcomes of the frames sent there). A right decode, a wrong decode
    // and an erasure all hash differently.
    let golden: [(OfdmRate, f64, u64); 8] = [
        (OfdmRate::R6, 2.0, 0xfa25_7547_6840_d4b4),
        (OfdmRate::R9, 3.0, 0xd41b_03f2_b8d4_b5f1),
        (OfdmRate::R12, 4.0, 0x4f99_1de4_9c87_032c),
        (OfdmRate::R18, 6.5, 0x3d79_41a4_ffcb_f2c2),
        (OfdmRate::R24, 9.5, 0xea40_09c2_578e_c5f4),
        (OfdmRate::R36, 12.5, 0x2697_d14f_6993_223e),
        (OfdmRate::R48, 15.5, 0xffed_54a0_ce07_876c),
        (OfdmRate::R54, 18.0, 0x54d3_e031_e4c6_66e5),
    ];
    const FRAMES: u64 = 8;
    for (rate, snr_db, want) in golden {
        let phy = OfdmPhy::new(rate);
        let (mut right, mut wrong) = (0usize, 0usize);
        let mut bytes = Vec::new();
        for frame in 0..FRAMES {
            let mut rng = WlanRng::seed_from_u64(0x4EC).fork(rate as u64).fork(frame);
            let payload: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
            let mut samples = phy.transmit(&payload);
            Awgn::from_snr_db(snr_db).apply_in_place(&mut samples, &mut rng);
            match phy.receive(&samples) {
                Ok(out) => {
                    if out == payload {
                        right += 1;
                    } else {
                        wrong += 1;
                    }
                    bytes.push(1);
                    bytes.extend_from_slice(&out);
                }
                Err(e) => {
                    wrong += 1;
                    bytes.push(0);
                    bytes.extend_from_slice(e.to_string().as_bytes());
                }
            }
        }
        let got = fnv1a64(&bytes);
        assert_eq!(
            got, want,
            "{rate} at {snr_db} dB: outcome digest {got:#018x}"
        );
        // On the knee both outcomes occur, so the pin covers wrong
        // decodes as well as right ones.
        assert!(
            right > 0 && wrong > 0,
            "{rate}: {right} right / {wrong} wrong decodes"
        );
    }
}

#[test]
fn metro_calibration_digest_is_pinned() {
    // The city_campaign metro's tables at perfbench's 8 frames per point.
    let set = PerTableSet::calibrated(1200, 8, 7).expect("calibration");
    let digest = set.digest();
    assert_eq!(
        digest, 0x4b53_571a_bed7_79a4,
        "metro calibration digest {digest:#018x}"
    );
}

// ---------------------------------------------------------------------
// The 802.11n chains: HT-20 (BCC and LDPC), spatial multiplexing and
// Alamouti STBC. Recorded from the frame-at-a-time chains (one stage over
// the whole frame, then the next); the per-symbol chains must match.

const HT_MCS: [(Modulation, CodeRate); 8] = [
    (Modulation::Bpsk, CodeRate::R1_2),
    (Modulation::Qpsk, CodeRate::R1_2),
    (Modulation::Qpsk, CodeRate::R3_4),
    (Modulation::Qam16, CodeRate::R1_2),
    (Modulation::Qam16, CodeRate::R3_4),
    (Modulation::Qam64, CodeRate::R2_3),
    (Modulation::Qam64, CodeRate::R3_4),
    (Modulation::Qam64, CodeRate::R5_6),
];

/// The (modulation, rate) pairs whose LDPC codeword spans a whole number
/// of information bits at the first span reaching 1296 coded bits.
const HT_LDPC: [(Modulation, CodeRate); 10] = [
    (Modulation::Bpsk, CodeRate::R1_2),
    (Modulation::Bpsk, CodeRate::R3_4),
    (Modulation::Qpsk, CodeRate::R1_2),
    (Modulation::Qpsk, CodeRate::R3_4),
    (Modulation::Qam16, CodeRate::R1_2),
    (Modulation::Qam16, CodeRate::R3_4),
    (Modulation::Qam64, CodeRate::R1_2),
    (Modulation::Qam64, CodeRate::R2_3),
    (Modulation::Qam64, CodeRate::R3_4),
    (Modulation::Qam64, CodeRate::R5_6),
];

/// (streams = receive antennas, detector, modulation, rate): every stream
/// count under both detectors, every modulation and every rate, so the
/// stream parser runs with s = 1, 2 and 3 bits per block.
const MIMO: [(usize, Detector, Modulation, CodeRate); 8] = [
    (1, Detector::ZeroForcing, Modulation::Bpsk, CodeRate::R1_2),
    (1, Detector::Mmse, Modulation::Qam64, CodeRate::R5_6),
    (2, Detector::ZeroForcing, Modulation::Qpsk, CodeRate::R3_4),
    (2, Detector::Mmse, Modulation::Qam16, CodeRate::R1_2),
    (3, Detector::ZeroForcing, Modulation::Qam16, CodeRate::R3_4),
    (3, Detector::Mmse, Modulation::Qam64, CodeRate::R2_3),
    (4, Detector::ZeroForcing, Modulation::Qam64, CodeRate::R3_4),
    (4, Detector::Mmse, Modulation::Qpsk, CodeRate::R1_2),
];

/// (receive antennas, modulation, rate) of the Alamouti 2×N chain.
const STBC: [(usize, Modulation, CodeRate); 2] = [
    (1, Modulation::Qam16, CodeRate::R3_4),
    (2, Modulation::Qam64, CodeRate::R2_3),
];

fn mimo_phy(cfg: (usize, Detector, Modulation, CodeRate)) -> MimoOfdmPhy {
    let (n_streams, detector, modulation, code_rate) = cfg;
    MimoOfdmPhy::new(MimoOfdmConfig {
        n_streams,
        n_rx: n_streams,
        modulation,
        code_rate,
        detector,
    })
    .unwrap()
}

fn digest_antennas(antennas: &[Vec<Complex>]) -> u64 {
    let mut bytes = Vec::new();
    for samples in antennas {
        push_samples(&mut bytes, samples);
    }
    fnv1a64(&bytes)
}

/// The 24- and 1200-byte payloads every transmit pin sends.
fn pin_payloads() -> (Vec<u8>, Vec<u8>) {
    let mut rng = WlanRng::seed_from_u64(0x11A);
    let short = (0..24).map(|_| rng.gen()).collect();
    let long = (0..1200).map(|_| rng.gen()).collect();
    (short, long)
}

#[test]
fn ht_transmit_samples_are_pinned() {
    // Per config: (digest of the 24-byte frame, digest of the 1200-byte
    // frame); the eight BCC MCSs, then the ten LDPC pairs.
    let golden: [(u64, u64); 18] = [
        (0x5d37_9d7c_a27a_f91e, 0xa526_142e_edb2_d894),
        (0xa4ce_ea7c_4d99_1e33, 0x0c8e_1a15_2d7d_03f9),
        (0xb042_27a4_1415_b294, 0x5921_a579_4991_9f2e),
        (0x915a_ce8e_6f2f_f77a, 0x1eff_4a2d_f3d3_5ec3),
        (0xd5ab_2416_c08e_96ee, 0x2f8c_4b57_2ff5_dedc),
        (0xf999_351a_6ce9_0b84, 0x0efb_3069_f844_a613),
        (0xe60a_531b_1013_e037, 0x0161_f0b6_969b_d585),
        (0x12ba_b8cf_b958_b008, 0x0d0e_5df6_ceda_35c6),
        (0x72f2_c40b_de58_6f82, 0x676c_d391_259b_87a8),
        (0xb88b_3cc2_0286_5fd5, 0x425a_6bc2_5980_2284),
        (0xca15_946d_718c_c3da, 0xfd43_3e7c_93a5_4f50),
        (0x8c55_3296_e010_da22, 0x01aa_436a_85a1_77cf),
        (0xc97e_d40a_9c24_91e2, 0x4e86_670a_bb8e_e526),
        (0xaf48_b06f_3ec6_8f32, 0xc409_f76c_9eda_be61),
        (0x43dc_8ee9_0856_7aef, 0x2d83_3b29_bc2b_05a9),
        (0x49a6_a603_ca7d_ac83, 0xfe3a_7626_8ba1_f468),
        (0x5ac2_3f25_3123_b621, 0xfb69_445a_5ae6_f8c6),
        (0x7808_d37a_a9a0_f541, 0xb8ca_62fc_1d82_d8a5),
    ];
    let (short, long) = pin_payloads();
    let bcc = HT_MCS.iter().map(|&(m, r)| {
        let phy = HtPhy::new(m, r);
        (
            digest_samples(&phy.transmit(&short)),
            digest_samples(&phy.transmit(&long)),
        )
    });
    let ldpc = HT_LDPC.iter().map(|&(m, r)| {
        let phy = HtLdpcPhy::cached(m, r);
        (
            digest_samples(&phy.transmit(&short)),
            digest_samples(&phy.transmit(&long)),
        )
    });
    for (i, (got, want)) in bcc.chain(ldpc).zip(golden).enumerate() {
        assert_eq!(
            got, want,
            "HT config {i}: digests ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

#[test]
fn mimo_and_stbc_transmit_samples_are_pinned() {
    // Per config: (digest of the 24-byte frame, digest of the 1200-byte
    // frame) over every antenna in turn; the eight MIMO configs, then
    // the two STBC ones.
    let golden: [(u64, u64); 10] = [
        (0x855b_1b2f_f979_4511, 0x7c2d_1110_e145_27fc),
        (0xf22a_f276_44ec_30c5, 0x4407_0a16_0a70_2005),
        (0x3d9e_11e4_0573_fcaf, 0x3089_84cd_77fc_23ce),
        (0x40ca_b1d3_ce2b_3a5b, 0xee0b_1ec3_c66e_710e),
        (0x033c_1c7c_19d9_f9b7, 0x384c_3582_c724_b237),
        (0x3c47_308f_2b91_26a0, 0x4353_42ee_7fc3_e39a),
        (0xc495_e09a_8266_24c8, 0xde91_8f80_5823_5373),
        (0x10c4_984b_ea4f_81aa, 0xcbd7_d6b4_4a22_81f7),
        (0xdd59_39b6_cb41_89ec, 0xb363_7a82_99bc_a9ee),
        (0x902b_6054_b18f_b96b, 0x7f28_8e5e_02bd_3340),
    ];
    let (short, long) = pin_payloads();
    let mimo = MIMO.iter().map(|&cfg| {
        let phy = mimo_phy(cfg);
        (
            digest_antennas(&phy.transmit(&short)),
            digest_antennas(&phy.transmit(&long)),
        )
    });
    let stbc = STBC.iter().map(|&(n_rx, m, r)| {
        let phy = StbcOfdmPhy::new(m, r, n_rx).unwrap();
        (
            digest_antennas(&phy.transmit(&short)),
            digest_antennas(&phy.transmit(&long)),
        )
    });
    for (i, (got, want)) in mimo.chain(stbc).zip(golden).enumerate() {
        assert_eq!(
            got, want,
            "MIMO/STBC config {i}: digests ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

/// The outcomes of one config's eight knee frames: a right decode, a
/// wrong decode and an erasure all hash differently.
#[derive(Default)]
struct Outcomes {
    bytes: Vec<u8>,
    right: usize,
    wrong: usize,
}

impl Outcomes {
    fn push(&mut self, payload: &[u8], decoded: Result<Vec<u8>, WlanError>) {
        match decoded {
            Ok(out) => {
                if out == payload {
                    self.right += 1;
                } else {
                    self.wrong += 1;
                }
                self.bytes.push(1);
                self.bytes.extend_from_slice(&out);
            }
            Err(e) => {
                self.wrong += 1;
                self.bytes.push(0);
                self.bytes.extend_from_slice(e.to_string().as_bytes());
            }
        }
    }
}

/// Sends eight 200-byte frames of config `idx` of `family` (0 HT, 1
/// HT-LDPC, 2 MIMO, 3 STBC) at `snr_db`: AWGN for the single-antenna
/// chains, flat Rayleigh MIMO fading plus AWGN for the others.
fn knee_outcomes(family: u64, idx: usize, snr_db: f64) -> Outcomes {
    let mut outcomes = Outcomes::default();
    let n0 = db_to_lin(-snr_db);
    let flat = PowerDelayProfile::flat();
    for frame in 0..8 {
        let mut rng = WlanRng::seed_from_u64(0x11E)
            .fork(family)
            .fork(idx as u64)
            .fork(frame);
        let payload: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        let decoded = match family {
            0 | 1 => {
                let (m, r) = if family == 0 {
                    HT_MCS[idx]
                } else {
                    HT_LDPC[idx]
                };
                let awgn = Awgn::from_snr_db(snr_db);
                if family == 0 {
                    let phy = HtPhy::new(m, r);
                    let mut samples = phy.transmit(&payload);
                    awgn.apply_in_place(&mut samples, &mut rng);
                    phy.receive(&samples, payload.len())
                } else {
                    let phy = HtLdpcPhy::cached(m, r);
                    let mut samples = phy.transmit(&payload);
                    awgn.apply_in_place(&mut samples, &mut rng);
                    phy.receive(&samples, payload.len())
                }
            }
            2 => {
                let cfg = MIMO[idx];
                let phy = mimo_phy(cfg);
                let ch = MimoMultipathChannel::realize(cfg.0, cfg.0, &flat, &mut rng);
                let rx = ch.propagate(&phy.transmit(&payload), n0, &mut rng).unwrap();
                phy.receive(&rx, n0, payload.len())
            }
            _ => {
                let (n_rx, m, r) = STBC[idx];
                let phy = StbcOfdmPhy::new(m, r, n_rx).unwrap();
                let ch = MimoMultipathChannel::realize(n_rx, 2, &flat, &mut rng);
                let rx = ch.propagate(&phy.transmit(&payload), n0, &mut rng).unwrap();
                phy.receive(&rx, payload.len())
            }
        };
        outcomes.push(&payload, decoded);
    }
    outcomes
}

#[test]
fn ht_mimo_stbc_receive_near_each_knee_is_pinned() {
    // Per family, per config (in the order of the tables above): (SNR dB
    // on the 200-byte knee, digest of the eight frames' outcomes).
    let golden: [(u64, &[(f64, u64)]); 4] = [
        (
            0,
            &[
                (1.5, 0x21ee_a807_2459_a7e8),
                (4.5, 0xdbd4_0db7_9386_7d51),
                (7.0, 0xf8af_b137_54ca_7f27),
                (9.5, 0xa317_ad71_35d3_fce2),
                (13.5, 0xc4b8_5673_bb20_5b51),
                (17.0, 0x3f60_3f1d_9277_de37),
                (18.5, 0x8e04_2eab_ce67_88c3),
                (20.0, 0xfcfe_323b_5ee0_4630),
            ],
        ),
        (
            1,
            &[
                (1.0, 0xb5dd_726b_fc6e_55e7),
                (3.0, 0x1851_4679_7065_a62c),
                (4.0, 0x5a82_1e08_a30b_c1ef),
                (6.0, 0xee65_12ec_c018_ef77),
                (9.5, 0x7f42_fa15_85eb_6729),
                (12.5, 0x1701_bd5e_955e_5a2f),
                (14.0, 0x3b34_6aad_45f5_669a),
                (16.5, 0x4fa7_d6b9_f73a_8538),
                (18.5, 0x246e_bb5b_a61b_3185),
                (19.5, 0xd0ff_5108_7ccc_5509),
            ],
        ),
        (
            2,
            &[
                (3.5, 0x6ed5_ebfb_e4a1_5acd),
                (23.0, 0x02f6_4abe_17ac_00fc),
                (12.5, 0x2b08_92b5_7a7c_8ab1),
                (15.5, 0x8b10_91c6_3b91_88ed),
                (16.5, 0x10e9_5c03_badf_a1ef),
                (24.0, 0x7327_4c29_bc50_efaa),
                (26.0, 0xdc63_49fe_3b99_c46b),
                (12.0, 0x8042_2db6_0953_e970),
            ],
        ),
        (
            3,
            &[(13.5, 0xaec8_c6b5_c9e9_d813), (14.0, 0x6da1_1bb0_8897_9427)],
        ),
    ];
    for (family, configs) in golden {
        for (idx, &(snr_db, want)) in configs.iter().enumerate() {
            let outcomes = knee_outcomes(family, idx, snr_db);
            let got = fnv1a64(&outcomes.bytes);
            assert_eq!(
                got, want,
                "family {family} config {idx} at {snr_db} dB: outcome digest {got:#018x}"
            );
            // On the knee both outcomes occur, so the pin covers wrong
            // decodes as well as right ones.
            assert!(
                outcomes.right > 0 && outcomes.wrong > 0,
                "family {family} config {idx}: {} right / {} wrong decodes",
                outcomes.right,
                outcomes.wrong
            );
        }
    }
}
