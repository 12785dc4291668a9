//! Golden pins for the OFDM chain's kernels: FFT spectra, transmitted
//! 802.11a sample streams, receiver outputs near each rate's PER knee and
//! the metro-sized PER-table calibration, all as FNV-1a-64 digests over
//! exact IEEE bit patterns.
//!
//! The digests were recorded from the straightforward per-stage chain
//! (frame-sized bit vectors, one stage at a time, a per-butterfly
//! direction branch in the FFT). The streaming per-symbol chain must
//! reproduce every one of them: any change to a floating-point operation
//! or its order moves a digest. The receive pins sit near the knees, so
//! wrong decodes are pinned as well as clean ones.

use wlan_city::PerTableSet;
use wlan_core::channel::Awgn;
use wlan_core::math::fft::{self, FftPlan};
use wlan_core::math::rng::{Rng, WlanRng};
use wlan_core::math::Complex;
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
