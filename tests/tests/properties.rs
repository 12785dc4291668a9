//! Property tests over the core substrates: the invariants that must hold
//! for *every* input, not just the unit-test examples.
//!
//! Formerly driven by proptest; now driven by deterministic seeded sweeps
//! over [`WlanRng`] so the suite needs no external dependencies and every
//! failure is reproducible from the printed `(master seed, case)` pair. Each
//! test forks one decorrelated sub-stream per case from its own master
//! seed, so adding cases to one test never shifts the inputs of another.

use wlan_core::coding::bits::{bits_to_bytes, bytes_to_bits};
use wlan_core::coding::crc::{append_fcs, check_fcs, crc32};
use wlan_core::coding::interleaver::Interleaver;
use wlan_core::coding::ldpc::{LdpcCode, MinSum};
use wlan_core::coding::puncture::{depuncture, puncture, punctured_len, CodeRate};
use wlan_core::coding::scrambler::Scrambler;
use wlan_core::coding::{ConvEncoder, ViterbiDecoder};
use wlan_core::math::rng::{Rng, WlanRng};
use wlan_core::math::{fft, CMatrix, Complex};

/// Cases per property — matches the old `ProptestConfig::with_cases(64)`.
const CASES: u64 = 64;

/// Runs `body` once per case with an independent forked stream.
fn sweep(master_seed: u64, mut body: impl FnMut(&mut WlanRng)) {
    let master = WlanRng::seed_from_u64(master_seed);
    for case in 0..CASES {
        let mut rng = master.fork(case);
        body(&mut rng);
    }
}

fn bit_vec(rng: &mut WlanRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.gen_range(0..2u8)).collect()
}

fn byte_vec(rng: &mut WlanRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.gen()).collect()
}

fn f64_vec(rng: &mut WlanRng, lo: f64, hi: f64, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn bytes_bits_roundtrip() {
    sweep(0x01, |rng| {
        let data = byte_vec(rng, 256);
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    });
}

#[test]
fn scrambler_is_involution() {
    sweep(0x02, |rng| {
        let bits = bit_vec(rng, 512);
        let seed = rng.gen_range(1..=0x7Fu8);
        let once = Scrambler::new(seed).scramble(&bits);
        let twice = Scrambler::new(seed).scramble(&once);
        assert_eq!(twice, bits, "seed {seed}");
    });
}

#[test]
fn viterbi_inverts_encoder() {
    sweep(0x03, |rng| {
        let bits = bit_vec(rng, 200);
        let coded = ConvEncoder::new().encode_terminated(&bits);
        let decoded = ViterbiDecoder::new()
            .decode_hard(&coded, bits.len())
            .expect("terminated block");
        assert_eq!(decoded, bits);
    });
}

#[test]
fn viterbi_corrects_two_scattered_errors() {
    sweep(0x04, |rng| {
        let bits = bit_vec(rng, 100);
        let e1 = rng.gen_range(0..80usize);
        let gap = rng.gen_range(20..60usize);
        let mut coded = ConvEncoder::new().encode_terminated(&bits);
        let n = coded.len();
        let p1 = e1 % n;
        let p2 = (e1 + gap) % n;
        coded[p1] ^= 1;
        if p2 != p1 {
            coded[p2] ^= 1;
        }
        let decoded = ViterbiDecoder::new()
            .decode_hard(&coded, bits.len())
            .expect("terminated block");
        assert_eq!(decoded, bits, "errors at {p1},{p2}");
    });
}

#[test]
fn crc_detects_any_single_bit_flip() {
    sweep(0x05, |rng| {
        let data = byte_vec(rng, 128);
        let byte = rng.gen_range(0..128usize) % data.len();
        let bit = rng.gen_range(0..8u8);
        let mut corrupted = data.clone();
        corrupted[byte] ^= 1 << bit;
        assert_ne!(crc32(&data), crc32(&corrupted), "flip {byte}:{bit}");
    });
}

#[test]
fn fcs_roundtrip_and_rejection() {
    sweep(0x06, |rng| {
        let data = byte_vec(rng, 128);
        let framed = append_fcs(&data);
        assert_eq!(check_fcs(&framed), Some(data.as_slice()));
        let mut bad = framed.clone();
        let pos = rng.gen_range(0..64usize) % bad.len();
        bad[pos] ^= 0x01;
        assert_eq!(check_fcs(&bad), None, "flip at {pos}");
    });
}

#[test]
fn fft_ifft_roundtrip() {
    sweep(0x07, |rng| {
        let res = f64_vec(rng, -100.0, 100.0, 64);
        let ims = f64_vec(rng, -100.0, 100.0, 64);
        let x: Vec<Complex> = res.iter().zip(&ims).map(|(&r, &i)| Complex::new(r, i)).collect();
        let back = fft::ifft(&fft::fft(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-8);
        }
    });
}

#[test]
fn fft_preserves_energy() {
    sweep(0x08, |rng| {
        let res = f64_vec(rng, -10.0, 10.0, 32);
        let ims = f64_vec(rng, -10.0, 10.0, 32);
        let x: Vec<Complex> = res.iter().zip(&ims).map(|(&r, &i)| Complex::new(r, i)).collect();
        let te: f64 = x.iter().map(|s| s.norm_sqr()).sum();
        let fe: f64 = fft::fft(&x).iter().map(|s| s.norm_sqr()).sum::<f64>() / 32.0;
        assert!((te - fe).abs() <= 1e-6 * te.max(1.0));
    });
}

#[test]
fn interleaver_roundtrips_all_configs() {
    sweep(0x09, |rng| {
        for (ncbps, nbpsc) in [(48, 1), (96, 2), (192, 4), (288, 6)] {
            let il = Interleaver::new(ncbps, nbpsc);
            let bits: Vec<u8> = (0..ncbps).map(|_| rng.gen_range(0..2u8)).collect();
            assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
        }
    });
}

#[test]
fn puncture_depuncture_positions() {
    sweep(0x0A, |rng| {
        let rate = CodeRate::all()[rng.gen_range(0..4usize)];
        let nbits = rng.gen_range(1..40usize);
        // Mother stream must be a whole number of pattern periods for the
        // inverse to consume everything.
        let period = rate.pattern().len();
        let mother_len = nbits * period;
        let mother: Vec<u8> = (0..mother_len).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let tx = puncture(&mother, rate);
        assert_eq!(tx.len(), punctured_len(mother_len, rate));
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        let restored = depuncture(&llrs, rate, mother_len);
        assert_eq!(restored.len(), mother_len);
        let erased = restored.iter().filter(|&&l| l == 0.0).count();
        assert_eq!(erased, mother_len - tx.len());
    });
}

#[test]
fn ldpc_codewords_always_satisfy_checks() {
    sweep(0x0B, |rng| {
        let code = LdpcCode::rate_half(64, rng.gen());
        let info: Vec<u8> = (0..64).map(|_| rng.gen_range(0..2u8)).collect();
        let cw = code.encode(&info);
        assert!(code.is_codeword(&cw));
        // And clean LLRs decode back.
        let llrs: Vec<f64> = cw.iter().map(|&b| if b == 0 { 4.0 } else { -4.0 }).collect();
        let out = code.decode(&llrs, 20, MinSum::Normalized(0.8));
        assert!(out.converged);
        assert_eq!(out.info_bits, info);
    });
}

#[test]
fn matrix_inverse_roundtrip() {
    sweep(0x0C, |rng| {
        let data: Vec<Complex> = (0..9)
            .map(|_| Complex::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let m = CMatrix::from_vec(3, 3, data);
        if let Ok(inv) = m.inverse() {
            let eye = &m * &inv;
            let err = (&eye - &CMatrix::identity(3)).frobenius_norm();
            // Allow looser tolerance for ill-conditioned draws.
            assert!(err < 1e-6 * (1.0 + m.frobenius_norm().powi(2)), "err {err}");
        }
    });
}

#[test]
fn svd_reconstructs_any_matrix() {
    sweep(0x0D, |rng| {
        let data: Vec<Complex> = (0..6)
            .map(|_| Complex::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let m = CMatrix::from_vec(3, 2, data);
        let d = wlan_core::math::svd::svd(&m);
        let err = (&d.reconstruct() - &m).frobenius_norm();
        assert!(err < 1e-7 * m.frobenius_norm().max(1.0));
        for w in d.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    });
}

#[test]
fn qam_hard_demap_inverts_map() {
    use wlan_core::ofdm::params::Modulation;
    use wlan_core::ofdm::qam::{demap_hard, map_bits};
    sweep(0x0E, |rng| {
        let m = [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64]
            [rng.gen_range(0..4usize)];
        let n = m.bits_per_subcarrier();
        let bits: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        assert_eq!(demap_hard(m, map_bits(m, &bits)), bits);
    });
}

#[test]
fn ofdm_phy_roundtrips_any_payload() {
    use wlan_core::ofdm::{OfdmPhy, OfdmRate};
    sweep(0x0F, |rng| {
        let payload = byte_vec(rng, 64);
        let phy = OfdmPhy::new(OfdmRate::all()[rng.gen_range(0..8usize)]);
        let frame = phy.transmit(&payload);
        assert_eq!(phy.receive(&frame).ok(), Some(payload));
    });
}

#[test]
fn dsss_phy_roundtrips_any_bits() {
    use wlan_core::dsss::{DsssPhy, DsssRate};
    sweep(0x10, |rng| {
        let bits = bit_vec(rng, 128);
        let phy = DsssPhy::new(DsssRate::all()[rng.gen_range(0..4usize)]);
        let chips = phy.transmit(&bits);
        let rx = phy.receive(&chips);
        assert_eq!(&rx[..bits.len()], bits.as_slice());
    });
}

#[test]
fn stbc_phy_roundtrips_any_payload() {
    use wlan_core::mimo::stbc_phy::StbcOfdmPhy;
    use wlan_core::ofdm::params::Modulation;
    sweep(0x11, |rng| {
        let payload = byte_vec(rng, 48);
        let phy = StbcOfdmPhy::new(Modulation::Qpsk, CodeRate::R1_2, 1).unwrap();
        let tx = phy.transmit(&payload);
        let rx: Vec<Complex> = tx[0].iter().zip(&tx[1]).map(|(&a, &b)| a + b).collect();
        assert_eq!(phy.try_receive(&[rx], payload.len()).unwrap(), payload);
    });
}

#[test]
fn mimo_phy_roundtrips_any_payload() {
    use wlan_core::mimo::detect::Detector;
    use wlan_core::mimo::phy::{MimoOfdmConfig, MimoOfdmPhy};
    use wlan_core::ofdm::params::Modulation;
    sweep(0x12, |rng| {
        let payload = byte_vec(rng, 48);
        let n_ss = rng.gen_range(1..=4usize);
        let phy = MimoOfdmPhy::new(MimoOfdmConfig {
            n_streams: n_ss,
            n_rx: n_ss,
            modulation: Modulation::Qam16,
            code_rate: CodeRate::R3_4,
            detector: Detector::Mmse,
        })
        .unwrap();
        let tx = phy.transmit(&payload);
        assert_eq!(
            phy.try_receive(&tx, 1e-9, payload.len()).unwrap(),
            payload,
            "n_ss {n_ss}"
        );
    });
}

#[test]
fn cfo_estimation_roundtrips() {
    use wlan_core::ofdm::cfo::{apply_cfo, estimate_from_preamble};
    use wlan_core::ofdm::{OfdmPhy, OfdmRate};
    sweep(0x13, |rng| {
        let cfo = rng.gen_range(-300..=300i64) as f64 * 1_000.0;
        let frame = OfdmPhy::new(OfdmRate::R6).transmit(b"x");
        let est = estimate_from_preamble(&apply_cfo(&frame, cfo));
        assert!((est - cfo).abs() < 100.0, "cfo {cfo} est {est}");
    });
}

#[test]
fn goodput_never_exceeds_phy_rate() {
    use wlan_core::channel::pathloss::{LinkBudget, PathLossModel};
    use wlan_core::goodput::{goodput_at_distance, GoodputStandard};
    sweep(0x14, |rng| {
        let d = rng.gen_range(1.0..300.0);
        let budget = LinkBudget::typical_wlan();
        let model = PathLossModel::tgn_model_d();
        let g = goodput_at_distance(GoodputStandard::Dot11a, &budget, &model, d);
        assert!((0.0..=54.0).contains(&g), "goodput {g} at {d} m");
        let n = goodput_at_distance(GoodputStandard::Dot11n { ampdu: 64 }, &budget, &model, d);
        assert!((0.0..130.0).contains(&n), "11n goodput {n} at {d} m");
    });
}

#[test]
fn scheduler_pops_in_order() {
    sweep(0x15, |rng| {
        let n = rng.gen_range(1..200usize);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let mut s: wlan_core::sim::Scheduler<usize> = wlan_core::sim::Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(t, i);
        }
        let mut last = 0u64;
        let mut count = 0;
        while let Some((t, _)) = s.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, times.len());
    });
}

#[test]
fn running_stats_merge_is_order_independent() {
    use wlan_core::math::stats::RunningStats;
    sweep(0x16, |rng| {
        let na = rng.gen_range(1..50usize);
        let nb = rng.gen_range(1..50usize);
        let a = f64_vec(rng, -1e3, 1e3, na);
        let b = f64_vec(rng, -1e3, 1e3, nb);
        let mut ab: RunningStats = a.iter().copied().collect();
        let sb: RunningStats = b.iter().copied().collect();
        ab.merge(&sb);
        let mut ba: RunningStats = b.iter().copied().collect();
        let sa: RunningStats = a.iter().copied().collect();
        ba.merge(&sa);
        assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        assert!((ab.variance() - ba.variance()).abs() < 1e-6);
        assert_eq!(ab.count(), ba.count());
    });
}
