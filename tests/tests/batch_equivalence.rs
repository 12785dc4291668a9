//! Batch/scalar equivalence: the batched RX kernels (ViterbiKernel,
//! FftPlan, LinearDetector) must be *bit-identical* to the scalar
//! reference paths they replaced — batching is a performance knob, never
//! a physics knob.
//!
//! Three layers of pinning:
//! 1. kernel-level: `decode_batch` vs `decode_soft`, plan-FFT batch vs
//!    single transforms, SoA MIMO detection vs per-symbol `detect`, over
//!    every code rate and an SNR grid spanning clean to destroyed;
//! 2. link-level: a generation × SNR sweep grid through `sweep_per`
//!    (which drives the kernels through the thread-local kernel set) is
//!    invariant to `WLAN_THREADS` and to the observability recorder, in
//!    the `obs_determinism.rs` style;
//! 3. failure-shape: a batch with one bad frame reports the typed error
//!    without decoding half the batch.

use std::sync::Mutex;

use wlan_core::coding::puncture::{depuncture, puncture};
use wlan_core::coding::{CodeRate, ConvEncoder, FrameLlrs, ViterbiDecoder, ViterbiKernel};
use wlan_core::linksim::{sweep_per, HtLink, MimoLink, OfdmLink, PhyLink, StbcLink};
use wlan_core::math::fft::{self, FftPlan};
use wlan_core::math::matrix::CMatrix;
use wlan_core::math::rng::{Rng, WlanRng};
use wlan_core::math::Complex;
use wlan_core::mimo::detect::{detect, Detector, LinearDetector};
use wlan_core::ofdm::params::Modulation;
use wlan_core::ofdm::OfdmRate;

/// Serialises the tests that touch process-global state (`WLAN_THREADS`,
/// the obs recorder) against each other.
static GLOBAL_STATE_GATE: Mutex<()> = Mutex::new(());

const INFO_BITS: usize = 96;
const SNRS_DB: [f64; 4] = [-2.0, 3.0, 8.0, 20.0];

fn complex_gaussian(rng: &mut impl Rng) -> Complex {
    Complex::new(rng.gen_gaussian(), rng.gen_gaussian())
}

/// Encodes random info bits, punctures to `rate`, BPSK-maps, adds noise at
/// `snr_db`, and depunctures back to mother-code LLRs (erasures at the
/// punctured positions) — the exact LLR shape the OFDM/HT receive paths
/// feed the decoder.
fn noisy_llrs(rate: CodeRate, snr_db: f64, rng: &mut WlanRng) -> (Vec<u8>, Vec<f64>) {
    let info: Vec<u8> = (0..INFO_BITS).map(|_| rng.gen_range(0..2u8)).collect();
    let mother = ConvEncoder::new().encode_terminated(&info);
    let sent = puncture(&mother, rate);
    let sigma = wlan_core::math::special::db_to_lin(-snr_db).sqrt();
    let received: Vec<f64> = sent
        .iter()
        .map(|&b| {
            let bipolar = if b == 0 { 1.0 } else { -1.0 };
            bipolar + sigma * rng.gen_gaussian()
        })
        .collect();
    (info, depuncture(&received, rate, mother.len()))
}

#[test]
fn viterbi_batch_is_bit_identical_to_scalar_over_rates_and_snrs() {
    let mut rng = WlanRng::seed_from_u64(0xBA7C4);
    let mut kernel = ViterbiKernel::new();
    let scalar = ViterbiDecoder::new();
    for rate in CodeRate::all() {
        for snr_db in SNRS_DB {
            let frames: Vec<(Vec<u8>, Vec<f64>)> =
                (0..6).map(|_| noisy_llrs(rate, snr_db, &mut rng)).collect();
            let batch_in: Vec<FrameLlrs<'_>> = frames
                .iter()
                .map(|(_, llrs)| FrameLlrs::terminated(llrs, INFO_BITS))
                .collect();
            let batch_out = kernel.decode_batch(&batch_in).expect("well-formed batch");
            for ((_, llrs), batched) in frames.iter().zip(&batch_out) {
                let reference = scalar.decode_soft(llrs, INFO_BITS).expect("well-formed frame");
                assert_eq!(
                    &reference, batched,
                    "rate {rate} at {snr_db} dB: batch and scalar decodes diverged"
                );
            }
            // At high SNR the decode must also be *correct*, so the
            // equivalence is not vacuous agreement on garbage.
            if snr_db >= 20.0 {
                for ((info, _), batched) in frames.iter().zip(&batch_out) {
                    assert_eq!(info, batched, "rate {rate}: clean decode wrong");
                }
            }
        }
    }
}

#[test]
fn viterbi_unterminated_batch_matches_scalar() {
    let mut rng = WlanRng::seed_from_u64(0xBA7C5);
    let mut kernel = ViterbiKernel::new();
    let scalar = ViterbiDecoder::new();
    for snr_db in SNRS_DB {
        let llrs: Vec<f64> = (0..2 * INFO_BITS)
            .map(|_| rng.gen_gaussian() + if rng.gen_range(0..2u8) == 0 { 1.0 } else { -1.0 })
            .collect();
        let frame = FrameLlrs::unterminated(&llrs, INFO_BITS);
        let batched = kernel.decode_batch(&[frame]).expect("well-formed frame");
        assert_eq!(
            scalar
                .decode_soft_unterminated(&llrs, INFO_BITS)
                .expect("well-formed frame"),
            batched[0],
            "unterminated decode diverged at {snr_db} dB"
        );
    }
}

#[test]
fn viterbi_batch_rejects_bad_frames_without_partial_output() {
    let mut kernel = ViterbiKernel::new();
    let good = vec![1.0; (INFO_BITS + 6) * 2];
    let bad = vec![1.0; 7]; // truncated mid-step
    let frames = [
        FrameLlrs::terminated(&good, INFO_BITS),
        FrameLlrs::terminated(&bad, INFO_BITS),
    ];
    assert!(kernel.decode_batch(&frames).is_err(), "truncated frame must be typed");
}

#[test]
fn fft_plan_batch_is_bit_identical_to_single_transforms() {
    let mut rng = WlanRng::seed_from_u64(0xFF7);
    for n in [64usize, 128] {
        let plan = FftPlan::new(n);
        let blocks: Vec<Vec<Complex>> = (0..5)
            .map(|_| (0..n).map(|_| complex_gaussian(&mut rng)).collect())
            .collect();

        let mut batched: Vec<Complex> = blocks.concat();
        plan.fft_batch(&mut batched);
        for (i, block) in blocks.iter().enumerate() {
            let single = fft::fft(block);
            let mut in_place = block.clone();
            plan.fft_in_place(&mut in_place);
            for k in 0..n {
                let b = batched[i * n + k];
                assert_eq!(b.re.to_bits(), single[k].re.to_bits(), "N={n} block {i} bin {k}");
                assert_eq!(b.im.to_bits(), single[k].im.to_bits(), "N={n} block {i} bin {k}");
                assert_eq!(b.re.to_bits(), in_place[k].re.to_bits(), "N={n} block {i} bin {k}");
                assert_eq!(b.im.to_bits(), in_place[k].im.to_bits(), "N={n} block {i} bin {k}");
            }
        }

        // Inverse: batch vs module-level ifft, and a bit-exactness-free
        // round-trip sanity bound (the precision contract itself is pinned
        // in wlan-math's round-trip tests).
        let mut inverse = batched.clone();
        plan.ifft_batch(&mut inverse);
        for (i, block) in blocks.iter().enumerate() {
            let single = fft::ifft(&batched[i * n..(i + 1) * n]);
            for k in 0..n {
                assert_eq!(inverse[i * n + k].re.to_bits(), single[k].re.to_bits());
                assert_eq!(inverse[i * n + k].im.to_bits(), single[k].im.to_bits());
                assert!((inverse[i * n + k] - block[k]).norm() < 1e-12, "round trip drifted");
            }
        }
    }
}

#[test]
fn mimo_detector_batch_is_bit_identical_to_scalar() {
    let mut rng = WlanRng::seed_from_u64(0x3130);
    for (n_ss, n_rx) in [(2usize, 2usize), (2, 3)] {
        for detector in [Detector::Mmse, Detector::ZeroForcing] {
            for &n0 in &[0.01, 0.1, 1.0] {
                let rows: Vec<Vec<Complex>> = (0..n_rx)
                    .map(|_| (0..n_ss).map(|_| complex_gaussian(&mut rng)).collect())
                    .collect();
                let row_refs: Vec<&[Complex]> = rows.iter().map(Vec::as_slice).collect();
                let h = CMatrix::from_rows(&row_refs);
                let observations: Vec<Vec<Complex>> = (0..8)
                    .map(|_| (0..n_rx).map(|_| complex_gaussian(&mut rng)).collect())
                    .collect();

                let mut prepared =
                    LinearDetector::prepare(detector, &h, n0).expect("well-conditioned");
                let ys: Vec<Complex> = observations.concat();
                let mut symbols = Vec::new();
                let mut ok = Vec::new();
                prepared.detect_batch(&ys, &mut symbols, &mut ok).expect("whole observations");
                assert!(ok.iter().all(|&o| o), "finite inputs must all detect");

                for (i, y) in observations.iter().enumerate() {
                    let scalar = detect(detector, &h, y, n0).expect("scalar detect");
                    let one = prepared.detect_one(y).expect("detect_one");
                    for s in 0..n_ss {
                        let b = symbols[i * n_ss + s];
                        assert_eq!(
                            b.re.to_bits(),
                            scalar.symbols[s].re.to_bits(),
                            "{detector:?} {n_ss}x{n_rx} n0={n0}: obs {i} stream {s} re"
                        );
                        assert_eq!(
                            b.im.to_bits(),
                            scalar.symbols[s].im.to_bits(),
                            "{detector:?} {n_ss}x{n_rx} n0={n0}: obs {i} stream {s} im"
                        );
                        assert_eq!(b.re.to_bits(), one.symbols[s].re.to_bits());
                        assert_eq!(b.im.to_bits(), one.symbols[s].im.to_bits());
                    }
                    for s in 0..n_ss {
                        assert_eq!(
                            scalar.sinr[s].to_bits(),
                            one.sinr[s].to_bits(),
                            "prepared SINR must match the scalar factorization"
                        );
                    }
                }
            }
        }
    }
}

/// One link per kernel-bearing generation (Viterbi: OFDM + HT BCC; FFT:
/// all OFDM-family; SoA MIMO: spatial multiplexing + STBC).
fn kernel_grid() -> Vec<Box<dyn PhyLink>> {
    vec![
        Box::new(OfdmLink::awgn(OfdmRate::R12)),
        Box::new(OfdmLink::awgn(OfdmRate::R54)),
        Box::new(HtLink {
            modulation: Modulation::Qam16,
            code_rate: CodeRate::R3_4,
            ldpc: false,
            fading: false,
        }),
        Box::new(MimoLink::flat(2, 2)),
        Box::new(StbcLink::flat(1)),
    ]
}

/// Runs `f` with `WLAN_THREADS` pinned (or unset for the machine default).
fn with_threads<T>(threads: Option<&str>, f: impl FnOnce() -> T) -> T {
    match threads {
        Some(v) => std::env::set_var("WLAN_THREADS", v),
        None => std::env::remove_var("WLAN_THREADS"),
    }
    let out = f();
    std::env::remove_var("WLAN_THREADS");
    out
}

#[test]
fn kernel_sweeps_are_invariant_to_threads_and_obs() {
    let _gate = GLOBAL_STATE_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let obs = wlan_obs::global();
    let snrs = [6.0, 10.0, 14.0];
    for link in kernel_grid() {
        let run = || sweep_per(link.as_ref(), &snrs, 40, 24, 0xE9_0406);
        let mut curves = Vec::new();
        for threads in [Some("1"), None] {
            for enabled in [false, true] {
                obs.set_enabled(enabled);
                curves.push((threads, enabled, with_threads(threads, run)));
            }
        }
        obs.set_enabled(false);
        let (_, _, reference) = &curves[0];
        for (threads, enabled, curve) in &curves[1..] {
            assert_eq!(
                reference, curve,
                "{}: threads={threads:?} obs={enabled} diverged from serial/obs-off",
                link.name()
            );
        }
    }
}
