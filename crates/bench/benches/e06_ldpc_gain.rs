//! E6 — LDPC coding gain: "Other likely enhancements in the 802.11n
//! standard will also increase the range of wireless networks, such as the
//! use of LDPC codes."
//!
//! Rate-1/2 BCC (K=7 Viterbi) versus rate-1/2 LDPC at equal block length
//! over binary-input AWGN, plus the two design-choice ablations from
//! DESIGN.md: soft vs hard Viterbi and normalized vs plain min-sum.

use wlan_bench::timing::Timer;
use wlan_core::math::rng::{Rng, WlanRng};
use wlan_bench::header;
use wlan_core::channel::noise::gaussian;
use wlan_core::coding::ldpc::{LdpcCode, MinSum};
use wlan_core::coding::{ConvEncoder, ViterbiDecoder};
use wlan_core::math::special::db_to_lin;

const INFO_BITS: usize = 648;

fn random_bits(n: usize, rng: &mut WlanRng) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(0..2u8)).collect()
}

/// BPSK-over-AWGN LLRs for coded bits at Eb/N0 (dB), rate 1/2.
fn channel_llrs(coded: &[u8], ebn0_db: f64, rng: &mut WlanRng) -> Vec<f64> {
    // Es/N0 = Eb/N0 · rate = Eb/N0 / 2.
    let esn0 = db_to_lin(ebn0_db) * 0.5;
    let sigma = (0.5 / esn0).sqrt();
    coded
        .iter()
        .map(|&b| {
            let x = if b == 0 { 1.0 } else { -1.0 };
            let y = x + sigma * gaussian(rng);
            2.0 * y / (sigma * sigma)
        })
        .collect()
}

fn bcc_ber(ebn0_db: f64, blocks: usize, soft: bool, rng: &mut WlanRng) -> f64 {
    let mut errors = 0usize;
    let mut total = 0usize;
    for _ in 0..blocks {
        let info = random_bits(INFO_BITS, rng);
        let coded = ConvEncoder::new().encode_terminated(&info);
        let llrs = channel_llrs(&coded, ebn0_db, rng);
        let decoded = if soft {
            ViterbiDecoder::new().decode_soft(&llrs, INFO_BITS)
        } else {
            let hard: Vec<u8> = llrs.iter().map(|&l| (l < 0.0) as u8).collect();
            ViterbiDecoder::new().decode_hard(&hard, INFO_BITS)
        }
        .expect("a terminated block is (INFO_BITS + 6) * 2 long");
        errors += decoded.iter().zip(&info).filter(|(a, b)| a != b).count();
        total += INFO_BITS;
    }
    errors as f64 / total as f64
}

fn ldpc_ber(code: &LdpcCode, ebn0_db: f64, blocks: usize, variant: MinSum, rng: &mut WlanRng) -> f64 {
    let mut errors = 0usize;
    let mut total = 0usize;
    for _ in 0..blocks {
        let info = random_bits(code.info_len(), rng);
        let cw = code.encode(&info);
        let llrs = channel_llrs(&cw, ebn0_db, rng);
        let out = code.decode(&llrs, 40, variant);
        errors += out.info_bits.iter().zip(&info).filter(|(a, b)| a != b).count();
        total += code.info_len();
    }
    errors as f64 / total as f64
}

fn experiment(c: &mut Timer) {
    header(
        "E6",
        "LDPC vs convolutional coding gain (rate 1/2, 648 info bits, BPSK/AWGN)",
    );
    let mut rng = WlanRng::seed_from_u64(6);
    let code = LdpcCode::rate_half(INFO_BITS, 11);
    let ebn0s = [1.0, 2.0, 3.0, 4.0, 5.0];
    let blocks = 60;

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "Eb/N0(dB)", "BCC(hard)", "BCC(soft)", "LDPC(norm)", "LDPC(plain)"
    );
    for &e in &ebn0s {
        let hard = bcc_ber(e, blocks, false, &mut rng);
        let soft = bcc_ber(e, blocks, true, &mut rng);
        let norm = ldpc_ber(&code, e, blocks, MinSum::Normalized(0.8), &mut rng);
        let plain = ldpc_ber(&code, e, blocks, MinSum::Plain, &mut rng);
        println!("{e:>10.1} {hard:>12.5} {soft:>12.5} {norm:>12.5} {plain:>12.5}");
    }
    println!(
        "\nReading: soft Viterbi buys ~2 dB over hard; the LDPC waterfall \
         drops below the convolutional curve by a further 1-2 dB at equal \
         rate — the range headroom the paper expected 802.11n to claim."
    );

    let info = random_bits(code.info_len(), &mut rng);
    let ldpc_llrs = channel_llrs(&code.encode(&info), 3.0, &mut rng);
    c.bench_function("e06_ldpc_decode_block", |b| {
        b.iter(|| code.decode(&ldpc_llrs, 40, MinSum::Normalized(0.8)))
    });
    c.bench_function("e06_viterbi_decode_block", |b| {
        let info = random_bits(INFO_BITS, &mut rng);
        let coded = ConvEncoder::new().encode_terminated(&info);
        let llrs = channel_llrs(&coded, 3.0, &mut rng);
        b.iter(|| ViterbiDecoder::new().decode_soft(&llrs, INFO_BITS))
    });
    // The same block in both lanes of one two-lane decode: against
    // twice the single-block time, this is the pair kernel's gain.
    c.bench_function("e06_ldpc_pair_decode", |b| {
        b.iter(|| code.decode_pair(&ldpc_llrs, &ldpc_llrs, 40, MinSum::Normalized(0.8)))
    });
}

fn main() {
    experiment(&mut Timer::from_env());
}
