//! OFDM symbol I/O shared by every OFDM chain: subcarrier mapping, pilots,
//! IFFT and cyclic prefix, CP removal and FFT, and the per-numerology LTF
//! training symbols.

use std::sync::OnceLock;

use crate::params::{
    data_carriers, N_CP, N_DATA, N_FFT, N_OCCUPIED, N_SYM_SAMPLES, PILOT_CARRIERS, PILOT_VALUES,
};
use crate::preamble::{ht_ltf_value, ltf_value};
use wlan_coding::scrambler::Scrambler;
use wlan_math::{fft, Complex};

/// Time-domain amplitude scale making the average transmitted sample power
/// approximately one: the IFFT of 52 unit-power subcarriers spread over 64
/// bins needs `N/√N_occupied`.
pub fn tx_scale() -> f64 {
    N_FFT as f64 / (N_OCCUPIED as f64).sqrt()
}

/// The same scale for the 56 occupied subcarriers of the 802.11n HT-20
/// numerology (52 data + 4 pilots).
pub fn ht_tx_scale() -> f64 {
    N_FFT as f64 / 56f64.sqrt()
}

/// The pilot polarity sequence `p_n` (802.11a §17.3.5.9): the 127-periodic
/// scrambler sequence mapped 0 → +1, 1 → −1.
///
/// The 127-long period is generated once per process; this is called once
/// per symbol on both the transmit and receive paths.
fn pilot_polarity(n: usize) -> f64 {
    static SEQ: OnceLock<[f64; 127]> = OnceLock::new();
    let seq = SEQ.get_or_init(|| {
        let bits = Scrambler::new(0x7F).sequence(127);
        let mut out = [0.0; 127];
        for (slot, &b) in out.iter_mut().zip(bits.iter()) {
            *slot = if b == 0 { 1.0 } else { -1.0 };
        }
        out
    });
    seq[n % 127]
}

/// Maps signed subcarrier index (−32..32) to FFT bin (0..64).
pub fn carrier_to_bin(k: i32) -> usize {
    ((k + N_FFT as i32) % N_FFT as i32) as usize
}

/// Inverse-FFTs one symbol's 64 frequency bins in place and writes
/// `CP ‖ body` into its 80-sample frame slot, every sample scaled by
/// `scale` (the numerology's [`tx_scale`]).
///
/// # Panics
///
/// Panics if `slot.len() != 80`.
pub fn ifft_into_slot(bins: &mut [Complex; N_FFT], scale: f64, slot: &mut [Complex]) {
    assert_eq!(slot.len(), N_SYM_SAMPLES, "need one 80-sample output slot");
    fft::ifft_in_place(bins);
    // Cyclic prefix = last 16 samples.
    let (cp, body) = slot.split_at_mut(N_CP);
    for (o, s) in cp.iter_mut().zip(&bins[N_FFT - N_CP..]) {
        *o = s.scale(scale);
    }
    for (o, s) in body.iter_mut().zip(bins.iter()) {
        *o = s.scale(scale);
    }
}

/// The inverse of [`ifft_into_slot`]: strips the CP of one 80-sample
/// symbol, undoes the transmit `scale` and FFTs the body.
///
/// # Panics
///
/// Panics if `slot.len() != 80`.
pub fn fft_of_slot(slot: &[Complex], scale: f64) -> [Complex; N_FFT] {
    assert_eq!(slot.len(), N_SYM_SAMPLES, "need one 80-sample symbol");
    let inv_scale = 1.0 / scale;
    let mut bins = [Complex::ZERO; N_FFT];
    for (b, s) in bins.iter_mut().zip(&slot[N_CP..]) {
        *b = s.scale(inv_scale);
    }
    fft::fft_in_place(&mut bins);
    bins
}

/// One 80-sample training symbol: `ltf(k)` on subcarriers `−edge..=edge`,
/// at the data symbols' scale.
fn training_symbol(ltf: fn(i32) -> f64, edge: i32, scale: f64) -> [Complex; N_SYM_SAMPLES] {
    let mut bins = [Complex::ZERO; N_FFT];
    for k in -edge..=edge {
        let v = ltf(k);
        if v != 0.0 {
            bins[carrier_to_bin(k)] = Complex::from_re(v);
        }
    }
    let mut slot = [Complex::ZERO; N_SYM_SAMPLES];
    ifft_into_slot(&mut bins, scale, &mut slot);
    slot
}

/// The legacy LTF on the 52 subcarriers of ±26 as one 80-sample symbol at
/// [`tx_scale`]: the per-stream channel-training symbol of the
/// 48-data-carrier MIMO and STBC chains. Built once per process.
pub fn legacy_training_symbol() -> &'static [Complex; N_SYM_SAMPLES] {
    static SYMBOL: OnceLock<[Complex; N_SYM_SAMPLES]> = OnceLock::new();
    SYMBOL.get_or_init(|| training_symbol(ltf_value, 26, tx_scale()))
}

/// The HT-LTF on the 56 subcarriers of ±28 as one 80-sample symbol at
/// [`ht_tx_scale`]. Built once per process.
pub fn ht_training_symbol() -> &'static [Complex; N_SYM_SAMPLES] {
    static SYMBOL: OnceLock<[Complex; N_SYM_SAMPLES]> = OnceLock::new();
    SYMBOL.get_or_init(|| training_symbol(ht_ltf_value, 28, ht_tx_scale()))
}

/// Assembles one time-domain OFDM symbol (CP + 64 samples) from 48 data
/// subcarrier values, inserting pilots for symbol index `sym_idx`, into a
/// caller-owned slot (typically the symbol's place in the frame buffer);
/// the IFFT runs on stack bins, so nothing is allocated.
///
/// # Panics
///
/// Panics if `data.len() != 48` or `out.len() != 80`.
pub fn assemble_symbol_into(data: &[Complex], sym_idx: usize, out: &mut [Complex]) {
    assert_eq!(data.len(), N_DATA, "need exactly 48 data subcarriers");
    let mut bins = [Complex::ZERO; N_FFT];
    for (&k, &v) in data_carriers().iter().zip(data) {
        bins[carrier_to_bin(k)] = v;
    }
    let polarity = pilot_polarity(sym_idx);
    for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
        bins[carrier_to_bin(k)] = Complex::from_re(PILOT_VALUES[i] * polarity);
    }
    ifft_into_slot(&mut bins, tx_scale(), out);
}

/// A frame's channel estimate prepared for equalizing its symbols one at
/// a time: the reciprocal and squared magnitude of every bin are taken
/// once per frame instead of once per symbol.
///
/// Dividing by `H` is exactly multiplying by its reciprocal (that is how
/// `Complex` division is defined), so the per-frame reciprocals change no
/// bit of the equalized output.
#[derive(Debug, Clone)]
pub(crate) struct Equalizer {
    /// `1 / H_k` per FFT bin (unused where `|H_k|² ≤ 1e-12`).
    recip: [Complex; N_FFT],
    /// `|H_k|²` per FFT bin.
    h2: [f64; N_FFT],
    /// `|H_k|²` per data carrier, in mapping order: the demapper's CSI.
    csi: [f64; N_DATA],
}

impl Equalizer {
    /// Prepares the 64-bin channel estimate `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != 64`.
    pub fn new(channel: &[Complex]) -> Self {
        assert_eq!(channel.len(), N_FFT, "need a 64-bin channel estimate");
        let mut recip = [Complex::ZERO; N_FFT];
        let mut h2 = [0.0; N_FFT];
        for ((r, w), &h) in recip.iter_mut().zip(h2.iter_mut()).zip(channel) {
            *r = h.recip();
            *w = h.norm_sqr();
        }
        let mut csi = [0.0; N_DATA];
        for (c, &k) in csi.iter_mut().zip(data_carriers()) {
            *c = h2[carrier_to_bin(k)];
        }
        Equalizer { recip, h2, csi }
    }

    /// Per-data-carrier CSI weights `|H_k|²`, in mapping order.
    pub fn csi(&self) -> &[f64; N_DATA] {
        &self.csi
    }

    /// Strips the CP of one 80-sample symbol, FFTs it on the stack,
    /// corrects the common pilot phase error and writes the 48 equalized
    /// data points of symbol `sym_idx` into `data`.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != 80` or `data.len() != 48`.
    pub fn symbol_into(&self, samples: &[Complex], sym_idx: usize, data: &mut [Complex]) {
        assert_eq!(data.len(), N_DATA, "need a 48-point output slot");
        let bins = fft_of_slot(samples, tx_scale());

        // Common phase error from the four pilots.
        let polarity = pilot_polarity(sym_idx);
        let mut cpe = Complex::ZERO;
        for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
            let bin = carrier_to_bin(k);
            let expected = Complex::from_re(PILOT_VALUES[i] * polarity);
            if self.h2[bin] > 1e-12 {
                cpe += (bins[bin] * self.recip[bin]) * expected.conj();
            }
        }
        let rot = if cpe.norm() > 1e-9 {
            Complex::from_polar(1.0, -cpe.arg())
        } else {
            Complex::ONE
        };

        for (d, &k) in data.iter_mut().zip(data_carriers()) {
            let bin = carrier_to_bin(k);
            *d = if self.h2[bin] > 1e-12 {
                bins[bin] * self.recip[bin] * rot
            } else {
                Complex::ZERO
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::complex::mean_power;

    fn assemble_symbol(data: &[Complex], sym_idx: usize) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; N_CP + N_FFT];
        assemble_symbol_into(data, sym_idx, &mut out);
        out
    }

    /// One received symbol: equalized data points and CSI weights.
    struct RxSymbol {
        data: Vec<Complex>,
        csi: Vec<f64>,
    }

    fn disassemble_symbol(samples: &[Complex], channel: &[Complex], sym_idx: usize) -> RxSymbol {
        let eq = Equalizer::new(channel);
        let mut data = vec![Complex::ZERO; N_DATA];
        eq.symbol_into(samples, sym_idx, &mut data);
        RxSymbol {
            data,
            csi: eq.csi().to_vec(),
        }
    }

    fn test_data() -> Vec<Complex> {
        (0..N_DATA)
            .map(|i| Complex::from_polar(1.0, i as f64 * 0.71))
            .collect()
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        let data = test_data();
        let sym = assemble_symbol(&data, 1);
        assert_eq!(sym.len(), 80);
        let flat = vec![Complex::ONE; N_FFT];
        let rx = disassemble_symbol(&sym, &flat, 1);
        for (a, b) in rx.data.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-9);
        }
        for w in rx.csi {
            assert!((w - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cp_is_cyclic() {
        let sym = assemble_symbol(&test_data(), 0);
        for i in 0..N_CP {
            assert!((sym[i] - sym[i + N_FFT]).norm() < 1e-12, "CP sample {i}");
        }
    }

    #[test]
    fn average_power_is_near_unity() {
        // Average over subcarrier-bearing samples: the scale targets 1.0.
        let mut acc = 0.0;
        let trials = 64;
        for t in 0..trials {
            let data: Vec<Complex> = (0..N_DATA)
                .map(|i| Complex::from_polar(1.0, (i * (t + 3)) as f64 * 1.37))
                .collect();
            acc += mean_power(&assemble_symbol(&data, t));
        }
        let avg = acc / trials as f64;
        assert!((avg - 1.0).abs() < 0.1, "avg symbol power {avg}");
    }

    #[test]
    fn pilot_polarity_follows_scrambler_sequence() {
        // First bits of the 127 sequence: 0 0 0 0 1 1 1 0 → + + + + − − − +.
        let want = [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0];
        for (n, &w) in want.iter().enumerate() {
            assert_eq!(pilot_polarity(n), w, "symbol {n}");
        }
        // Periodicity.
        assert_eq!(pilot_polarity(5), pilot_polarity(5 + 127));
    }

    #[test]
    fn phase_error_is_corrected_by_pilots() {
        let data = test_data();
        let sym = assemble_symbol(&data, 2);
        // Rotate the whole symbol by a common phase (residual CFO effect).
        let rotated: Vec<Complex> = sym
            .iter()
            .map(|&s| s * Complex::from_polar(1.0, 0.3))
            .collect();
        let flat = vec![Complex::ONE; N_FFT];
        let rx = disassemble_symbol(&rotated, &flat, 2);
        for (a, b) in rx.data.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-6, "CPE not removed: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn equalizer_inverts_multipath() {
        let data = test_data();
        let sym = assemble_symbol(&data, 3);
        // Two-tap channel applied circularly via the CP.
        let taps = [Complex::from_re(1.0), Complex::new(0.4, -0.3)];
        let mut rxs = vec![Complex::ZERO; sym.len()];
        for (i, &s) in sym.iter().enumerate() {
            for (j, &h) in taps.iter().enumerate() {
                if i + j < rxs.len() {
                    rxs[i + j] += s * h;
                }
            }
        }
        // Channel frequency response over 64 bins.
        let mut padded = taps.to_vec();
        padded.resize(N_FFT, Complex::ZERO);
        let h = wlan_math::fft::fft(&padded);
        let rx = disassemble_symbol(&rxs, &h, 3);
        for (a, b) in rx.data.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-6, "equalization failed");
        }
    }

    #[test]
    fn nulled_channel_yields_zero_csi() {
        let data = test_data();
        let sym = assemble_symbol(&data, 0);
        let mut h = vec![Complex::ONE; N_FFT];
        // Null the bin of the first data carrier.
        let first = data_carriers()[0];
        h[carrier_to_bin(first)] = Complex::ZERO;
        let rx = disassemble_symbol(&sym, &h, 0);
        assert!(rx.csi[0] < 1e-12);
        assert!(rx.csi[1] > 0.5);
    }

    #[test]
    #[should_panic(expected = "48 data subcarriers")]
    fn assemble_checks_length() {
        let _ = assemble_symbol(&[Complex::ZERO; 47], 0);
    }

    #[test]
    fn batched_disassembly_is_bit_identical_to_scalar() {
        // A multi-symbol stream through a frequency-selective channel with
        // one nulled bin, equalized symbol by symbol against one
        // per-frame `Equalizer`: every point and CSI weight must match the
        // per-symbol reference that divides by `H` afresh, bit for bit.
        let taps = [Complex::from_re(0.9), Complex::new(0.3, -0.2)];
        let mut padded = taps.to_vec();
        padded.resize(N_FFT, Complex::ZERO);
        let mut h = wlan_math::fft::fft(&padded);
        h[carrier_to_bin(data_carriers()[5])] = Complex::ZERO;

        let n_sym = 5;
        let mut stream = Vec::new();
        for s in 0..n_sym {
            let data: Vec<Complex> = (0..N_DATA)
                .map(|i| Complex::from_polar(1.0, (i * (s + 2)) as f64 * 0.53))
                .collect();
            stream.extend(assemble_symbol(&data, s + 1));
        }

        let eq = Equalizer::new(&h);
        let mut data = [Complex::ZERO; N_DATA];
        for s in 0..n_sym {
            let samples = &stream[s * 80..(s + 1) * 80];
            eq.symbol_into(samples, s + 1, &mut data);
            let (want, want_csi) = reference_disassemble(samples, &h, s + 1);
            for c in 0..N_DATA {
                let (a, b) = (want[c], data[c]);
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "symbol {s} carrier {c}: {a:?} vs {b:?}"
                );
                assert_eq!(want_csi[c].to_bits(), eq.csi()[c].to_bits());
            }
        }
    }

    /// The per-symbol equalizer as first written: a heap FFT buffer and a
    /// fresh complex division by `H` for every pilot and data carrier.
    fn reference_disassemble(
        samples: &[Complex],
        channel: &[Complex],
        sym_idx: usize,
    ) -> (Vec<Complex>, Vec<f64>) {
        let mut bins: Vec<Complex> = samples[N_CP..]
            .iter()
            .map(|s| s.scale(1.0 / tx_scale()))
            .collect();
        fft::fft_in_place(&mut bins);
        let polarity = pilot_polarity(sym_idx);
        let mut cpe = Complex::ZERO;
        for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
            let bin = carrier_to_bin(k);
            let expected = Complex::from_re(PILOT_VALUES[i] * polarity);
            let h = channel[bin];
            if h.norm_sqr() > 1e-12 {
                cpe += (bins[bin] / h) * expected.conj();
            }
        }
        let rot = if cpe.norm() > 1e-9 {
            Complex::from_polar(1.0, -cpe.arg())
        } else {
            Complex::ONE
        };
        let mut data = Vec::new();
        let mut csi = Vec::new();
        for &k in data_carriers() {
            let bin = carrier_to_bin(k);
            let h = channel[bin];
            let h2 = h.norm_sqr();
            data.push(if h2 > 1e-12 {
                bins[bin] / h * rot
            } else {
                Complex::ZERO
            });
            csi.push(h2);
        }
        (data, csi)
    }
}
