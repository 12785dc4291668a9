//! Transport-level fault injection for distributed campaign protocols.
//!
//! The injectors in the rest of this crate perturb *baseband samples*;
//! these perturb *protocol frames* — the length-prefixed byte messages a
//! distributed-campaign coordinator and its workers exchange over pipes.
//! `wlan-dist`'s chaos harness threads every frame through a
//! [`TransportFaults`] relay to prove the coordinator survives the
//! classic transport pathologies without panicking or corrupting
//! results:
//!
//! * **drop** — the frame never arrives,
//! * **duplicate** — the frame arrives twice (stale-ack handling),
//! * **truncate** — a partial frame arrives (torn write / dead peer),
//! * **corrupt** — a bit flips in flight (checksum must catch it),
//! * **stall** — delivery hangs long enough to trip liveness deadlines.
//!
//! The same design rules as the sample-level injectors apply: all
//! randomness comes from the caller's [`WlanRng`], and the number of RNG
//! draws per [`TransportFaults::perturb`] call is fixed (eight) —
//! independent of the probabilities, the decisions taken, and the frame
//! length — so a fault schedule is a pure function of the seed and the
//! frame sequence number, reproducible bit-exactly across runs.

use wlan_math::rng::{Rng, WlanRng};

/// Probabilities (each in `[0, 1]`) for the five transport pathologies,
/// applied independently per frame.
///
/// Fault composition order: stall is sampled alongside the others but
/// reported separately; a dropped frame yields no delivery at all;
/// otherwise truncation then corruption mutate the payload, and
/// duplication finally delivers the (possibly mangled) frame twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaults {
    /// Probability the frame is silently dropped.
    pub drop: f64,
    /// Probability the frame is delivered twice.
    pub dup: f64,
    /// Probability the frame is cut to a strict prefix (possibly empty).
    pub truncate: f64,
    /// Probability a single bit of the payload flips.
    pub corrupt: f64,
    /// Probability delivery stalls for [`TransportFaults::stall_ms`].
    pub stall: f64,
    /// How long a stalled delivery hangs, in milliseconds.
    pub stall_ms: u64,
}

/// What a faulted transport delivers for one sent frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Milliseconds the relay should sleep before delivering `frames`
    /// (zero when no stall fired). The *caller* sleeps; [`perturb`]
    /// itself never blocks, so fault schedules stay cheap to enumerate
    /// in tests.
    ///
    /// [`perturb`]: TransportFaults::perturb
    pub stall_ms: u64,
    /// The byte frames that actually arrive: empty for a drop, one for
    /// clean/truncated/corrupted delivery, two for a duplicate.
    pub frames: Vec<Vec<u8>>,
}

impl TransportFaults {
    /// A transport that delivers every frame untouched.
    pub fn none() -> Self {
        Self {
            drop: 0.0,
            dup: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            stall: 0.0,
            stall_ms: 0,
        }
    }

    /// A chaos preset scaled by `severity` in `[0, 1]`: at severity 1
    /// roughly one frame in four suffers *some* pathology, with stalls
    /// long enough (200 ms) to trip sub-second liveness deadlines.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is not finite or outside `[0, 1]`.
    pub fn chaos(severity: f64) -> Self {
        assert!(
            severity.is_finite() && (0.0..=1.0).contains(&severity),
            "severity must be in [0, 1]"
        );
        Self {
            drop: 0.06 * severity,
            dup: 0.05 * severity,
            truncate: 0.05 * severity,
            corrupt: 0.06 * severity,
            stall: 0.03 * severity,
            stall_ms: 200,
        }
    }

    /// `true` when every probability is zero (the relay can skip the
    /// RNG entirely without perturbing downstream streams, because a
    /// clean relay draws from a fork no one else consumes).
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0
            && self.dup == 0.0
            && self.truncate == 0.0
            && self.corrupt == 0.0
            && self.stall == 0.0
    }

    /// Applies the fault schedule to one protocol frame.
    ///
    /// Consumes exactly eight RNG draws regardless of which faults fire,
    /// so callers can address per-frame streams as
    /// `master.fork(frame_seq)` and replay any single frame's fate in
    /// isolation.
    ///
    /// # Panics
    ///
    /// Panics if any probability field is outside `[0, 1]`.
    pub fn perturb(&self, frame: &[u8], rng: &mut WlanRng) -> Delivery {
        // Draw every variate up front (common random numbers): the
        // schedule for frame N is identical across severity sweeps.
        let fire_drop = rng.gen_bool(self.drop);
        let fire_dup = rng.gen_bool(self.dup);
        let fire_trunc = rng.gen_bool(self.truncate);
        let trunc_frac = rng.next_f64();
        let fire_corrupt = rng.gen_bool(self.corrupt);
        let corrupt_frac = rng.next_f64();
        let corrupt_bit = rng.next_f64();
        let fire_stall = rng.gen_bool(self.stall);

        let stall_ms = if fire_stall { self.stall_ms } else { 0 };
        if fire_drop {
            return Delivery {
                stall_ms,
                frames: Vec::new(),
            };
        }

        let mut payload = frame.to_vec();
        if fire_trunc && !payload.is_empty() {
            // A strict prefix: torn writes never deliver the full frame.
            let keep = (trunc_frac * payload.len() as f64) as usize;
            payload.truncate(keep.min(payload.len() - 1));
        }
        if fire_corrupt && !payload.is_empty() {
            let idx = ((corrupt_frac * payload.len() as f64) as usize).min(payload.len() - 1);
            let bit = ((corrupt_bit * 8.0) as u32).min(7);
            payload[idx] ^= 1 << bit;
        }

        let frames = if fire_dup {
            vec![payload.clone(), payload]
        } else {
            vec![payload]
        };
        Delivery { stall_ms, frames }
    }
}

/// A [`Write`] adapter that applies a [`TransportFaults`] schedule to a
/// byte *stream* — a `TcpStream`, a pipe, anything newline-framed.
///
/// The in-memory chaos relay in `wlan-dist` perturbs whole frames
/// because its duplex pipes hand them over one at a time; a socket is
/// just bytes. This wrapper re-creates the frame boundary at the byte
/// layer: writes are buffered until a `\n` (every protocol frame ends
/// with one), each completed line is perturbed as one frame via
/// `rng.fork(seq)` (the same per-frame addressing as the relay), and
/// whatever the [`Delivery`] says arrives is passed to the inner
/// writer. A stalled delivery blocks the writer — on a socket that is
/// exactly what a congested or malicious peer looks like.
///
/// [`with_half_close_after`](Self::with_half_close_after) adds the one
/// pathology a frame relay cannot express: a **half-close**, where the
/// peer's receive path dies but the connection stays up. After the
/// configured number of frames every write still reports success while
/// delivering nothing — from the reader's side the stream simply goes
/// silent, which is what liveness deadlines must bound. Half-close is a
/// deterministic frame count, not a ninth RNG draw: the eight-draw CRN
/// contract of [`TransportFaults::perturb`] is pinned by tests and
/// shared with every recorded fault schedule.
///
/// [`Write`]: std::io::Write
pub struct FaultedWriter<W: std::io::Write> {
    inner: W,
    faults: TransportFaults,
    rng: WlanRng,
    seq: u64,
    pending: Vec<u8>,
    half_close_after: Option<u64>,
}

impl<W: std::io::Write> FaultedWriter<W> {
    /// Wraps `inner`, perturbing each newline-terminated frame with
    /// `faults`; frame `n`'s fate is drawn from `rng.fork(n)`.
    pub fn new(inner: W, faults: TransportFaults, rng: WlanRng) -> Self {
        Self {
            inner,
            faults,
            rng,
            seq: 0,
            pending: Vec::new(),
            half_close_after: None,
        }
    }

    /// After `frames` completed frames, silently swallow everything:
    /// writes keep succeeding, nothing reaches the inner writer.
    #[must_use]
    pub fn with_half_close_after(mut self, frames: u64) -> Self {
        self.half_close_after = Some(frames);
        self
    }

    /// `true` once the half-close threshold has been crossed.
    pub fn is_half_closed(&self) -> bool {
        self.half_close_after.is_some_and(|n| self.seq >= n)
    }

    fn deliver_line(&mut self, line: &[u8]) -> std::io::Result<()> {
        let seq = self.seq;
        self.seq += 1;
        if self.half_close_after.is_some_and(|n| seq >= n) {
            return Ok(());
        }
        if self.faults.is_clean() {
            return self.inner.write_all(line);
        }
        let delivery = self.faults.perturb(line, &mut self.rng.fork(seq));
        if delivery.stall_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delivery.stall_ms));
        }
        for frame in &delivery.frames {
            self.inner.write_all(frame)?;
        }
        Ok(())
    }
}

impl<W: std::io::Write> std::io::Write for FaultedWriter<W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(data);
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=pos).collect();
            self.deliver_line(&line)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.is_half_closed() {
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn frame(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 % 251) as u8).collect()
    }

    #[test]
    fn clean_transport_is_identity() {
        let tf = TransportFaults::none();
        assert!(tf.is_clean());
        let f = frame(64);
        let d = tf.perturb(&f, &mut WlanRng::seed_from_u64(5));
        assert_eq!(d.stall_ms, 0);
        assert_eq!(d.frames, vec![f]);
    }

    #[test]
    fn perturb_is_deterministic_per_seed() {
        let tf = TransportFaults::chaos(1.0);
        let f = frame(200);
        for seq in 0..64u64 {
            let master = WlanRng::seed_from_u64(99);
            let a = tf.perturb(&f, &mut master.fork(seq));
            let b = tf.perturb(&f, &mut master.fork(seq));
            assert_eq!(a, b, "frame {seq}");
        }
    }

    #[test]
    fn rng_consumption_is_severity_independent() {
        // CRN contract: same draw count whatever fires.
        use wlan_math::rng::RngCore;
        let f = frame(80);
        let mut after = Vec::new();
        for severity in [0.0, 0.4, 1.0] {
            let tf = TransportFaults::chaos(severity);
            let mut rng = WlanRng::seed_from_u64(7);
            let _ = tf.perturb(&f, &mut rng);
            after.push(rng.next_u64());
        }
        assert!(after.windows(2).all(|w| w[0] == w[1]), "draw counts differ");
    }

    #[test]
    fn every_pathology_fires_under_chaos() {
        let tf = TransportFaults::chaos(1.0);
        let f = frame(120);
        let master = WlanRng::seed_from_u64(42);
        let (mut drops, mut dups, mut truncs, mut corrupts, mut stalls) = (0, 0, 0, 0, 0);
        for seq in 0..4000u64 {
            let d = tf.perturb(&f, &mut master.fork(seq));
            match d.frames.len() {
                0 => drops += 1,
                2 => dups += 1,
                1 => {
                    if d.frames[0].len() < f.len() {
                        truncs += 1;
                    } else if d.frames[0] != f {
                        corrupts += 1;
                    }
                }
                n => panic!("impossible delivery count {n}"),
            }
            if d.stall_ms > 0 {
                stalls += 1;
                assert_eq!(d.stall_ms, tf.stall_ms);
            }
        }
        assert!(drops > 0, "no drops in 4000 frames");
        assert!(dups > 0, "no dups in 4000 frames");
        assert!(truncs > 0, "no truncations in 4000 frames");
        assert!(corrupts > 0, "no corruptions in 4000 frames");
        assert!(stalls > 0, "no stalls in 4000 frames");
    }

    #[test]
    fn truncation_is_a_strict_prefix() {
        let tf = TransportFaults {
            truncate: 1.0,
            ..TransportFaults::none()
        };
        let f = frame(50);
        let master = WlanRng::seed_from_u64(3);
        for seq in 0..200u64 {
            let d = tf.perturb(&f, &mut master.fork(seq));
            let got = &d.frames[0];
            assert!(got.len() < f.len(), "frame {seq} not truncated");
            assert_eq!(got[..], f[..got.len()], "frame {seq} not a prefix");
        }
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let tf = TransportFaults {
            corrupt: 1.0,
            ..TransportFaults::none()
        };
        let f = frame(64);
        let master = WlanRng::seed_from_u64(8);
        for seq in 0..200u64 {
            let d = tf.perturb(&f, &mut master.fork(seq));
            let got = &d.frames[0];
            assert_eq!(got.len(), f.len());
            let flipped: u32 = got
                .iter()
                .zip(&f)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "frame {seq}: {flipped} bits flipped");
        }
    }

    #[test]
    fn empty_frame_never_panics() {
        let tf = TransportFaults::chaos(1.0);
        let master = WlanRng::seed_from_u64(1);
        for seq in 0..100u64 {
            let d = tf.perturb(&[], &mut master.fork(seq));
            for got in &d.frames {
                assert!(got.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "severity must be in [0, 1]")]
    fn chaos_severity_out_of_range_rejected() {
        let _ = TransportFaults::chaos(2.0);
    }

    #[test]
    fn faulted_writer_clean_is_transparent() {
        let mut w = FaultedWriter::new(
            Vec::new(),
            TransportFaults::none(),
            WlanRng::seed_from_u64(1),
        );
        w.write_all(b"alpha 1\nbeta 2\n").unwrap();
        // A partial frame split across writes still arrives whole.
        w.write_all(b"gam").unwrap();
        w.write_all(b"ma 3\n").unwrap();
        w.flush().unwrap();
        assert_eq!(w.inner, b"alpha 1\nbeta 2\ngamma 3\n");
        assert_eq!(w.seq, 3);
    }

    #[test]
    fn faulted_writer_matches_relay_addressing() {
        // The byte-layer wrapper must produce the same fault schedule as
        // perturbing each frame with rng.fork(seq) directly.
        let tf = TransportFaults {
            corrupt: 0.5,
            drop: 0.2,
            ..TransportFaults::none()
        };
        let master = WlanRng::seed_from_u64(77);
        let lines: Vec<Vec<u8>> = (0..40)
            .map(|i| format!("frame {i} payload {}\n", i * 13).into_bytes())
            .collect();
        let mut expected = Vec::new();
        for (seq, line) in lines.iter().enumerate() {
            let d = tf.perturb(line, &mut master.fork(seq as u64));
            for f in &d.frames {
                expected.extend_from_slice(f);
            }
        }
        let mut w = FaultedWriter::new(Vec::new(), tf, WlanRng::seed_from_u64(77));
        for line in &lines {
            w.write_all(line).unwrap();
        }
        assert_eq!(w.inner, expected);
    }

    #[test]
    fn faulted_writer_half_close_swallows_silently() {
        let mut w = FaultedWriter::new(
            Vec::new(),
            TransportFaults::none(),
            WlanRng::seed_from_u64(4),
        )
        .with_half_close_after(2);
        w.write_all(b"one\ntwo\n").unwrap();
        assert!(!w.is_half_closed() || w.seq == 2);
        // Writes after the threshold succeed but deliver nothing.
        w.write_all(b"three\nfour\n").unwrap();
        w.flush().unwrap();
        assert!(w.is_half_closed());
        assert_eq!(w.inner, b"one\ntwo\n");
        assert_eq!(w.seq, 4);
    }

    #[test]
    fn faulted_writer_half_close_mid_write_keeps_prefix() {
        let mut w = FaultedWriter::new(
            Vec::new(),
            TransportFaults::none(),
            WlanRng::seed_from_u64(4),
        )
        .with_half_close_after(1);
        // Both frames arrive in one write call; only the first delivers.
        w.write_all(b"kept\ndropped\n").unwrap();
        assert_eq!(w.inner, b"kept\n");
    }
}
