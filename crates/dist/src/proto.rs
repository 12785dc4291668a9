//! The coordinator↔worker wire protocol.
//!
//! Every message travels as one newline-terminated, length-prefixed,
//! FNV-checksummed frame:
//!
//! ```text
//! WLND <len> <fnv64hex> <payload>\n
//! ```
//!
//! `len` is the decimal byte length of `payload`; `fnv64hex` is the
//! 16-hex-digit FNV-1a-64 digest of the payload bytes (the same hash the
//! checkpoint journals use). Payloads are single-line, space-separated
//! `key=value` text — human-greppable in a captured stream, and every
//! numeric field is either an exact integer or an IEEE-754 bit pattern
//! in hex, so nothing loses precision in flight.
//!
//! # Corruption model
//!
//! The transport under this protocol is a pipe pair to a subprocess —
//! or, in the chaos harness, a relay deliberately dropping, duplicating,
//! truncating and bit-flipping frames ([`wlan_fault::TransportFaults`]).
//! The framing is designed so any such damage is *detected and
//! contained to one frame*:
//!
//! * a flipped bit fails the checksum;
//! * a truncated frame either fails the length check or (cut before the
//!   newline) merges with the next line into one unparsable lump;
//! * readers resynchronise at the next newline, so one damaged frame
//!   never desyncs the stream.
//!
//! Decoding therefore distinguishes *end of stream* ([`read_frame`]
//! returning `Ok(None)`) from *damaged frame* (`Err`), and never panics
//! on any input.

use std::io::{BufRead, Write};

use wlan_core::linksim::RoundTally;
use wlan_runner::journal::{f64_from_hex, f64_to_hex, fnv1a64, kv, kv_u64};

/// Frame prefix magic.
pub const MAGIC: &str = "WLND";
/// Hard cap on a frame's payload length: no legitimate message comes
/// close, and the cap stops a corrupted length field from asking the
/// reader to buffer gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(std::io::ErrorKind),
    /// The line is not `WLND <len> <sum> <payload>` (bad magic, bad
    /// length field, missing separators, or stream cut mid-line).
    Malformed,
    /// The payload length disagrees with the length field.
    LengthMismatch,
    /// The payload checksum disagrees with the checksum field.
    ChecksumMismatch,
    /// The frame was intact but the payload is not a known message.
    UnknownMessage,
    /// The payload length field exceeds [`MAX_FRAME`].
    Oversized,
    /// The peers speak different protocol versions or were built from
    /// different experiment catalogs — leases from one would be
    /// meaningless (or silently *wrong*) on the other, so the handshake
    /// refuses the connection instead. Terminal: reconnecting with the
    /// same binary cannot help, so backoff loops must not retry it.
    Incompatible {
        /// This side's identity, e.g. `v1 catalog=58f9…`.
        ours: String,
        /// What the peer advertised.
        theirs: String,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(kind) => write!(f, "transport error: {kind:?}"),
            ProtoError::Malformed => write!(f, "malformed frame"),
            ProtoError::LengthMismatch => write!(f, "frame length mismatch"),
            ProtoError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ProtoError::UnknownMessage => write!(f, "unknown message"),
            ProtoError::Oversized => write!(f, "frame exceeds size cap"),
            ProtoError::Incompatible { ours, theirs } => {
                write!(f, "incompatible peer: we are [{ours}], peer is [{theirs}]")
            }
        }
    }
}

/// Encodes `payload` as one wire frame (with trailing newline).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(
        format!("{MAGIC} {} {:016x} ", payload.len(), fnv1a64(payload)).as_bytes(),
    );
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// Reads one frame from `r`: `Ok(Some(payload))` on success, `Ok(None)`
/// on clean end-of-stream, `Err` on a damaged frame (the stream remains
/// usable — the reader consumed exactly one line).
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut line = Vec::new();
    // Bounded read: take_ref style guards live in decode; read_until on
    // a hostile stream is bounded by the next newline, and a newline-free
    // flood is cut off at 2×MAX_FRAME by reading through a Take adapter.
    let mut limited = std::io::Read::take(&mut *r, 2 * MAX_FRAME as u64);
    let n = limited
        .read_until(b'\n', &mut line)
        .map_err(|e| ProtoError::Io(e.kind()))?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        // Stream ended (or size cap hit) mid-line: a torn final frame.
        return Err(ProtoError::Malformed);
    }
    line.pop();
    decode_frame(&line).map(Some)
}

/// Decodes one frame line (without its trailing newline) into its
/// payload, verifying length and checksum.
pub fn decode_frame(line: &[u8]) -> Result<Vec<u8>, ProtoError> {
    let rest = line
        .strip_prefix(MAGIC.as_bytes())
        .and_then(|r| r.strip_prefix(b" "))
        .ok_or(ProtoError::Malformed)?;
    let sp1 = rest
        .iter()
        .position(|&b| b == b' ')
        .ok_or(ProtoError::Malformed)?;
    let len: usize = std::str::from_utf8(&rest[..sp1])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtoError::Malformed)?;
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized);
    }
    let rest = &rest[sp1 + 1..];
    let sp2 = rest
        .iter()
        .position(|&b| b == b' ')
        .ok_or(ProtoError::Malformed)?;
    let sum = std::str::from_utf8(&rest[..sp2])
        .ok()
        .filter(|s| s.len() == 16)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(ProtoError::Malformed)?;
    let payload = &rest[sp2 + 1..];
    if payload.len() != len {
        return Err(ProtoError::LengthMismatch);
    }
    if fnv1a64(payload) != sum {
        return Err(ProtoError::ChecksumMismatch);
    }
    Ok(payload.to_vec())
}

/// Writes one message as a frame and flushes (pipes deliver nothing
/// until flushed).
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg.to_payload().as_bytes()))?;
    w.flush()
}

/// Reads one message: `Ok(None)` on clean end-of-stream, `Err` on a
/// damaged or unintelligible frame.
pub fn read_msg(r: &mut impl BufRead) -> Result<Option<Msg>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => {
            let text = std::str::from_utf8(&payload).map_err(|_| ProtoError::UnknownMessage)?;
            Msg::parse(text).ok_or(ProtoError::UnknownMessage).map(Some)
        }
    }
}

/// Every protocol message. Coordinator→worker: `Hello`, `Lease`,
/// `Ping`, `Shutdown`; worker→coordinator: `Ready`, `Pong`,
/// `QuarTrial`, `Done`.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Campaign identity: everything a worker needs to reconstruct the
    /// exact link, fault chain, and trial streams.
    Hello {
        /// Campaign master seed.
        seed: u64,
        /// Payload bytes per frame trial.
        payload_len: usize,
        /// Link catalog id ([`crate::catalog::LinkSpec`]).
        link: String,
        /// Fault catalog id ([`crate::catalog::FaultSpec`]).
        fault: String,
        /// SNR points in dB (bit-exact hex on the wire).
        snrs: Vec<f64>,
    },
    /// Run trials `[start, end)` of `point` and report per-round tallies.
    Lease {
        /// Lease id (unique per coordinator run).
        id: u64,
        /// SNR point index.
        point: usize,
        /// First frame index (inclusive).
        start: u64,
        /// Last frame index (exclusive).
        end: u64,
    },
    /// Liveness probe; the worker echoes `n` back in a [`Msg::Pong`].
    Ping {
        /// Probe sequence number.
        n: u64,
    },
    /// Orderly termination request.
    Shutdown,
    /// The worker processed [`Msg::Hello`] and accepts leases.
    Ready,
    /// Echo of a [`Msg::Ping`].
    Pong {
        /// The probe sequence number being echoed.
        n: u64,
    },
    /// One quarantined trial inside a lease (sent before its `Done`).
    QuarTrial {
        /// The lease this trial belongs to.
        lease: u64,
        /// Frame index within the point.
        frame: u64,
        /// Display form of the typed error (newlines stripped).
        error: String,
    },
    /// A lease finished; tallies are reported per round so the
    /// coordinator can apply stopping rules at the same boundaries as a
    /// single-process campaign.
    Done {
        /// The finished lease.
        lease: u64,
        /// One tally per round, in frame order.
        rounds: Vec<RoundTally>,
    },
}

impl Msg {
    /// Serialises to the single-line wire payload.
    pub fn to_payload(&self) -> String {
        match self {
            Msg::Hello {
                seed,
                payload_len,
                link,
                fault,
                snrs,
            } => {
                let snrs: Vec<String> = snrs.iter().map(|&s| f64_to_hex(s)).collect();
                format!(
                    "hello seed={seed} payload={payload_len} link={link} fault={fault} snrs={}",
                    snrs.join(",")
                )
            }
            Msg::Lease {
                id,
                point,
                start,
                end,
            } => format!("lease id={id} point={point} start={start} end={end}"),
            Msg::Ping { n } => format!("ping n={n}"),
            Msg::Shutdown => "shutdown".to_owned(),
            Msg::Ready => "ready".to_owned(),
            Msg::Pong { n } => format!("pong n={n}"),
            Msg::QuarTrial {
                lease,
                frame,
                error,
            } => {
                // The free-text error rides last (it may contain spaces
                // and `=`); newlines would break framing, so strip them.
                let error = error.replace(['\n', '\r'], " ");
                format!("quar lease={lease} frame={frame} error={error}")
            }
            Msg::Done { lease, rounds } => {
                let rounds: Vec<String> = rounds
                    .iter()
                    .map(|r| format!("{}:{}:{}", r.trials, r.errors, r.erasures))
                    .collect();
                format!("done lease={lease} rounds={}", rounds.join(","))
            }
        }
    }

    /// Parses a wire payload; `None` on any malformation.
    pub fn parse(text: &str) -> Option<Msg> {
        let (verb, rest) = match text.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (text, ""),
        };
        match verb {
            "hello" => {
                let mut t = rest.split_whitespace();
                let seed = kv_u64(t.next()?, "seed")?;
                let payload_len = kv_u64(t.next()?, "payload")? as usize;
                let link = kv(t.next()?, "link")?.to_owned();
                let fault = kv(t.next()?, "fault")?.to_owned();
                let snrs_csv = kv(t.next()?, "snrs")?;
                if t.next().is_some() {
                    return None;
                }
                let snrs: Option<Vec<f64>> = snrs_csv.split(',').map(f64_from_hex).collect();
                Some(Msg::Hello {
                    seed,
                    payload_len,
                    link,
                    fault,
                    snrs: snrs?,
                })
            }
            "lease" => {
                let mut t = rest.split_whitespace();
                let id = kv_u64(t.next()?, "id")?;
                let point = kv_u64(t.next()?, "point")? as usize;
                let start = kv_u64(t.next()?, "start")?;
                let end = kv_u64(t.next()?, "end")?;
                if t.next().is_some() || start >= end {
                    return None;
                }
                Some(Msg::Lease {
                    id,
                    point,
                    start,
                    end,
                })
            }
            "ping" => {
                let mut t = rest.split_whitespace();
                let n = kv_u64(t.next()?, "n")?;
                if t.next().is_some() {
                    return None;
                }
                Some(Msg::Ping { n })
            }
            "shutdown" if rest.is_empty() => Some(Msg::Shutdown),
            "ready" if rest.is_empty() => Some(Msg::Ready),
            "pong" => {
                let mut t = rest.split_whitespace();
                let n = kv_u64(t.next()?, "n")?;
                if t.next().is_some() {
                    return None;
                }
                Some(Msg::Pong { n })
            }
            "quar" => {
                let (coords, error) = rest.split_once(" error=")?;
                let mut t = coords.split_whitespace();
                let lease = kv_u64(t.next()?, "lease")?;
                let frame = kv_u64(t.next()?, "frame")?;
                if t.next().is_some() {
                    return None;
                }
                Some(Msg::QuarTrial {
                    lease,
                    frame,
                    error: error.to_owned(),
                })
            }
            "done" => {
                let mut t = rest.split_whitespace();
                let lease = kv_u64(t.next()?, "lease")?;
                let rounds_csv = kv(t.next()?, "rounds")?;
                if t.next().is_some() {
                    return None;
                }
                let rounds: Option<Vec<RoundTally>> = rounds_csv
                    .split(',')
                    .map(|r| {
                        let mut f = r.split(':');
                        let trials = f.next()?.parse().ok()?;
                        let errors = f.next()?.parse().ok()?;
                        let erasures = f.next()?.parse().ok()?;
                        if f.next().is_some() {
                            return None;
                        }
                        Some(RoundTally {
                            trials,
                            errors,
                            erasures,
                        })
                    })
                    .collect();
                Some(Msg::Done {
                    lease,
                    rounds: rounds?,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn all_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello {
                seed: 77,
                payload_len: 150,
                link: "ofdm:12".into(),
                fault: "single:adc-clip:3fe0000000000000".into(),
                snrs: vec![-2.5, 0.0, 7.25],
            },
            Msg::Lease {
                id: 9,
                point: 2,
                start: 64,
                end: 192,
            },
            Msg::Ping { n: 3 },
            Msg::Shutdown,
            Msg::Ready,
            Msg::Pong { n: 3 },
            Msg::QuarTrial {
                lease: 9,
                frame: 71,
                error: "stream ended mid-frame: wanted 64 bits, got 12".into(),
            },
            Msg::Done {
                lease: 9,
                rounds: vec![
                    RoundTally {
                        trials: 32,
                        errors: 4,
                        erasures: 1,
                    },
                    RoundTally {
                        trials: 16,
                        errors: 0,
                        erasures: 0,
                    },
                ],
            },
        ]
    }

    #[test]
    fn every_message_round_trips_through_the_wire() {
        for msg in all_msgs() {
            let mut wire = Vec::new();
            write_msg(&mut wire, &msg).unwrap();
            let mut r = Cursor::new(wire);
            assert_eq!(read_msg(&mut r).unwrap(), Some(msg.clone()), "{msg:?}");
            assert_eq!(read_msg(&mut r).unwrap(), None, "stream must be drained");
        }
    }

    #[test]
    fn snrs_survive_bit_exactly() {
        let msg = Msg::Hello {
            seed: 1,
            payload_len: 1,
            link: "fhss".into(),
            fault: "clean".into(),
            snrs: vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0],
        };
        let Some(Msg::Hello { snrs, .. }) = Msg::parse(&msg.to_payload()) else {
            panic!("parse failed");
        };
        assert_eq!(snrs[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(snrs[1].to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(snrs[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bit_flip_anywhere_is_detected_never_panics() {
        let msg = Msg::Done {
            lease: 3,
            rounds: vec![RoundTally {
                trials: 32,
                errors: 2,
                erasures: 0,
            }],
        };
        let wire = encode_frame(msg.to_payload().as_bytes());
        for byte in 0..wire.len() - 1 {
            for bit in 0..8 {
                let mut mangled = wire.clone();
                mangled[byte] ^= 1 << bit;
                let mut r = Cursor::new(&mangled);
                // Either an error, or (for flips inside the checksum
                // field that happen to still parse) — never the wrong
                // message silently accepted without checksum agreement.
                match read_msg(&mut r) {
                    Err(_) => {}
                    Ok(got) => {
                        assert_eq!(
                            got,
                            Some(msg.clone()),
                            "byte {byte} bit {bit}: corrupted frame decoded differently"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_frame_errors_and_stream_resyncs() {
        let a = encode_frame(Msg::Ping { n: 1 }.to_payload().as_bytes());
        let b = encode_frame(Msg::Ping { n: 2 }.to_payload().as_bytes());
        // Cut frame `a` before its newline: it merges with `b` into one
        // bad line; the stream then ends cleanly.
        let mut wire = a[..a.len() - 3].to_vec();
        wire.extend_from_slice(&b);
        let mut r = Cursor::new(&wire);
        assert!(read_msg(&mut r).is_err(), "merged lump must fail");
        assert_eq!(read_msg(&mut r).unwrap(), None, "then clean EOF");

        // Cut frame `a` mid-line at end of stream: torn final frame.
        let mut r = Cursor::new(&a[..a.len() - 3]);
        assert_eq!(read_msg(&mut r), Err(ProtoError::Malformed));
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let line = format!("{MAGIC} {} {:016x} x", MAX_FRAME + 1, 0);
        assert_eq!(
            decode_frame(line.as_bytes()),
            Err(ProtoError::Oversized)
        );
    }

    #[test]
    fn garbage_lines_never_panic() {
        for garbage in [
            &b""[..],
            b"WLND",
            b"WLND ",
            b"WLND x y z",
            b"WLND 5 deadbeef hello",
            b"WLND 5 000000000000dead hell",
            b"WLND 18446744073709551616 0000000000000000 x",
            b"\xff\xfe\x00",
            b"WLND 3 0000000000000000 \xff\xff\xff",
        ] {
            assert!(decode_frame(garbage).is_err());
        }
    }

    #[test]
    fn quar_error_newlines_are_stripped() {
        let msg = Msg::QuarTrial {
            lease: 1,
            frame: 2,
            error: "line one\nline two".into(),
        };
        let payload = msg.to_payload();
        assert!(!payload.contains('\n'));
        let Some(Msg::QuarTrial { error, .. }) = Msg::parse(&payload) else {
            panic!("parse failed");
        };
        assert_eq!(error, "line one line two");
    }
}
