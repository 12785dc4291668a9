//! The worker side of a distributed campaign.
//!
//! A worker is the same binary as the coordinator, re-invoked in worker
//! mode: it reads protocol frames from stdin, runs leased trial ranges,
//! and writes results to stdout. A lease runs as rounds of the one
//! frame-tally loop every PER path shares
//! ([`run_frames`](wlan_core::linksim::run_frames)), so a worker computes
//! nothing a single-process wave would not. It holds *no* campaign state
//! beyond the `hello` configuration — every lease names its exact trial
//! range, so a worker can die at any instant and lose nothing the
//! coordinator cannot re-dispatch.
//!
//! Workers are deliberately forgiving on input: a damaged frame (the
//! chaos relay bit-flips and truncates) is skipped, not fatal — the
//! coordinator's lease deadline covers the case where the damaged frame
//! was a lease. Only end-of-stream or an unwritable output pipe ends
//! the worker, because both mean the coordinator is gone.

use std::io::{BufReader, Read, Write};
use std::ops::Range;

use wlan_core::linksim::{run_frames, PhyLink, RoundTally};
use wlan_fault::FaultChain;
use wlan_math::rng::WlanRng;
use wlan_runner::per::ROUND_TRIALS;

use crate::catalog::{FaultSpec, LinkSpec};
use crate::proto::{read_msg, write_msg, Msg, ProtoError};

/// Campaign identity a worker reconstructs from [`Msg::Hello`].
struct WorkerState {
    link: Box<dyn PhyLink>,
    faults: FaultChain,
    seed: u64,
    payload_len: usize,
    snrs: Vec<f64>,
}

/// Runs frames `frames` of point `point` (at `snr_db`) as rounds of
/// [`ROUND_TRIALS`] frames aligned from `frames.start`, one
/// [`run_frames`] call per round. Each trial draws its universe from
/// `seed → fork(point) → fork(frame)` — the identical stream addressing
/// the single-process campaign uses, which is what makes lease results
/// independent of *which* worker runs them, how often they are
/// re-dispatched, or whether they fall back in-process.
///
/// Returns the per-round tallies and the quarantined trials as
/// `(frame, error)` pairs in frame order.
pub fn run_lease(
    link: &dyn PhyLink,
    faults: &FaultChain,
    seed: u64,
    payload_len: usize,
    point: usize,
    snr_db: f64,
    frames: Range<u64>,
) -> (Vec<RoundTally>, Vec<(u64, String)>) {
    let point_rng = WlanRng::seed_from_u64(seed).fork(point as u64);
    let mut rounds = Vec::new();
    let mut quars = Vec::new();
    for start in frames.clone().step_by(ROUND_TRIALS as usize) {
        let round = start..frames.end.min(start + ROUND_TRIALS);
        let (tally, erasures) = run_frames(link, faults, snr_db, payload_len, &point_rng, round);
        rounds.push(tally);
        quars.extend(erasures.into_iter().map(|(frame, e)| (frame, e.to_string())));
    }
    (rounds, quars)
}

/// How a worker's serve loop ended — the reconnect loop in
/// [`transport`](crate::transport) keys off this: an orderly
/// [`Msg::Shutdown`] means "fleet is done, do not reconnect", while a
/// disconnect is exactly what the backoff loop exists to heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// The coordinator sent a shutdown frame.
    Shutdown,
    /// The stream ended or broke (EOF, I/O error, unwritable output).
    Disconnected,
}

/// Serves the worker protocol until end-of-stream, a `shutdown`
/// message, or an unwritable output. Never panics on any input byte
/// stream.
pub fn serve(input: impl Read, output: impl Write) -> ServeEnd {
    let mut reader = BufReader::new(input);
    let mut writer = output;
    let mut state: Option<WorkerState> = None;

    loop {
        let msg = match read_msg(&mut reader) {
            Ok(None) => return ServeEnd::Disconnected,
            Ok(Some(msg)) => msg,
            // A damaged frame: skip it. If it was a lease, the
            // coordinator's deadline re-dispatches it; protocol streams
            // resynchronise at the next newline.
            Err(ProtoError::Io(_)) => return ServeEnd::Disconnected,
            Err(_) => continue,
        };
        match msg {
            Msg::Hello {
                seed,
                payload_len,
                link,
                fault,
                snrs,
            } => {
                let (Some(link), Some(fault)) = (LinkSpec::parse(&link), FaultSpec::parse(&fault))
                else {
                    // Outside the catalog: stay un-ready; the
                    // coordinator will give up on this worker.
                    continue;
                };
                if payload_len == 0 || snrs.is_empty() {
                    continue;
                }
                state = Some(WorkerState {
                    link: link.build(),
                    faults: fault.build(),
                    seed,
                    payload_len,
                    snrs,
                });
                if write_msg(&mut writer, &Msg::Ready).is_err() {
                    return ServeEnd::Disconnected;
                }
            }
            Msg::Lease {
                id,
                point,
                start,
                end,
            } => {
                let Some(st) = state.as_ref() else {
                    continue; // lease before (or with a lost) hello
                };
                let Some(&snr_db) = st.snrs.get(point) else {
                    continue;
                };
                let (rounds, quars) = run_lease(
                    st.link.as_ref(),
                    &st.faults,
                    st.seed,
                    st.payload_len,
                    point,
                    snr_db,
                    start..end,
                );
                for (frame, error) in quars {
                    let msg = Msg::QuarTrial {
                        lease: id,
                        frame,
                        error,
                    };
                    if write_msg(&mut writer, &msg).is_err() {
                        return ServeEnd::Disconnected;
                    }
                }
                if write_msg(&mut writer, &Msg::Done { lease: id, rounds }).is_err() {
                    return ServeEnd::Disconnected;
                }
            }
            Msg::Ping { n } => {
                if write_msg(&mut writer, &Msg::Pong { n }).is_err() {
                    return ServeEnd::Disconnected;
                }
            }
            Msg::Shutdown => return ServeEnd::Shutdown,
            // Worker-to-coordinator messages arriving here mean a
            // confused (or chaos-mangled) stream; ignore them.
            Msg::Ready | Msg::Pong { .. } | Msg::QuarTrial { .. } | Msg::Done { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_frame;
    use std::io::Cursor;
    use wlan_core::linksim::FhssLink;

    fn hello() -> Msg {
        Msg::Hello {
            seed: 99,
            payload_len: 20,
            link: "fhss".into(),
            fault: "clean".into(),
            snrs: vec![2.0, 5.0, 8.0],
        }
    }

    fn serve_script(msgs: &[Msg]) -> Vec<Msg> {
        let mut input = Vec::new();
        for m in msgs {
            input.extend_from_slice(&encode_frame(m.to_payload().as_bytes()));
        }
        let mut output = Vec::new();
        serve(Cursor::new(input), &mut output);
        let mut out_msgs = Vec::new();
        let mut r = std::io::BufReader::new(Cursor::new(output));
        while let Ok(Some(m)) = read_msg(&mut r) {
            out_msgs.push(m);
        }
        out_msgs
    }

    #[test]
    fn hello_lease_done_round_trip_matches_direct_execution() {
        let out = serve_script(&[
            hello(),
            Msg::Lease {
                id: 7,
                point: 1,
                start: 0,
                end: 64,
            },
            Msg::Shutdown,
        ]);
        assert_eq!(out.first(), Some(&Msg::Ready));
        let Some(Msg::Done { lease, rounds }) = out.last() else {
            panic!("expected done, got {out:?}");
        };
        assert_eq!(*lease, 7);
        let direct = run_lease(&FhssLink, &FaultChain::clean(), 99, 20, 1, 5.0, 0..64);
        assert_eq!(*rounds, direct.0, "served lease must equal direct run");
        assert_eq!(rounds.len(), 2);
        assert!(rounds.iter().all(|r| r.trials == 32));
    }

    #[test]
    fn lease_results_are_worker_independent() {
        // The same lease run twice (as by two different workers after a
        // re-dispatch) is bit-identical.
        let l = FhssLink;
        let a = run_lease(&l, &FaultChain::clean(), 42, 20, 0, 3.0, 32..160);
        let b = run_lease(&l, &FaultChain::clean(), 42, 20, 0, 3.0, 32..160);
        assert_eq!(a, b);
    }

    #[test]
    fn lease_rounds_partition_like_single_process_waves() {
        // Two half-leases and one full lease must tally identically,
        // round by round: the round grid is anchored at frame 0, so any
        // lease split on a round boundary reproduces the same rounds.
        let l = FhssLink;
        let full = run_lease(&l, &FaultChain::clean(), 7, 20, 0, 2.0, 0..96);
        let first = run_lease(&l, &FaultChain::clean(), 7, 20, 0, 2.0, 0..32);
        let rest = run_lease(&l, &FaultChain::clean(), 7, 20, 0, 2.0, 32..96);
        let mut stitched = first.0.clone();
        stitched.extend(rest.0.clone());
        assert_eq!(full.0, stitched);
    }

    #[test]
    fn quarantined_trials_are_reported_before_done() {
        let out = serve_script(&[
            Msg::Hello {
                seed: 99,
                payload_len: 20,
                link: "fhss".into(),
                fault: FaultSpec::Single {
                    kind: wlan_fault::FaultKind::FrameTruncation,
                    severity: 1.0,
                }
                .id(),
                snrs: vec![2.0],
            },
            Msg::Lease {
                id: 1,
                point: 0,
                start: 0,
                end: 64,
            },
        ]);
        let quars: Vec<&Msg> = out
            .iter()
            .filter(|m| matches!(m, Msg::QuarTrial { .. }))
            .collect();
        assert!(!quars.is_empty(), "hard truncation must quarantine trials");
        let done_pos = out
            .iter()
            .position(|m| matches!(m, Msg::Done { .. }))
            .expect("done must arrive");
        for (i, m) in out.iter().enumerate() {
            if matches!(m, Msg::QuarTrial { .. }) {
                assert!(i < done_pos, "quar after done");
            }
        }
        // Erasure counts in rounds must match the quar messages.
        let Some(Msg::Done { rounds, .. }) = out.get(done_pos) else {
            unreachable!()
        };
        let erasures: u64 = rounds.iter().map(|r| r.erasures).sum();
        assert_eq!(erasures, quars.len() as u64);
    }

    #[test]
    fn garbage_and_out_of_catalog_input_is_survived() {
        // Damaged frames, unknown links, leases before hello, leases
        // out of range: the worker must skip them all and still serve
        // the valid tail.
        let mut input = Vec::new();
        input.extend_from_slice(b"not a frame at all\n");
        input.extend_from_slice(&encode_frame(
            Msg::Lease {
                id: 1,
                point: 0,
                start: 0,
                end: 32,
            }
            .to_payload()
            .as_bytes(),
        ));
        input.extend_from_slice(&encode_frame(
            Msg::Hello {
                seed: 1,
                payload_len: 8,
                link: "quantum:1".into(),
                fault: "clean".into(),
                snrs: vec![0.0],
            }
            .to_payload()
            .as_bytes(),
        ));
        input.extend_from_slice(&encode_frame(hello().to_payload().as_bytes()));
        input.extend_from_slice(&encode_frame(
            Msg::Lease {
                id: 2,
                point: 99,
                start: 0,
                end: 32,
            }
            .to_payload()
            .as_bytes(),
        ));
        input.extend_from_slice(&encode_frame(
            Msg::Lease {
                id: 3,
                point: 0,
                start: 0,
                end: 32,
            }
            .to_payload()
            .as_bytes(),
        ));
        let mut output = Vec::new();
        serve(Cursor::new(input), &mut output);
        let mut r = std::io::BufReader::new(Cursor::new(output));
        let mut msgs = Vec::new();
        while let Ok(Some(m)) = read_msg(&mut r) {
            msgs.push(m);
        }
        assert_eq!(
            msgs.iter()
                .filter(|m| matches!(m, Msg::Done { lease: 3, .. }))
                .count(),
            1,
            "valid lease after garbage must complete: {msgs:?}"
        );
        assert!(
            !msgs.iter().any(|m| matches!(m, Msg::Done { lease: 1, .. })
                || matches!(m, Msg::Done { lease: 2, .. })),
            "invalid leases must not produce results"
        );
    }
}
