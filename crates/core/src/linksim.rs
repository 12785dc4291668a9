//! The unified Monte-Carlo link simulator (experiment E4).
//!
//! Every generation's PHY implements [`PhyLink`]: one fallible frame
//! transmission at a given SNR through its real TX→channel→RX chain. The
//! harness sweeps SNR and counts frame errors, producing the PER curves
//! that rank the generations by robustness.
//!
//! SNR convention: average received signal power over noise power per
//! complex sample (per receive antenna), i.e. Es/N0 at the channel
//! bandwidth. Transmit chains in this workspace are unit-power, so noise
//! variance is simply `10^(−SNR/10)`.
//!
//! # Parallel determinism
//!
//! Sweeps fan frame trials out over [`wlan_math::par`]: each trial `(point
//! i, frame j)` runs on its own RNG stream `master.fork(i).fork(j)`, so a
//! trial's noise depends only on the master seed and its coordinates —
//! never on which thread ran it, how frames were batched, or how many
//! trials ran before it. Error counts are integers summed per point, so
//! the reduction is order-independent too, and a sweep is **bit-identical
//! at any `WLAN_THREADS` setting** (`1` = the serial loop, no threads
//! spawned). The tier-1 harness `tests/tests/parallel_determinism.rs`
//! asserts this for every generation and every fault injector.
//!
//! # Batched RX kernels per worker
//!
//! The receive chains lean on reusable per-thread kernels: every worker
//! thread owns a thread-local [`wlan_coding::ViterbiKernel`] (survivor
//! arena, reached through `ViterbiDecoder`; its add-compare-select runs on
//! the widest of AVX-512F, AVX2 or the scalar reference step the CPU
//! supports, all bit-identical) and a thread-local FFT plan cache
//! (`wlan_math::fft::cached_plan`, precomputed bit-reversal and twiddle
//! tables). Workers therefore share *no* mutable decode state — each one
//! gets its own kernel set the first time it touches a frame — and kernel
//! reuse only recycles scratch buffers, never numeric state, so the
//! bit-identical-at-any-thread-count contract above is unaffected by the
//! batching.
//!
//! The 802.11a chain ([`OfdmLink`]) streams one OFDM symbol at a time in
//! both directions: the transmitter encodes, punctures, interleaves, maps
//! and IFFTs each symbol straight into the frame buffer, and the receiver
//! FFTs, equalizes, demaps, deinterleaves and depunctures each symbol
//! straight into the Viterbi LLR buffer. Every floating-point operation
//! and its order are those of the stage-at-a-time chain it replaced
//! (pinned by `tests/tests/kernel_pins.rs`), so PER curves and the city's
//! calibrated tables are unchanged.
//!
//! # One chain per generation
//!
//! Each generation's PHY is defined exactly once, by its
//! [`PhyLink::frame_trial_faulted`] implementation below. Sweeps,
//! campaign runners (`wlan-runner`, `wlan-dist`) and quarantine replay all
//! reach it through [`frame_trial_at`], so there is no second execution
//! path to keep in step. Every chain records the `linksim.tx` /
//! `linksim.channel` / `linksim.rx` spans around its own segments.

use std::sync::OnceLock;

use wlan_math::par;
use wlan_math::rng::{Rng, WlanRng};
use wlan_channel::mimo::MimoMultipathChannel;
use wlan_channel::{Awgn, MultipathChannel, PowerDelayProfile};
use wlan_dsss::{DsssPhy, DsssRate};
use wlan_fault::FaultChain;
use wlan_math::special::db_to_lin;
use wlan_math::WlanError;
use wlan_mimo::detect::Detector;
use wlan_mimo::phy::{rate_mbps as mimo_rate_mbps, MimoOfdmConfig, MimoOfdmPhy};
use wlan_ofdm::params::Modulation;
use wlan_ofdm::phy::MAX_PAYLOAD;
use wlan_ofdm::{OfdmPhy, OfdmRate};

/// Per-stage wall-clock histograms for the TX→channel→RX pipeline, in
/// nanoseconds. `tx` covers modulation and FEC encoding, `channel`
/// covers channel realization, noise and fault injection, and `rx`
/// covers the receiver — Viterbi/LDPC decoding, FFT demodulation and
/// MIMO detection all land there. Observability is strictly write-only
/// (see the `wlan_obs` determinism guarantee): clocks are read only
/// while the recorder is enabled, and readings never feed back into a
/// simulation decision.
struct StageTimers {
    tx: wlan_obs::Histogram,
    channel: wlan_obs::Histogram,
    rx: wlan_obs::Histogram,
}

fn stage_timers() -> &'static StageTimers {
    static TIMERS: OnceLock<StageTimers> = OnceLock::new();
    TIMERS.get_or_init(|| {
        let obs = wlan_obs::global();
        StageTimers {
            tx: obs.histogram("linksim.tx"),
            channel: obs.histogram("linksim.channel"),
            rx: obs.histogram("linksim.rx"),
        }
    })
}

/// Trial-outcome counters, bumped in [`frame_trial_at`] so every frame
/// path — sweeps, campaigns, quarantine replay — is counted. A frame
/// trial runs a full PHY pipeline, so the 1–3 relaxed atomic adds (one
/// gate load when disabled) are noise next to the work they count.
fn trial_counters() -> &'static (wlan_obs::Counter, wlan_obs::Counter, wlan_obs::Counter) {
    static COUNTERS: OnceLock<(wlan_obs::Counter, wlan_obs::Counter, wlan_obs::Counter)> =
        OnceLock::new();
    COUNTERS.get_or_init(|| {
        let obs = wlan_obs::global();
        (
            obs.counter("linksim.frames"),
            obs.counter("linksim.frame_errors"),
            obs.counter("linksim.erasures"),
        )
    })
}

/// One point of a PER sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerPoint {
    /// SNR in dB.
    pub snr_db: f64,
    /// Measured frame error rate.
    pub per: f64,
}

/// A complete PER-versus-SNR curve for one link.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCurve {
    /// Link name (for reports).
    pub name: String,
    /// PHY rate in Mbps.
    pub rate_mbps: f64,
    /// Sweep points, ascending in SNR.
    pub points: Vec<PerPoint>,
}

impl PerCurve {
    /// The lowest swept SNR achieving `per_target`, linearly interpolated;
    /// `None` when even the top of the sweep fails.
    ///
    /// The curve is *assumed* monotone non-increasing in SNR — more signal
    /// never hurts a sane receiver. Measured curves can still wiggle from
    /// Monte-Carlo noise, so this scans for the first bracketing pair
    /// rather than bisecting, which keeps the answer at the *lowest*
    /// qualifying SNR even through a local non-monotonic dip. Points whose
    /// PER is NaN (e.g. placeholder entries from an aborted sweep) are
    /// skipped rather than poisoning every comparison around them.
    ///
    /// Endpoint contract: when the lowest (finite-PER) swept point already
    /// meets `per_target` — including meeting it exactly — the answer is
    /// that point's SNR, returned bit-exactly with **no extrapolation
    /// below the sweep** (the sweep carries no evidence about lower SNRs).
    /// `tests/tests/regression.rs::golden_snr_for_per_endpoint_contract`
    /// pins this.
    pub fn snr_for_per(&self, per_target: f64) -> Option<f64> {
        if !per_target.is_finite() {
            return None;
        }
        let pts: Vec<&PerPoint> = self.points.iter().filter(|p| p.per.is_finite()).collect();
        if let Some(first) = pts.first() {
            if first.per <= per_target {
                return Some(first.snr_db);
            }
        }
        for w in pts.windows(2) {
            if w[0].per >= per_target && w[1].per <= per_target {
                let span = w[0].per - w[1].per;
                if span <= 0.0 {
                    return Some(w[1].snr_db);
                }
                let frac = (w[0].per - per_target) / span;
                return Some(w[0].snr_db + frac * (w[1].snr_db - w[0].snr_db));
            }
        }
        pts.last()
            .filter(|p| p.per <= per_target)
            .map(|p| p.snr_db)
    }
}

/// A physical link that can attempt one frame at a given SNR.
///
/// `Send + Sync` so sweeps can share the link across the `wlan_math::par`
/// workers; links are immutable parameter bundles (all per-trial state
/// lives in the `rng` argument and locals).
pub trait PhyLink: Send + Sync {
    /// Human-readable link name.
    fn name(&self) -> String;

    /// Nominal PHY rate in Mbps.
    fn rate_mbps(&self) -> f64;

    /// Transmits one frame of `payload` bytes at `snr_db` with `faults`
    /// applied to the received samples (after the channel and noise, i.e.
    /// at the receiver front end).
    ///
    /// Returns `Ok(true)` when the receiver recovered the payload
    /// bit-exactly, `Ok(false)` when it produced the wrong bits, and
    /// `Err` when the receiver *detected* the frame was undecodable (a
    /// typed erasure — truncated stream, singular channel, bad SIGNAL
    /// field). Implementations must never panic on faulted input, and
    /// with a clean chain must consume exactly the RNG draws the
    /// pre-fault [`PhyLink::frame_trial`] consumed, so seeded sweeps stay
    /// bit-identical.
    fn frame_trial_faulted(
        &self,
        snr_db: f64,
        payload: &[u8],
        faults: &FaultChain,
        rng: &mut WlanRng,
    ) -> Result<bool, WlanError>;

    /// Transmits one frame of `payload` bytes at `snr_db` over the clean
    /// (fault-free) link; returns `true` when the receiver recovered it
    /// bit-exactly. Erasures count as failures.
    fn frame_trial(&self, snr_db: f64, payload: &[u8], rng: &mut WlanRng) -> bool {
        self.frame_trial_faulted(snr_db, payload, &FaultChain::clean(), rng)
            .unwrap_or(false)
    }
}

/// One point of a faulted PER sweep: the PER plus how much of it the
/// receiver *detected* (typed erasures) versus silently got wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSweepPoint {
    /// SNR in dB.
    pub snr_db: f64,
    /// Measured frame error rate (erasures plus wrong payloads).
    pub per: f64,
    /// Fraction of trials ending in a typed erasure ([`WlanError`]).
    pub erasure_rate: f64,
}

/// A PER-versus-SNR curve measured under a fault chain.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweep {
    /// Link name (for reports).
    pub name: String,
    /// Fault chain name ("clean" when no faults).
    pub fault: String,
    /// PHY rate in Mbps.
    pub rate_mbps: f64,
    /// Sweep points, ascending in SNR.
    pub points: Vec<FaultSweepPoint>,
}

impl FaultSweep {
    /// Drops the erasure accounting, leaving the plain PER curve.
    pub fn into_per_curve(self) -> PerCurve {
        PerCurve {
            name: self.name,
            rate_mbps: self.rate_mbps,
            points: self
                .points
                .into_iter()
                .map(|p| PerPoint {
                    snr_db: p.snr_db,
                    per: p.per,
                })
                .collect(),
        }
    }
}

/// Sweeps SNR and measures PER with `frames` trials per point.
///
/// Trials run in parallel on the `WLAN_THREADS` pool with per-trial
/// forked RNG streams; the curve is bit-identical at any thread count (see
/// the module docs).
///
/// # Panics
///
/// Panics if `frames` is zero or `payload_len` is zero.
pub fn sweep_per(
    link: &dyn PhyLink,
    snrs_db: &[f64],
    payload_len: usize,
    frames: usize,
    seed: u64,
) -> PerCurve {
    sweep_per_faulted(link, &FaultChain::clean(), snrs_db, payload_len, frames, seed)
        .into_per_curve()
}

/// Same as [`sweep_per`]. Kept because the benchmark harness still
/// names it in its flowgraph-versus-chain comparison; it has no other
/// path to force since sweeps run on one chain per generation.
///
/// # Panics
///
/// Panics if `frames` is zero or `payload_len` is zero.
pub fn sweep_per_oracle(
    link: &dyn PhyLink,
    snrs_db: &[f64],
    payload_len: usize,
    frames: usize,
    seed: u64,
) -> PerCurve {
    sweep_per(link, snrs_db, payload_len, frames, seed)
}

/// Frames per parallel work item of a sweep or a campaign wave. Small
/// enough that a single-point sweep still fans out, large enough that
/// scheduling overhead stays invisible next to a PHY chain. Results never
/// depend on this value — only wall-clock does — because every frame has
/// its own forked stream.
pub const FRAMES_PER_BATCH: usize = 8;

/// Integer tallies of a run of frame trials at one SNR point. Integers
/// sum in any grouping, so batches and rounds fold order-independently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTally {
    /// Frame trials run.
    pub trials: u64,
    /// Frames the receiver got wrong (silent corruption plus erasures).
    pub errors: u64,
    /// Trials ending in a typed erasure.
    pub erasures: u64,
}

impl std::ops::AddAssign for RoundTally {
    fn add_assign(&mut self, rhs: Self) {
        self.trials += rhs.trials;
        self.errors += rhs.errors;
        self.erasures += rhs.erasures;
    }
}

/// Runs the single sweep trial at stream coordinates `(point, frame)`.
///
/// The trial's whole universe — payload bits, channel realization, noise,
/// fault draws — comes from `point_rng.fork(frame)`, where `point_rng =
/// master.fork(point)` and `master = WlanRng::seed_from_u64(seed)`. This
/// is *the* addressing scheme every sweep uses, exposed so campaign
/// runners can resume a sweep mid-point and quarantine replay can
/// re-execute any trial from its `(seed, point, frame)` coordinates alone
/// — both bit-identical to the trial's first execution.
pub fn frame_trial_at(
    link: &dyn PhyLink,
    faults: &FaultChain,
    snr_db: f64,
    payload_len: usize,
    point_rng: &WlanRng,
    frame: u64,
) -> Result<bool, WlanError> {
    let mut payload = Vec::with_capacity(payload_len);
    counted_trial(link, faults, snr_db, payload_len, point_rng, frame, &mut payload)
}

/// [`frame_trial_at`] with the payload drawn into a caller-owned buffer,
/// so a loop over frames allocates it once.
fn counted_trial(
    link: &dyn PhyLink,
    faults: &FaultChain,
    snr_db: f64,
    payload_len: usize,
    point_rng: &WlanRng,
    frame: u64,
    payload: &mut Vec<u8>,
) -> Result<bool, WlanError> {
    let result = trial(link, faults, snr_db, payload_len, point_rng, frame, payload);
    let (c_frames, c_errors, c_erasures) = trial_counters();
    c_frames.inc();
    match &result {
        Ok(true) => {}
        Ok(false) => c_errors.inc(),
        Err(_) => {
            c_errors.inc();
            c_erasures.inc();
        }
    }
    result
}

/// The trial at `point_rng.fork(frame)`: payload bytes are drawn first
/// (into `payload`, which is cleared), then the link's chain consumes the
/// rest of the stream. Counts nothing.
fn trial(
    link: &dyn PhyLink,
    faults: &FaultChain,
    snr_db: f64,
    payload_len: usize,
    point_rng: &WlanRng,
    frame: u64,
    payload: &mut Vec<u8>,
) -> Result<bool, WlanError> {
    let mut rng = point_rng.fork(frame);
    payload.clear();
    payload.extend((0..payload_len).map(|_| rng.gen::<u8>()));
    link.frame_trial_faulted(snr_db, payload, faults, &mut rng)
}

/// Per-frame verdicts for one SNR point: frame `j` runs on
/// `point_rng.fork(j)` exactly like [`frame_trial_at`], typed erasures
/// included, but without bumping the `linksim.*` trial counters. Kept
/// because the benchmark harness rebuilds campaign tallies from it; it
/// always returns `Some` now that every link runs one chain.
pub fn flow_verdicts(
    link: &dyn PhyLink,
    faults: &FaultChain,
    snr_db: f64,
    payload_len: usize,
    point_rng: &WlanRng,
    frames: usize,
) -> Option<Vec<Result<bool, WlanError>>> {
    let mut payload = Vec::with_capacity(payload_len);
    Some(
        (0..frames as u64)
            .map(|j| trial(link, faults, snr_db, payload_len, point_rng, j, &mut payload))
            .collect(),
    )
}

/// Runs frames `frames` of one point through [`frame_trial_at`]: the
/// one frame-tally loop behind sweeps, campaign waves and fleet leases.
/// Returns the tally and the typed erasures as `(frame, error)` in frame
/// order. The loop itself allocates and formats nothing per frame: the
/// payload is drawn into one buffer per call, and only an erasure
/// pushes.
pub fn run_frames(
    link: &dyn PhyLink,
    faults: &FaultChain,
    snr_db: f64,
    payload_len: usize,
    point_rng: &WlanRng,
    frames: std::ops::Range<u64>,
) -> (RoundTally, Vec<(u64, WlanError)>) {
    let mut tally = RoundTally::default();
    let mut erasures = Vec::new();
    let mut payload = Vec::with_capacity(payload_len);
    for frame in frames {
        tally.trials += 1;
        match counted_trial(link, faults, snr_db, payload_len, point_rng, frame, &mut payload) {
            Ok(true) => {}
            Ok(false) => tally.errors += 1,
            Err(e) => {
                tally.errors += 1;
                tally.erasures += 1;
                erasures.push((frame, e));
            }
        }
    }
    (tally, erasures)
}

/// Sweeps SNR under a fault chain, counting typed erasures separately
/// from silent payload corruption.
///
/// Every trial is addressed as `master.fork(point).fork(frame)` (see
/// [`frame_trial_at`]) and integer tallies fold in work-item order, so the
/// sweep is bit-identical across `WLAN_THREADS` settings.
///
/// With a clean chain this draws exactly the same RNG sequence as
/// [`sweep_per`] (the chain consumes no draws), so the two agree
/// bit-for-bit for a given seed.
///
/// # Panics
///
/// Panics if `frames` is zero or `payload_len` is zero.
pub fn sweep_per_faulted(
    link: &dyn PhyLink,
    faults: &FaultChain,
    snrs_db: &[f64],
    payload_len: usize,
    frames: usize,
    seed: u64,
) -> FaultSweep {
    assert!(frames > 0, "need at least one frame per point");
    assert!(payload_len > 0, "payload must be nonempty");
    let master = WlanRng::seed_from_u64(seed);

    // Flatten the sweep into (point, frame-batch) work items so a
    // single-point robustness sweep parallelizes as well as a 12-point
    // waterfall.
    let batches = par::batches(frames, FRAMES_PER_BATCH);
    let work: Vec<(usize, std::ops::Range<usize>)> = snrs_db
        .iter()
        .enumerate()
        .flat_map(|(i, _)| batches.iter().map(move |b| (i, b.clone())))
        .collect();

    let tallies = par::parallel_map(&work, |_, (point, frame_range)| {
        let frames = frame_range.start as u64..frame_range.end as u64;
        let point_rng = master.fork(*point as u64);
        run_frames(link, faults, snrs_db[*point], payload_len, &point_rng, frames).0
    });

    // Deterministic reduction: integer sums per point, folded in work-item
    // order.
    let mut totals = vec![RoundTally::default(); snrs_db.len()];
    for ((point, _), tally) in work.iter().zip(tallies) {
        totals[*point] += tally;
    }

    let points = snrs_db
        .iter()
        .zip(&totals)
        .map(|(&snr, t)| FaultSweepPoint {
            snr_db: snr,
            per: t.errors as f64 / frames as f64,
            erasure_rate: t.erasures as f64 / frames as f64,
        })
        .collect();
    FaultSweep {
        name: link.name(),
        fault: faults.name(),
        rate_mbps: link.rate_mbps(),
        points,
    }
}

/// A first-generation DSSS/CCK link over AWGN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsssLink {
    /// The DSSS-family rate.
    pub rate: DsssRate,
}

impl PhyLink for DsssLink {
    fn name(&self) -> String {
        format!("{} (AWGN)", self.rate)
    }

    fn rate_mbps(&self) -> f64 {
        self.rate.rate_mbps()
    }

    fn frame_trial_faulted(
        &self,
        snr_db: f64,
        payload: &[u8],
        faults: &FaultChain,
        rng: &mut WlanRng,
    ) -> Result<bool, WlanError> {
        let timers = stage_timers();
        let span = timers.tx.start();
        let phy = DsssPhy::new(self.rate);
        let bits = wlan_coding::bits::bytes_to_bits(payload);
        let chips = phy.transmit(&bits);
        span.stop();
        let sent = chips.len();
        let span = timers.channel.start();
        // In-place AWGN: same draws and sums as `apply`, minus one
        // frame-sized allocation per trial.
        let mut noisy = chips;
        Awgn::from_snr_db(snr_db).apply_in_place(&mut noisy, rng);
        faults.inject(&mut noisy, rng);
        span.stop();
        // The despreaders demand whole symbols; a shortened chip stream is
        // a detected loss, not a panic.
        if noisy.len() < sent {
            return Err(WlanError::FrameTruncated {
                needed: sent,
                got: noisy.len(),
            });
        }
        let span = timers.rx.start();
        let rx = phy.receive(&noisy);
        span.stop();
        Ok(rx[..bits.len()] == bits[..])
    }
}

/// An 802.11a OFDM link, optionally through multipath.
#[derive(Debug, Clone, PartialEq)]
pub struct OfdmLink {
    /// The OFDM rate.
    pub rate: OfdmRate,
    /// Multipath profile; `None` = pure AWGN.
    pub multipath: Option<PowerDelayProfile>,
}

impl OfdmLink {
    /// An AWGN-only link.
    pub fn awgn(rate: OfdmRate) -> Self {
        OfdmLink {
            rate,
            multipath: None,
        }
    }
}

impl PhyLink for OfdmLink {
    fn name(&self) -> String {
        match &self.multipath {
            Some(_) => format!("{} (multipath)", self.rate),
            None => format!("{} (AWGN)", self.rate),
        }
    }

    fn rate_mbps(&self) -> f64 {
        self.rate.rate_mbps()
    }

    fn frame_trial_faulted(
        &self,
        snr_db: f64,
        payload: &[u8],
        faults: &FaultChain,
        rng: &mut WlanRng,
    ) -> Result<bool, WlanError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(WlanError::InvalidConfig(
                "OFDM payload exceeds the 12-bit LENGTH field",
            ));
        }
        let timers = stage_timers();
        let phy = OfdmPhy::new(self.rate);
        let span = timers.tx.start();
        let frame = phy.transmit(payload);
        span.stop();
        let span = timers.channel.start();
        let faded = match &self.multipath {
            Some(pdp) => {
                let ch = MultipathChannel::realize(pdp, rng);
                let mut out = ch.filter(&frame);
                out.truncate(frame.len());
                out
            }
            None => frame,
        };
        let mut noisy = faded;
        Awgn::from_snr_db(snr_db).apply_in_place(&mut noisy, rng);
        faults.inject(&mut noisy, rng);
        span.stop();
        let span = timers.rx.start();
        // The OFDM receiver is already fallible: a stream it cannot frame
        // (short, bad SIGNAL parity, rate mismatch) is a detected erasure.
        let received = phy.receive(&noisy);
        span.stop();
        match received {
            Ok(p) => Ok(p == payload),
            Err(_) => Err(WlanError::SignalInvalid),
        }
    }
}

/// An 802.11n MIMO-OFDM link through per-antenna-pair multipath.
#[derive(Debug, Clone, PartialEq)]
pub struct MimoLink {
    /// Spatial streams (= TX antennas).
    pub n_streams: usize,
    /// Receive antennas.
    pub n_rx: usize,
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Code rate.
    pub code_rate: wlan_coding::CodeRate,
    /// Detector.
    pub detector: Detector,
    /// Multipath profile shared by all antenna pairs.
    pub pdp: PowerDelayProfile,
}

impl MimoLink {
    /// A QPSK rate-1/2 MMSE link with the given antenna configuration over
    /// flat Rayleigh fading.
    pub fn flat(n_streams: usize, n_rx: usize) -> Self {
        MimoLink {
            n_streams,
            n_rx,
            modulation: Modulation::Qpsk,
            code_rate: wlan_coding::CodeRate::R1_2,
            detector: Detector::Mmse,
            pdp: PowerDelayProfile::flat(),
        }
    }

    fn phy(&self) -> Result<MimoOfdmPhy, WlanError> {
        MimoOfdmPhy::new(MimoOfdmConfig {
            n_streams: self.n_streams,
            n_rx: self.n_rx,
            modulation: self.modulation,
            code_rate: self.code_rate,
            detector: self.detector,
        })
    }
}

impl PhyLink for MimoLink {
    fn name(&self) -> String {
        format!(
            "{}x{} {} r={} ({:?})",
            self.n_streams, self.n_rx, self.modulation, self.code_rate, self.detector
        )
    }

    fn rate_mbps(&self) -> f64 {
        mimo_rate_mbps(self.n_streams, self.modulation, self.code_rate)
    }

    fn frame_trial_faulted(
        &self,
        snr_db: f64,
        payload: &[u8],
        faults: &FaultChain,
        rng: &mut WlanRng,
    ) -> Result<bool, WlanError> {
        let timers = stage_timers();
        let phy = self.phy()?;
        let n0 = db_to_lin(-snr_db);
        let ch = MimoMultipathChannel::realize(self.n_rx, self.n_streams, &self.pdp, rng);
        let span = timers.tx.start();
        let tx = phy.transmit(payload);
        span.stop();
        let span = timers.channel.start();
        let mut rx = ch.propagate(&tx, n0, rng)?;
        faults.inject_streams(&mut rx, rng);
        span.stop();
        let span = timers.rx.start();
        let decoded = phy.receive(&rx, n0, payload.len());
        span.stop();
        Ok(decoded? == payload)
    }
}

/// A single-stream HT-20 link (52-carrier 802.11n numerology), BCC or LDPC
/// coded, over AWGN plus optional flat fading.
#[derive(Debug, Clone, PartialEq)]
pub struct HtLink {
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Code rate.
    pub code_rate: wlan_coding::CodeRate,
    /// Use the LDPC option instead of BCC.
    pub ldpc: bool,
    /// Apply a flat Rayleigh fade per frame.
    pub fading: bool,
}

impl PhyLink for HtLink {
    fn name(&self) -> String {
        format!(
            "HT20 {} r={} ({})",
            self.modulation,
            self.code_rate,
            if self.ldpc { "LDPC" } else { "BCC" }
        )
    }

    fn rate_mbps(&self) -> f64 {
        if self.ldpc {
            wlan_mimo::ht_ldpc::HtLdpcPhy::cached(self.modulation, self.code_rate).rate_mbps()
        } else {
            wlan_mimo::ht::HtPhy::new(self.modulation, self.code_rate).rate_mbps()
        }
    }

    fn frame_trial_faulted(
        &self,
        snr_db: f64,
        payload: &[u8],
        faults: &FaultChain,
        rng: &mut WlanRng,
    ) -> Result<bool, WlanError> {
        let fade = if self.fading {
            wlan_channel::noise::complex_gaussian(rng)
        } else {
            wlan_math::Complex::ONE
        };
        let timers = stage_timers();
        let apply = |frame: Vec<wlan_math::Complex>, rng: &mut WlanRng| {
            let span = timers.channel.start();
            let mut noisy = frame;
            for s in noisy.iter_mut() {
                *s *= fade;
            }
            Awgn::from_snr_db(snr_db).apply_in_place(&mut noisy, rng);
            faults.inject(&mut noisy, rng);
            span.stop();
            noisy
        };
        if self.ldpc {
            let phy = wlan_mimo::ht_ldpc::HtLdpcPhy::cached(self.modulation, self.code_rate);
            let span = timers.tx.start();
            let tx = phy.transmit(payload);
            span.stop();
            let rx = apply(tx, rng);
            let span = timers.rx.start();
            let decoded = phy.receive(&rx, payload.len());
            span.stop();
            Ok(decoded? == payload)
        } else {
            let phy = wlan_mimo::ht::HtPhy::new(self.modulation, self.code_rate);
            let span = timers.tx.start();
            let tx = phy.transmit(payload);
            span.stop();
            let rx = apply(tx, rng);
            let span = timers.rx.start();
            let decoded = phy.receive(&rx, payload.len());
            span.stop();
            Ok(decoded? == payload)
        }
    }
}

/// The 802.11-1999 FHSS alternative PHY: 1 Mbps binary FSK on one hop
/// dwell (noncoherent detection), over AWGN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FhssLink;

impl PhyLink for FhssLink {
    fn name(&self) -> String {
        "1 Mbps FHSS 2-FSK (AWGN)".into()
    }

    fn rate_mbps(&self) -> f64 {
        1.0
    }

    fn frame_trial_faulted(
        &self,
        snr_db: f64,
        payload: &[u8],
        faults: &FaultChain,
        rng: &mut WlanRng,
    ) -> Result<bool, WlanError> {
        use wlan_dsss::fhss::FskModem;
        let timers = stage_timers();
        let span = timers.tx.start();
        let modem = FskModem::new(8);
        let bits = wlan_coding::bits::bytes_to_bits(payload);
        let samples = modem.modulate(&bits);
        span.stop();
        let sent = samples.len();
        let span = timers.channel.start();
        let mut noisy = samples;
        Awgn::from_snr_db(snr_db).apply_in_place(&mut noisy, rng);
        faults.inject(&mut noisy, rng);
        span.stop();
        // The noncoherent detector demands whole FSK symbols; a shortened
        // dwell is a detected loss, not a panic.
        if noisy.len() < sent {
            return Err(WlanError::FrameTruncated {
                needed: sent,
                got: noisy.len(),
            });
        }
        let span = timers.rx.start();
        let demodulated = modem.demodulate(&noisy);
        span.stop();
        Ok(demodulated == bits)
    }
}

/// An Alamouti STBC OFDM link: two transmit antennas spent on diversity
/// (single-stream rate), `n_rx` receive antennas.
#[derive(Debug, Clone, PartialEq)]
pub struct StbcLink {
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Code rate.
    pub code_rate: wlan_coding::CodeRate,
    /// Receive antennas.
    pub n_rx: usize,
    /// Multipath profile shared by all antenna pairs.
    pub pdp: PowerDelayProfile,
}

impl StbcLink {
    /// A QPSK rate-1/2 STBC link over flat Rayleigh fading.
    pub fn flat(n_rx: usize) -> Self {
        StbcLink {
            modulation: Modulation::Qpsk,
            code_rate: wlan_coding::CodeRate::R1_2,
            n_rx,
            pdp: PowerDelayProfile::flat(),
        }
    }

    fn phy(&self) -> Result<wlan_mimo::stbc_phy::StbcOfdmPhy, WlanError> {
        wlan_mimo::stbc_phy::StbcOfdmPhy::new(self.modulation, self.code_rate, self.n_rx)
    }
}

impl PhyLink for StbcLink {
    fn name(&self) -> String {
        format!("STBC 2x{} {} r={}", self.n_rx, self.modulation, self.code_rate)
    }

    fn rate_mbps(&self) -> f64 {
        // Alamouti spends the second antenna on diversity: one stream's
        // rate, whatever the receive side.
        mimo_rate_mbps(1, self.modulation, self.code_rate)
    }

    fn frame_trial_faulted(
        &self,
        snr_db: f64,
        payload: &[u8],
        faults: &FaultChain,
        rng: &mut WlanRng,
    ) -> Result<bool, WlanError> {
        let timers = stage_timers();
        let phy = self.phy()?;
        let n0 = db_to_lin(-snr_db);
        let ch = MimoMultipathChannel::realize(self.n_rx, 2, &self.pdp, rng);
        let span = timers.tx.start();
        let tx = phy.transmit(payload);
        span.stop();
        let span = timers.channel.start();
        let mut rx = ch.propagate(&tx, n0, rng)?;
        faults.inject_streams(&mut rx, rng);
        span.stop();
        let span = timers.rx.start();
        let decoded = phy.receive(&rx, payload.len());
        span.stop();
        Ok(decoded? == payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stbc_link_beats_siso_at_same_rate() {
        let snr = [10.0];
        // Enough frames that the diversity gain clears Monte-Carlo noise.
        let siso = sweep_per(&MimoLink::flat(1, 1), &snr, 40, 150, 21);
        let stbc = sweep_per(&StbcLink::flat(1), &snr, 40, 150, 21);
        assert_eq!(siso.rate_mbps, stbc.rate_mbps, "same data rate");
        assert!(
            stbc.points[0].per < siso.points[0].per,
            "STBC {} vs SISO {}",
            stbc.points[0].per,
            siso.points[0].per
        );
    }

    #[test]
    fn per_is_monotone_decreasing_for_dsss() {
        let link = DsssLink {
            rate: DsssRate::Dqpsk2M,
        };
        let curve = sweep_per(&link, &[-4.0, 2.0, 8.0], 50, 40, 42);
        assert!(curve.points[0].per >= curve.points[2].per);
        // At 8 dB chip SNR (18 dB post-despreading) DQPSK is clean.
        assert!(curve.points[2].per < 0.1, "per {}", curve.points[2].per);
    }

    #[test]
    fn ofdm_rate_ladder_orders_by_required_snr() {
        // 6 Mbps decodes at an SNR where 54 Mbps fails outright.
        let snr = [4.0];
        let slow = sweep_per(&OfdmLink::awgn(OfdmRate::R6), &snr, 60, 25, 1);
        let fast = sweep_per(&OfdmLink::awgn(OfdmRate::R54), &snr, 60, 25, 1);
        assert!(slow.points[0].per < 0.3, "6 Mbps per {}", slow.points[0].per);
        assert!(fast.points[0].per > 0.7, "54 Mbps per {}", fast.points[0].per);
    }

    #[test]
    fn snr_for_per_interpolates() {
        let curve = PerCurve {
            name: "test".into(),
            rate_mbps: 1.0,
            points: vec![
                PerPoint {
                    snr_db: 0.0,
                    per: 1.0,
                },
                PerPoint {
                    snr_db: 10.0,
                    per: 0.0,
                },
            ],
        };
        assert!((curve.snr_for_per(0.5).unwrap() - 5.0).abs() < 1e-9);
        assert!((curve.snr_for_per(0.01).unwrap() - 9.9).abs() < 1e-9);
    }

    #[test]
    fn snr_for_per_none_when_unreachable() {
        let curve = PerCurve {
            name: "bad".into(),
            rate_mbps: 1.0,
            points: vec![PerPoint {
                snr_db: 0.0,
                per: 0.9,
            }],
        };
        assert_eq!(curve.snr_for_per(0.01), None);
    }

    #[test]
    fn receive_diversity_lowers_per() {
        let snr = [8.0];
        let siso = sweep_per(&MimoLink::flat(1, 1), &snr, 40, 30, 7);
        let div = sweep_per(&MimoLink::flat(1, 4), &snr, 40, 30, 7);
        assert!(
            div.points[0].per < siso.points[0].per,
            "1x4 {} vs 1x1 {}",
            div.points[0].per,
            siso.points[0].per
        );
    }

    #[test]
    fn ht_ldpc_link_is_competitive_near_threshold() {
        let common = HtLink {
            modulation: Modulation::Qpsk,
            code_rate: wlan_coding::CodeRate::R1_2,
            ldpc: false,
            fading: false,
        };
        let ldpc = HtLink {
            ldpc: true,
            ..common.clone()
        };
        assert!((common.rate_mbps() - ldpc.rate_mbps()).abs() < 1e-9);
        let snr = [4.5];
        let bcc_curve = sweep_per(&common, &snr, 60, 30, 23);
        let ldpc_curve = sweep_per(&ldpc, &snr, 60, 30, 23);
        // At the PER≈10 % operating point the two codes sit within a
        // fraction of a dB of each other; LDPC's decisive win is in the
        // low-BER waterfall (see bench e06). Here we assert comparability.
        assert!(
            ldpc_curve.points[0].per <= bcc_curve.points[0].per + 0.15,
            "LDPC {} vs BCC {}",
            ldpc_curve.points[0].per,
            bcc_curve.points[0].per
        );
    }

    #[test]
    fn mimo_link_rejects_unsupported_antenna_counts() {
        let mut rng = WlanRng::seed_from_u64(24);
        let clean = FaultChain::clean();
        for (n_streams, n_rx) in [(0, 1), (5, 5), (2, 0), (2, 5)] {
            let link = MimoLink::flat(n_streams, n_rx);
            let rate = link.rate_mbps();
            assert!((rate - 12.0 * n_streams as f64).abs() < 1e-9, "{rate} Mbps");
            let err = link
                .frame_trial_faulted(20.0, &[7; 30], &clean, &mut rng)
                .unwrap_err();
            assert!(matches!(err, WlanError::InvalidConfig(_)), "{err:?}");
            assert!(!link.frame_trial(20.0, &[7; 30], &mut rng));
        }
    }

    #[test]
    fn stbc_link_rejects_zero_receive_antennas() {
        let mut rng = WlanRng::seed_from_u64(25);
        let link = StbcLink::flat(0);
        assert!((link.rate_mbps() - 12.0).abs() < 1e-9);
        let err = link
            .frame_trial_faulted(20.0, &[7; 30], &FaultChain::clean(), &mut rng)
            .unwrap_err();
        assert!(matches!(err, WlanError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn fhss_link_works_at_moderate_snr() {
        let curve = sweep_per(&FhssLink, &[0.0, 12.0], 40, 30, 19);
        assert!(curve.points[0].per > curve.points[1].per);
        assert!(curve.points[1].per < 0.1, "per {}", curve.points[1].per);
    }

    #[test]
    fn sweep_is_deterministic() {
        let link = DsssLink {
            rate: DsssRate::Cck11M,
        };
        let a = sweep_per(&link, &[5.0], 30, 20, 9);
        let b = sweep_per(&link, &[5.0], 30, 20, 9);
        assert_eq!(a, b);
    }

    fn curve_of(pairs: &[(f64, f64)]) -> PerCurve {
        PerCurve {
            name: "test".into(),
            rate_mbps: 1.0,
            points: pairs
                .iter()
                .map(|&(snr_db, per)| PerPoint { snr_db, per })
                .collect(),
        }
    }

    #[test]
    fn snr_for_per_skips_nan_points() {
        let curve = curve_of(&[(0.0, 1.0), (5.0, f64::NAN), (10.0, 0.0)]);
        let snr = curve.snr_for_per(0.5).unwrap();
        assert!((snr - 5.0).abs() < 1e-9, "interpolated across NaN: {snr}");
        assert_eq!(curve_of(&[(0.0, f64::NAN)]).snr_for_per(0.1), None);
    }

    #[test]
    fn snr_for_per_survives_monte_carlo_wiggle() {
        // A non-monotonic dip below target followed by a bounce back up:
        // the first bracketing pair wins, and nothing panics or lies.
        let curve = curve_of(&[(0.0, 0.9), (2.0, 0.05), (4.0, 0.2), (6.0, 0.0)]);
        let snr = curve.snr_for_per(0.1).unwrap();
        assert!(snr > 0.0 && snr < 2.0, "first crossing, got {snr}");
    }

    #[test]
    fn snr_for_per_honours_an_already_good_first_point() {
        let curve = curve_of(&[(3.0, 0.02), (6.0, 0.0)]);
        assert_eq!(curve.snr_for_per(0.1), Some(3.0));
    }

    #[test]
    fn snr_for_per_rejects_nan_target() {
        let curve = curve_of(&[(0.0, 1.0), (10.0, 0.0)]);
        assert_eq!(curve.snr_for_per(f64::NAN), None);
    }

    #[test]
    fn clean_faulted_sweep_matches_sweep_per_bit_for_bit() {
        use wlan_fault::FaultChain;
        let link = OfdmLink::awgn(OfdmRate::R12);
        let plain = sweep_per(&link, &[6.0, 10.0], 40, 15, 31);
        let faulted =
            sweep_per_faulted(&link, &FaultChain::clean(), &[6.0, 10.0], 40, 15, 31);
        assert_eq!(faulted.fault, "clean");
        assert_eq!(faulted.clone().into_per_curve(), plain);
        assert!(faulted.points.iter().all(|p| p.erasure_rate == 0.0));
    }

    #[test]
    fn truncation_faults_surface_as_erasures_not_panics() {
        use wlan_fault::FaultKind;
        let chain = FaultKind::FrameTruncation.chain(1.0);
        for link in [
            &DsssLink {
                rate: DsssRate::Dbpsk1M,
            } as &dyn PhyLink,
            &FhssLink,
        ] {
            let sweep = sweep_per_faulted(link, &chain, &[20.0], 30, 10, 5);
            let p = sweep.points[0];
            assert!(p.per >= p.erasure_rate);
            assert!(
                p.erasure_rate > 0.0,
                "{}: hard truncation must be detected",
                sweep.name
            );
        }
    }

    #[test]
    fn flow_verdicts_match_frame_trial_at_including_typed_errors() {
        use wlan_fault::FaultKind;
        let link = FhssLink;
        let chain = FaultKind::FrameTruncation.chain(1.0);
        let point_rng = WlanRng::seed_from_u64(5).fork(0);
        let flow = flow_verdicts(&link, &chain, 20.0, 30, &point_rng, 10).expect("always Some");
        let oracle: Vec<Result<bool, WlanError>> = (0..10)
            .map(|j| frame_trial_at(&link, &chain, 20.0, 30, &point_rng, j))
            .collect();
        assert_eq!(flow, oracle);
        assert!(
            flow.iter()
                .any(|v| matches!(v, Err(WlanError::FrameTruncated { .. }))),
            "hard truncation must surface as the typed erasure"
        );
    }

    #[test]
    fn oversize_ofdm_payload_is_a_typed_error() {
        // The 12-bit LENGTH field caps an 802.11a frame at 4095 bytes; a
        // longer payload is a configuration error, not a panic.
        let link = OfdmLink::awgn(OfdmRate::R54);
        let mut rng = WlanRng::seed_from_u64(3);
        let clean = FaultChain::clean();
        assert!(matches!(
            link.frame_trial_faulted(20.0, &vec![0u8; 4096], &clean, &mut rng),
            Err(WlanError::InvalidConfig(_))
        ));
        assert!(link
            .frame_trial_faulted(40.0, &vec![0xA5u8; 4095], &clean, &mut rng)
            .expect("4095 bytes fit"));
    }

    #[test]
    fn burst_interference_degrades_ofdm() {
        use wlan_fault::FaultKind;
        let link = OfdmLink::awgn(OfdmRate::R24);
        let clean = sweep_per(&link, &[12.0], 60, 20, 11);
        let jammed = sweep_per_faulted(
            &link,
            &FaultKind::BurstInterference.chain(1.0),
            &[12.0],
            60,
            20,
            11,
        );
        assert!(
            jammed.points[0].per >= clean.points[0].per,
            "jammed {} vs clean {}",
            jammed.points[0].per,
            clean.points[0].per
        );
    }
}
