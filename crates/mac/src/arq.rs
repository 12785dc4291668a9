//! Stop-and-wait ARQ: retry limits, backoff escalation and the RTS/CTS
//! fallback that rescues goodput under bursty interference.
//!
//! The DCF simulators in [`crate::dcf`] and [`crate::traffic`] treat the
//! channel as error-free: the only way to lose a frame is a collision.
//! Real 2.4/5 GHz channels also *erase* frames — microwave ovens, radar
//! bursts and co-channel interferers corrupt whole frames regardless of
//! contention. This module adds the two MAC answers 802.11 gives:
//!
//! 1. **Retransmission** (the retry counters of §9.3.4): a lost frame is
//!    retried up to a retry limit, escalating the contention-window stage
//!    exactly as a collision would, before being dropped.
//! 2. **Protection fallback**: after a configurable number of consecutive
//!    failures the station precedes the retry with an RTS/CTS exchange,
//!    so a burst now corrupts a 20-byte RTS instead of a 1500-byte data
//!    frame — the airtime-economics argument of experiment E16.
//!
//! Burst losses follow the same Gilbert–Elliott chain the PHY fault
//! injectors use ([`wlan_fault::GeProcess`]), discretised over airtime so
//! the loss state evolves while frames are on the air.

use wlan_fault::{GeParams, GeProcess};
use wlan_math::rng::{Rng, WlanRng};

/// Retry policy of a station's transmit queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Retransmissions allowed after the first attempt; 0 with `enabled`
    /// means drop on first loss.
    pub max_retries: u32,
    /// Attempt index (0-based) from which RTS/CTS protection is used;
    /// `u32::MAX` disables the fallback.
    pub rts_cts_after: u32,
    /// Master switch; disabled means every loss is a drop.
    pub enabled: bool,
}

impl ArqConfig {
    /// No retransmission at all: a lost frame is gone.
    pub fn disabled() -> Self {
        ArqConfig {
            max_retries: 0,
            rts_cts_after: u32::MAX,
            enabled: false,
        }
    }

    /// Plain retransmission with the 802.11 long-retry default of 7
    /// attempts, never falling back to RTS/CTS.
    pub fn basic() -> Self {
        ArqConfig {
            max_retries: 6,
            rts_cts_after: u32::MAX,
            enabled: true,
        }
    }

    /// Retransmission that arms RTS/CTS protection from the given attempt
    /// index onward (e.g. 1 = every retry is protected).
    pub fn with_rts_fallback(rts_cts_after: u32) -> Self {
        ArqConfig {
            max_retries: 6,
            rts_cts_after,
            enabled: true,
        }
    }

    /// Whether the attempt with this 0-based index transmits under
    /// RTS/CTS protection.
    pub fn protects(&self, attempt: u32) -> bool {
        self.enabled && attempt >= self.rts_cts_after
    }
}

/// A Gilbert–Elliott frame-loss channel expressed in airtime.
///
/// `mean_good_us`/`mean_bad_us` are the expected dwell times of the two
/// states; while *good*, frames are lost with probability `loss_good`,
/// while *bad* with `loss_bad`. The chain is advanced in `step_us`
/// increments as simulated time passes, so long frames straddle bursts
/// the same way short ones dodge them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeLossConfig {
    /// Mean dwell in the good state, µs.
    pub mean_good_us: f64,
    /// Mean dwell in the bad (burst) state, µs.
    pub mean_bad_us: f64,
    /// Per-frame loss probability in the good state.
    pub loss_good: f64,
    /// Per-frame loss probability in the bad state.
    pub loss_bad: f64,
    /// Discretisation step for advancing the chain, µs.
    pub step_us: f64,
}

impl GeLossConfig {
    /// A loss-free channel: the simulator draws nothing and behaves
    /// bit-identically to the pre-ARQ code.
    pub fn clean() -> Self {
        GeLossConfig {
            mean_good_us: 1.0,
            mean_bad_us: 1.0,
            loss_good: 0.0,
            loss_bad: 0.0,
            step_us: 100.0,
        }
    }

    /// A microwave-oven-style duty cycle: ~9 ms bursts every ~20 ms that
    /// kill almost every overlapping frame, while the good state is
    /// nearly clean.
    pub fn bursty() -> Self {
        GeLossConfig {
            mean_good_us: 12_000.0,
            mean_bad_us: 8_000.0,
            loss_good: 0.02,
            loss_bad: 0.9,
            step_us: 100.0,
        }
    }

    /// True when no frame can ever be lost (the simulator then skips the
    /// chain entirely, preserving the RNG draw sequence of loss-free
    /// configurations).
    pub fn is_clean(&self) -> bool {
        self.loss_good == 0.0 && self.loss_bad == 0.0
    }
}

/// Runtime state of the airtime-driven Gilbert–Elliott loss channel.
#[derive(Debug, Clone)]
pub struct FrameLossProcess {
    cfg: GeLossConfig,
    ge: GeProcess,
    /// Airtime carried over that has not yet filled a whole step.
    residual_us: f64,
}

impl FrameLossProcess {
    /// Builds the process from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if dwell times or the step are not positive and finite, or
    /// loss probabilities are outside `[0, 1]`.
    pub fn new(cfg: GeLossConfig) -> Self {
        assert!(
            cfg.mean_good_us > 0.0 && cfg.mean_good_us.is_finite(),
            "good dwell must be positive"
        );
        assert!(
            cfg.mean_bad_us > 0.0 && cfg.mean_bad_us.is_finite(),
            "bad dwell must be positive"
        );
        assert!(
            cfg.step_us > 0.0 && cfg.step_us.is_finite(),
            "step must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.loss_good) && (0.0..=1.0).contains(&cfg.loss_bad),
            "loss probabilities must lie in [0, 1]"
        );
        // Per-step transition probabilities, clamped into the open-unit
        // interval GeParams demands even when a dwell is shorter than the
        // step.
        let p_gb = (cfg.step_us / cfg.mean_good_us).min(1.0);
        let p_bg = (cfg.step_us / cfg.mean_bad_us).min(1.0);
        let ge = GeProcess::new(GeParams::new(p_gb, p_bg));
        FrameLossProcess {
            cfg,
            ge,
            residual_us: 0.0,
        }
    }

    /// Advances the chain by `dt_us` of simulated time.
    pub fn advance(&mut self, dt_us: f64, rng: &mut WlanRng) {
        self.residual_us += dt_us.max(0.0);
        while self.residual_us >= self.cfg.step_us {
            self.residual_us -= self.cfg.step_us;
            self.ge.step(rng);
        }
    }

    /// Draws whether a frame transmitted now is lost (one RNG draw).
    pub fn frame_lost(&mut self, rng: &mut WlanRng) -> bool {
        let p = if self.ge.is_bad() {
            self.cfg.loss_bad
        } else {
            self.cfg.loss_good
        };
        rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_never_loses() {
        let mut p = FrameLossProcess::new(GeLossConfig::clean());
        let mut rng = WlanRng::seed_from_u64(3);
        for _ in 0..1000 {
            p.advance(250.0, &mut rng);
            assert!(!p.frame_lost(&mut rng));
        }
    }

    #[test]
    fn bursty_channel_loses_in_bursts() {
        let mut p = FrameLossProcess::new(GeLossConfig::bursty());
        let mut rng = WlanRng::seed_from_u64(9);
        let mut lost_in_burst = 0u32;
        let mut lost_in_good = 0u32;
        let mut bursts = 0u32;
        for _ in 0..20_000 {
            p.advance(100.0, &mut rng);
            let burst = p.ge.is_bad();
            bursts += burst as u32;
            if p.frame_lost(&mut rng) {
                if burst {
                    lost_in_burst += 1;
                } else {
                    lost_in_good += 1;
                }
            }
        }
        assert!(bursts > 1000, "chain must visit the burst state: {bursts}");
        assert!(
            lost_in_burst > 10 * lost_in_good.max(1),
            "losses concentrate in bursts: {lost_in_burst} vs {lost_in_good}"
        );
    }

    #[test]
    fn burst_dwell_matches_configuration() {
        let cfg = GeLossConfig::bursty();
        let mut p = FrameLossProcess::new(cfg);
        let mut rng = WlanRng::seed_from_u64(21);
        let mut in_burst = 0u64;
        let n = 200_000u64;
        for _ in 0..n {
            p.advance(cfg.step_us, &mut rng);
            in_burst += p.ge.is_bad() as u64;
        }
        let expect = cfg.mean_bad_us / (cfg.mean_good_us + cfg.mean_bad_us);
        let got = in_burst as f64 / n as f64;
        assert!(
            (got - expect).abs() < 0.1 * expect,
            "burst fraction {got} vs stationary {expect}"
        );
    }

    #[test]
    fn protection_arms_at_the_configured_attempt() {
        let arq = ArqConfig::with_rts_fallback(2);
        assert!(!arq.protects(0));
        assert!(!arq.protects(1));
        assert!(arq.protects(2));
        assert!(arq.protects(6));
        assert!(!ArqConfig::basic().protects(6));
        assert!(!ArqConfig::disabled().protects(0));
    }

    #[test]
    fn residual_airtime_accumulates_across_advances() {
        let cfg = GeLossConfig {
            step_us: 100.0,
            ..GeLossConfig::bursty()
        };
        let mut a = FrameLossProcess::new(cfg);
        let mut b = FrameLossProcess::new(cfg);
        let mut rng_a = WlanRng::seed_from_u64(5);
        let mut rng_b = WlanRng::seed_from_u64(5);
        // 4 × 50 µs must step the chain exactly as often as 1 × 200 µs.
        for _ in 0..4 {
            a.advance(50.0, &mut rng_a);
        }
        b.advance(200.0, &mut rng_b);
        assert_eq!(a.ge.is_bad(), b.ge.is_bad());
        assert_eq!(rng_a.next_f64(), rng_b.next_f64(), "same draw count");
    }

    #[test]
    #[should_panic(expected = "loss probabilities")]
    fn invalid_loss_probability_is_rejected() {
        FrameLossProcess::new(GeLossConfig {
            loss_bad: 1.5,
            ..GeLossConfig::bursty()
        });
    }
}
