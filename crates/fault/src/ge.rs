//! Gilbert–Elliott two-state burst process and the interference injector
//! built on it.
//!
//! The Gilbert–Elliott model is the standard abstraction for bursty
//! wireless impairments: a hidden Markov chain alternates between a *good*
//! state (channel clean) and a *bad* state (channel jammed), with
//! geometric sojourn times. Mean burst length is `1 / p_bad_to_good` and
//! the stationary probability of being in the bad state is
//! `p_good_to_bad / (p_good_to_bad + p_bad_to_good)`.

use crate::FaultInjector;
use wlan_channel::noise::complex_gaussian;
use wlan_math::rng::{Rng, WlanRng};
use wlan_math::{Complex, WlanError};

/// Transition probabilities of a Gilbert–Elliott chain, per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeParams {
    /// Probability of leaving the good state on one step.
    pub p_good_to_bad: f64,
    /// Probability of leaving the bad state on one step.
    pub p_bad_to_good: f64,
}

impl GeParams {
    /// Creates a parameter set, validating both probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `(0, 1]` or non-finite.
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64) -> Self {
        match Self::try_new(p_good_to_bad, p_bad_to_good) {
            Ok(p) => p,
            Err(e) => panic!("invalid Gilbert-Elliott parameters: {e}"),
        }
    }

    /// Fallible constructor returning a typed error for bad probabilities.
    fn try_new(p_good_to_bad: f64, p_bad_to_good: f64) -> Result<Self, WlanError> {
        for p in [p_good_to_bad, p_bad_to_good] {
            if !p.is_finite() {
                return Err(WlanError::NonFinite("Gilbert-Elliott transition probability"));
            }
            if !(0.0..=1.0).contains(&p) || p == 0.0 {
                return Err(WlanError::InvalidConfig(
                    "Gilbert-Elliott transition probabilities must lie in (0, 1]",
                ));
            }
        }
        Ok(GeParams {
            p_good_to_bad,
            p_bad_to_good,
        })
    }
}

/// The evolving state of one Gilbert–Elliott chain.
///
/// The chain starts in the good state; [`GeProcess::step`] reports the
/// state occupied for the current sample, then advances. Exactly one RNG
/// draw is consumed per step regardless of parameters, preserving the
/// crate's common-random-numbers contract.
#[derive(Debug, Clone)]
pub struct GeProcess {
    params: GeParams,
    bad: bool,
}

impl GeProcess {
    /// Starts a chain in the good state.
    pub fn new(params: GeParams) -> Self {
        GeProcess { params, bad: false }
    }

    /// Returns whether the *current* sample is in the bad state, then
    /// advances the chain by one step.
    pub fn step(&mut self, rng: &mut WlanRng) -> bool {
        let now_bad = self.bad;
        let u: f64 = rng.gen();
        let flip = if self.bad {
            u < self.params.p_bad_to_good
        } else {
            u < self.params.p_good_to_bad
        };
        if flip {
            self.bad = !self.bad;
        }
        now_bad
    }

    /// Whether the chain currently sits in the bad state.
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// The parameters the chain was built with.
    pub fn params(&self) -> GeParams {
        self.params
    }
}

/// Bursty co-channel interference gated by a Gilbert–Elliott chain.
///
/// While the chain occupies the bad state, circularly-symmetric Gaussian
/// interference of power `bad_power` (relative to the unit-power signal)
/// is added to each sample. The interference realization is drawn even in
/// the good state so the RNG consumption — and therefore every downstream
/// draw — is identical across severities.
#[derive(Debug, Clone)]
pub struct GilbertElliottInterference {
    params: GeParams,
    bad_power: f64,
}

impl GilbertElliottInterference {
    /// Creates an injector adding `bad_power` interference during bursts.
    pub fn new(params: GeParams, bad_power: f64) -> Self {
        assert!(
            bad_power.is_finite() && bad_power >= 0.0,
            "interference power must be finite and non-negative"
        );
        GilbertElliottInterference { params, bad_power }
    }
}

impl FaultInjector for GilbertElliottInterference {
    fn name(&self) -> &'static str {
        "burst-interference"
    }

    fn inject(&self, samples: &mut Vec<Complex>, rng: &mut WlanRng) {
        let mut chain = GeProcess::new(self.params);
        let amp = self.bad_power.sqrt();
        for s in samples.iter_mut() {
            let bad = chain.step(rng);
            let z = complex_gaussian(rng);
            if bad {
                *s += z.scale(amp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: a seeded sweep verifying the realized loss statistics
    /// match the configured transition probabilities.
    #[test]
    fn ge_statistics_match_configuration() {
        let params = GeParams::new(0.01, 0.1);
        let mut chain = GeProcess::new(params);
        let mut rng = WlanRng::seed_from_u64(0x6E11);
        let steps = 400_000usize;

        let mut bad_samples = 0usize;
        let mut bursts = 0usize;
        let mut prev_bad = false;
        for _ in 0..steps {
            let bad = chain.step(&mut rng);
            if bad {
                bad_samples += 1;
                if !prev_bad {
                    bursts += 1;
                }
            }
            prev_bad = bad;
        }

        let bad_frac = bad_samples as f64 / steps as f64;
        // Stationary probability of occupying the bad state.
        let expect_frac = params.p_good_to_bad / (params.p_good_to_bad + params.p_bad_to_good);
        assert!(
            (bad_frac - expect_frac).abs() < 0.1 * expect_frac,
            "bad fraction {bad_frac} vs stationary {expect_frac}"
        );

        let mean_burst = bad_samples as f64 / bursts as f64;
        // Expected sojourn length of one bad burst, in samples.
        let expect_burst = 1.0 / params.p_bad_to_good;
        assert!(
            (mean_burst - expect_burst).abs() < 0.1 * expect_burst,
            "mean burst {mean_burst} vs configured {expect_burst}"
        );
    }

    #[test]
    fn invalid_params_are_typed_errors() {
        assert_eq!(
            GeParams::try_new(0.0, 0.5).unwrap_err(),
            WlanError::InvalidConfig(
                "Gilbert-Elliott transition probabilities must lie in (0, 1]"
            )
        );
        assert_eq!(
            GeParams::try_new(f64::NAN, 0.5).unwrap_err(),
            WlanError::NonFinite("Gilbert-Elliott transition probability")
        );
        assert!(GeParams::try_new(1.0, 1.0).is_ok());
    }

    #[test]
    fn zero_power_interference_is_identity() {
        let inj = GilbertElliottInterference::new(GeParams::new(0.05, 0.2), 0.0);
        let mut samples = vec![Complex::ONE; 256];
        inj.inject(&mut samples, &mut WlanRng::seed_from_u64(5));
        assert!(samples.iter().all(|s| *s == Complex::ONE));
    }

    #[test]
    fn interference_raises_power_during_bursts() {
        let inj = GilbertElliottInterference::new(GeParams::new(0.05, 0.05), 4.0);
        let mut samples = vec![Complex::ONE; 4096];
        inj.inject(&mut samples, &mut WlanRng::seed_from_u64(6));
        let power = wlan_math::complex::mean_power(&samples);
        // Half the samples carry ~4.0 extra power on top of the unit signal.
        assert!(power > 1.5, "mean power {power}");
    }
}
