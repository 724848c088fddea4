//! Tenant lifecycle policy for the fleet: admission, shed pressure, and
//! the utilization sampling math — every *decision* the fleet monitor
//! makes, as pure functions over sampled numbers, so each one is
//! unit-testable without spinning up threads.
//!
//! The state machine (see ARCHITECTURE.md §8):
//!
//! ```text
//!            attach                    detach              thread exits
//! (new) ───────────────► Admitted ────────────► Draining ─────────────► Departed
//!   │                        │
//!   │ gate rejects           │ runs to completion
//!   ▼                        ▼
//! Rejected (final)       Completed
//! ```

use std::sync::Arc;
use std::time::Duration;

use crate::faults::FaultInjector;
use crate::pool::PriorityClass;

/// Ignore utilization samples whose window is shorter than this: with a
/// near-zero `dt` the busy-delta/`dt` quotient explodes (and at exactly
/// zero it is NaN/inf), which would poison the EWMA and wedge admission.
const MIN_SAMPLE_DT: Duration = Duration::from_micros(100);

/// Raw per-window utilization is clamped here. Values slightly above 1.0
/// are a real signal (a job longer than the tick lands its entire busy
/// time in the window it completes in), but unbounded spikes are
/// measurement artifacts, not load.
const MAX_RAW_UTILIZATION: f64 = 2.0;

/// EWMA smoothing factor: `util = ALPHA * raw + (1 - ALPHA) * prev`.
const EWMA_ALPHA: f64 = 0.2;

/// What a tenant asks for at [`attach`](crate::fleet::Fleet::attach) time.
#[derive(Clone, Default)]
pub struct TenantSpec {
    /// Scheduling class: picks the pool lane and the shed/boost policy.
    pub class: PriorityClass,
    /// Deterministic fault injection for this tenant (tests).
    pub faults: Option<Arc<FaultInjector>>,
    /// Override the fleet's base digitizer period (e.g. a period-0
    /// BestEffort hog). `None` inherits the base config.
    pub period: Option<Duration>,
    /// Override the fleet's base frame budget. `None` inherits.
    pub n_frames: Option<u64>,
}

impl TenantSpec {
    /// A spec for `class` with everything else inherited.
    #[must_use]
    pub fn with_class(class: PriorityClass) -> Self {
        TenantSpec {
            class,
            ..TenantSpec::default()
        }
    }
}

/// Where a tenant is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LifecycleState {
    /// The admission gate turned the stream away. Final: a rejected
    /// stream never runs.
    Rejected,
    /// Admitted and running.
    Admitted,
    /// Detached; the digitizer has stopped and in-flight frames are
    /// draining.
    Draining,
    /// Detached and fully drained: resources released, rollup final.
    Departed,
    /// Ran its whole frame budget to completion (never detached).
    Completed,
}

impl LifecycleState {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LifecycleState::Rejected => "rejected",
            LifecycleState::Admitted => "admitted",
            LifecycleState::Draining => "draining",
            LifecycleState::Departed => "departed",
            LifecycleState::Completed => "completed",
        }
    }
}

/// Outcome of one [`attach`](crate::fleet::Fleet::attach) call.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AttachOutcome {
    /// The tenant's fleet-wide index (stable across its whole lifecycle,
    /// also the seed offset for its scene).
    pub tenant: usize,
    /// Whether the admission gate let it in.
    pub admitted: bool,
    /// The EWMA utilization the gate decided against.
    pub utilization: f64,
}

/// One EWMA utilization update from a raw busy-time sample.
///
/// `busy_delta_ns` is the growth of the pool's cumulative busy time over
/// the window, `dt` the window's wall-clock length, `workers` the pool
/// width, and `prev` the previous EWMA value (`None` for the first
/// sample). Returns `None` — *sample rejected, keep the previous EWMA* —
/// for degenerate windows: `dt` below `MIN_SAMPLE_DT` or non-finite
/// quotients, or `workers == 0`. The raw quotient is clamped to
/// `[0, MAX_RAW_UTILIZATION]` so one absurd sample cannot poison the
/// average and wedge admission.
#[must_use]
pub fn utilization_sample(
    busy_delta_ns: u64,
    dt: Duration,
    workers: usize,
    prev: Option<f64>,
) -> Option<f64> {
    if workers == 0 || dt < MIN_SAMPLE_DT {
        return None;
    }
    let raw = busy_delta_ns as f64 / (dt.as_nanos() as f64 * workers as f64);
    if !raw.is_finite() {
        return None;
    }
    let raw = raw.clamp(0.0, MAX_RAW_UTILIZATION);
    Some(match prev {
        Some(p) => EWMA_ALPHA * raw + (1.0 - EWMA_ALPHA) * p,
        None => raw,
    })
}

/// The admission gate: would admitting one more stream, whose cost is
/// estimated as the mean per-stream utilization `util / running`, push the
/// pool past `max_utilization`? The first `min_admitted` streams (counting
/// every stream considered so far, admitted or not) bypass the gate so the
/// fleet cannot starve itself at startup.
#[must_use]
pub fn admit(
    util: f64,
    running: usize,
    considered: usize,
    min_admitted: usize,
    max_utilization: f64,
) -> bool {
    if considered < min_admitted.max(1) {
        return true;
    }
    let marginal = if running > 0 {
        util / running as f64
    } else {
        0.0
    };
    util + marginal <= max_utilization
}

/// The shed gate for BestEffort tenants, with its own hysteresis band:
/// returns the new shed flag given the current one, engaging above
/// `shed_utilization` and releasing only below
/// `shed_utilization - hysteresis`.
#[must_use]
pub fn shed_pressure(
    currently_shedding: bool,
    util: f64,
    shed_utilization: f64,
    hysteresis: f64,
) -> bool {
    if currently_shedding {
        util > shed_utilization - hysteresis
    } else {
        util > shed_utilization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_samples_are_rejected_not_poisonous() {
        // Zero-length window: the quotient would be inf (or NaN with zero
        // busy) — the sample must be rejected, not folded into the EWMA.
        assert_eq!(
            utilization_sample(1_000_000, Duration::ZERO, 2, Some(0.5)),
            None
        );
        assert_eq!(utilization_sample(0, Duration::ZERO, 2, Some(0.5)), None);
        // Near-zero window below the floor: same rejection.
        assert_eq!(
            utilization_sample(1_000_000, Duration::from_nanos(50), 2, Some(0.5)),
            None
        );
        // No workers: the denominator would be zero.
        assert_eq!(
            utilization_sample(1_000_000, Duration::from_millis(1), 0, Some(0.5)),
            None
        );
    }

    #[test]
    fn spike_samples_are_clamped() {
        // A 1-second busy delta over a 1 ms window (a long job completing)
        // is a raw utilization of 1000: clamped to MAX_RAW_UTILIZATION, so
        // the EWMA moves but stays bounded.
        let u = utilization_sample(1_000_000_000, Duration::from_millis(1), 1, Some(0.0)).unwrap();
        assert!(u <= EWMA_ALPHA * MAX_RAW_UTILIZATION + 1e-12, "u={u}");
        assert!(u.is_finite());
    }

    #[test]
    fn ewma_tracks_and_decays() {
        let first = utilization_sample(500_000, Duration::from_millis(1), 1, None).unwrap();
        assert!((first - 0.5).abs() < 1e-9, "first sample seeds the EWMA");
        let mut u = first;
        for _ in 0..40 {
            u = utilization_sample(0, Duration::from_millis(1), 1, Some(u)).unwrap();
        }
        assert!(u < 0.001, "idle windows decay the EWMA toward 0: {u}");
    }

    #[test]
    fn a_wedged_ewma_recovers_because_bad_samples_never_enter() {
        // The regression this guards: feed a poisonous sequence (zero dt,
        // zero workers, absurd spikes) interleaved with honest samples —
        // the EWMA must stay finite and end up tracking the honest load.
        let mut util: Option<f64> = None;
        for _ in 0..20 {
            if let Some(u) = utilization_sample(0, Duration::ZERO, 0, util) {
                util = Some(u);
            }
            if let Some(u) = utilization_sample(u64::MAX, Duration::from_nanos(1), 3, util) {
                util = Some(u);
            }
            if let Some(u) = utilization_sample(300_000, Duration::from_millis(1), 1, util) {
                util = Some(u);
            }
        }
        let u = util.expect("honest samples were accepted");
        assert!(u.is_finite());
        assert!(
            (u - 0.3).abs() < 0.05,
            "EWMA converged to the honest 0.3 load: {u}"
        );
    }

    #[test]
    fn admission_floor_and_threshold() {
        // Below the floor every stream is admitted regardless of load.
        assert!(admit(5.0, 3, 0, 2, 0.85));
        assert!(admit(5.0, 3, 1, 2, 0.85));
        // Past the floor, the marginal-cost probe gates.
        assert!(admit(0.4, 2, 2, 2, 0.85), "0.4 + 0.2 fits under 0.85");
        assert!(!admit(0.8, 2, 2, 2, 0.85), "0.8 + 0.4 exceeds 0.85");
        // No running streams: zero marginal estimate, gate on util alone.
        assert!(admit(0.5, 0, 5, 1, 0.85));
        assert!(!admit(0.9, 0, 5, 1, 0.85));
    }

    #[test]
    fn shed_gate_has_its_own_band() {
        let (t, h) = (0.9, 0.2);
        assert!(
            !shed_pressure(false, 0.89, t, h),
            "below threshold: no shed"
        );
        assert!(shed_pressure(false, 0.91, t, h), "above threshold: shed");
        assert!(
            shed_pressure(true, 0.75, t, h),
            "inside the band: keep shedding"
        );
        assert!(!shed_pressure(true, 0.69, t, h), "below the band: release");
    }

    #[test]
    fn states_and_specs_label() {
        assert_eq!(LifecycleState::Draining.label(), "draining");
        assert_eq!(LifecycleState::Completed.label(), "completed");
        let spec = TenantSpec::with_class(PriorityClass::BestEffort);
        assert_eq!(spec.class, PriorityClass::BestEffort);
        assert!(spec.faults.is_none() && spec.period.is_none());
    }
}
