//! The recovery policy: how a faulted polling run is turned into a
//! completed inventory.
//!
//! A [`Session`](crate::Session) with a [`RecoveryPolicy`] installed (or
//! the [`run_recovered`](crate::run_recovered) helper) treats a stall as
//! the end of a *pass*, not of the run. Polled tags are asleep, so the next
//! pass re-seeds the hash rounds (or re-descends the tree) over only the
//! uncollected remainder, and counters, clock and trace accumulate in the
//! shared context. The policy sets:
//!
//! * **bounded re-polling passes** — each pass gets a fresh round budget,
//! * **sim-time exponential backoff with jitter** — drawn from the context's
//!   deterministic RNG and charged on the C1G2 clock (never the wall
//!   clock), so recovery overhead shows up in execution-time results,
//! * **a circuit breaker** — after [`RecoveryPolicy::max_passes`] passes, or
//!   once [`RecoveryPolicy::zero_progress_limit`] stall windows of idle
//!   rounds accumulate, the session ends as
//!   [`SessionEnd::Degraded`](crate::SessionEnd::Degraded) with an explicit
//!   coverage fraction instead of an error.
//!
//! Every pass beyond the first shows up as `RecoveryPassStarted` /
//! `BackoffWaited` / `CircuitOpened` trace events and in the
//! `recovery_passes` / `recovery_backoff_us` counters, reconciled
//! bit-for-bit by `rfid-obs`. Pass 1 is a bare run: no extra RNG draws, no
//! events, no time — so under [`rfid_system::FaultModel::perfect`] a
//! recovered run is bit-identical to an unwrapped one.
//!
//! The convergence invariant the chaos-soak gate asserts: with unbounded
//! passes, coverage reaches 1.0 whenever loss < 1.0 — only a genuinely dead
//! configuration (permanent jam, killed tag) opens the circuit. The breaker
//! weighs evidence in *idle rounds*, not passes: a zero-progress
//! [`StallCause::RoundCap`](crate::StallCause::RoundCap) pass contributes
//! only its small round budget (the budget ran out; a fresh pass can still
//! converge) while a [`StallCause::NoProgress`](crate::StallCause::NoProgress)
//! stall contributes a full
//! [`DEFAULT_STALL_ROUNDS`](crate::DEFAULT_STALL_ROUNDS) guard window, and
//! any progress resets the count — so at any survivable loss rate the odds
//! of accumulating the `zero_progress_limit × 256`-round threshold are
//! below `0.5^512`.

use rfid_hash::Xoshiro256;
use rfid_system::{FromJson, Json, JsonError, ToJson};

/// How a recovering [`Session`](crate::Session) re-polls, backs off, and
/// gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum polling passes (including the initial attempt); `0` means
    /// unbounded — the session runs until complete or until the
    /// zero-progress breaker opens.
    pub max_passes: u64,
    /// Backoff after the first stalled pass, in C1G2 microseconds. Doubles
    /// each further pass (exponential), capped by `max_backoff_us`.
    pub base_backoff_us: u64,
    /// Ceiling on one backoff interval, in microseconds.
    pub max_backoff_us: u64,
    /// Circuit breaker threshold, in units of stall-guard windows: the
    /// session gives up once `zero_progress_limit ·`
    /// [`DEFAULT_STALL_ROUNDS`](crate::DEFAULT_STALL_ROUNDS) consecutive
    /// *idle rounds* (rounds that polled nothing) accumulate across passes.
    /// A [`StallCause::NoProgress`] stall contributes a full guard window,
    /// so the default of `2` opens the circuit after two such passes; a
    /// zero-progress [`StallCause::RoundCap`] pass contributes only its
    /// (small) round budget — weak evidence, many passes needed — and any
    /// progress resets the count.
    pub zero_progress_limit: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_passes: 0,
            base_backoff_us: 1_000,
            max_backoff_us: 64_000,
            zero_progress_limit: 2,
        }
    }
}

impl RecoveryPolicy {
    /// Unbounded passes with the default backoff — drives any survivable
    /// fault configuration to completion.
    pub fn unbounded() -> Self {
        RecoveryPolicy::default()
    }

    /// Caps the number of passes (`0` = unbounded).
    pub fn with_max_passes(mut self, max_passes: u64) -> Self {
        self.max_passes = max_passes;
        self
    }

    /// Sets the backoff ladder: first interval and its ceiling.
    pub fn with_backoff(mut self, base_us: u64, max_us: u64) -> Self {
        self.base_backoff_us = base_us;
        self.max_backoff_us = max_us;
        self
    }

    /// Sets the circuit-breaker threshold, in stall-guard windows of
    /// consecutive idle rounds (see [`RecoveryPolicy::zero_progress_limit`]).
    ///
    /// # Panics
    /// Panics if `limit` is zero (the breaker would open before pass 1).
    pub fn with_zero_progress_limit(mut self, limit: u64) -> Self {
        assert!(limit > 0, "zero-progress limit must be positive");
        self.zero_progress_limit = limit;
        self
    }

    /// The backoff charged after stalled pass `pass` (1-based), before
    /// jitter: `base · 2^(pass-1)`, saturating, capped at `max_backoff_us`.
    pub fn backoff_us(&self, pass: u64) -> u64 {
        let shift = (pass - 1).min(32) as u32;
        self.base_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us)
    }

    /// The backoff actually charged after stalled pass `pass`:
    /// [`RecoveryPolicy::backoff_us`] plus a jitter drawn uniformly from
    /// `[0, base / 2]` (no draw at all when the base is ≤ 1 µs), saturating
    /// at `u64::MAX` so a hostile policy cannot overflow.
    pub fn jittered_backoff_us(&self, pass: u64, rng: &mut Xoshiro256) -> u64 {
        let base = self.backoff_us(pass);
        let jitter = if base > 1 { rng.below(base / 2 + 1) } else { 0 };
        base.saturating_add(jitter)
    }
}

impl ToJson for RecoveryPolicy {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("max_passes".to_string(), self.max_passes.to_json()),
            (
                "base_backoff_us".to_string(),
                self.base_backoff_us.to_json(),
            ),
            ("max_backoff_us".to_string(), self.max_backoff_us.to_json()),
            (
                "zero_progress_limit".to_string(),
                self.zero_progress_limit.to_json(),
            ),
        ])
    }
}

/// Decoding enforces what [`RecoveryPolicy::with_zero_progress_limit`]
/// asserts: a zero breaker threshold is a typed error, not a policy.
impl FromJson for RecoveryPolicy {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let policy = RecoveryPolicy {
            max_passes: json.field("max_passes")?,
            base_backoff_us: json.field("base_backoff_us")?,
            max_backoff_us: json.field("max_backoff_us")?,
            zero_progress_limit: json.field("zero_progress_limit")?,
        };
        if policy.zero_progress_limit == 0 {
            return Err(JsonError(
                "recovery policy zero_progress_limit must be positive".to_string(),
            ));
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpp::HppConfig;
    use crate::session::{run_recovered, Session, SessionEnd};
    use crate::tpp::TppConfig;
    use rfid_system::fault::{FaultModel, FaultPlan, KillRule};
    use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

    fn ctx_with(n: usize, seed: u64, fault: FaultModel) -> SimContext {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        SimContext::new(pop, &SimConfig::paper(seed).with_fault(fault))
    }

    fn small_budget_hpp() -> crate::hpp::Hpp {
        // A tiny per-pass round budget forces multi-pass recovery even at
        // moderate loss, exercising the backoff and merge paths.
        HppConfig {
            max_rounds: 4,
            ..HppConfig::default()
        }
        .into_protocol()
    }

    #[test]
    fn perfect_channel_completes_in_one_pass() {
        let mut ctx = ctx_with(100, 1, FaultModel::perfect());
        let protocol = HppConfig::default().into_protocol();
        let out = Session::open(&protocol, &ctx)
            .with_policy(RecoveryPolicy::unbounded())
            .run(&mut ctx);
        assert!(out.is_complete());
        assert_eq!(out.passes(), 1);
        assert_eq!(out.coverage(), 1.0);
        assert_eq!(ctx.counters.recovery_passes, 0);
        assert_eq!(ctx.counters.recovery_backoff_us, 0);
    }

    #[test]
    fn lossy_channel_converges_over_multiple_passes() {
        let fault = FaultModel::perfect().with_downlink_loss(0.4);
        let mut ctx = ctx_with(200, 7, fault);
        let out = run_recovered(&small_budget_hpp(), &RecoveryPolicy::unbounded(), &mut ctx);
        assert!(out.is_complete(), "survivable loss must converge");
        assert!(out.passes() > 1, "a 4-round budget cannot finish pass 1");
        ctx.assert_complete();
        assert_eq!(ctx.counters.recovery_passes, out.passes() - 1);
        assert!(ctx.counters.recovery_backoff_us > 0);
        let report = out.report();
        assert_eq!(report.counters.polls, 200, "partial reports merged");
    }

    #[test]
    fn dead_channel_degrades_with_consistent_coverage() {
        let fault = FaultModel::perfect().with_downlink_loss(1.0);
        let mut ctx = ctx_with(50, 3, fault);
        let out = run_recovered(&small_budget_hpp(), &RecoveryPolicy::unbounded(), &mut ctx);
        let SessionEnd::Degraded {
            report,
            coverage,
            passes,
            ..
        } = out
        else {
            panic!("a jammed downlink cannot complete");
        };
        assert_eq!(coverage, 0.0);
        assert_eq!(report.counters.polls, 0);
        // With a 4-round budget every pass is a zero-progress RoundCap
        // stall worth 4 idle rounds, so the breaker needs 512 / 4 = 128
        // passes — bounded, unlike a streak counter that ignores RoundCap.
        assert_eq!(passes, 128);
        assert_eq!(ctx.counters.recovery_passes, 127);
    }

    #[test]
    fn killed_tag_degrades_with_partial_coverage() {
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 5,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let fault = FaultModel::perfect().with_plan(plan);
        let mut ctx = ctx_with(40, 11, fault);
        // Default (large) round budget: each pass ends in a NoProgress
        // stall, so the breaker opens after `zero_progress_limit` passes
        // beyond the last progress.
        let protocol = HppConfig::default().into_protocol();
        let out = run_recovered(&protocol, &RecoveryPolicy::unbounded(), &mut ctx);
        let SessionEnd::Degraded {
            report, coverage, ..
        } = out
        else {
            panic!("a dead tag can never be collected");
        };
        assert_eq!(report.counters.polls, 39);
        assert!((coverage - 39.0 / 40.0).abs() < 1e-12);
        assert_eq!(ctx.uncollected_handles(), vec![5]);
    }

    #[test]
    fn max_passes_caps_the_session() {
        let fault = FaultModel::perfect().with_downlink_loss(1.0);
        let mut ctx = ctx_with(30, 5, fault);
        let policy = RecoveryPolicy::unbounded().with_max_passes(3);
        let out = run_recovered(&small_budget_hpp(), &policy, &mut ctx);
        assert!(!out.is_complete());
        assert_eq!(out.passes(), 3);
        assert_eq!(ctx.counters.recovery_passes, 2);
    }

    #[test]
    fn backoff_ladder_is_exponential_and_capped() {
        let p = RecoveryPolicy::default().with_backoff(1_000, 16_000);
        assert_eq!(p.backoff_us(1), 1_000);
        assert_eq!(p.backoff_us(2), 2_000);
        assert_eq!(p.backoff_us(3), 4_000);
        assert_eq!(p.backoff_us(5), 16_000);
        assert_eq!(p.backoff_us(60), 16_000, "shift saturates, cap holds");
    }

    #[test]
    fn jittered_backoff_keeps_the_draw_and_saturates() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut reference = rng.clone();
        let p = RecoveryPolicy::default();
        for pass in 1..8 {
            let base = p.backoff_us(pass);
            let expected = base + reference.below(base / 2 + 1);
            assert_eq!(p.jittered_backoff_us(pass, &mut rng), expected);
        }
        let hostile = RecoveryPolicy::default().with_backoff(u64::MAX, u64::MAX);
        assert_eq!(hostile.jittered_backoff_us(1, &mut rng), u64::MAX);
        let tiny = RecoveryPolicy::default().with_backoff(1, 1);
        let before = rng.clone().next_u64();
        assert_eq!(tiny.jittered_backoff_us(1, &mut rng), 1);
        assert_eq!(rng.next_u64(), before, "a 1 µs base draws no jitter");
    }

    #[test]
    fn recovery_is_deterministic_per_seed() {
        let run_once = |seed: u64| {
            let fault = FaultModel::perfect().with_downlink_loss(0.5);
            let mut ctx = ctx_with(120, seed, fault);
            let out = run_recovered(&small_budget_hpp(), &RecoveryPolicy::unbounded(), &mut ctx);
            (out.passes(), ctx.counters, ctx.clock.total())
        };
        assert_eq!(run_once(9), run_once(9));
        assert_ne!(run_once(9).2, run_once(10).2);
    }

    #[test]
    fn tpp_recovers_by_re_descending_the_tree() {
        let fault = FaultModel::perfect().with_downlink_loss(0.4);
        let protocol = TppConfig {
            max_rounds: 4,
            ..TppConfig::default()
        }
        .into_protocol();
        let mut ctx = ctx_with(150, 13, fault);
        let out = run_recovered(&protocol, &RecoveryPolicy::unbounded(), &mut ctx);
        assert!(out.is_complete());
        assert!(out.passes() > 1);
        ctx.assert_complete();
    }

    #[test]
    fn policy_round_trips_through_json() {
        let p = RecoveryPolicy::unbounded()
            .with_max_passes(9)
            .with_backoff(500, 8_000)
            .with_zero_progress_limit(3);
        let json = rfid_system::to_json_string(&p);
        let back: RecoveryPolicy = rfid_system::from_json_str(&json).expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn zero_progress_limit_zero_is_a_decode_error() {
        let json =
            r#"{"max_passes":0,"base_backoff_us":1,"max_backoff_us":2,"zero_progress_limit":0}"#;
        let err = rfid_system::from_json_str::<RecoveryPolicy>(json).unwrap_err();
        assert!(err.0.contains("zero_progress_limit"), "{err}");
    }

    #[test]
    #[should_panic(expected = "zero-progress limit")]
    fn zero_progress_limit_zero_is_rejected() {
        let _ = RecoveryPolicy::default().with_zero_progress_limit(0);
    }
}
