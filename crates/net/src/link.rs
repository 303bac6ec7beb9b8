//! Frame loss models.
//!
//! Low-power wireless links lose frames, and they lose them in bursts
//! (the paper cites the UCLA "complex behavior at scale" study \[4\] for
//! the unreliability of these networks). Four processes are provided:
//!
//! * [`LossProcess::Bernoulli`] — independent loss with fixed probability.
//! * [`LossProcess::Gilbert`] — a two-state Gilbert–Elliott chain with a
//!   "good" and a "bad" state, producing bursty loss episodes. The chain
//!   state is private to one link.
//! * [`LossProcess::Correlated`] — Gilbert–Elliott where the good/bad
//!   *state* lives in a [`SharedLossState`] sampled by every link that
//!   holds a clone of the handle: when the shared path near a proxy
//!   fades, all of its sensors' channels degrade together, which is what
//!   stresses retry budgets and liveness leases realistically (one bad
//!   burst hits every channel at once instead of averaging out).
//!   Per-frame loss draws remain independent *given* the state; the
//!   state itself advances on the driver's clock via
//!   [`SharedLossState::advance`], not per frame, so no link
//!   double-advances the chain.
//! * [`LossProcess::Mixed`] — the composition of an independent
//!   per-link Gilbert–Elliott chain with a shared [`SharedLossState`]
//!   chain, modeling a *partially*-shared path: part of the route is
//!   private to the link (its own fades), part is common to every link
//!   holding a clone of the shared handle (the congested backhaul near
//!   a proxy, or the proxy↔proxy mesh segment). A frame survives only
//!   if both components deliver it, so the long-run loss is
//!   `1 − (1 − p_link)(1 − p_shared)` and bursts arrive from either
//!   chain.
//! * [`LossProcess::Scripted`] — replays a fixed delivery pattern,
//!   cycling; the reference process for property tests that must
//!   exercise exact loss traces (all-lost bursts included).

use std::sync::{Arc, Mutex};

use presto_sim::SimRng;

/// Parameters of a Gilbert–Elliott bursty loss chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad per frame.
    pub p_gb: f64,
    /// Probability of moving bad → good per frame.
    pub p_bg: f64,
    /// Frame loss probability in the good state.
    pub loss_good: f64,
    /// Frame loss probability in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Long-run stationary loss probability of the chain.
    // presto-lint: allow(unused, analytic oracle: link.rs gilbert_long_run_matches_stationary and failure.rs bursty_chain_hits_requested_stationary_loss compare the simulated chain against it)
    pub fn stationary_loss(&self) -> f64 {
        let pi_bad = self.p_gb / (self.p_gb + self.p_bg);
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// The fading state shared by every channel that clones one
/// [`SharedLossState`] handle: a Gilbert–Elliott chain whose transitions
/// are driven by the simulation driver (per epoch), not per frame.
#[derive(Debug)]
struct SharedFading {
    chain: GilbertElliott,
    in_bad: bool,
    /// While `Some`, the fault plan pins the state (burst injection).
    forced: Option<bool>,
    rng: SimRng,
}

/// Handle to a common fading/congestion state near one proxy.
///
/// Cloning the handle shares the state — that is the point: every
/// channel constructed with a clone samples the *same* good/bad burst
/// process. Equality is identity (two handles are equal iff they share
/// state).
#[derive(Clone, Debug)]
pub struct SharedLossState(Arc<Mutex<SharedFading>>);

impl PartialEq for SharedLossState {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl SharedLossState {
    /// Creates a shared state over the given chain, starting good.
    pub fn new(chain: GilbertElliott, rng: SimRng) -> Self {
        SharedLossState(Arc::new(Mutex::new(SharedFading {
            chain,
            in_bad: false,
            forced: None,
            rng,
        })))
    }

    /// Advances the chain by `steps` transitions. Called by the system
    /// driver once per epoch; links never advance the shared state.
    pub fn advance(&self, steps: u64) {
        let mut s = self.0.lock().expect("shared loss state poisoned");
        for _ in 0..steps {
            let flip = if s.in_bad { s.chain.p_bg } else { s.chain.p_gb };
            if s.rng.chance(flip) {
                s.in_bad = !s.in_bad;
            }
        }
    }

    /// Pins the state bad (`Some(true)`), good (`Some(false)`), or
    /// releases it to the chain (`None`) — the fault-plan hook for
    /// deterministic correlated-burst windows.
    pub fn force(&self, state: Option<bool>) {
        self.0.lock().expect("shared loss state poisoned").forced = state;
    }

    /// Per-frame loss probability under the current state.
    pub fn loss_prob(&self) -> f64 {
        let s = self.0.lock().expect("shared loss state poisoned");
        if s.forced.unwrap_or(s.in_bad) {
            s.chain.loss_bad
        } else {
            s.chain.loss_good
        }
    }
}

/// A frame loss process.
#[derive(Clone, Debug, PartialEq)]
pub enum LossProcess {
    /// Lossless link (wired proxies).
    Perfect,
    /// Independent per-frame loss with the given probability.
    Bernoulli(f64),
    /// Bursty Gilbert–Elliott loss.
    Gilbert(GilbertElliott),
    /// Gilbert–Elliott loss whose burst state is shared with every other
    /// link holding a clone of the same handle (common-path fading).
    Correlated(SharedLossState),
    /// Partially-shared path: an independent per-link chain composed
    /// with a shared chain. A frame must survive both — the private
    /// chain advances per frame (like [`LossProcess::Gilbert`]), the
    /// shared state advances on the driver's clock.
    Mixed {
        /// The link's private burst chain.
        link: GilbertElliott,
        /// The common-segment fading state.
        shared: SharedLossState,
    },
    /// Replays a fixed delivery pattern (`true` = deliver), cycling.
    /// Empty patterns deliver everything.
    Scripted(Arc<[bool]>),
}

/// A directional link with its loss process state.
#[derive(Clone, Debug)]
pub struct LinkModel {
    process: LossProcess,
    /// Current Gilbert state: `true` = bad.
    in_bad_state: bool,
    /// Cursor into a [`LossProcess::Scripted`] pattern.
    script_pos: usize,
    rng: SimRng,
    /// Hard gate: while set, every offered frame is lost regardless of
    /// the loss process. Drivers use it for physical severances — a cut
    /// mesh link during a split-brain window — that are deterministic,
    /// unlike the stochastic fading the process models. The process
    /// state does not advance while blocked, so a healed link resumes
    /// exactly the fading trajectory it would have had.
    blocked: bool,
}

impl LinkModel {
    /// Creates a link with the given loss process and RNG stream.
    pub fn new(process: LossProcess, rng: SimRng) -> Self {
        LinkModel {
            process,
            in_bad_state: false,
            script_pos: 0,
            rng,
            blocked: false,
        }
    }

    /// Sets the hard gate: a blocked link loses every offered frame.
    pub fn set_blocked(&mut self, blocked: bool) {
        self.blocked = blocked;
    }

    /// A perfect (wired) link; the RNG is unused.
    pub fn perfect() -> Self {
        LinkModel::new(LossProcess::Perfect, SimRng::new(0))
    }

    /// Samples whether the next offered frame is delivered.
    pub fn deliver(&mut self) -> bool {
        if self.blocked {
            return false;
        }
        let lost = match &self.process {
            LossProcess::Perfect => false,
            LossProcess::Bernoulli(p) => self.rng.chance(*p),
            LossProcess::Gilbert(g) => {
                // Advance the state first, then sample loss in-state.
                let flip = if self.in_bad_state { g.p_bg } else { g.p_gb };
                if self.rng.chance(flip) {
                    self.in_bad_state = !self.in_bad_state;
                }
                let p = if self.in_bad_state {
                    g.loss_bad
                } else {
                    g.loss_good
                };
                self.rng.chance(p)
            }
            LossProcess::Correlated(shared) => {
                // The burst state is shared; the in-state draw is this
                // link's own (conditionally independent given the state).
                let p = shared.loss_prob();
                self.rng.chance(p)
            }
            LossProcess::Mixed { link, shared } => {
                // Private segment: advance this link's own chain and
                // sample in-state, exactly as a Gilbert link would.
                let flip = if self.in_bad_state {
                    link.p_bg
                } else {
                    link.p_gb
                };
                if self.rng.chance(flip) {
                    self.in_bad_state = !self.in_bad_state;
                }
                let p_link = if self.in_bad_state {
                    link.loss_bad
                } else {
                    link.loss_good
                };
                // Shared segment: driver-advanced common state. The
                // frame must survive both segments.
                self.rng.chance(p_link) || self.rng.chance(shared.loss_prob())
            }
            LossProcess::Scripted(pattern) => {
                if pattern.is_empty() {
                    false
                } else {
                    let deliver = pattern[self.script_pos % pattern.len()];
                    self.script_pos += 1;
                    !deliver
                }
            }
        };
        !lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typical indoor low-power link: mostly clean with occasional
    /// multi-frame fades.
    const INDOOR: GilbertElliott = GilbertElliott {
        p_gb: 0.005,
        p_bg: 0.15,
        loss_good: 0.02,
        loss_bad: 0.75,
    };

    /// Whether the shared path is in the bad state, forced or not.
    fn in_bad(shared: &SharedLossState) -> bool {
        let s = shared.0.lock().expect("shared loss state poisoned");
        s.forced.unwrap_or(s.in_bad)
    }

    /// The shared chain's next random draw: it changes only when the
    /// chain advances.
    fn next_draw(shared: &SharedLossState) -> f64 {
        shared
            .0
            .lock()
            .expect("shared loss state poisoned")
            .rng
            .clone()
            .uniform()
    }

    /// Fraction of `frames` offered frames the link loses.
    fn loss_rate(l: &mut LinkModel, frames: u64) -> f64 {
        (0..frames).filter(|_| !l.deliver()).count() as f64 / frames as f64
    }

    #[test]
    fn perfect_link_never_drops() {
        let mut l = LinkModel::perfect();
        assert!((0..10_000).all(|_| l.deliver()));
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut l = LinkModel::new(LossProcess::Bernoulli(0.3), SimRng::new(5));
        let observed = loss_rate(&mut l, 50_000);
        assert!((observed - 0.3).abs() < 0.01, "{observed}");
    }

    #[test]
    fn gilbert_long_run_matches_stationary() {
        let g = INDOOR;
        let mut l = LinkModel::new(LossProcess::Gilbert(g), SimRng::new(6));
        let observed = loss_rate(&mut l, 200_000);
        let expect = g.stationary_loss();
        assert!(
            (observed - expect).abs() < 0.01,
            "observed {observed} expected {expect}"
        );
    }

    #[test]
    fn gilbert_losses_are_bursty() {
        // Compare the mean run length of consecutive losses against a
        // Bernoulli link of the same long-run rate: bursts should be longer.
        let g = INDOOR;
        let rate = g.stationary_loss();

        let run_mean = |mut link: LinkModel| {
            let (mut runs, mut losses, mut in_run) = (0u64, 0u64, false);
            for _ in 0..200_000 {
                let ok = link.deliver();
                if !ok {
                    losses += 1;
                    if !in_run {
                        runs += 1;
                        in_run = true;
                    }
                } else {
                    in_run = false;
                }
            }
            losses as f64 / runs.max(1) as f64
        };

        let bursty = run_mean(LinkModel::new(LossProcess::Gilbert(g), SimRng::new(7)));
        let indep = run_mean(LinkModel::new(LossProcess::Bernoulli(rate), SimRng::new(8)));
        assert!(
            bursty > indep * 1.3,
            "bursty run {bursty} vs independent {indep}"
        );
    }

    #[test]
    fn bernoulli_extremes() {
        let mut always = LinkModel::new(LossProcess::Bernoulli(1.0), SimRng::new(9));
        assert!(!always.deliver());
        let mut never = LinkModel::new(LossProcess::Bernoulli(0.0), SimRng::new(9));
        assert!(never.deliver());
    }

    #[test]
    fn deterministic_given_seed() {
        let seq = |seed| {
            let mut l = LinkModel::new(LossProcess::Bernoulli(0.5), SimRng::new(seed));
            (0..64).map(|_| l.deliver()).collect::<Vec<_>>()
        };
        assert_eq!(seq(3), seq(3));
        assert_ne!(seq(3), seq(4));
    }

    #[test]
    fn blocked_link_loses_everything_and_heals_deterministically() {
        let pattern: Arc<[bool]> = vec![true, true, false, true].into();
        let mut gated = LinkModel::new(LossProcess::Scripted(pattern.clone()), SimRng::new(0));
        let mut free = LinkModel::new(LossProcess::Scripted(pattern), SimRng::new(0));
        gated.set_blocked(true);
        for _ in 0..5 {
            assert!(!gated.deliver(), "blocked link must lose every frame");
        }
        // Healing resumes the scripted trace where it would have been had
        // the block never advanced the process.
        gated.set_blocked(false);
        let after_heal: Vec<bool> = (0..4).map(|_| gated.deliver()).collect();
        let reference: Vec<bool> = (0..4).map(|_| free.deliver()).collect();
        assert_eq!(after_heal, reference);
    }

    #[test]
    fn scripted_replays_the_exact_trace_cyclically() {
        let pattern: Arc<[bool]> = vec![true, false, false, true].into();
        let mut l = LinkModel::new(LossProcess::Scripted(pattern), SimRng::new(0));
        let got: Vec<bool> = (0..8).map(|_| l.deliver()).collect();
        assert_eq!(
            got,
            vec![true, false, false, true, true, false, false, true]
        );
        // Empty pattern delivers everything.
        let mut e = LinkModel::new(LossProcess::Scripted(Vec::new().into()), SimRng::new(0));
        assert!((0..16).all(|_| e.deliver()));
    }

    #[test]
    fn correlated_links_fade_together() {
        // Extreme chain so the state is unambiguous: lossless good state,
        // total loss in the bad state.
        let chain = GilbertElliott {
            p_gb: 0.2,
            p_bg: 0.2,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let shared = SharedLossState::new(chain, SimRng::new(11));
        let mut a = LinkModel::new(LossProcess::Correlated(shared.clone()), SimRng::new(1));
        let mut b = LinkModel::new(LossProcess::Correlated(shared.clone()), SimRng::new(2));
        let mut agree = 0u64;
        let mut bad_epochs = 0u64;
        for _ in 0..400 {
            shared.advance(1);
            let (da, db) = (a.deliver(), b.deliver());
            if da == db {
                agree += 1;
            }
            if in_bad(&shared) {
                bad_epochs += 1;
                assert!(!da && !db, "bad state must kill both channels");
            } else {
                assert!(da && db, "good state must deliver on both");
            }
        }
        assert_eq!(agree, 400, "channels sharing one state never diverge");
        assert!(
            bad_epochs > 50 && bad_epochs < 350,
            "chain should visit both states: {bad_epochs} bad epochs"
        );
    }

    #[test]
    fn correlated_state_only_moves_when_advanced() {
        let shared = SharedLossState::new(INDOOR, SimRng::new(3));
        let mut l = LinkModel::new(LossProcess::Correlated(shared.clone()), SimRng::new(4));
        let before = next_draw(&shared);
        for _ in 0..1000 {
            l.deliver();
        }
        assert_eq!(
            next_draw(&shared),
            before,
            "frames must not advance the chain"
        );
        shared.advance(10);
        assert_ne!(next_draw(&shared), before, "the driver advances it");
    }

    #[test]
    fn forcing_overrides_the_chain_until_released() {
        let chain = GilbertElliott {
            p_gb: 0.0, // chain alone never goes bad
            p_bg: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let shared = SharedLossState::new(chain, SimRng::new(5));
        let mut l = LinkModel::new(LossProcess::Correlated(shared.clone()), SimRng::new(6));
        assert!(l.deliver());
        shared.force(Some(true));
        assert!(!l.deliver(), "forced-bad path must lose every frame");
        assert!(in_bad(&shared));
        shared.force(None);
        assert!(l.deliver(), "released path follows the (good) chain");
    }

    #[test]
    fn mixed_loses_when_either_segment_fades() {
        // Private chain never goes bad; only the shared segment can
        // kill a frame.
        let quiet = GilbertElliott {
            p_gb: 0.0,
            p_bg: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let shared = SharedLossState::new(quiet, SimRng::new(21));
        let mut l = LinkModel::new(
            LossProcess::Mixed {
                link: quiet,
                shared: shared.clone(),
            },
            SimRng::new(22),
        );
        assert!(l.deliver(), "both segments good must deliver");
        shared.force(Some(true));
        assert!(!l.deliver(), "shared fade must kill the frame");
        shared.force(None);
        assert!(l.deliver());
        // Conversely, a total private fade loses even on a good shared
        // path.
        let total = GilbertElliott {
            p_gb: 1.0,
            p_bg: 0.0,
            loss_good: 1.0,
            loss_bad: 1.0,
        };
        let mut m = LinkModel::new(
            LossProcess::Mixed {
                link: total,
                shared: shared.clone(),
            },
            SimRng::new(23),
        );
        assert!(!m.deliver(), "private fade must kill the frame");
    }

    #[test]
    fn mixed_long_run_composes_both_rates() {
        // Private chain with known stationary loss, shared chain pinned
        // good at a fixed in-state loss: observed ≈ 1-(1-pl)(1-ps).
        let link = INDOOR;
        let shared_chain = GilbertElliott {
            p_gb: 0.0,
            p_bg: 1.0,
            loss_good: 0.1,
            loss_bad: 1.0,
        };
        let shared = SharedLossState::new(shared_chain, SimRng::new(31));
        let mut l = LinkModel::new(
            LossProcess::Mixed {
                link,
                shared: shared.clone(),
            },
            SimRng::new(32),
        );
        let observed = loss_rate(&mut l, 200_000);
        let expect = 1.0 - (1.0 - link.stationary_loss()) * (1.0 - 0.1);
        assert!(
            (observed - expect).abs() < 0.01,
            "observed {observed} expected {expect}"
        );
    }

    #[test]
    fn mixed_links_share_only_the_common_segment() {
        // Shared segment pinned bad: every mixed link loses together.
        // Released: links diverge through their private chains.
        let chain = GilbertElliott {
            p_gb: 0.3,
            p_bg: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let shared = SharedLossState::new(
            GilbertElliott {
                p_gb: 0.0,
                p_bg: 1.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            SimRng::new(41),
        );
        let mk = |seed| {
            LinkModel::new(
                LossProcess::Mixed {
                    link: chain,
                    shared: shared.clone(),
                },
                SimRng::new(seed),
            )
        };
        let (mut a, mut b) = (mk(42), mk(43));
        shared.force(Some(true));
        for _ in 0..50 {
            assert!(!a.deliver() && !b.deliver(), "shared fade hits every link");
        }
        shared.force(None);
        let mut diverged = false;
        for _ in 0..400 {
            if a.deliver() != b.deliver() {
                diverged = true;
            }
        }
        assert!(diverged, "private chains must make links diverge");
    }

    #[test]
    fn shared_handles_compare_by_identity() {
        let a = SharedLossState::new(INDOOR, SimRng::new(7));
        let b = SharedLossState::new(INDOOR, SimRng::new(7));
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }
}
