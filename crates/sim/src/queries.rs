//! Multi-user query workload generator.
//!
//! The paper's proxies are the tethered tier that "absorbs queries" for
//! many users; this module generates that load as a pure function of a
//! seed. Each simulated user independently emits NOW, PAST, and
//! aggregate queries at a configured rate, with PAST windows drawn
//! either uniformly over the recent archive or snapped to a shared
//! **hot window** (the dashboard-span pattern: many users watching the
//! same recent range at once — exactly the traffic a proxy-side shared
//! pull-reply cache and request coalescing exist to absorb).
//!
//! The generator is policy-free: it knows sensor *slots* and window
//! arithmetic, nothing about proxies or stores. The system tier maps
//! arrivals onto its own query types.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What a user asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Current value.
    Now,
    /// Historical series over `[from, to]`.
    Past,
    /// Scalar aggregate over `[from, to]`.
    Aggregate,
}

/// One emitted query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryArrival {
    /// Target sensor slot, in `0..sensors`.
    pub sensor_slot: usize,
    /// Query class.
    pub kind: QueryKind,
    /// Range start (PAST/aggregate; equals `to` for NOW).
    pub from: SimTime,
    /// Range end.
    pub to: SimTime,
    /// Acceptable absolute error.
    pub tolerance: f64,
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct QueryLoadConfig {
    /// Concurrent users.
    pub users: usize,
    /// Mean queries per user per hour.
    pub queries_per_user_per_hour: f64,
    /// Fraction of queries that are PAST (the rest split NOW vs
    /// aggregate by `aggregate_fraction`).
    pub past_fraction: f64,
    /// Fraction of non-PAST queries that are aggregates.
    pub aggregate_fraction: f64,
    /// PAST window length bounds.
    pub window_min: SimDuration,
    /// Longest PAST window.
    pub window_max: SimDuration,
    /// How far into the past window ends may reach.
    pub max_age: SimDuration,
    /// Tolerance choices; `tolerances[0]` is also the hot-window
    /// tolerance so hot queries coalesce exactly.
    pub tolerances: Vec<f64>,
    /// Fraction of PAST queries snapped to the shared hot window.
    pub hot_fraction: f64,
    /// Hot-window grid: window ends snap to multiples of this.
    pub hot_grid: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryLoadConfig {
    fn default() -> Self {
        QueryLoadConfig {
            users: 8,
            queries_per_user_per_hour: 12.0,
            past_fraction: 0.6,
            aggregate_fraction: 0.25,
            window_min: SimDuration::from_mins(10),
            window_max: SimDuration::from_hours(2),
            max_age: SimDuration::from_hours(12),
            tolerances: vec![0.1, 0.5, 1.5],
            hot_fraction: 0.4,
            hot_grid: SimDuration::from_mins(30),
            seed: 0x9E_57,
        }
    }
}

/// The generator: call [`QueryLoad::step`] once per epoch.
pub struct QueryLoad {
    config: QueryLoadConfig,
    sensors: usize,
    rng: SimRng,
}

impl QueryLoad {
    /// Creates a load over `sensors` sensor slots.
    pub fn new(config: QueryLoadConfig, sensors: usize) -> Self {
        let rng = SimRng::new(config.seed).split("query-load");
        QueryLoad {
            config,
            sensors: sensors.max(1),
            rng,
        }
    }

    /// Per-user emission probability for one epoch (the thinned-Poisson
    /// law shared by every generator composed over this load).
    pub fn emit_probability(&self, epoch: SimDuration) -> f64 {
        (self.config.queries_per_user_per_hour * epoch.as_secs_f64() / 3600.0).min(1.0)
    }

    /// Concurrent users in this load.
    pub fn users(&self) -> usize {
        self.config.users
    }

    /// Emits this epoch's arrivals: each user flips a Bernoulli coin
    /// with the per-epoch rate (a thinned Poisson process).
    pub fn step(&mut self, t: SimTime, epoch: SimDuration) -> Vec<QueryArrival> {
        let p_emit = self.emit_probability(epoch);
        let mut out = Vec::new();
        for _ in 0..self.config.users {
            if !self.rng.chance(p_emit) {
                continue;
            }
            out.push(self.draw_one(t));
        }
        out
    }

    /// Draws one arrival at `t` (the per-query half of
    /// [`QueryLoad::step`], exposed so deployment-tier generators can
    /// compose their own arrival processes over the same query shapes).
    pub fn draw_one(&mut self, t: SimTime) -> QueryArrival {
        let sensor_slot = self.rng.below(self.sensors as u64) as usize;
        if self.rng.chance(self.config.past_fraction) {
            let (from, to, tolerance) = if self.rng.chance(self.config.hot_fraction) {
                self.hot_window(t)
            } else {
                let len = SimDuration::from_secs_f64(self.rng.uniform_range(
                    self.config.window_min.as_secs_f64(),
                    self.config.window_max.as_secs_f64(),
                ));
                let age = SimDuration::from_secs_f64(
                    self.rng.uniform_range(0.0, self.config.max_age.as_secs_f64()),
                );
                let to = if t > SimTime::ZERO + age + len {
                    t - age
                } else {
                    SimTime::ZERO + len
                };
                let tol = *self
                    .rng
                    .choose(&self.config.tolerances)
                    .expect("non-empty tolerances");
                (to - len, to, tol)
            };
            QueryArrival {
                sensor_slot,
                kind: QueryKind::Past,
                from,
                to,
                tolerance,
            }
        } else if self.rng.chance(self.config.aggregate_fraction) {
            let (from, to, _) = self.hot_window(t);
            QueryArrival {
                sensor_slot,
                kind: QueryKind::Aggregate,
                from,
                to,
                tolerance: self.config.tolerances[0],
            }
        } else {
            let tol = *self
                .rng
                .choose(&self.config.tolerances)
                .expect("non-empty tolerances");
            QueryArrival {
                sensor_slot,
                kind: QueryKind::Now,
                from: t,
                to: t,
                tolerance: tol,
            }
        }
    }

    /// The shared hot window at `t`: ends at the last grid boundary,
    /// one grid cell long, always at the head tolerance — so every hot
    /// arrival across users carries an identical (window, tolerance)
    /// and coalesces into one pull.
    fn hot_window(&self, t: SimTime) -> (SimTime, SimTime, f64) {
        let grid = (self.config.hot_grid.as_secs_f64() as u64).max(1);
        let end_s = (t.as_secs() / grid) * grid;
        let end = SimTime::from_secs(end_s.max(grid));
        (end - self.config.hot_grid, end, self.config.tolerances[0])
    }
}

/// One emitted cross-proxy query: a per-proxy [`QueryArrival`] plus the
/// deployment group (proxy) it targets. `arrival.sensor_slot` is local
/// to the group; the deployment tier maps `(group, slot)` to a global
/// sensor id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetArrival {
    /// Target group (proxy index) — Zipf-skewed.
    pub group: usize,
    /// The query, with a group-local sensor slot.
    pub arrival: QueryArrival,
}

/// Cross-proxy workload parameters.
#[derive(Clone, Debug)]
pub struct FleetLoadConfig {
    /// Per-query shape parameters (users, rates, windows, tolerances,
    /// hot-window grid — shared across groups, so hot windows correlate
    /// deployment-wide).
    pub load: QueryLoadConfig,
    /// Deployment groups (proxies).
    pub groups: usize,
    /// Zipf skew exponent over groups: group `g` is drawn with weight
    /// `1/(g+1)^s`. Zero is uniform; 1–2 concentrates most queries on
    /// group 0 (the hot proxy).
    pub zipf_s: f64,
}

/// Zipf-skewed multi-proxy query workload: each arrival first draws its
/// target group from a Zipf law over proxies (group 0 hottest), then a
/// query shape from the shared [`QueryLoad`] generator — so the hot
/// proxy sees the same *kinds* of queries as the cold ones, just many
/// more of them, and hot PAST windows repeat across proxies (the
/// deployment-wide dashboard pattern).
pub struct FleetQueryLoad {
    inner: QueryLoad,
    /// Cumulative Zipf weights over groups, normalized to 1.
    cumulative: Vec<f64>,
    rng: SimRng,
}

impl FleetQueryLoad {
    /// Creates a load over `config.groups` groups of
    /// `sensors_per_group` sensor slots each.
    pub fn new(config: FleetLoadConfig, sensors_per_group: usize) -> Self {
        let groups = config.groups.max(1);
        let weights: Vec<f64> = (0..groups)
            .map(|g| 1.0 / ((g + 1) as f64).powf(config.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let rng = SimRng::new(config.load.seed).split("fleet-groups");
        FleetQueryLoad {
            inner: QueryLoad::new(config.load, sensors_per_group),
            cumulative,
            rng,
        }
    }

    /// Emits this epoch's arrivals (same thinned-Poisson process as
    /// [`QueryLoad::step`], with a Zipf group draw per arrival).
    pub fn step(&mut self, t: SimTime, epoch: SimDuration) -> Vec<FleetArrival> {
        let p_emit = self.inner.emit_probability(epoch);
        let mut out = Vec::new();
        for _ in 0..self.inner.users() {
            if !self.rng.chance(p_emit) {
                continue;
            }
            let u = self.rng.uniform();
            let group = self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1);
            out.push(FleetArrival {
                group,
                arrival: self.inner.draw_one(t),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> Vec<QueryArrival> {
        let mut load = QueryLoad::new(
            QueryLoadConfig {
                seed,
                ..QueryLoadConfig::default()
            },
            6,
        );
        let mut all = Vec::new();
        for e in 0..2_000u64 {
            let t = SimTime::from_hours(13) + SimDuration::from_secs(31) * e;
            all.extend(load.step(t, SimDuration::from_secs(31)));
        }
        all
    }

    #[test]
    fn rate_is_respected_roughly() {
        let all = run(1);
        // 8 users × 12 q/h over ~17.2 h ≈ 1653 expected.
        let hours = 2_000.0 * 31.0 / 3600.0;
        let expected = 8.0 * 12.0 * hours;
        assert!(
            (all.len() as f64) > expected * 0.8 && (all.len() as f64) < expected * 1.2,
            "{} vs expected {expected}",
            all.len()
        );
    }

    #[test]
    fn hot_windows_repeat_exactly_across_users() {
        let all = run(2);
        use std::collections::HashMap;
        let mut by_window: HashMap<(u64, u64), usize> = HashMap::new();
        for q in all.iter().filter(|q| q.kind == QueryKind::Past) {
            *by_window
                .entry((q.from.as_secs(), q.to.as_secs()))
                .or_default() += 1;
        }
        let max_repeat = by_window.values().copied().max().unwrap_or(0);
        assert!(
            max_repeat >= 5,
            "hot windows never repeated: max repeat {max_repeat}"
        );
    }

    #[test]
    fn windows_are_well_formed() {
        for q in run(3) {
            assert!(q.from <= q.to, "{q:?}");
            assert!(q.tolerance > 0.0);
            assert!(q.sensor_slot < 6);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    fn run_fleet(zipf_s: f64, seed: u64) -> Vec<FleetArrival> {
        let mut load = FleetQueryLoad::new(
            FleetLoadConfig {
                load: QueryLoadConfig {
                    seed,
                    ..QueryLoadConfig::default()
                },
                groups: 4,
                zipf_s,
            },
            3,
        );
        let mut all = Vec::new();
        for e in 0..3_000u64 {
            let t = SimTime::from_hours(13) + SimDuration::from_secs(31) * e;
            all.extend(load.step(t, SimDuration::from_secs(31)));
        }
        all
    }

    /// Arrivals per group.
    fn per_group(all: &[FleetArrival]) -> [u64; 4] {
        let mut pg = [0; 4];
        for q in all {
            pg[q.group] += 1;
        }
        pg
    }

    #[test]
    fn zipf_skew_concentrates_on_the_hot_group() {
        let all = run_fleet(1.4, 5);
        assert!(!all.is_empty());
        let pg = per_group(&all);
        assert!(
            pg[0] > pg[3] * 3,
            "group 0 must be hot under skew: {pg:?}"
        );
        // Every group still sees some traffic, with well-formed queries.
        assert!(pg.iter().all(|&n| n > 0), "{pg:?}");
        for q in &all {
            assert!(q.group < 4);
            assert!(q.arrival.sensor_slot < 3);
            assert!(q.arrival.from <= q.arrival.to);
        }
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let pg = per_group(&run_fleet(0.0, 6));
        let (lo, hi) = (
            *pg.iter().min().expect("non-empty"),
            *pg.iter().max().expect("non-empty"),
        );
        assert!(hi < lo * 2, "uniform draw skewed: {pg:?}");
    }

    #[test]
    fn fleet_hot_windows_repeat_across_groups() {
        let all = run_fleet(1.0, 7);
        use std::collections::HashMap;
        let mut windows: HashMap<(u64, u64), std::collections::HashSet<usize>> = HashMap::new();
        for q in all.iter().filter(|q| q.arrival.kind == QueryKind::Past) {
            windows
                .entry((q.arrival.from.as_secs(), q.arrival.to.as_secs()))
                .or_default()
                .insert(q.group);
        }
        assert!(
            windows.values().any(|groups| groups.len() >= 3),
            "hot windows never correlated across groups"
        );
    }

    #[test]
    fn fleet_deterministic_given_seed() {
        assert_eq!(run_fleet(1.2, 9), run_fleet(1.2, 9));
        assert_ne!(run_fleet(1.2, 9), run_fleet(1.2, 10));
    }
}
