//! The adversary's two powers: message scheduling and process corruption.
//!
//! Scheduling: a [`Scheduler`] assigns every envelope a finite virtual
//! delivery time — arbitrary, adaptive reordering and delaying, but never
//! dropping (the model guarantees eventual delivery). The stock
//! strategies are the rows of [`SchedLayer`]: one enum row per shape,
//! with its parameter check ([`SchedLayer::check`]), its arm in the one
//! scheduling `match` and its key/value encoding
//! ([`SchedLayer::to_kv`] / [`SchedLayer::from_kv`]) all in this file.
//! [`SchedLayer::stack`] schedules a list of rows ([`SchedLayer::build`]
//! is a one-row stack), and [`schedulers::uniform`] is the benign network.
//!
//! Corruption: a corrupted process is a [`Process`](crate::Process) whose
//! sends deviate; the simulator makes no honesty assumption. The fault
//! models (silence, crash, lies) are protocol-aware `sba::Role` rows.

use rand::rngs::StdRng;
use rand::Rng;
use sba_net::{Envelope, Pid, MAX_N};

use crate::SimMsg;

/// Cumulative link-level counters a scheduling strategy may expose.
///
/// The simulator polls these after every scheduling pass and mirrors them
/// into [`Metrics`](crate::Metrics), so fault sweeps can assert on the
/// adversary's behaviour (how many sends were "lost" and retransmitted,
/// how many were held behind a partition) without threading extra state
/// through the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Simulated transmission losses (each one adds a retransmission
    /// timeout to the delivery delay; the model never truly drops).
    pub drops: u64,
    /// Retransmissions performed to recover the losses.
    pub retransmits: u64,
    /// Sends held behind a partition (released at the heal event).
    pub held: u64,
}

/// Assigns delivery times to envelopes: the adversary's scheduling power.
///
/// Implementations may inspect the full envelope (sender, recipient,
/// payload) and keep state, modelling an adaptive adversary. Returned
/// times are clamped by the simulator to be strictly after `now`, so
/// delivery is always eventual — exactly the asynchronous model.
pub trait Scheduler<M>: Send {
    /// Chooses the virtual delivery time for `env` sent at time `now`.
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64;

    /// Cumulative link counters (see [`LinkStats`]); strategies that
    /// model loss or partitions override this so the simulator can
    /// surface their activity through [`Metrics`](crate::Metrics).
    fn link_stats(&self) -> LinkStats {
        LinkStats::default()
    }

    /// A deep copy of this scheduler for
    /// [`Simulation::snapshot`](crate::Simulation::snapshot), or `None`
    /// if the strategy cannot be cloned (the default, for custom impls).
    /// Every [`SchedLayer`] supports it; a simulation whose scheduler
    /// returns `None` cannot be snapshotted.
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        None
    }

    /// Mid-run heal hook: partition-style strategies re-open their links
    /// so traffic *sent from `now` on* flows normally. Deliveries already
    /// scheduled keep their times — the simulator never reschedules a
    /// queued envelope — so a held backlog still drains at the strategy's
    /// original release clock (eventual delivery is preserved either
    /// way). Non-partition strategies ignore the call (default no-op);
    /// composite schedulers forward it to every layer.
    fn heal_partitions(&mut self, now: u64) {
        let _ = now;
    }
}

/// One scheduling strategy, as data: the adversary's scheduling power in
/// the vocabulary fault plans record, replay and fork.
///
/// A row's parameters are checked by [`SchedLayer::check`], which both
/// [`SchedLayer::build`] and [`SchedLayer::from_kv`] call. Layers compose
/// through [`SchedLayer::stack`]: every message's delivery time is the
/// **max** of the layers' proposals, so layers only ever *add*
/// adversarial power.
///
/// Pid groups (partition sides, lagging sets) are *sets*: they serialize
/// as membership bitmasks and deserialize in ascending pid order.
///
/// # Examples
///
/// ```
/// use sba_net::Pid;
/// use sba_sim::{SchedLayer, Scheduler};
///
/// let layers = [
///     SchedLayer::Uniform { max_delay: 20 },
///     SchedLayer::Rushing { target: Pid::new(1), window: 30 },
/// ];
/// let sched: Box<dyn Scheduler<u64>> = SchedLayer::stack(&layers);
/// # let _ = sched;
/// assert!(SchedLayer::Uniform { max_delay: 0 }.check().is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedLayer {
    /// Uniformly random delay in `1..=max_delay`: the benign
    /// asynchronous network.
    Uniform {
        /// Maximum random delay.
        max_delay: u64,
    },
    /// Unit delay: synchronous-looking FIFO network (best case).
    Fifo,
    /// Cross-group messages sent before `heal_at` are queued and
    /// *released in send order* from `heal_at` (a drain burst, one
    /// `1..=base` gap per message). The number of queued sends is
    /// surfaced through [`LinkStats::held`].
    HealedPartition {
        /// One side of the partition.
        group_a: Vec<Pid>,
        /// Virtual time of the heal (a mid-run heal event can pull it
        /// earlier).
        heal_at: u64,
        /// Base random delay for unheld traffic.
        base: u64,
    },
    /// Lossy network with bounded retransmission: every transmission
    /// attempt is lost with probability `loss_permille`/1000 (up to
    /// `max_retries` times), and each loss adds one retransmission
    /// timeout `rto` on top of the benign `1..=base` draw. Losses and
    /// retransmissions are surfaced through [`LinkStats`].
    LossRetransmit {
        /// Per-message loss probability in permille.
        loss_permille: u32,
        /// Retransmission timeout.
        rto: u64,
        /// Maximum retransmissions per message.
        max_retries: u32,
        /// Base random delay.
        base: u64,
    },
    /// A targeted rushing adversary: `target`'s links always run ahead of
    /// everyone else's (rushed traffic lands at `now + 1`, the rest near
    /// `now + window`), while every directed link stays FIFO.
    Rushing {
        /// The rushed process.
        target: Pid,
        /// Reordering window.
        window: u64,
    },
    /// Heavy-tail (bounded Pareto) delays: most messages arrive within a
    /// few `base` ticks, a small fraction straggle up to `cap`.
    HeavyTail {
        /// Common-case delay bound.
        base: u64,
        /// Tail delay cap.
        cap: u64,
    },
    /// A partition that *starts mid-run*: cross-group traffic sent in
    /// `[from, until)` is held and drained in send order from `until`
    /// (as in [`SchedLayer::HealedPartition`]); traffic outside the
    /// window flows normally.
    WindowPartition {
        /// One side of the partition.
        group_a: Vec<Pid>,
        /// Virtual time the partition starts.
        from: u64,
        /// Virtual time of the backstop heal.
        until: u64,
        /// Base random delay for unheld traffic.
        base: u64,
    },
    /// Persistently skewed per-link delays with jitter: a deterministic
    /// per-(sender, recipient) offset below `max_delay` plus up to
    /// `max_delay / 4` of noise.
    Skewed {
        /// Bound of the per-link offset.
        max_delay: u64,
    },
    /// All traffic to or from the `slow` processes takes `factor` times
    /// the `1..=base` draw: the "fast core, lagging minority" schedule
    /// that drives the paper's Example 1.
    Lagged {
        /// The lagging processes.
        slow: Vec<Pid>,
        /// Base random delay.
        base: u64,
        /// Slow-down factor.
        factor: u64,
    },
}

impl SchedLayer {
    /// Checks this layer's parameters: the contract its scheduler needs
    /// to keep every delay finite and positive, and every sum it forms
    /// within `u64`. The worst-case delay a row adds to one send, and
    /// any heal time it names, is at most 2^32 ticks.
    ///
    /// # Errors
    ///
    /// Names the broken contract.
    pub fn check(&self) -> Result<(), String> {
        let delay = |d: &u64| (1..=MAX_DELAY).contains(d);
        let (ok, contract) = match self {
            SchedLayer::Uniform { max_delay } | SchedLayer::Skewed { max_delay } => {
                (delay(max_delay), "need 0 < max_delay <= 2^32")
            }
            SchedLayer::Fifo => (true, ""),
            SchedLayer::HealedPartition { heal_at, base, .. } => (
                delay(base) && *heal_at <= MAX_DELAY,
                "need 0 < base <= 2^32 and heal_at <= 2^32",
            ),
            SchedLayer::LossRetransmit {
                loss_permille,
                rto,
                max_retries,
                base,
            } => (
                *loss_permille < 1000
                    && *rto > 0
                    && *base > 0
                    && u64::from(*max_retries)
                        .checked_mul(*rto)
                        .and_then(|d| d.checked_add(*base))
                        .is_some_and(|d| delay(&d)),
                "need loss_permille < 1000, positive delays and max_retries * rto + base <= 2^32",
            ),
            SchedLayer::Rushing { window, .. } => {
                ((2..=MAX_DELAY).contains(window), "need 2 <= window <= 2^32")
            }
            SchedLayer::HeavyTail { base, cap } => (
                *base > 0 && base <= cap && delay(cap),
                "need 0 < base <= cap <= 2^32",
            ),
            SchedLayer::WindowPartition {
                from, until, base, ..
            } => (
                from < until && *until <= MAX_DELAY && delay(base),
                "need from < until <= 2^32 and 0 < base <= 2^32",
            ),
            SchedLayer::Lagged { base, factor, .. } => (
                *factor > 0 && base.checked_mul(*factor).is_some_and(|d| delay(&d)),
                "need positive delays and base * factor <= 2^32",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(contract.to_string())
        }
    }

    /// Builds this layer as a standalone scheduler: a one-layer
    /// [`SchedLayer::stack`].
    ///
    /// # Panics
    ///
    /// Panics if [`SchedLayer::check`] rejects the parameters.
    pub fn build<M: SimMsg>(&self) -> Box<dyn Scheduler<M>> {
        Self::stack(std::slice::from_ref(self))
    }

    /// Composes layers into one strategy: each layer proposes a delivery
    /// time (sharing the simulation RNG, drawn in stack order) and the
    /// message is delivered at the maximum — the intersection of every
    /// layer's constraints. [`LinkStats`] are summed across layers;
    /// `heal_partitions` reaches every layer.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or a layer fails
    /// [`SchedLayer::check`].
    pub fn stack<M: SimMsg>(layers: &[SchedLayer]) -> Box<dyn Scheduler<M>> {
        assert!(!layers.is_empty(), "a scheduler stack needs >= 1 layer");
        let stack = layers.iter().map(|layer| {
            if let Err(e) = layer.check() {
                panic!("{layer:?}: {e}");
            }
            (layer.clone(), Running::default())
        });
        Box::new(Stack(stack.collect()))
    }

    /// This layer's delivery time for `env` sent at `now`; `run` is what
    /// the layer has accumulated in its stack so far.
    fn propose<M>(&self, run: &mut Running, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        match self {
            SchedLayer::Uniform { max_delay } => now + rng.gen_range(1..=*max_delay),
            SchedLayer::Fifo => now + 1,
            SchedLayer::HealedPartition {
                group_a,
                heal_at,
                base,
            } => run.hold(group_a, 0..*heal_at, *base, env, now, rng),
            SchedLayer::WindowPartition {
                group_a,
                from,
                until,
                base,
            } => run.hold(group_a, *from..*until, *base, env, now, rng),
            SchedLayer::LossRetransmit {
                loss_permille,
                rto,
                max_retries,
                base,
            } => {
                // Each independent loss costs one retransmission timeout;
                // the retry budget bounds the added delay, so delivery
                // stays eventual (losses are modelled in the delay
                // domain — the asynchronous model never truly drops).
                let mut lost = 0u32;
                while lost < *max_retries && rng.gen_range(0..1000u32) < *loss_permille {
                    lost += 1;
                }
                run.stats.drops += u64::from(lost);
                run.stats.retransmits += u64::from(lost);
                now + u64::from(lost) * rto + rng.gen_range(1..=*base)
            }
            SchedLayer::Rushing { target, window } => {
                // A full-information rushing adversary: the target's
                // traffic (in both directions) is delivered first among
                // all eligible events, everyone else's is pushed toward
                // the edge of the legal asynchrony window — the target
                // always speaks before the rest of the network hears
                // anything.
                let raw = if env.to == *target || env.from == *target {
                    now + 1
                } else {
                    now + window - rng.gen_range(0..=window / 4)
                };
                // FIFO per directed link: never schedule before an
                // earlier same-link send (reordering happens only across
                // links).
                let key = (env.from, env.to);
                match run.last.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, last)) => {
                        *last = raw.max(*last);
                        *last
                    }
                    None => {
                        run.last.push((key, raw));
                        raw
                    }
                }
            }
            SchedLayer::HeavyTail { base, cap } => {
                // Bounded integer Pareto (α = 1): delay = base · 1024/u
                // for uniform u ∈ 1..=1024, truncated at `cap`. Median ≈
                // 2·base, p99 ≈ 100·base — the long-fat-network shape
                // where a few messages straggle far behind the bulk.
                let u = rng.gen_range(1..=1024u64);
                now + (base * 1024 / u).min(*cap)
            }
            SchedLayer::Skewed { max_delay } => {
                // Per-(sender,recipient) deterministic skew plus jitter:
                // creates persistent asymmetry between links, the
                // adversarial shape that most stresses quorum formation.
                let link = u64::from(env.from.index()) * 31 + u64::from(env.to.index()) * 17;
                now + 1 + (link % max_delay) + rng.gen_range(0..=max_delay / 4)
            }
            SchedLayer::Lagged { slow, base, factor } => {
                let d = rng.gen_range(1..=*base);
                if slow.contains(&env.to) || slow.contains(&env.from) {
                    now + d * factor
                } else {
                    now + d
                }
            }
        }
    }

    /// The row's kind number in the key/value form (stable: recorded
    /// artifacts carry it).
    fn kind(&self) -> u64 {
        match self {
            SchedLayer::Uniform { .. } => 0,
            SchedLayer::Fifo => 1,
            SchedLayer::HealedPartition { .. } => 2,
            SchedLayer::LossRetransmit { .. } => 3,
            SchedLayer::Rushing { .. } => 4,
            SchedLayer::HeavyTail { .. } => 5,
            SchedLayer::WindowPartition { .. } => 6,
            SchedLayer::Skewed { .. } => 7,
            SchedLayer::Lagged { .. } => 8,
        }
    }

    /// Serializes the layer as flat `{pre}.*` integer pairs: `kind`, the
    /// parameters as `a`, `b`, `c`, `d`, and a pid set as eight 32-bit
    /// membership words `g0..g7`.
    ///
    /// # Panics
    ///
    /// Panics if a pid set names a process above 256.
    pub fn to_kv(&self, pre: &str) -> Vec<(String, u64)> {
        let (params, group): (Vec<u64>, Option<&[Pid]>) = match self {
            SchedLayer::Uniform { max_delay } | SchedLayer::Skewed { max_delay } => {
                (vec![*max_delay], None)
            }
            SchedLayer::Fifo => (vec![], None),
            SchedLayer::HealedPartition {
                group_a,
                heal_at,
                base,
            } => (vec![*heal_at, *base], Some(group_a)),
            SchedLayer::LossRetransmit {
                loss_permille,
                rto,
                max_retries,
                base,
            } => (
                vec![
                    u64::from(*loss_permille),
                    *rto,
                    u64::from(*max_retries),
                    *base,
                ],
                None,
            ),
            SchedLayer::Rushing { target, window } => (vec![target.as_u64(), *window], None),
            SchedLayer::HeavyTail { base, cap } => (vec![*base, *cap], None),
            SchedLayer::WindowPartition {
                group_a,
                from,
                until,
                base,
            } => (vec![*from, *until, *base], Some(group_a)),
            SchedLayer::Lagged { slow, base, factor } => (vec![*base, *factor], Some(slow)),
        };
        let mut kv = vec![(format!("{pre}.kind"), self.kind())];
        for (name, v) in ["a", "b", "c", "d"].iter().zip(params) {
            kv.push((format!("{pre}.{name}"), v));
        }
        if let Some(group) = group {
            let mut words = [0u32; 8];
            for p in group {
                let i = (p.index() - 1) as usize;
                assert!(i < 256, "plan groups support up to 256 processes");
                words[i / 32] |= 1 << (i % 32);
            }
            for (w, word) in words.iter().enumerate() {
                kv.push((format!("{pre}.g{w}"), u64::from(*word)));
            }
        }
        kv
    }

    /// Rebuilds a layer from the pairs [`SchedLayer::to_kv`] wrote under
    /// `pre`; `get` looks up one full key.
    ///
    /// # Errors
    ///
    /// A missing key, an unknown kind, a value out of its field's range,
    /// or parameters [`SchedLayer::check`] rejects.
    pub fn from_kv(
        pre: &str,
        get: &impl Fn(String) -> Result<u64, String>,
    ) -> Result<SchedLayer, String> {
        let p = |name: &str| get(format!("{pre}.{name}"));
        let small = |name: &str| {
            p(name).and_then(|v| u32::try_from(v).map_err(|_| format!("{pre}.{name} = {v}")))
        };
        let group = || -> Result<Vec<Pid>, String> {
            let mut group = Vec::new();
            for w in 0..8usize {
                let word = p(&format!("g{w}"))?;
                for b in 0..32usize {
                    if word & (1 << b) != 0 {
                        group.push(Pid::new((w * 32 + b + 1) as u32));
                    }
                }
            }
            Ok(group)
        };
        let layer = match p("kind")? {
            0 => SchedLayer::Uniform { max_delay: p("a")? },
            1 => SchedLayer::Fifo,
            2 => SchedLayer::HealedPartition {
                group_a: group()?,
                heal_at: p("a")?,
                base: p("b")?,
            },
            3 => SchedLayer::LossRetransmit {
                loss_permille: small("a")?,
                rto: p("b")?,
                max_retries: small("c")?,
                base: p("d")?,
            },
            4 => SchedLayer::Rushing {
                target: match small("a")? {
                    i @ 1..=MAX_N => Pid::new(i),
                    i => return Err(format!("{pre}: rushing target p{i} is not a process")),
                },
                window: p("b")?,
            },
            5 => SchedLayer::HeavyTail {
                base: p("a")?,
                cap: p("b")?,
            },
            6 => SchedLayer::WindowPartition {
                group_a: group()?,
                from: p("a")?,
                until: p("b")?,
                base: p("c")?,
            },
            7 => SchedLayer::Skewed { max_delay: p("a")? },
            8 => SchedLayer::Lagged {
                slow: group()?,
                base: p("a")?,
                factor: p("b")?,
            },
            k => return Err(format!("unknown layer kind {k}")),
        };
        layer.check().map_err(|e| format!("{pre}: {e}"))?;
        Ok(layer)
    }
}

/// The benign network as a one-line scheduler.
pub mod schedulers {
    use super::{SchedLayer, Scheduler};
    use crate::SimMsg;

    /// [`SchedLayer::Uniform`]: a uniformly random delay in
    /// `1..=max_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay` is zero.
    pub fn uniform<M: SimMsg>(max_delay: u64) -> Box<dyn Scheduler<M>> {
        SchedLayer::Uniform { max_delay }.build()
    }
}

/// The largest delay [`SchedLayer::check`] lets a row add to one send,
/// and the latest heal time it lets a row name: no proposal overflows
/// `u64` while the clock is below 2^63 and a partition has held fewer
/// than 2^31 sends.
const MAX_DELAY: u64 = 1 << 32;

/// What one layer of a [`Stack`] accumulates while it schedules.
#[derive(Clone, Default)]
struct Running {
    /// The layer's share of the stack's link counters.
    stats: LinkStats,
    /// Release clock for the post-heal drain of held cross-traffic.
    last_release: u64,
    /// Last delivery time assigned per directed link, to keep every
    /// link FIFO under a rushing layer's reordering.
    last: Vec<((Pid, Pid), u64)>,
}

impl Running {
    /// A partition's proposal: cross-group traffic sent in `window` is
    /// held until the window ends, the rest draws `1..=base`.
    fn hold<M>(
        &mut self,
        group: &[Pid],
        window: std::ops::Range<u64>,
        base: u64,
        env: &Envelope<M>,
        now: u64,
        rng: &mut StdRng,
    ) -> u64 {
        let cross = group.contains(&env.from) != group.contains(&env.to);
        if !cross || !window.contains(&now) {
            return now + rng.gen_range(1..=base);
        }
        // Cross-partition traffic is queued, not dropped, and the heal
        // event releases the whole backlog in send order: successive
        // held sends get strictly increasing post-heal times, which
        // also preserves FIFO per link (global send order refines it).
        self.stats.held += 1;
        self.last_release = self.last_release.max(window.end) + rng.gen_range(1..=base);
        self.last_release
    }
}

/// The scheduler [`SchedLayer::stack`] builds: each layer's row beside
/// what it has accumulated.
#[derive(Clone)]
struct Stack(Vec<(SchedLayer, Running)>);

impl<M: 'static> Scheduler<M> for Stack {
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        // Every layer proposes a time (drawing from the shared RNG in
        // stack order) and the envelope lands at the *latest* proposal,
        // so each layer's constraint — a hold, a retransmission delay,
        // a rushing window — is honoured simultaneously.
        self.0
            .iter_mut()
            .map(|(layer, run)| layer.propose(run, env, now, rng))
            .max()
            .expect("a scheduler stack has at least one layer")
    }

    fn link_stats(&self) -> LinkStats {
        let mut sum = LinkStats::default();
        for (_, run) in &self.0 {
            sum.drops += run.stats.drops;
            sum.retransmits += run.stats.retransmits;
            sum.held += run.stats.held;
        }
        sum
    }

    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }

    fn heal_partitions(&mut self, now: u64) {
        for (layer, _) in &mut self.0 {
            if let SchedLayer::HealedPartition { heal_at: end, .. }
            | SchedLayer::WindowPartition { until: end, .. } = layer
            {
                *end = (*end).min(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::ops::Range;

    #[test]
    fn uniform_delays_in_range() {
        let mut s = schedulers::uniform::<u64>(5);
        let mut rng = StdRng::seed_from_u64(0);
        let env = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        for now in [0u64, 10, 1000] {
            for _ in 0..100 {
                let at = s.delivery_time(&env, now, &mut rng);
                assert!(at > now && at <= now + 5);
            }
        }
    }

    #[test]
    fn lagged_slows_target_traffic() {
        let mut s = SchedLayer::Lagged {
            slow: vec![Pid::new(3)],
            base: 1,
            factor: 50,
        }
        .build::<u64>();
        let mut rng = StdRng::seed_from_u64(0);
        let fast = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        let slow = Envelope {
            from: Pid::new(1),
            to: Pid::new(3),
            msg: 0u64,
        };
        assert_eq!(s.delivery_time(&fast, 0, &mut rng), 1);
        assert_eq!(s.delivery_time(&slow, 0, &mut rng), 50);
    }

    #[test]
    fn partition_holds_cross_traffic_until_heal() {
        let mut s = SchedLayer::HealedPartition {
            group_a: vec![Pid::new(1), Pid::new(2)],
            heal_at: 1000,
            base: 2,
        }
        .build::<u64>();
        let mut rng = StdRng::seed_from_u64(0);
        let inside = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        let across = Envelope {
            from: Pid::new(1),
            to: Pid::new(3),
            msg: 0u64,
        };
        for _ in 0..50 {
            assert!(s.delivery_time(&inside, 5, &mut rng) <= 7);
            assert!(s.delivery_time(&across, 5, &mut rng) > 1000);
        }
        // After the heal point, cross-traffic flows normally.
        for _ in 0..50 {
            let at = s.delivery_time(&across, 2000, &mut rng);
            assert!(at > 2000 && at <= 2002);
        }
    }

    #[test]
    fn healed_partition_releases_backlog_in_send_order() {
        let mut s = SchedLayer::HealedPartition {
            group_a: vec![Pid::new(1), Pid::new(2)],
            heal_at: 1000,
            base: 3,
        }
        .build::<u64>();
        let mut rng = StdRng::seed_from_u64(1);
        let across = Envelope {
            from: Pid::new(1),
            to: Pid::new(3),
            msg: 0u64,
        };
        let inside = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        // Intra-group traffic flows during the partition.
        assert!(s.delivery_time(&inside, 5, &mut rng) <= 8);
        // Held cross-traffic drains after the heal, in send order.
        let mut prev = 1000;
        for _ in 0..50 {
            let at = s.delivery_time(&across, 5, &mut rng);
            assert!(at > prev, "release order must follow send order");
            prev = at;
        }
        assert_eq!(s.link_stats().held, 50);
        // After the heal the link is normal again.
        let at = s.delivery_time(&across, 2000, &mut rng);
        assert!(at > 2000 && at <= 2003);
        assert_eq!(s.link_stats().held, 50, "post-heal sends are not held");
    }

    #[test]
    fn loss_retransmit_counts_and_delays() {
        let mut s = SchedLayer::LossRetransmit {
            loss_permille: 500,
            rto: 100,
            max_retries: 3,
            base: 4,
        }
        .build::<u64>();
        let mut rng = StdRng::seed_from_u64(2);
        let env = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        for _ in 0..200 {
            let at = s.delivery_time(&env, 0, &mut rng);
            // k losses cost exactly k·rto on top of the 1..=4 draw.
            let k = (at - 1) / 100;
            assert!(k <= 3, "retry budget bounds the added delay");
        }
        let stats = s.link_stats();
        assert!(stats.drops > 0, "p=0.5 over 200 sends must lose some");
        assert_eq!(stats.drops, stats.retransmits);
        // No-loss configuration never drops.
        let mut s0 = SchedLayer::LossRetransmit {
            loss_permille: 0,
            rto: 100,
            max_retries: 3,
            base: 4,
        }
        .build::<u64>();
        for _ in 0..50 {
            assert!(s0.delivery_time(&env, 0, &mut rng) <= 4);
        }
        assert_eq!(s0.link_stats(), LinkStats::default());
    }

    #[test]
    fn rushing_prefers_target_and_keeps_links_fifo() {
        let mut s = SchedLayer::Rushing {
            target: Pid::new(1),
            window: 40,
        }
        .build::<u64>();
        let mut rng = StdRng::seed_from_u64(3);
        let to_target = Envelope {
            from: Pid::new(2),
            to: Pid::new(1),
            msg: 0u64,
        };
        let bystander = Envelope {
            from: Pid::new(2),
            to: Pid::new(3),
            msg: 0u64,
        };
        assert_eq!(s.delivery_time(&to_target, 10, &mut rng), 11);
        let slow = s.delivery_time(&bystander, 10, &mut rng);
        assert!(slow >= 40, "bystander traffic rides the window edge");
        // FIFO per link: a later same-link send never lands earlier.
        let mut prev_target = 11;
        let mut prev_by = slow;
        for now in 11..60 {
            let a = s.delivery_time(&to_target, now, &mut rng);
            assert!(a >= prev_target);
            prev_target = a;
            let b = s.delivery_time(&bystander, now, &mut rng);
            assert!(b >= prev_by);
            prev_by = b;
        }
    }

    #[test]
    fn heavy_tail_is_bounded_and_skewed() {
        let mut s = SchedLayer::HeavyTail { base: 3, cap: 500 }.build::<u64>();
        let mut rng = StdRng::seed_from_u64(4);
        let env = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        let delays: Vec<u64> = (0..2000)
            .map(|_| s.delivery_time(&env, 0, &mut rng))
            .collect();
        assert!(delays.iter().all(|&d| (3..=500).contains(&d)));
        let small = delays.iter().filter(|&&d| d <= 6).count();
        let huge = delays.iter().filter(|&&d| d >= 100).count();
        assert!(small > 1000, "bulk of the mass near base: {small}");
        assert!(huge > 10, "a real straggler tail: {huge}");
    }

    #[test]
    fn layered_single_layer_is_bit_identical_to_bare() {
        let mut bare = schedulers::uniform::<u64>(20);
        let mut stack = SchedLayer::stack::<u64>(&[SchedLayer::Uniform { max_delay: 20 }]);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let env = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        for now in 0..500u64 {
            assert_eq!(
                bare.delivery_time(&env, now, &mut rng_a),
                stack.delivery_time(&env, now, &mut rng_b)
            );
        }
    }

    #[test]
    fn layered_takes_the_max_and_sums_stats() {
        // loss layer (always delays by >= 1 rto here) stacked on fifo:
        // the max wins, and both layers' stats surface.
        let mut s = SchedLayer::stack::<u64>(&[
            SchedLayer::LossRetransmit {
                loss_permille: 999,
                rto: 50,
                max_retries: 1,
                base: 2,
            },
            SchedLayer::HealedPartition {
                group_a: vec![Pid::new(1)],
                heal_at: 1000,
                base: 2,
            },
        ]);
        let mut rng = StdRng::seed_from_u64(5);
        let across = Envelope {
            from: Pid::new(1),
            to: Pid::new(2),
            msg: 0u64,
        };
        let at = s.delivery_time(&across, 0, &mut rng);
        assert!(at > 1000, "partition hold dominates the loss delay");
        let stats = s.link_stats();
        assert!(stats.drops > 0 && stats.held == 1);
        // clone_box preserves the whole stack.
        assert!(s.clone_box().is_some());
    }

    #[test]
    fn window_partition_bites_only_inside_the_window() {
        let mut s = SchedLayer::WindowPartition {
            group_a: vec![Pid::new(1), Pid::new(2)],
            from: 100,
            until: 400,
            base: 3,
        }
        .build::<u64>();
        let mut rng = StdRng::seed_from_u64(6);
        let across = Envelope {
            from: Pid::new(1),
            to: Pid::new(3),
            msg: 0u64,
        };
        assert!(s.delivery_time(&across, 10, &mut rng) <= 13, "pre-window");
        let held = s.delivery_time(&across, 150, &mut rng);
        assert!(held > 400, "in-window cross traffic drains post-heal");
        assert_eq!(s.link_stats().held, 1);
        assert!(s.delivery_time(&across, 500, &mut rng) <= 503, "post-heal");
        // A heal event shrinks the window: later sends flow normally.
        s.heal_partitions(200);
        let at = s.delivery_time(&across, 250, &mut rng);
        assert!(at <= 253, "healed mid-window");
        assert_eq!(s.link_stats().held, 1);
    }

    /// Feeds a stack 300 sends (every directed link of n = 4 in turn,
    /// two sends per tick) and returns the fold of its delivery times
    /// over sends 0..150, over 150..300, and over 150..300 after a heal
    /// at send 150 (tick 75), with the final link stats of the unhealed
    /// and the healed run. A copy taken at send 150 must replay the tail.
    fn oracle(layers: &[SchedLayer]) -> ([u64; 3], [LinkStats; 2]) {
        fn drive(s: &mut dyn Scheduler<u64>, rng: &mut StdRng, sends: Range<u64>) -> u64 {
            sends.fold(0xcbf2_9ce4_8422_2325, |acc, i| {
                let env = Envelope {
                    from: Pid::new(1 + (i % 4) as u32),
                    to: Pid::new(1 + (i / 4 % 4) as u32),
                    msg: i,
                };
                (acc ^ s.delivery_time(&env, i / 2, rng)).wrapping_mul(0x0100_0000_01b3)
            })
        }
        let mut s = SchedLayer::stack::<u64>(layers);
        let mut rng = StdRng::seed_from_u64(50);
        let head = drive(&mut *s, &mut rng, 0..150);
        let (mut copy, mut copy_rng) = (s.clone_box().unwrap(), rng.clone());
        let (mut healed, mut healed_rng) = (s.clone_box().unwrap(), rng.clone());
        let tail = drive(&mut *s, &mut rng, 150..300);
        assert_eq!(drive(&mut *copy, &mut copy_rng, 150..300), tail);
        assert_eq!(copy.link_stats(), s.link_stats());
        healed.heal_partitions(75);
        let healed_tail = drive(&mut *healed, &mut healed_rng, 150..300);
        (
            [head, tail, healed_tail],
            [s.link_stats(), healed.link_stats()],
        )
    }

    #[test]
    fn every_row_schedules_as_recorded() {
        let group = |ids: &[u32]| ids.iter().map(|&i| Pid::new(i)).collect::<Vec<_>>();
        let stats = |drops, held| LinkStats {
            drops,
            retransmits: drops,
            held,
        };
        // Parameters chosen so every branch fires: partition holds (and
        // a heal that cuts them short), losses up to the retry cap, the
        // rushing FIFO clamp and the heavy-tail cap.
        let cases = [
            (
                vec![SchedLayer::Uniform { max_delay: 7 }],
                [
                    2_623_683_955_406_598_571,
                    14_015_220_004_612_977_999,
                    14_015_220_004_612_977_999,
                ],
                [stats(0, 0), stats(0, 0)],
            ),
            (
                vec![SchedLayer::Fifo],
                [
                    14_832_032_874_940_833_741,
                    14_365_150_866_788_338_935,
                    14_365_150_866_788_338_935,
                ],
                [stats(0, 0), stats(0, 0)],
            ),
            (
                vec![SchedLayer::HealedPartition {
                    group_a: group(&[1, 2]),
                    heal_at: 120,
                    base: 3,
                }],
                [
                    15_499_681_063_005_820_584,
                    4_619_140_058_345_558_755,
                    5_102_488_976_005_125_200,
                ],
                [stats(0, 120), stats(0, 74)],
            ),
            (
                vec![SchedLayer::LossRetransmit {
                    loss_permille: 400,
                    rto: 25,
                    max_retries: 2,
                    base: 4,
                }],
                [
                    11_472_228_172_333_752_514,
                    5_059_301_810_995_877_172,
                    5_059_301_810_995_877_172,
                ],
                [stats(147, 0), stats(147, 0)],
            ),
            (
                vec![SchedLayer::Rushing {
                    target: Pid::new(2),
                    window: 40,
                }],
                [
                    17_883_455_823_298_155_307,
                    7_186_648_853_993_648_230,
                    7_186_648_853_993_648_230,
                ],
                [stats(0, 0), stats(0, 0)],
            ),
            (
                vec![SchedLayer::HeavyTail { base: 3, cap: 200 }],
                [
                    850_860_092_285_424_887,
                    13_796_440_011_515_391_484,
                    13_796_440_011_515_391_484,
                ],
                [stats(0, 0), stats(0, 0)],
            ),
            (
                vec![SchedLayer::WindowPartition {
                    group_a: group(&[1, 2]),
                    from: 20,
                    until: 120,
                    base: 3,
                }],
                [
                    4_109_326_134_263_804_735,
                    3_977_259_100_635_413_489,
                    5_102_488_976_005_125_200,
                ],
                [stats(0, 100), stats(0, 54)],
            ),
            (
                vec![SchedLayer::Skewed { max_delay: 9 }],
                [
                    17_207_923_373_224_179_488,
                    11_759_651_181_560_928_073,
                    11_759_651_181_560_928_073,
                ],
                [stats(0, 0), stats(0, 0)],
            ),
            (
                vec![SchedLayer::Lagged {
                    slow: group(&[3]),
                    base: 3,
                    factor: 5,
                }],
                [
                    16_255_756_284_963_856_189,
                    4_611_858_701_014_583_792,
                    4_611_858_701_014_583_792,
                ],
                [stats(0, 0), stats(0, 0)],
            ),
            (
                vec![
                    SchedLayer::HealedPartition {
                        group_a: group(&[1]),
                        heal_at: 120,
                        base: 2,
                    },
                    SchedLayer::LossRetransmit {
                        loss_permille: 300,
                        rto: 15,
                        max_retries: 3,
                        base: 3,
                    },
                    SchedLayer::Rushing {
                        target: Pid::new(4),
                        window: 60,
                    },
                ],
                [
                    18_334_396_062_986_412_780,
                    5_041_810_974_899_605_388,
                    17_095_266_789_095_772_445,
                ],
                [stats(124, 90), stats(124, 58)],
            ),
        ];
        for (layers, folds, link) in cases {
            assert_eq!(oracle(&layers), (folds, link), "{layers:?}");
        }
    }

    #[test]
    fn check_bounds_every_worst_case_delay() {
        let big = (1u64 << 63) - 1;
        let p1 = || vec![Pid::new(1)];
        // Worst cases above the limits. The first three once passed
        // `check` and then overflowed in `delivery_time`: a panic in
        // debug builds, a wrap in release.
        let overflowing = [
            SchedLayer::HeavyTail {
                base: big,
                cap: u64::MAX,
            },
            SchedLayer::LossRetransmit {
                loss_permille: 500,
                rto: big,
                max_retries: 3,
                base: 4,
            },
            SchedLayer::Lagged {
                slow: p1(),
                base: 1 << 40,
                factor: 1 << 40,
            },
            SchedLayer::LossRetransmit {
                loss_permille: 500,
                rto: MAX_DELAY,
                max_retries: u32::MAX,
                base: 1,
            },
            SchedLayer::Uniform {
                max_delay: u64::MAX,
            },
            SchedLayer::Skewed {
                max_delay: u64::MAX,
            },
            SchedLayer::Rushing {
                target: Pid::new(1),
                window: u64::MAX,
            },
            SchedLayer::HealedPartition {
                group_a: p1(),
                heal_at: u64::MAX,
                base: 2,
            },
            SchedLayer::WindowPartition {
                group_a: p1(),
                from: 0,
                until: u64::MAX,
                base: 2,
            },
        ];
        for layer in overflowing {
            assert!(layer.check().is_err(), "{layer:?}");
            let kv = layer.to_kv("l");
            let get = |key: String| {
                let v = kv.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
                v.ok_or(key)
            };
            assert!(SchedLayer::from_kv("l", &get).is_err(), "{layer:?}");
        }
        // Every row at its limits passes, and its worst case stays in
        // range (this test runs in debug, where an overflow panics).
        let at_limit = [
            SchedLayer::Uniform {
                max_delay: MAX_DELAY,
            },
            SchedLayer::Skewed {
                max_delay: MAX_DELAY,
            },
            SchedLayer::HeavyTail {
                base: MAX_DELAY,
                cap: MAX_DELAY,
            },
            SchedLayer::LossRetransmit {
                loss_permille: 999,
                rto: (MAX_DELAY - 1) / 3,
                max_retries: 3,
                base: 1,
            },
            SchedLayer::Lagged {
                slow: p1(),
                base: 1 << 16,
                factor: 1 << 16,
            },
            SchedLayer::Rushing {
                target: Pid::new(1),
                window: MAX_DELAY,
            },
            SchedLayer::HealedPartition {
                group_a: p1(),
                heal_at: MAX_DELAY,
                base: MAX_DELAY,
            },
            SchedLayer::WindowPartition {
                group_a: p1(),
                from: 0,
                until: MAX_DELAY,
                base: MAX_DELAY,
            },
        ];
        let mut s = SchedLayer::stack::<u64>(&at_limit);
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..200u64 {
            let env = Envelope {
                from: Pid::new(1 + (i % 4) as u32),
                to: Pid::new(1 + (i / 4 % 4) as u32),
                msg: i,
            };
            assert!(s.delivery_time(&env, i, &mut rng) > i);
        }
        assert!(s.link_stats().held > 0 && s.link_stats().drops > 0);
    }
}
