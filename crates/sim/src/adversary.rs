//! The adversary's two powers: message scheduling and process corruption.
//!
//! Scheduling: a [`Scheduler`] assigns every envelope a finite virtual
//! delivery time — arbitrary, adaptive reordering and delaying, but never
//! dropping (the model guarantees eventual delivery). The stock
//! strategies are the rows of [`SchedLayer`]: one enum row per shape,
//! with its parameter check ([`SchedLayer::check`]), its build arm
//! ([`SchedLayer::build`]) and its key/value encoding
//! ([`SchedLayer::to_kv`] / [`SchedLayer::from_kv`]) all in this file.
//! [`SchedLayer::stack`] composes layers into one scheduler, and
//! [`schedulers::uniform`] is the benign network.
//!
//! Corruption: a corrupted process is a [`Process`](crate::Process)
//! implementation that deviates; the simulator makes no honesty
//! assumption. The fault models themselves (silence, crash, lies) are
//! protocol-aware and live with the protocol (`sba::Role`).

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
    /// to keep every delay finite and positive.
    ///
    /// # Errors
    ///
    /// Names the broken contract.
    pub fn check(&self) -> Result<(), String> {
        let (ok, contract) = match self {
            SchedLayer::Uniform { max_delay } | SchedLayer::Skewed { max_delay } => {
                (*max_delay > 0, "max_delay must be positive")
            }
            SchedLayer::Fifo => (true, ""),
            SchedLayer::HealedPartition { base, .. } => (*base > 0, "base must be positive"),
            SchedLayer::LossRetransmit {
                loss_permille,
                rto,
                base,
                ..
            } => (
                *loss_permille < 1000 && *rto > 0 && *base > 0,
                "need loss_permille < 1000 and positive delays",
            ),
            SchedLayer::Rushing { window, .. } => (*window >= 2, "window must be >= 2"),
            SchedLayer::HeavyTail { base, cap } => {
                (*base > 0 && cap >= base, "need 0 < base <= cap")
            }
            SchedLayer::WindowPartition {
                from, until, base, ..
            } => (from < until && *base > 0, "need from < until and base > 0"),
            SchedLayer::Lagged { base, factor, .. } => {
                (*base > 0 && *factor > 0, "delays must be positive")
            }
        };
        if ok {
            Ok(())
        } else {
            Err(contract.to_string())
        }
    }

    /// Builds this layer as a standalone scheduler.
    ///
    /// # Panics
    ///
    /// Panics if [`SchedLayer::check`] rejects the parameters.
    pub fn build<M: SimMsg>(&self) -> Box<dyn Scheduler<M>> {
        if let Err(e) = self.check() {
            panic!("{self:?}: {e}");
        }
        match self.clone() {
            SchedLayer::Uniform { max_delay } => Box::new(Uniform { max_delay }),
            SchedLayer::Fifo => Box::new(Fifo),
            SchedLayer::HealedPartition {
                group_a,
                heal_at,
                base,
            } => Box::new(HealedPartition {
                group_a,
                heal_at,
                base,
                held: 0,
                last_release: 0,
            }),
            SchedLayer::LossRetransmit {
                loss_permille,
                rto,
                max_retries,
                base,
            } => Box::new(LossRetransmit {
                loss_permille,
                rto,
                max_retries,
                base,
                drops: 0,
                retransmits: 0,
            }),
            SchedLayer::Rushing { target, window } => Box::new(Rushing {
                target,
                window,
                last: Vec::new(),
            }),
            SchedLayer::HeavyTail { base, cap } => Box::new(HeavyTail { base, cap }),
            SchedLayer::WindowPartition {
                group_a,
                from,
                until,
                base,
            } => Box::new(WindowPartition {
                group_a,
                from,
                until,
                base,
                held: 0,
                last_release: 0,
            }),
            SchedLayer::Skewed { max_delay } => Box::new(Skew { max_delay }),
            SchedLayer::Lagged { slow, base, factor } => Box::new(Lagged { slow, factor, base }),
        }
    }

    /// Composes layers into one strategy: each layer proposes a delivery
    /// time (sharing the simulation RNG, drawn in stack order) and the
    /// message is delivered at the maximum — the intersection of every
    /// layer's constraints. A single-layer stack is bit-identical to the
    /// bare layer (same draws, same times). [`LinkStats`] are summed
    /// across layers; `heal_partitions` reaches every layer.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or a layer fails
    /// [`SchedLayer::check`].
    pub fn stack<M: SimMsg>(layers: &[SchedLayer]) -> Box<dyn Scheduler<M>> {
        assert!(!layers.is_empty(), "a scheduler stack needs >= 1 layer");
        Box::new(Layered {
            layers: layers.iter().map(SchedLayer::build).collect(),
        })
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

#[derive(Clone)]
struct Uniform {
    max_delay: u64,
}
impl<M: 'static> Scheduler<M> for Uniform {
    fn delivery_time(&mut self, _env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        now + rng.gen_range(1..=self.max_delay)
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone)]
struct Fifo;
impl<M: 'static> Scheduler<M> for Fifo {
    fn delivery_time(&mut self, _env: &Envelope<M>, now: u64, _rng: &mut StdRng) -> u64 {
        now + 1
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone)]
struct Lagged {
    slow: Vec<Pid>,
    factor: u64,
    base: u64,
}
impl<M: 'static> Scheduler<M> for Lagged {
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        let d = rng.gen_range(1..=self.base);
        if self.slow.contains(&env.to) || self.slow.contains(&env.from) {
            now + d * self.factor
        } else {
            now + d
        }
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone)]
struct Skew {
    max_delay: u64,
}
impl<M: 'static> Scheduler<M> for Skew {
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        // Per-(sender,recipient) deterministic skew plus jitter: creates
        // persistent asymmetry between links, the adversarial shape that
        // most stresses quorum formation.
        let link = u64::from(env.from.index()) * 31 + u64::from(env.to.index()) * 17;
        now + 1 + (link % self.max_delay) + rng.gen_range(0..=self.max_delay / 4)
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone)]
struct HealedPartition {
    group_a: Vec<Pid>,
    heal_at: u64,
    base: u64,
    held: u64,
    /// Release clock for the post-heal drain of held cross-traffic.
    last_release: u64,
}
impl<M: 'static> Scheduler<M> for HealedPartition {
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        let cross = self.group_a.contains(&env.from) != self.group_a.contains(&env.to);
        if !cross || now >= self.heal_at {
            return now + rng.gen_range(1..=self.base);
        }
        // Cross-partition traffic is queued, not dropped, and the heal
        // event releases the whole backlog in send order: successive
        // held sends get strictly increasing post-heal times, which
        // also preserves FIFO per link (global send order refines it).
        self.held += 1;
        self.last_release = self.last_release.max(self.heal_at) + rng.gen_range(1..=self.base);
        self.last_release
    }
    fn link_stats(&self) -> LinkStats {
        LinkStats {
            held: self.held,
            ..LinkStats::default()
        }
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
    fn heal_partitions(&mut self, now: u64) {
        self.heal_at = self.heal_at.min(now);
    }
}

#[derive(Clone)]
struct LossRetransmit {
    loss_permille: u32,
    rto: u64,
    max_retries: u32,
    base: u64,
    drops: u64,
    retransmits: u64,
}
impl<M: 'static> Scheduler<M> for LossRetransmit {
    fn delivery_time(&mut self, _env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        // Each independent loss costs one retransmission timeout; the
        // retry budget bounds the added delay, so delivery stays
        // eventual (losses are modelled in the delay domain — the
        // asynchronous model never truly drops).
        let mut lost = 0u32;
        while lost < self.max_retries && rng.gen_range(0..1000u32) < self.loss_permille {
            lost += 1;
        }
        self.drops += u64::from(lost);
        self.retransmits += u64::from(lost);
        now + u64::from(lost) * self.rto + rng.gen_range(1..=self.base)
    }
    fn link_stats(&self) -> LinkStats {
        LinkStats {
            drops: self.drops,
            retransmits: self.retransmits,
            held: 0,
        }
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone)]
struct Rushing {
    target: Pid,
    window: u64,
    /// Last delivery time assigned per directed link, to keep every
    /// link FIFO under the reordering.
    last: Vec<((Pid, Pid), u64)>,
}
impl<M: 'static> Scheduler<M> for Rushing {
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        // A full-information rushing adversary: the target's traffic
        // (in both directions) is delivered first among all eligible
        // events, everyone else's is pushed toward the edge of the
        // legal asynchrony window — the target always speaks before
        // the rest of the network hears anything.
        let rushed = env.to == self.target || env.from == self.target;
        let raw = if rushed {
            now + 1
        } else {
            now + self.window - rng.gen_range(0..=self.window / 4)
        };
        // FIFO per directed link: never schedule before an earlier
        // same-link send (reordering happens only across links).
        let key = (env.from, env.to);
        match self.last.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                let at = raw.max(*last);
                *last = at;
                at
            }
            None => {
                self.last.push((key, raw));
                raw
            }
        }
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone)]
struct HeavyTail {
    base: u64,
    cap: u64,
}
impl<M: 'static> Scheduler<M> for HeavyTail {
    fn delivery_time(&mut self, _env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        // Bounded integer Pareto (α = 1): delay = base · 1024/u for
        // uniform u ∈ 1..=1024, truncated at `cap`. Median ≈ 2·base,
        // p99 ≈ 100·base — the long-fat-network shape where a few
        // messages straggle far behind the bulk.
        let u = rng.gen_range(1..=1024u64);
        now + (self.base * 1024 / u).min(self.cap)
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone)]
struct WindowPartition {
    group_a: Vec<Pid>,
    from: u64,
    until: u64,
    base: u64,
    held: u64,
    /// Release clock for the post-heal drain of held cross-traffic.
    last_release: u64,
}
impl<M: 'static> Scheduler<M> for WindowPartition {
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        let cross = self.group_a.contains(&env.from) != self.group_a.contains(&env.to);
        if !cross || now < self.from || now >= self.until {
            return now + rng.gen_range(1..=self.base);
        }
        // Same drain discipline as `HealedPartition`: held sends are
        // released in send order from the heal point.
        self.held += 1;
        self.last_release = self.last_release.max(self.until) + rng.gen_range(1..=self.base);
        self.last_release
    }
    fn link_stats(&self) -> LinkStats {
        LinkStats {
            held: self.held,
            ..LinkStats::default()
        }
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        Some(Box::new(self.clone()))
    }
    fn heal_partitions(&mut self, now: u64) {
        self.until = self.until.min(now);
    }
}

struct Layered<M> {
    layers: Vec<Box<dyn Scheduler<M>>>,
}
impl<M: 'static> Scheduler<M> for Layered<M> {
    fn delivery_time(&mut self, env: &Envelope<M>, now: u64, rng: &mut StdRng) -> u64 {
        // Every layer proposes a time (drawing from the shared RNG in
        // stack order) and the envelope lands at the *latest* proposal,
        // so each layer's constraint — a hold, a retransmission delay,
        // a rushing window — is honoured simultaneously.
        self.layers
            .iter_mut()
            .map(|l| l.delivery_time(env, now, rng))
            .max()
            .expect("layered scheduler has at least one layer")
    }
    fn link_stats(&self) -> LinkStats {
        let mut sum = LinkStats::default();
        for l in &self.layers {
            let s = l.link_stats();
            sum.drops += s.drops;
            sum.retransmits += s.retransmits;
            sum.held += s.held;
        }
        sum
    }
    fn clone_box(&self) -> Option<Box<dyn Scheduler<M>>> {
        let mut layers = Vec::with_capacity(self.layers.len());
        for l in &self.layers {
            layers.push(l.clone_box()?);
        }
        Some(Box::new(Layered { layers }))
    }
    fn heal_partitions(&mut self, now: u64) {
        for l in &mut self.layers {
            l.heal_partitions(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
}
