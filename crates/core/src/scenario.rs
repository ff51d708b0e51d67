//! Fault plans: the one way to describe an adversary, as serializable,
//! replayable data.
//!
//! In the paper's model the adversary is a scheduler plus a set of
//! corrupted processes. A [`ScenarioPlan`] says both, completely:
//!
//! - a **role** per process ([`Role`]) — honest, silent, crashing,
//!   crash-recovering, lying about shares, flipping votes, or
//!   equivocating;
//! - a **stack of scheduler layers** ([`SchedLayer`], defined in
//!   [`sba_sim`] and re-exported here) composed by [`SchedLayer::stack`]
//!   (each message's delivery time is the max of the layers' proposals,
//!   so layers only ever *add* adversarial power);
//! - **timed events** ([`PlanEvent`]) — "heal the partitions at delivery
//!   200 000", "corrupt p3 when round 2 starts", "crash p4 again while
//!   it is still recovering" — which the built [`Cluster`] carries and
//!   fires mid-run ([`Cluster::run`]);
//! - the **coin construction** ([`PlanCoin`]) and whether the
//!   [invariant monitor](crate::monitor) rides along.
//!
//! A new adversary is one enum row: a [`Role`] row (with its arm in
//! each `Process` method of [`ClusterProcess`](crate::ClusterProcess),
//! the one struct every role runs as) or a [`SchedLayer`] row.
//!
//! Plans serialize to the flat numeric key/value form the bench trial
//! artifacts use ([`ScenarioPlan::to_kv`] / [`ScenarioPlan::from_kv`]),
//! so an `artifacts/trial_*.json` file *contains* the environment it was
//! recorded under and anyone holding one can rebuild the identical
//! cluster and replay the run bit-for-bit. Decoding checks the plan
//! ([`ScenarioPlan::check`]), so a malformed artifact is an `Err`, not a
//! panic in [`ScenarioPlan::build`].
//!
//! The [`Zoo`] scenarios are named plans ([`Zoo::plan`]); compound
//! scenarios are one literal each ([`ScenarioPlan::compounds`]).

use sba_net::{Pid, MAX_N};
pub use sba_sim::SchedLayer;

use crate::{Cluster, ClusterConfig, CoinMode, OracleCoin};

/// Serialization format version for [`ScenarioPlan::to_kv`].
const PLAN_VERSION: u64 = 1;

/// Behaviour assigned to one process for the whole run (mid-run changes
/// are [`Action`]s, not roles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// Runs the full honest protocol.
    Honest,
    /// Never sends anything (fail-silent from the start).
    Silent,
    /// Honest until it has handled `after` deliveries, then fail-stop.
    Crash {
        /// Deliveries handled before the crash.
        after: u64,
    },
    /// Honest until it has handled `after` deliveries, down (missing,
    /// but buffering, every delivery) for the next `down_for`, then
    /// recovered: the missed backlog is replayed — catch-up from peers —
    /// and the process runs honestly to its own decision.
    CrashRecover {
        /// Deliveries handled before the crash.
        after: u64,
        /// Deliveries missed while down.
        down_for: u64,
    },
    /// Runs the honest protocol but forges every secret-sharing
    /// reconstruction point it broadcasts, shifting it by `delta`. This is
    /// the paper's Example-1-style attack, repeated forever: each coin
    /// session it corrupts costs it a new shun pair (experiment E5).
    LyingShares {
        /// Additive forgery offset.
        delta: u64,
    },
    /// Runs the honest protocol but flips every vote-layer bit it
    /// originates (reports, candidates, votes, decide gossip).
    FlippedVotes,
    /// Runs the honest protocol but **equivocates**: tells half the
    /// network one vote-layer bit and the other half its negation
    /// (recipient-dependent tampering — the canonical Byzantine
    /// behaviour reliable broadcast exists to defeat: odd-indexed
    /// recipients hear the honest bit, even-indexed ones its negation).
    Equivocating,
}

impl Role {
    fn kind(&self) -> u64 {
        match self {
            Role::Honest => 0,
            Role::Silent => 1,
            Role::Crash { .. } => 2,
            Role::CrashRecover { .. } => 3,
            Role::LyingShares { .. } => 4,
            Role::FlippedVotes => 5,
            Role::Equivocating => 6,
        }
    }

    fn params(&self) -> (u64, u64) {
        match self {
            Role::Crash { after } => (*after, 0),
            Role::CrashRecover { after, down_for } => (*after, *down_for),
            Role::LyingShares { delta } => (*delta, 0),
            _ => (0, 0),
        }
    }

    /// Checks the role's parameters (a crash-recover outage must be
    /// non-empty).
    fn check(&self) -> Result<(), String> {
        match self {
            Role::CrashRecover { down_for: 0, .. } => {
                Err("a zero-length outage is not a crash".into())
            }
            _ => Ok(()),
        }
    }

    fn decode(kind: u64, a: u64, b: u64) -> Result<Role, String> {
        Ok(match kind {
            0 => Role::Honest,
            1 => Role::Silent,
            2 => Role::Crash { after: a },
            3 => Role::CrashRecover {
                after: a,
                down_for: b,
            },
            4 => Role::LyingShares { delta: a },
            5 => Role::FlippedVotes,
            6 => Role::Equivocating,
            k => return Err(format!("unknown role kind {k}")),
        })
    }
}

/// When a [`PlanEvent`] fires. Triggers are *at-or-after*: the action
/// runs at the first event boundary where the condition holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Virtual time reaches this value.
    AtTime(u64),
    /// Total delivered network messages reach this count.
    AtDelivery(u64),
    /// Any honest process enters this voting round.
    AtRound(u32),
}

/// What a [`PlanEvent`] does when its trigger fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Heals every partition layer in the scheduler stack *now*
    /// ([`Simulation::heal_partitions`](sba_sim::Simulation::heal_partitions)):
    /// future sends flow freely; already-held messages keep their
    /// scheduled drain times.
    HealPartitions,
    /// Corrupts an honest process mid-run, keeping its protocol state:
    /// an adaptive adversary that picks its victim after watching the
    /// run. The victim leaves the honest set (a crash-recover role keeps
    /// it there). The role must be non-honest, and the victim must start
    /// honest and be the victim of no other event
    /// ([`ScenarioPlan::check`]).
    Corrupt {
        /// The victim.
        p: Pid,
        /// Its behaviour from now on.
        role: Role,
    },
    /// Crashes a process *now*: fail-stop with `None`, or down for
    /// `Some(d)` deliveries then recovered. Applies to crash-faulty
    /// processes too — re-crashing one mid-recovery extends the outage.
    /// [`ScenarioPlan::check`] rejects a silent or Byzantine victim.
    Crash {
        /// The victim.
        p: Pid,
        /// `None` = fail-stop; `Some(d)` = recover after missing `d`.
        down_for: Option<u64>,
    },
}

impl Action {
    /// The process the action changes, if any.
    fn victim(&self) -> Option<Pid> {
        match self {
            Action::HealPartitions => None,
            Action::Corrupt { p, .. } | Action::Crash { p, .. } => Some(*p),
        }
    }
}

/// A timed mid-run intervention: `action` fires once `at` holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanEvent {
    /// When to fire.
    pub at: Trigger,
    /// What to do.
    pub action: Action,
}

/// Which common-coin construction the plan's cluster uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanCoin {
    /// The paper's shunning common coin (the default).
    Scc,
    /// A perfect oracle coin with its own seed — for large-`n` sweeps
    /// where the SCC's high-degree polynomial cost dominates runtime.
    Oracle {
        /// Oracle seed.
        seed: u64,
    },
}

/// A complete, serializable description of one adversarial run — see
/// the [module docs](self).
///
/// Construct literals directly (all fields are public), or start from
/// [`Zoo::plan`] / [`ScenarioPlan::compounds`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioPlan {
    /// Display name (recorded as a string in artifacts; *not* part of
    /// the numeric serialization).
    pub name: String,
    /// Number of processes.
    pub n: usize,
    /// Fault bound (`n > 3t`).
    pub t: usize,
    /// Run seed (drives scheduling and all protocol randomness).
    pub seed: u64,
    /// Coin construction.
    pub coin: PlanCoin,
    /// Non-default roles, as `(pid, role)` pairs in application order.
    /// Unlisted processes are honest.
    pub roles: Vec<(Pid, Role)>,
    /// Scheduler layer stack (must be non-empty at build time).
    pub layers: Vec<SchedLayer>,
    /// Timed mid-run interventions.
    pub events: Vec<PlanEvent>,
    /// Whether to install the [invariant monitor](crate::monitor).
    pub monitor: bool,
}

impl ScenarioPlan {
    /// A benign baseline plan: all honest, one uniform layer, no events.
    pub fn new(name: &str, n: usize, t: usize, seed: u64) -> ScenarioPlan {
        ScenarioPlan {
            name: name.to_string(),
            n,
            t,
            seed,
            coin: PlanCoin::Scc,
            roles: Vec::new(),
            layers: vec![SchedLayer::Uniform { max_delay: 20 }],
            events: Vec::new(),
            monitor: false,
        }
    }

    /// Checks that the plan can be built and run: `3t < n ≤ MAX_N`,
    /// every pid names one of the `n` processes, the layer stack is
    /// non-empty, every layer and role passes its own parameter check
    /// ([`SchedLayer::check`]), an [`Action::Corrupt`] victim starts
    /// honest and is the victim of no other event, a [`Action::Crash`]
    /// victim is honest or crash-faulty, and the non-honest roles plus
    /// the distinct event victims that start honest number at most `t`.
    /// [`ScenarioPlan::from_kv`] and [`ScenarioPlan::build`] both call
    /// it.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn check(&self) -> Result<(), String> {
        let (n, t) = (self.n, self.t);
        if n <= 3 * t {
            return Err(format!(
                "Byzantine agreement requires n > 3t (n = {n}, t = {t})"
            ));
        }
        if n > MAX_N as usize {
            return Err(format!("n = {n} exceeds the {MAX_N}-process cap"));
        }
        let in_range = |p: &Pid| {
            if (p.index() as usize) <= n {
                Ok(())
            } else {
                Err(format!("{p} is not one of the {n} processes"))
            }
        };
        for (p, role) in &self.roles {
            in_range(p)?;
            role.check()?;
        }
        if self.layers.is_empty() {
            return Err("a scheduler stack needs >= 1 layer".into());
        }
        for layer in &self.layers {
            layer.check()?;
        }
        let static_role = |p: Pid| {
            let role = self.roles.iter().find(|(q, _)| *q == p);
            role.map_or(&Role::Honest, |(_, role)| role)
        };
        let mut victims = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            let p = match &ev.action {
                Action::HealPartitions => continue,
                Action::Corrupt { p, role } => {
                    in_range(p)?;
                    if *role == Role::Honest {
                        return Err("Corrupt requires a non-honest role".into());
                    }
                    role.check()?;
                    if *static_role(*p) != Role::Honest {
                        return Err(format!("Corrupt of {p}, which is not honest"));
                    }
                    let twice = (self.events.iter().enumerate())
                        .any(|(j, other)| j != i && other.action.victim() == Some(*p));
                    if twice {
                        return Err(format!("{p} is corrupted and the victim of another event"));
                    }
                    *p
                }
                Action::Crash { p, down_for } => {
                    in_range(p)?;
                    if *down_for == Some(0) {
                        return Err("a zero-length outage is not a crash".into());
                    }
                    let crashable = matches!(
                        static_role(*p),
                        Role::Honest | Role::Crash { .. } | Role::CrashRecover { .. }
                    );
                    if !crashable {
                        return Err(format!("Crash of {p}, which is silent or Byzantine"));
                    }
                    *p
                }
            };
            if *static_role(p) == Role::Honest && !victims.contains(&p) {
                victims.push(p);
            }
        }
        let roles = self.roles.iter().filter(|(_, r)| *r != Role::Honest);
        let faulty = roles.count() + victims.len();
        if faulty > t {
            return Err(format!(
                "{faulty} faulty processes (roles and event victims) exceed t = {t}"
            ));
        }
        Ok(())
    }

    /// Builds the plan's cluster with the canonical split-input vector;
    /// the cluster carries the plan's timed events and fires them as it
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if [`ScenarioPlan::check`] rejects the plan.
    pub fn build(&self) -> Cluster {
        let inputs: Vec<Option<bool>> = (0..self.n).map(|i| Some(i % 2 == 0)).collect();
        self.build_with_inputs(&inputs)
    }

    /// The [`ClusterConfig`] this plan describes: n, t, seed, coin mode,
    /// and the role faults — everything *except* the scheduler layers
    /// and timed events, which are schedule concerns and therefore
    /// sim-only. This is the runtime-independent core of the plan: the
    /// threaded and socket harnesses build their process tables from it
    /// (via [`ClusterConfig::processes`]) while the OS supplies the
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t`.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.n, self.t).seed(self.seed);
        if let PlanCoin::Oracle { seed } = self.coin {
            config = config.mode(CoinMode::Oracle(OracleCoin::new(seed, 0)));
        }
        for (p, role) in &self.roles {
            config = config.fault(*p, role.clone());
        }
        config
    }

    /// [`ScenarioPlan::build`] with explicit proposals. The run digest
    /// is always enabled so runs can be recorded and replay-verified.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScenarioPlan::build`].
    pub fn build_with_inputs(&self, inputs: &[Option<bool>]) -> Cluster {
        if let Err(e) = self.check() {
            panic!("plan {}: {e}", self.name);
        }
        let scheduler = SchedLayer::stack(&self.layers);
        let mut cluster = Cluster::with_scheduler(self.cluster_config(), inputs, scheduler);
        cluster.sim_mut().enable_digest();
        if self.monitor {
            cluster.enable_monitor();
        }
        cluster.pending = self.events.clone();
        cluster
    }

    /// Serializes the plan (minus its name) as flat `plan.*` key/value
    /// pairs — the exact shape the bench JSON artifacts store, so a
    /// recorded trial carries its full environment. All values are
    /// integers representable exactly in `f64` (seeds above 2^53 are
    /// rejected).
    ///
    /// # Panics
    ///
    /// Panics if a seed exceeds 2^53 or a pid exceeds 256.
    pub fn to_kv(&self) -> Vec<(String, f64)> {
        let int = |v: u64| -> f64 {
            assert!(v <= (1u64 << 53), "plan values must fit in f64 exactly");
            v as f64
        };
        let mut kv: Vec<(String, f64)> = vec![
            ("plan.version".into(), int(PLAN_VERSION)),
            ("plan.n".into(), int(self.n as u64)),
            ("plan.t".into(), int(self.t as u64)),
            ("plan.seed".into(), int(self.seed)),
            ("plan.monitor".into(), f64::from(u8::from(self.monitor))),
        ];
        let (coin_kind, coin_seed) = match self.coin {
            PlanCoin::Scc => (0, 0),
            PlanCoin::Oracle { seed } => (1, seed),
        };
        kv.push(("plan.coin.kind".into(), int(coin_kind)));
        kv.push(("plan.coin.seed".into(), int(coin_seed)));
        kv.push(("plan.roles.count".into(), int(self.roles.len() as u64)));
        for (i, (p, role)) in self.roles.iter().enumerate() {
            let (a, b) = role.params();
            kv.push((format!("plan.roles.r{i}.pid"), f64::from(p.index())));
            kv.push((format!("plan.roles.r{i}.kind"), int(role.kind())));
            kv.push((format!("plan.roles.r{i}.a"), int(a)));
            kv.push((format!("plan.roles.r{i}.b"), int(b)));
        }
        kv.push(("plan.layers.count".into(), int(self.layers.len() as u64)));
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = format!("plan.layers.l{i}");
            kv.extend(layer.to_kv(&pre).into_iter().map(|(k, v)| (k, int(v))));
        }
        kv.push(("plan.events.count".into(), int(self.events.len() as u64)));
        for (i, ev) in self.events.iter().enumerate() {
            let pre = format!("plan.events.e{i}");
            let (trig, arg) = match ev.at {
                Trigger::AtTime(ts) => (0, ts),
                Trigger::AtDelivery(k) => (1, k),
                Trigger::AtRound(r) => (2, u64::from(r)),
            };
            kv.push((format!("{pre}.trigger"), int(trig)));
            kv.push((format!("{pre}.arg"), int(arg)));
            match &ev.action {
                Action::HealPartitions => {
                    kv.push((format!("{pre}.action"), 0.0));
                }
                Action::Corrupt { p, role } => {
                    let (a, b) = role.params();
                    kv.push((format!("{pre}.action"), 1.0));
                    kv.push((format!("{pre}.pid"), f64::from(p.index())));
                    kv.push((format!("{pre}.kind"), int(role.kind())));
                    kv.push((format!("{pre}.a"), int(a)));
                    kv.push((format!("{pre}.b"), int(b)));
                }
                Action::Crash { p, down_for } => {
                    kv.push((format!("{pre}.action"), 2.0));
                    kv.push((format!("{pre}.pid"), f64::from(p.index())));
                    kv.push((format!("{pre}.a"), f64::from(u8::from(down_for.is_some()))));
                    kv.push((format!("{pre}.b"), int(down_for.unwrap_or(0))));
                }
            }
        }
        kv
    }

    /// Rebuilds a plan from the `plan.*` pairs [`ScenarioPlan::to_kv`]
    /// emitted (order-insensitive; the name is not serialized and must
    /// be supplied).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed key, or
    /// of the first rule [`ScenarioPlan::check`] finds broken.
    pub fn from_kv(name: &str, kv: &[(String, f64)]) -> Result<ScenarioPlan, String> {
        let get = |key: String| -> Result<u64, String> {
            let &(_, v) = kv
                .iter()
                .find(|(k, _)| *k == key)
                .ok_or_else(|| format!("missing key {key}"))?;
            // An exact integer in `0..=2^53`, the range `to_kv` writes
            // (`as` alone saturates and truncates).
            let int = v as u64;
            (int as f64 == v && int <= 1 << 53)
                .then_some(int)
                .ok_or_else(|| format!("{key} = {v} is not an integer in 0..=2^53"))
        };
        let flag = |key: String| match get(key.clone())? {
            v @ 0..=1 => Ok(v == 1),
            v => Err(format!("{key} = {v} is not 0 or 1")),
        };
        let version = get("plan.version".into())?;
        if version != PLAN_VERSION {
            return Err(format!("unsupported plan version {version}"));
        }
        let n = get("plan.n".into())? as usize;
        let t = get("plan.t".into())? as usize;
        let seed = get("plan.seed".into())?;
        let monitor = flag("plan.monitor".into())?;
        let coin = match get("plan.coin.kind".into())? {
            0 => PlanCoin::Scc,
            1 => PlanCoin::Oracle {
                seed: get("plan.coin.seed".into())?,
            },
            k => return Err(format!("unknown coin kind {k}")),
        };
        let mut roles = Vec::new();
        for i in 0..get("plan.roles.count".into())? {
            let pre = format!("plan.roles.r{i}");
            let pid = pid(get(format!("{pre}.pid"))?)?;
            let role = Role::decode(
                get(format!("{pre}.kind"))?,
                get(format!("{pre}.a"))?,
                get(format!("{pre}.b"))?,
            )?;
            roles.push((pid, role));
        }
        let layers = (0..get("plan.layers.count".into())?)
            .map(|i| SchedLayer::from_kv(&format!("plan.layers.l{i}"), &get))
            .collect::<Result<Vec<_>, _>>()?;
        let mut events = Vec::new();
        for i in 0..get("plan.events.count".into())? {
            let pre = format!("plan.events.e{i}");
            let arg = get(format!("{pre}.arg"))?;
            let round = u32::try_from(arg).map_err(|_| format!("{pre}.arg = {arg} is not a round"));
            let at = match get(format!("{pre}.trigger"))? {
                0 => Trigger::AtTime(arg),
                1 => Trigger::AtDelivery(arg),
                2 => Trigger::AtRound(round?),
                k => return Err(format!("unknown trigger kind {k}")),
            };
            let action = match get(format!("{pre}.action"))? {
                0 => Action::HealPartitions,
                1 => Action::Corrupt {
                    p: pid(get(format!("{pre}.pid"))?)?,
                    role: Role::decode(
                        get(format!("{pre}.kind"))?,
                        get(format!("{pre}.a"))?,
                        get(format!("{pre}.b"))?,
                    )?,
                },
                2 => Action::Crash {
                    p: pid(get(format!("{pre}.pid"))?)?,
                    down_for: if flag(format!("{pre}.a"))? {
                        Some(get(format!("{pre}.b"))?)
                    } else {
                        None
                    },
                },
                k => return Err(format!("unknown action kind {k}")),
            };
            events.push(PlanEvent { at, action });
        }
        let plan = ScenarioPlan {
            name: name.to_string(),
            n,
            t,
            seed,
            coin,
            roles,
            layers,
            events,
            monitor,
        };
        plan.check()?;
        Ok(plan)
    }

    /// The three canonical **compound** scenarios at `(n, t, seed)` —
    /// each a plan literal that used to require bespoke harness code,
    /// all monitored:
    ///
    /// 1. `partition_heal_mid_coin` — the network partitions *mid-run*
    ///    (while round-1 coin reveals are in flight) and heals on a
    ///    delivery-count trigger;
    /// 2. `crash_during_recovery` — a crash-recover process is crashed
    ///    *again* inside its recovery window, extending the outage;
    /// 3. `loss_plus_rushing` — lossy links layered under a targeted
    ///    rushing adversary (two composed scheduler layers).
    pub fn compounds(n: usize, t: usize, seed: u64) -> [ScenarioPlan; 3] {
        [
            Self::partition_heal_mid_coin(n, t, seed),
            Self::crash_during_recovery(n, t, seed),
            Self::loss_plus_rushing(n, t, seed),
        ]
    }

    /// Compound scenario 1: a quorum-splitting partition *starts* at
    /// virtual time 30 — round 1's coin traffic is mid-flight — and
    /// heals when global deliveries reach 95 000 (backstop heal at
    /// virtual time 5000 if the trigger never fires). The constants are
    /// calibrated so that, at the canonical `(4, 1, seed 7)`, the
    /// partition demonstrably bites (`sched_held > 0`) *and* the heal
    /// event fires while it is still biting.
    pub fn partition_heal_mid_coin(n: usize, t: usize, seed: u64) -> ScenarioPlan {
        let group_a: Vec<Pid> = Pid::all(n.div_ceil(2)).collect();
        ScenarioPlan {
            name: "partition_heal_mid_coin".into(),
            n,
            t,
            seed,
            coin: PlanCoin::Scc,
            roles: Vec::new(),
            layers: vec![SchedLayer::WindowPartition {
                group_a,
                from: 30,
                until: 5_000,
                base: 6,
            }],
            events: vec![PlanEvent {
                at: Trigger::AtDelivery(95_000),
                action: Action::HealPartitions,
            }],
            monitor: true,
        }
    }

    /// Compound scenario 2: the last process crashes after 300
    /// deliveries and, *while it is still down*, is crashed again for a
    /// further 600 — the recovery itself fails once, extending the
    /// outage (at the canonical `(4, 1, seed 7)` the victim is down
    /// between global deliveries ~100 and ~1200, so the re-crash at
    /// 700 lands mid-outage and the run ends with exactly one
    /// recovery).
    ///
    /// # Panics
    ///
    /// Panics unless `t >= 1`.
    pub fn crash_during_recovery(n: usize, t: usize, seed: u64) -> ScenarioPlan {
        assert!(t >= 1, "crash_during_recovery needs a fault slot");
        let victim = Pid::new(n as u32);
        ScenarioPlan {
            name: "crash_during_recovery".into(),
            n,
            t,
            seed,
            coin: PlanCoin::Scc,
            roles: vec![(
                victim,
                Role::CrashRecover {
                    after: 300,
                    down_for: 500,
                },
            )],
            layers: vec![SchedLayer::Uniform { max_delay: 12 }],
            events: vec![PlanEvent {
                at: Trigger::AtDelivery(700),
                action: Action::Crash {
                    p: victim,
                    down_for: Some(600),
                },
            }],
            monitor: true,
        }
    }

    /// Compound scenario 3: lossy links *and* a rushing adversary on
    /// p1's behalf, composed as two scheduler layers (delivery time is
    /// the max of both proposals).
    pub fn loss_plus_rushing(n: usize, t: usize, seed: u64) -> ScenarioPlan {
        ScenarioPlan {
            name: "loss_plus_rushing".into(),
            n,
            t,
            seed,
            coin: PlanCoin::Scc,
            roles: Vec::new(),
            layers: vec![
                SchedLayer::LossRetransmit {
                    loss_permille: 120,
                    rto: 40,
                    max_retries: 3,
                    base: 8,
                },
                SchedLayer::Rushing {
                    target: Pid::new(1),
                    window: 30,
                },
            ],
            events: Vec::new(),
            monitor: true,
        }
    }
}

/// Decodes a recorded pid, rejecting 0 (which names no process).
fn pid(index: u64) -> Result<Pid, String> {
    match u32::try_from(index) {
        Ok(i) if i > 0 => Ok(Pid::new(i)),
        _ => Err(format!("pid {index} names no process")),
    }
}

/// The named adversarial scenarios: each entry is a canned
/// [`ScenarioPlan`] ([`Zoo::plan`]), recorded and replayed like any
/// other plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Zoo {
    /// Benign uniform random delays — the control group.
    Benign,
    /// Quorum-splitting partition until a heal event, after which the
    /// held cross-traffic drains in send order
    /// ([`SchedLayer::HealedPartition`]).
    HealedPartition,
    /// One process crashes mid-protocol, misses a stretch of deliveries,
    /// then recovers and catches up ([`Role::CrashRecover`]).
    CrashRecover,
    /// Lossy links with bounded retransmission
    /// ([`SchedLayer::LossRetransmit`]).
    LossRetransmit,
    /// Targeted rushing adversary: one process's links always run ahead
    /// of the rest of the network ([`SchedLayer::Rushing`]).
    Rushing,
    /// Long-fat-network heavy-tail delays ([`SchedLayer::HeavyTail`]).
    HeavyTail,
}

impl Zoo {
    /// Every scenario, in reporting order.
    pub const ALL: [Zoo; 6] = [
        Zoo::Benign,
        Zoo::HealedPartition,
        Zoo::CrashRecover,
        Zoo::LossRetransmit,
        Zoo::Rushing,
        Zoo::HeavyTail,
    ];

    /// The stable name recorded in artifacts and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Zoo::Benign => "benign",
            Zoo::HealedPartition => "healed_partition",
            Zoo::CrashRecover => "crash_recover",
            Zoo::LossRetransmit => "loss_retransmit",
            Zoo::Rushing => "rushing",
            Zoo::HeavyTail => "heavy_tail",
        }
    }

    /// This scenario as a [`ScenarioPlan`] literal with its canonical
    /// parameters: the plan *is* the scenario's definition.
    ///
    /// At `t == 0` the [`Zoo::CrashRecover`] plan has more faulty roles
    /// than `t`, which [`ScenarioPlan::check`] rejects.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn plan(self, n: usize, t: usize, seed: u64) -> ScenarioPlan {
        let mut roles = Vec::new();
        if self == Zoo::CrashRecover {
            roles.push((
                Pid::new(n as u32),
                Role::CrashRecover {
                    after: 300,
                    down_for: 500,
                },
            ));
        }
        // One side of the partition must be below the n-t quorum, or the
        // "partition" would not bite; splitting at ⌈n/2⌉ guarantees both
        // sides stall (for n > 3t ≥ 3) until the heal.
        let group_a: Vec<Pid> = Pid::all(n.div_ceil(2)).collect();
        let layer = match self {
            Zoo::Benign => SchedLayer::Uniform { max_delay: 20 },
            Zoo::HealedPartition => SchedLayer::HealedPartition {
                group_a,
                heal_at: 400,
                base: 6,
            },
            Zoo::CrashRecover => SchedLayer::Uniform { max_delay: 12 },
            Zoo::LossRetransmit => SchedLayer::LossRetransmit {
                loss_permille: 200,
                rto: 40,
                max_retries: 3,
                base: 8,
            },
            Zoo::Rushing => SchedLayer::Rushing {
                target: Pid::new(1),
                window: 30,
            },
            Zoo::HeavyTail => SchedLayer::HeavyTail { base: 4, cap: 800 },
        };
        ScenarioPlan {
            name: self.name().to_string(),
            n,
            t,
            seed,
            coin: PlanCoin::Scc,
            roles,
            layers: vec![layer],
            events: Vec::new(),
            monitor: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for (i, z) in Zoo::ALL.into_iter().enumerate() {
            assert_eq!(z.plan(4, 1, 0).name, z.name(), "the plan carries the name");
            let first = Zoo::ALL.iter().position(|w| w.name() == z.name());
            assert_eq!(first, Some(i), "{} names one scenario", z.name());
        }
    }

    #[test]
    fn zoo_clusters_have_digests() {
        let mut c = Zoo::Benign.plan(4, 1, 3).build();
        assert!(c.digest().is_some());
        c.sim_mut().run_to_quiescence(10);
        assert_ne!(c.digest(), Some(0xcbf2_9ce4_8422_2325), "digest folds");
    }

    #[test]
    fn zoo_plans_round_trip_through_kv() {
        for z in Zoo::ALL {
            let plan = z.plan(7, 2, 15);
            let kv = plan.to_kv();
            let back = ScenarioPlan::from_kv(z.name(), &kv).expect("decodes");
            assert_eq!(plan, back, "{}", z.name());
        }
    }

    #[test]
    fn kv_values_must_be_exact_integers() {
        let plan = Zoo::Benign.plan(4, 1, 7);
        for value in [f64::NAN, f64::INFINITY, -7.0, 7.9, 1e30] {
            let mut kv = plan.to_kv();
            kv.iter_mut().find(|(k, _)| k == "plan.seed").unwrap().1 = value;
            assert!(ScenarioPlan::from_kv("seed", &kv).is_err(), "seed {value}");
        }
    }

    /// A plan whose stack holds one layer of every [`SchedLayer`] row (a
    /// new row fails to compile in `row` until it is listed here too).
    fn every_layer_plan() -> ScenarioPlan {
        let group = vec![Pid::new(1), Pid::new(3)];
        let layers = vec![
            SchedLayer::Uniform { max_delay: 20 },
            SchedLayer::Fifo,
            SchedLayer::HealedPartition {
                group_a: group.clone(),
                heal_at: 400,
                base: 6,
            },
            SchedLayer::LossRetransmit {
                loss_permille: 120,
                rto: 40,
                max_retries: 3,
                base: 8,
            },
            SchedLayer::Rushing {
                target: Pid::new(2),
                window: 30,
            },
            SchedLayer::HeavyTail { base: 4, cap: 800 },
            SchedLayer::WindowPartition {
                group_a: group.clone(),
                from: 30,
                until: 500,
                base: 6,
            },
            SchedLayer::Skewed { max_delay: 9 },
            SchedLayer::Lagged {
                slow: group,
                base: 2,
                factor: 9,
            },
        ];
        let row = |layer: &SchedLayer| match layer {
            SchedLayer::Uniform { .. } => 0,
            SchedLayer::Fifo => 1,
            SchedLayer::HealedPartition { .. } => 2,
            SchedLayer::LossRetransmit { .. } => 3,
            SchedLayer::Rushing { .. } => 4,
            SchedLayer::HeavyTail { .. } => 5,
            SchedLayer::WindowPartition { .. } => 6,
            SchedLayer::Skewed { .. } => 7,
            SchedLayer::Lagged { .. } => 8,
        };
        let rows: Vec<usize> = layers.iter().map(row).collect();
        assert_eq!(rows, (0..=8).collect::<Vec<_>>(), "one layer per row");
        let mut plan = ScenarioPlan::new("every_layer", 4, 1, 7);
        plan.layers = layers;
        plan
    }

    #[test]
    fn compound_plans_round_trip_through_kv() {
        let compounds = ScenarioPlan::compounds(4, 1, 7);
        for plan in compounds.into_iter().chain([every_layer_plan()]) {
            let kv = plan.to_kv();
            let back = ScenarioPlan::from_kv(&plan.name, &kv).expect("decodes");
            assert_eq!(plan, back, "{}", plan.name);
        }
    }

    #[test]
    fn plan_events_fire_in_order() {
        // A benign plan with a fail-stop crash of p4 at delivery 500:
        // after the run, p4 must be out of the honest set.
        let mut plan = ScenarioPlan::new("crash_at_500", 4, 1, 7);
        plan.events.push(PlanEvent {
            at: Trigger::AtDelivery(500),
            action: Action::Crash {
                p: Pid::new(4),
                down_for: None,
            },
        });
        let mut cluster = plan.build();
        let report = cluster.run(60_000_000);
        assert!(report.terminated, "three honest processes still decide");
        assert!(cluster.pending.is_empty(), "the event fired");
        assert_eq!(report.decisions[3], None, "p4 is no longer honest");
        assert!(report.agreement());
    }
}
