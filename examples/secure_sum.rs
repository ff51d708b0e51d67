//! Asynchronous common-subset aggregation — a step toward the paper's §6
//! direction (SVSS-based asynchronous secure multiparty computation),
//! demonstrated as a downstream application of the public API.
//!
//! Every process commits a private input with SVSS (hidden while the
//! subset is negotiated — no adversary can make its input depend on
//! others'). The processes then agree on a *common subset* of dealers
//! whose shares completed (one binary agreement instance per dealer — the
//! classic BKR/ACS pattern), reconstruct exactly that subset, and output
//! the sum.
//!
//! Two honest caveats:
//! - reconstruction here reveals each included input (inputs are private
//!   only *until* the subset is fixed — "commit-then-open", not full MPC;
//!   private aggregation needs share-level linear reconstruction, which
//!   the paper defers to its full version);
//! - with plain binary ABA an instance can in principle decide 1 without
//!   any honest process having completed that dealer's share; full ASMPC
//!   constructions add a justification layer. With crash/silence faults —
//!   demonstrated here — the gate "propose 1 only after share completion"
//!   is sound.
//!
//! ```sh
//! cargo run -p sba-examples --example secure_sum
//! ```

use sba::field::{Field, Gf61};
use sba::net::{CodecError, Kinded, Outbox, Reader, Wire};
use sba::sim::{schedulers, Process, Simulation};
use sba::svss::{SvssEngine, SvssEvent, SvssMsg};
use sba::{AbaConfig, AbaMsg, AbaNode, Params, Pid, Reconstructed, SvssId};

const N: usize = 4;
const T: usize = 1;

/// Combined wire message: input-sharing SVSS traffic + agreement traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
enum SumMsg {
    Share(SvssMsg<Gf61>),
    Aba(AbaMsg<Gf61>),
}

impl Wire for SumMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SumMsg::Share(m) => {
                buf.push(0);
                m.encode(buf);
            }
            SumMsg::Aba(m) => {
                buf.push(1);
                m.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            SumMsg::Share(m) => m.encoded_len(),
            SumMsg::Aba(m) => m.encoded_len(),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(SumMsg::Share(SvssMsg::decode(r)?)),
            1 => Ok(SumMsg::Aba(AbaMsg::decode(r)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

impl Kinded for SumMsg {
    fn kind(&self) -> &'static str {
        match self {
            SumMsg::Share(m) => m.kind(),
            SumMsg::Aba(m) => m.kind(),
        }
    }
}

fn input_session(dealer: Pid) -> SvssId {
    SvssId::new(0xADD, dealer)
}

struct SumProcess {
    me: Pid,
    input: Option<Gf61>,
    svss: SvssEngine<Gf61>,
    aba: AbaNode<Gf61>,
    proposed: [bool; N],
    completed_shares: [bool; N],
    recon_started: bool,
    sum: Option<Gf61>,
}

impl SumProcess {
    fn new(me: Pid, input: Option<Gf61>, seed: u64) -> Self {
        let params = Params::new(N, T).unwrap();
        SumProcess {
            me,
            input,
            svss: SvssEngine::new(me, params, seed),
            aba: AbaNode::new(me, AbaConfig::scc(params, seed ^ 0xACE)),
            proposed: [false; N],
            completed_shares: [false; N],
            recon_started: false,
            sum: None,
        }
    }

    fn pump(&mut self, out: &mut Outbox<SumMsg>) {
        let mut share_sends = Vec::new();
        let mut aba_sends = Vec::new();

        // Share-completion events gate the "include dealer i?" proposals.
        for ev in self.svss.take_events() {
            match ev {
                SvssEvent::ShareCompleted(sid) => {
                    let i = (sid.dealer().index() - 1) as usize;
                    self.completed_shares[i] = true;
                    if !self.proposed[i] {
                        self.proposed[i] = true;
                        self.aba.propose(i as u32, true, &mut aba_sends);
                    }
                }
                SvssEvent::Reconstructed(..) => {} // handled below via outputs
                _ => {}
            }
        }

        // BKR rule: once n−t instances decided 1, vote 0 on the rest.
        let decided_yes = (0..N)
            .filter(|&i| self.aba.decision(i as u32) == Some(true))
            .count();
        if decided_yes >= N - T {
            for i in 0..N {
                if !self.proposed[i] {
                    self.proposed[i] = true;
                    self.aba.propose(i as u32, false, &mut aba_sends);
                }
            }
        }

        // All instances decided ⇒ the common subset is fixed; reconstruct.
        let all_decided = (0..N).all(|i| self.aba.decision(i as u32).is_some());
        if all_decided && !self.recon_started {
            self.recon_started = true;
            for i in 0..N {
                if self.aba.decision(i as u32) == Some(true) {
                    self.svss
                        .reconstruct(input_session(Pid::new(i as u32 + 1)), &mut share_sends);
                }
            }
        }

        // Sum once every included input reconstructed.
        if self.recon_started && self.sum.is_none() {
            let mut sum = Gf61::ZERO;
            let mut complete = true;
            for i in 0..N {
                if self.aba.decision(i as u32) != Some(true) {
                    continue;
                }
                match self.svss.output(input_session(Pid::new(i as u32 + 1))) {
                    Some(Reconstructed::Value(v)) => sum += v,
                    Some(Reconstructed::Bottom) | None => complete = false,
                }
            }
            if complete {
                self.sum = Some(sum);
            }
        }

        for (to, m) in share_sends {
            out.send(to, SumMsg::Share(m));
        }
        for (to, m) in aba_sends {
            out.send(to, SumMsg::Aba(m));
        }
    }
}

impl Process<SumMsg> for SumProcess {
    fn on_start(&mut self, out: &mut Outbox<SumMsg>) {
        if let Some(input) = self.input {
            let mut sends = Vec::new();
            self.svss.share(input_session(self.me), input, &mut sends);
            for (to, m) in sends {
                out.send(to, SumMsg::Share(m));
            }
        }
        self.pump(out);
    }

    fn on_message(&mut self, from: Pid, msg: SumMsg, out: &mut Outbox<SumMsg>) {
        let mut sends = Vec::new();
        match msg {
            SumMsg::Share(m) => {
                let mut s = Vec::new();
                self.svss.on_message(from, m, &mut s);
                sends.extend(s.into_iter().map(|(to, m)| (to, SumMsg::Share(m))));
            }
            SumMsg::Aba(m) => {
                let mut s = Vec::new();
                self.aba.on_message(from, m, &mut s);
                sends.extend(s.into_iter().map(|(to, m)| (to, SumMsg::Aba(m))));
            }
        }
        for (to, m) in sends {
            out.send(to, m);
        }
        self.pump(out);
    }

    fn done(&self) -> bool {
        self.sum.is_some()
    }
}

fn main() {
    // Private inputs; p4 is slow to start (its input may be excluded).
    let inputs = [10u64, 20, 12, 58];
    println!("private inputs: {inputs:?} (hidden until the subset is agreed)");

    let procs: Vec<SumProcess> = (1..=N as u32)
        .map(|i| {
            SumProcess::new(
                Pid::new(i),
                Some(Gf61::from_u64(inputs[(i - 1) as usize])),
                0xBEEF ^ (u64::from(i) << 32),
            )
        })
        .collect();
    let mut sim = Simulation::new(procs, schedulers::uniform(15), 7);
    let outcome = sim.run_until_all_done(400_000_000);
    assert!(outcome.all_done, "secure sum did not complete");

    let mut agreed: Option<u64> = None;
    for i in 1..=N as u32 {
        let p = sim.process(Pid::new(i));
        let sum = p.sum.expect("done implies sum").as_u64();
        let included: Vec<u32> = (0..N as u32)
            .filter(|&k| p.aba.decision(k) == Some(true))
            .map(|k| k + 1)
            .collect();
        println!("p{i}: common subset {{{included:?}}} → sum = {sum}");
        if let Some(prev) = agreed {
            assert_eq!(prev, sum, "sums must agree");
        }
        agreed = Some(sum);
    }
    println!(
        "\nall {} processes computed the same sum over the agreed subset,",
        N
    );
    println!("with {} total messages.", sim.metrics().messages_sent);
}
