//! The fabric event loop: hosts, switches, TCP flows, and replication.
//!
//! One simulation = one fat-tree + one generated flow set, run twice by the
//! experiments (with and without replication) on identical flows so the
//! comparison is paired.
//!
//! ## Replication mechanics (§2.4)
//!
//! When `replicate_first > 0`, every *switch* that has more than one
//! equal-cost egress candidate for an original data packet with
//! `seq < replicate_first` emits a **low-priority copy on the next ECMP
//! candidate**. Replicas are forwarded like normal packets (at their own
//! alternate ECMP choice downstream) but are never themselves re-replicated
//! and never generate copies of ACKs. The receiving host dedups below TCP:
//! whichever copy arrives first delivers the payload; later copies vanish
//! silently ([`crate::tcp::TcpReceiver::on_data`] returns `None`).
//!
//! Because replicas ride a strictly lower priority class with their own
//! drop-tail allocation, the original traffic's queues and drops are
//! *identical* to the baseline modulo TCP feedback effects — the paper's
//! "can never delay the original traffic" property.

use crate::packet::{data_packet_bytes, packets_for, Packet, PacketKind, ACK_BYTES};
use crate::port::{Port, DEFAULT_BUFFER_BYTES};
use crate::tcp::{TcpActions, TcpReceiver, TcpSender};
use crate::topology::{FatTree, LinkId, NodeId};
use crate::workload::{arrival_rate_for_load, generate_flows, FlowSizeDist, FlowSpec};
use simcore::rng::Rng;
use simcore::shard::ShardQueue;
use simcore::stats::SampleSet;
use simcore::time::SimTime;

/// Fat-tree arity: the paper's 54-host, 45-switch fabric.
const K: usize = 6;

/// Everything one fabric run varies. The fabric itself is the paper's
/// k = 6 fat-tree with 225 KB per-class port buffers
/// ([`DEFAULT_BUFFER_BYTES`]) and the transport of [`crate::tcp`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link rate in bytes/second (all links; full bisection).
    pub link_rate_bytes_per_sec: f64,
    /// Per-hop propagation delay, seconds.
    pub per_hop_delay: f64,
    /// Replicate the first J packets of each flow (0 disables; the
    /// default is the paper's J = 8).
    pub replicate_first: u32,
    /// Offered load as a fraction of aggregate host-link capacity.
    pub load: f64,
    /// Flows to generate.
    pub flows: usize,
    /// RNG seed (drives arrivals, sizes, and ECMP salts identically across
    /// the replicated/baseline pair).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_rate_bytes_per_sec: 625.0e6, // 5 Gbps
            per_hop_delay: 2.0e-6,
            replicate_first: 8,
            load: 0.4,
            flows: 20_000,
            seed: 0xFA7,
        }
    }
}

/// Flow-completion-time statistics for one run.
#[derive(Debug)]
pub struct FctStats {
    /// FCTs of measured flows smaller than 10 KB.
    pub small: SampleSet,
    /// FCTs of measured flows of at least 1 MB.
    pub large: SampleSet,
    /// FCTs of all measured flows.
    pub all: SampleSet,
    /// Total RTO events across all flows.
    pub timeouts: u64,
    /// Original-class packets dropped at ports.
    pub drops_high: u64,
    /// Replica-class packets dropped at ports.
    pub drops_low: u64,
    /// Flows that failed to complete before the safety cutoff.
    pub incomplete: usize,
}

impl FctStats {
    /// Median FCT of small flows, seconds.
    pub fn small_median(&mut self) -> f64 {
        self.small.quantile(0.5)
    }

    /// 99th percentile FCT of small flows, seconds.
    pub fn small_p99(&mut self) -> f64 {
        self.small.quantile(0.99)
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    FlowStart(u32),
    Recv { node: NodeId, pkt: Packet },
    PortDone(LinkId),
    Rto { flow: u32, epoch: u64 },
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    topo: FatTree,
    ports: Vec<Port>,
    in_flight: Vec<Option<Packet>>,
    senders: Vec<TcpSender>,
    receivers: Vec<TcpReceiver>,
    specs: Vec<FlowSpec>,
    fct: Vec<Option<f64>>,
    q: ShardQueue<Ev>,
    ecmp_salt: u64,
}

impl Engine<'_> {
    /// Per-switch, per-flow ECMP choice among `n` candidates.
    fn ecmp_index(&self, flow: u32, is_ack: bool, node: NodeId, n: usize) -> usize {
        let h =
            mix64(self.ecmp_salt ^ (flow as u64) ^ ((is_ack as u64) << 40) ^ ((node as u64) << 42));
        (h % n as u64) as usize
    }

    fn kick(&mut self, l: LinkId) {
        let now = self.q.now();
        let port = &mut self.ports[l as usize];
        if port.busy {
            return;
        }
        if let Some(pkt) = port.dequeue() {
            port.busy = true;
            let tx = port.tx_time(pkt.bytes);
            self.in_flight[l as usize] = Some(pkt);
            self.q.push(now + SimTime::from_secs(tx), Ev::PortDone(l));
        }
    }

    fn enqueue_on(&mut self, l: LinkId, pkt: Packet) {
        // Drops are counted inside the port.
        let _ = self.ports[l as usize].enqueue(pkt);
        self.kick(l);
    }

    /// Emits a data packet from the flow's source host.
    fn send_data(&mut self, flow: u32, seq: u32) {
        let spec = self.specs[flow as usize];
        let pkt = Packet {
            flow,
            kind: PacketKind::Data {
                seq,
                replica: false,
            },
            bytes: data_packet_bytes(spec.bytes, seq),
            dst: spec.dst,
        };
        let up = self.topo.candidates(spec.src, spec.dst)[0];
        self.enqueue_on(up, pkt);
    }

    /// Emits an ACK from the flow's destination host back to the source.
    fn send_ack(&mut self, flow: u32, cum: u32) {
        let spec = self.specs[flow as usize];
        let pkt = Packet {
            flow,
            kind: PacketKind::Ack { cum },
            bytes: ACK_BYTES,
            dst: spec.src,
        };
        let up = self.topo.candidates(spec.dst, spec.src)[0];
        self.enqueue_on(up, pkt);
    }

    fn apply(&mut self, flow: u32, actions: TcpActions) {
        let now = self.q.now();
        for seq in &actions.send {
            self.send_data(flow, *seq);
        }
        if let Some(delay) = actions.arm_timer {
            let epoch = self.senders[flow as usize].timer_epoch;
            self.q
                .push(now + SimTime::from_secs(delay), Ev::Rto { flow, epoch });
        }
        if actions.completed {
            let start = self.specs[flow as usize].start;
            self.fct[flow as usize] = Some(now.as_secs() - start);
        }
    }

    fn on_recv(&mut self, node: NodeId, pkt: Packet) {
        if node == pkt.dst {
            match pkt.kind {
                PacketKind::Data { seq, replica } => {
                    if let Some(cum) = self.receivers[pkt.flow as usize].on_data(seq, replica) {
                        self.send_ack(pkt.flow, cum);
                    }
                }
                PacketKind::Ack { cum } => {
                    let now = self.q.now().as_secs();
                    let actions = self.senders[pkt.flow as usize].on_ack(now, cum);
                    self.apply(pkt.flow, actions);
                }
            }
            return;
        }
        // Switch: route by ECMP; maybe replicate.
        let cands = self.topo.candidates(node, pkt.dst);
        let n = cands.len();
        debug_assert!(n >= 1, "switch {node} has no route to {}", pkt.dst);
        let (is_ack, seq, is_replica) = match pkt.kind {
            PacketKind::Ack { .. } => (true, 0, false),
            PacketKind::Data { seq, replica } => (false, seq, replica),
        };
        let idx = self.ecmp_index(pkt.flow, is_ack, node, n);
        let primary = cands[idx];
        let alternate = cands[(idx + 1) % n];
        if is_replica {
            // Replicas keep to the road less traveled where one exists.
            let l = if n > 1 { alternate } else { primary };
            self.enqueue_on(l, pkt);
            return;
        }
        self.enqueue_on(primary, pkt);
        if !is_ack && n > 1 && seq < self.cfg.replicate_first {
            let mut copy = pkt;
            copy.kind = PacketKind::Data { seq, replica: true };
            self.enqueue_on(alternate, copy);
        }
    }
}

/// SplitMix64 finalizer — the per-switch ECMP hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one fabric simulation and returns flow-completion statistics over
/// the measured window (the middle 90 % of flows, excluding warm-up and
/// cool-down edges).
pub fn run(cfg: &SimConfig) -> FctStats {
    let topo = FatTree::new(K);
    let hosts = topo.hosts();
    let mut rng = Rng::seed_from(cfg.seed);
    let dist = FlowSizeDist::default();
    let lambda = arrival_rate_for_load(cfg.load, hosts, cfg.link_rate_bytes_per_sec, &dist);
    let specs = generate_flows(cfg.flows, lambda, hosts, &dist, &mut rng.fork(1));
    let ecmp_salt = rng.fork(2).next_u64();

    let ports: Vec<Port> = (0..topo.links())
        .map(|_| {
            Port::new(
                cfg.link_rate_bytes_per_sec,
                cfg.per_hop_delay,
                DEFAULT_BUFFER_BYTES,
            )
        })
        .collect();
    let senders: Vec<TcpSender> = specs
        .iter()
        .map(|s| TcpSender::new(packets_for(s.bytes)))
        .collect();
    let receivers: Vec<TcpReceiver> = specs
        .iter()
        .map(|s| TcpReceiver::new(packets_for(s.bytes)))
        .collect();

    let n_links = topo.links();
    // A few events per flow plus one per link covers the steady-state
    // population; pre-size so the heap never reallocates mid-run.
    let queue_cap = (4 * specs.len() + n_links).max(4096);
    let mut eng = Engine {
        cfg,
        topo,
        ports,
        in_flight: vec![None; n_links],
        fct: vec![None; specs.len()],
        senders,
        receivers,
        specs,
        q: ShardQueue::with_capacity(0, queue_cap),
        ecmp_salt,
    };

    for (i, s) in eng.specs.iter().enumerate() {
        eng.q
            .push(SimTime::from_secs(s.start), Ev::FlowStart(i as u32));
    }

    // Safety cutoffs: a stuck simulation is a bug, but an experiment sweep
    // should degrade (report incompletes) rather than hang.
    let max_events: u64 = 300_000_000;
    while let Some((_, ev)) = eng.q.pop() {
        match ev {
            Ev::FlowStart(f) => {
                let now = eng.q.now().as_secs();
                let actions = eng.senders[f as usize].on_start(now);
                eng.apply(f, actions);
            }
            Ev::Recv { node, pkt } => eng.on_recv(node, pkt),
            Ev::PortDone(l) => {
                let pkt = eng.in_flight[l as usize]
                    .take()
                    .expect("PortDone without a packet in flight");
                let port = &mut eng.ports[l as usize];
                port.busy = false;
                let to = eng.topo.link(l).to;
                let prop = port.propagation;
                eng.q
                    .push_after(SimTime::from_secs(prop), Ev::Recv { node: to, pkt });
                eng.kick(l);
            }
            Ev::Rto { flow, epoch } => {
                let now = eng.q.now().as_secs();
                let actions = eng.senders[flow as usize].on_timeout(now, epoch);
                eng.apply(flow, actions);
            }
        }
        if eng.q.events_processed() > max_events {
            break;
        }
    }

    // Measured window: drop the first 5% (cold network) and last 5%
    // (draining network) of flows.
    let lo = eng.specs.len() / 20;
    let hi = eng.specs.len() - eng.specs.len() / 20;
    let mut small = SampleSet::new();
    let mut large = SampleSet::new();
    let mut all = SampleSet::new();
    let mut incomplete = 0;
    for i in lo..hi {
        match eng.fct[i] {
            Some(fct) => {
                all.push(fct);
                if eng.specs[i].bytes < 10_000 {
                    small.push(fct);
                } else if eng.specs[i].bytes >= 1_000_000 {
                    large.push(fct);
                }
            }
            None => incomplete += 1,
        }
    }
    let timeouts = eng.senders.iter().map(|s| s.timeouts).sum();
    let drops_high = eng.ports.iter().map(|p| p.dropped_hi).sum();
    let drops_low = eng.ports.iter().map(|p| p.dropped_lo).sum();
    FctStats {
        small,
        large,
        all,
        timeouts,
        drops_high,
        drops_low,
        incomplete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(load: f64, replicate: bool) -> SimConfig {
        SimConfig {
            flows: 4_000,
            load,
            replicate_first: if replicate { 8 } else { 0 },
            ..SimConfig::default()
        }
    }

    #[test]
    fn low_load_flows_all_complete_fast() {
        let mut out = run(&quick_cfg(0.1, false));
        assert_eq!(out.incomplete, 0, "every flow must finish at 10% load");
        // Small flows: a couple of ~50 us RTTs.
        let med = out.small_median();
        assert!(
            med > 20e-6 && med < 2e-3,
            "median small FCT {med} implausible"
        );
    }

    #[test]
    fn fct_has_physical_floor() {
        let mut out = run(&quick_cfg(0.05, false));
        let min = out.all.quantile(0.0);
        // At least one RTT-ish: 2 hops of prop + serialization each way.
        assert!(min > 8.0e-6, "FCT {min} beats physics");
    }

    #[test]
    fn replication_does_not_hurt_small_flows_at_moderate_load() {
        let mut base = run(&quick_cfg(0.4, false));
        let mut repl = run(&quick_cfg(0.4, true));
        assert!(
            repl.small_median() <= base.small_median() * 1.02,
            "replication should not worsen the median: {} vs {}",
            repl.small_median(),
            base.small_median()
        );
    }

    #[test]
    fn replication_improves_median_at_moderate_load() {
        // The paper's headline: tens of percent improvement near 40% load.
        let mut base = run(&quick_cfg(0.4, false));
        let mut repl = run(&quick_cfg(0.4, true));
        let gain = 1.0 - repl.small_median() / base.small_median();
        assert!(
            gain > 0.05,
            "expected a real median win at 40% load, got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn originals_never_dropped_because_of_replicas() {
        // Same seed, same flows: the high-class drop count with replication
        // must not exceed baseline by more than TCP feedback jitter.
        let base = run(&quick_cfg(0.6, false));
        let repl = run(&quick_cfg(0.6, true));
        assert!(
            repl.drops_high <= base.drops_high.max(10) * 3,
            "replica traffic should not displace originals: {} vs {}",
            repl.drops_high,
            base.drops_high
        );
    }

    #[test]
    fn higher_load_means_higher_fct() {
        let mut lo = run(&quick_cfg(0.1, false));
        let mut hi = run(&quick_cfg(0.6, false));
        assert!(hi.small_median() > lo.small_median());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = run(&quick_cfg(0.3, true));
        let mut b = run(&quick_cfg(0.3, true));
        assert_eq!(a.small_median(), b.small_median());
        assert_eq!(a.timeouts, b.timeouts);
    }
}
