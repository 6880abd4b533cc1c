//! A NewReno-style TCP, packet-granular, for flow transport in the fabric.
//!
//! The paper's §2.4 results hinge on three transport behaviours:
//!
//! 1. **Self-clocked windows** — short flows finish in a couple of RTTs
//!    unless queueing or loss intervenes;
//! 2. **Fast retransmit** on three duplicate ACKs — recovery without
//!    stalling when a single packet dies;
//! 3. **The retransmission timeout with a 10 ms floor** — the paper's
//!    Fig 14(b) spike is explicitly attributed to flows avoiding
//!    `minRTO = 10 ms` timeouts when replicas slip a copy through.
//!
//! Sequence numbers are in *packets*, not bytes (every data packet is a
//! full MSS except the last); this keeps the bookkeeping exact while
//! halving the state. The sender is a pure state machine: every input
//! (`on_start`, `on_ack`, `on_timeout`) returns the [`TcpActions`] the
//! simulator must perform — segments to emit and timer (re)arming — so the
//! logic is directly unit-testable without an event loop.

/// Initial congestion window, packets.
const INIT_CWND: f64 = 4.0;
/// Initial slow-start threshold, packets.
const INIT_SSTHRESH: f64 = 64.0;
/// Minimum (and initial) retransmission timeout — the paper's 10 ms.
const MIN_RTO: f64 = 10.0e-3;
/// Upper clamp on the backed-off RTO.
const MAX_RTO: f64 = 2.0;

/// What the simulator must do after feeding the sender an input.
#[derive(Debug, Default)]
pub struct TcpActions {
    /// Packet sequence numbers to transmit (in order).
    pub send: Vec<u32>,
    /// `Some(delay)`: (re)arm the retransmission timer `delay` seconds from
    /// now, superseding any earlier timer (the sender's `timer_epoch` has
    /// been bumped accordingly).
    pub arm_timer: Option<f64>,
    /// The flow just completed.
    pub completed: bool,
}

/// Sender-side state for one flow.
#[derive(Debug)]
pub struct TcpSender {
    /// Total data packets in the flow.
    pub total_pkts: u32,
    snd_una: u32,
    next_seq: u32,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    recover: u32,
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    /// Monotonic epoch; timers scheduled with an older epoch are stale.
    pub timer_epoch: u64,
    send_time: Vec<f64>,
    retransmitted: Vec<bool>,
    /// Completed flag (all packets cumulatively acked).
    pub completed: bool,
    /// Number of RTO events taken (Fig 14(b)'s diagnostic).
    pub timeouts: u64,
}

impl TcpSender {
    /// New sender for a flow of `total_pkts` packets.
    pub fn new(total_pkts: u32) -> Self {
        assert!(total_pkts >= 1);
        TcpSender {
            total_pkts,
            snd_una: 0,
            next_seq: 0,
            cwnd: INIT_CWND,
            ssthresh: INIT_SSTHRESH,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: 0.0,
            rto: MIN_RTO,
            timer_epoch: 0,
            send_time: vec![f64::NAN; total_pkts as usize],
            retransmitted: vec![false; total_pkts as usize],
            completed: false,
            timeouts: 0,
        }
    }

    /// Current congestion window (packets).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current smoothed RTT estimate, if any.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Current RTO.
    pub fn rto(&self) -> f64 {
        self.rto
    }

    /// First unacknowledged packet.
    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    fn flight(&self) -> u32 {
        self.next_seq - self.snd_una
    }

    fn fill_window(&mut self, now: f64, out: &mut Vec<u32>) {
        while self.next_seq < self.total_pkts && (self.flight() as f64) < self.cwnd.floor() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.send_time[seq as usize] = now;
            out.push(seq);
        }
    }

    fn arm(&mut self) -> Option<f64> {
        self.timer_epoch += 1;
        Some(self.rto)
    }

    /// Opens the flow: emits the initial window and arms the timer.
    pub fn on_start(&mut self, now: f64) -> TcpActions {
        let mut act = TcpActions::default();
        self.fill_window(now, &mut act.send);
        act.arm_timer = self.arm();
        act
    }

    /// Processes a cumulative ACK for "next expected packet" `cum`.
    pub fn on_ack(&mut self, now: f64, cum: u32) -> TcpActions {
        let mut act = TcpActions::default();
        if self.completed {
            return act;
        }
        if cum > self.snd_una {
            let newly = cum - self.snd_una;
            // RTT sample from the highest newly-acked packet, Karn's rule.
            let idx = (cum - 1) as usize;
            if !self.retransmitted[idx] && self.send_time[idx].is_finite() {
                self.rtt_sample(now - self.send_time[idx]);
            }
            self.snd_una = cum;
            self.dupacks = 0;

            if self.in_recovery {
                if cum >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: retransmit the next hole.
                    self.retransmit(self.snd_una, now, &mut act.send);
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly as f64; // slow start
            } else {
                self.cwnd += newly as f64 / self.cwnd; // congestion avoidance
            }

            if self.snd_una >= self.total_pkts {
                self.completed = true;
                self.timer_epoch += 1; // cancel outstanding timer
                act.completed = true;
                return act;
            }
            self.fill_window(now, &mut act.send);
            act.arm_timer = self.arm();
        } else {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.dupacks == 3 && !self.in_recovery {
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.in_recovery = true;
                self.recover = self.next_seq;
                self.retransmit(self.snd_una, now, &mut act.send);
                act.arm_timer = self.arm();
            }
        }
        act
    }

    /// Fires the retransmission timer scheduled at `epoch`. Stale or
    /// post-completion timers are ignored.
    pub fn on_timeout(&mut self, now: f64, epoch: u64) -> TcpActions {
        let mut act = TcpActions::default();
        if self.completed || epoch != self.timer_epoch {
            return act;
        }
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.in_recovery = false;
        self.dupacks = 0;
        // Exponential backoff, clamped.
        self.rto = (self.rto * 2.0).min(MAX_RTO);
        self.retransmit(self.snd_una, now, &mut act.send);
        act.arm_timer = self.arm();
        act
    }

    fn retransmit(&mut self, seq: u32, now: f64, out: &mut Vec<u32>) {
        let idx = seq as usize;
        self.retransmitted[idx] = true;
        self.send_time[idx] = now;
        out.push(seq);
    }

    fn rtt_sample(&mut self, rtt: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2.0;
            }
            Some(srtt) => {
                let err = (srtt - rtt).abs();
                self.rttvar = 0.75 * self.rttvar + 0.25 * err;
                self.srtt = Some(0.875 * srtt + 0.125 * rtt);
            }
        }
        let base = self.srtt.unwrap() + (4.0 * self.rttvar).max(1.0e-6);
        self.rto = base.clamp(MIN_RTO, MAX_RTO);
    }
}

/// Receiver-side state: packet-granular cumulative ACKs with
/// replica-aware duplicate handling.
///
/// Two different kinds of "duplicate" must be treated differently:
///
/// * a duplicate **replica** (the original or another copy already
///   delivered this seq) is deduped *silently* — the replication shim sits
///   below TCP, and replicas must never manufacture ACK traffic;
/// * a duplicate **original** (a spurious retransmission) is ACKed with the
///   current cumulative value, exactly like real TCP — this is what lets a
///   sender whose ACK was lost learn that its data actually arrived.
///   Swallowing these would livelock such flows in an RTO loop.
#[derive(Debug)]
pub struct TcpReceiver {
    received: Vec<bool>,
    cum: u32,
}

impl TcpReceiver {
    /// New receiver expecting `total_pkts`.
    pub fn new(total_pkts: u32) -> Self {
        TcpReceiver {
            received: vec![false; total_pkts as usize],
            cum: 0,
        }
    }

    /// Next expected packet.
    pub fn cum(&self) -> u32 {
        self.cum
    }

    /// Handles an arriving data packet (`replica` = in-network copy);
    /// returns the cumulative ACK to send, or `None` when the packet is
    /// suppressed by the dedup shim.
    pub fn on_data(&mut self, seq: u32, replica: bool) -> Option<u32> {
        let idx = seq as usize;
        if idx >= self.received.len() {
            return None;
        }
        if self.received[idx] {
            // Duplicate: replicas vanish below TCP; duplicate originals
            // still elicit an ACK (lost-ACK recovery).
            return if replica { None } else { Some(self.cum) };
        }
        self.received[idx] = true;
        while (self.cum as usize) < self.received.len() && self.received[self.cum as usize] {
            self.cum += 1;
        }
        Some(self.cum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_flow_completes_in_order() {
        let mut s = TcpSender::new(3);
        let mut r = TcpReceiver::new(3);
        let act = s.on_start(0.0);
        assert_eq!(act.send, vec![0, 1, 2]);
        let mut done = false;
        for seq in act.send {
            if let Some(cum) = r.on_data(seq, false) {
                let a = s.on_ack(0.001, cum);
                done |= a.completed;
            }
        }
        assert!(done && s.completed);
    }

    #[test]
    fn initial_window_respects_cwnd() {
        let mut s = TcpSender::new(100);
        let act = s.on_start(0.0);
        assert_eq!(act.send.len(), 4, "IW = 4");
        assert!(act.arm_timer.is_some());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(1000);
        let w0 = s.on_start(0.0).send.len();
        // Ack the whole first window: cwnd should double.
        let a = s.on_ack(0.001, w0 as u32);
        assert_eq!(a.send.len(), 2 * w0, "slow start should double the window");
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = TcpSender::new(100);
        let _ = s.on_start(0.0);
        // Grow the window a bit.
        let mut acts = s.on_ack(0.001, 2);
        assert!(!acts.send.is_empty());
        let cwnd_before = s.cwnd();
        // Packet 2 lost: dupacks for cum=2.
        for i in 0..2 {
            let a = s.on_ack(0.002 + i as f64 * 1e-4, 2);
            assert!(a.send.is_empty(), "no retransmit before 3rd dupack");
        }
        acts = s.on_ack(0.003, 2);
        assert_eq!(acts.send, vec![2], "fast retransmit of the hole");
        assert!(s.cwnd() < cwnd_before, "window must shrink");
    }

    #[test]
    fn timeout_collapses_window_and_backs_off() {
        let mut s = TcpSender::new(100);
        let act = s.on_start(0.0);
        let epoch = s.timer_epoch;
        let rto0 = s.rto();
        assert!(
            (rto0 - 0.010).abs() < 1e-12,
            "initial RTO at the 10 ms floor"
        );
        drop(act);
        let a = s.on_timeout(0.010, epoch);
        assert_eq!(a.send, vec![0], "retransmit from snd_una");
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.timeouts, 1);
        assert!((s.rto() - 0.020).abs() < 1e-12, "RTO doubled");
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut s = TcpSender::new(10);
        let _ = s.on_start(0.0);
        let old_epoch = s.timer_epoch;
        let _ = s.on_ack(0.001, 1); // re-arms, bumping the epoch
        let a = s.on_timeout(0.010, old_epoch);
        assert!(a.send.is_empty());
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn rtt_sampling_sets_rto_with_floor() {
        let mut s = TcpSender::new(100);
        let _ = s.on_start(0.0);
        let _ = s.on_ack(100e-6, 1); // 100 us RTT
        assert!(s.srtt().is_some());
        assert!((s.srtt().unwrap() - 100e-6).abs() < 1e-9);
        assert_eq!(s.rto(), 0.010, "RTO clamps at the 10 ms floor");
    }

    #[test]
    fn karns_rule_skips_retransmitted_samples() {
        let mut s = TcpSender::new(10);
        let _ = s.on_start(0.0);
        let epoch = s.timer_epoch;
        let _ = s.on_timeout(0.010, epoch); // retransmits packet 0
        let _ = s.on_ack(5.0, 1); // absurd RTT that must NOT be sampled
        assert!(
            s.srtt().is_none(),
            "retransmitted packet must not be sampled"
        );
    }

    #[test]
    fn receiver_dedups_replicas_but_acks_duplicate_originals() {
        let mut r = TcpReceiver::new(4);
        assert_eq!(r.on_data(0, false), Some(1));
        assert_eq!(
            r.on_data(2, true),
            Some(1),
            "replica delivering first counts"
        );
        assert_eq!(r.on_data(2, true), None, "duplicate replica suppressed");
        assert_eq!(
            r.on_data(2, false),
            Some(1),
            "duplicate original must be ACKed (lost-ACK recovery)"
        );
        assert_eq!(r.on_data(1, false), Some(3), "hole filled: cum jumps");
        assert_eq!(r.on_data(3, false), Some(4));
        assert_eq!(r.on_data(9, false), None, "out-of-range ignored");
    }

    #[test]
    fn full_transfer_with_loss_recovers() {
        // Deterministic mini-harness: direct wire with one lost packet.
        let mut s = TcpSender::new(20);
        let mut r = TcpReceiver::new(20);
        let mut now = 0.0;
        let mut wire: Vec<u32> = s.on_start(now).send;
        let mut lost_once = false;
        let mut completed = false;
        let mut guard = 0;
        while !completed && guard < 1000 {
            guard += 1;
            now += 1e-4;
            let mut acks = Vec::new();
            for seq in wire.drain(..) {
                if seq == 5 && !lost_once {
                    lost_once = true; // drop exactly once
                    continue;
                }
                if let Some(c) = r.on_data(seq, false) {
                    acks.push(c);
                }
            }
            let mut next_wire = Vec::new();
            for c in acks {
                let a = s.on_ack(now, c);
                completed |= a.completed;
                next_wire.extend(a.send);
            }
            if next_wire.is_empty() && !completed {
                // Drive the timer if everything stalls.
                let a = s.on_timeout(now + s.rto(), s.timer_epoch);
                next_wire.extend(a.send);
            }
            wire = next_wire;
        }
        assert!(completed, "transfer must finish despite the loss");
    }
}
