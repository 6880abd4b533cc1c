//! Packets and wire constants.

use crate::topology::NodeId;

/// Maximum segment size for data packets (bytes of payload).
pub const MSS: u32 = 1460;
/// Header overhead per packet (Ethernet + IP + TCP), bytes.
pub const HEADER_BYTES: u32 = 40;
/// ACK packet size on the wire.
pub const ACK_BYTES: u32 = HEADER_BYTES;

/// Scheduling class at switch ports: the paper's replicas are strictly
/// lower priority than all original traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Original data and ACKs.
    High,
    /// Replicated copies.
    Low,
}

/// What the packet carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment: `seq` is the packet index within the flow.
    Data {
        /// Packet index within the flow (0-based).
        seq: u32,
        /// `true` for in-network replicas (low priority, deduped at the
        /// receiver, never re-replicated).
        replica: bool,
    },
    /// A cumulative acknowledgment: `cum` is the next expected packet.
    Ack {
        /// Next expected packet index.
        cum: u32,
    },
}

/// A packet in flight.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: u32,
    /// Payload + kind.
    pub kind: PacketKind,
    /// Total wire size in bytes (payload + headers).
    pub bytes: u32,
    /// Destination host.
    pub dst: NodeId,
}

impl Packet {
    /// Scheduling class.
    pub fn priority(&self) -> Priority {
        match self.kind {
            PacketKind::Data { replica: true, .. } => Priority::Low,
            _ => Priority::High,
        }
    }
}

/// Number of full-or-partial data packets needed for `bytes` of payload.
pub fn packets_for(bytes: u64) -> u32 {
    (bytes.max(1)).div_ceil(MSS as u64) as u32
}

/// Wire size of data packet `seq` of a flow with `total_bytes` payload.
pub fn data_packet_bytes(total_bytes: u64, seq: u32) -> u32 {
    let total = packets_for(total_bytes);
    debug_assert!(seq < total);
    let payload = if seq + 1 == total {
        let rem = (total_bytes - (total as u64 - 1) * MSS as u64) as u32;
        rem.max(1)
    } else {
        MSS
    };
    payload + HEADER_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_count_rounds_up() {
        assert_eq!(packets_for(1), 1);
        assert_eq!(packets_for(1460), 1);
        assert_eq!(packets_for(1461), 2);
        assert_eq!(packets_for(10_000), 7);
        assert_eq!(packets_for(3 * 1024 * 1024), 2155);
    }

    #[test]
    fn last_packet_carries_remainder() {
        let total = 10_000u64; // 6*1460 + 1240
        assert_eq!(data_packet_bytes(total, 0), 1460 + 40);
        assert_eq!(data_packet_bytes(total, 6), 1240 + 40);
    }

    #[test]
    fn priorities() {
        let d = Packet {
            flow: 0,
            kind: PacketKind::Data {
                seq: 0,
                replica: false,
            },
            bytes: 1500,
            dst: 1,
        };
        let r = Packet {
            kind: PacketKind::Data {
                seq: 0,
                replica: true,
            },
            ..d
        };
        let a = Packet {
            kind: PacketKind::Ack { cum: 1 },
            bytes: ACK_BYTES,
            ..d
        };
        assert_eq!(d.priority(), Priority::High);
        assert_eq!(r.priority(), Priority::Low);
        assert_eq!(a.priority(), Priority::High);
    }
}
