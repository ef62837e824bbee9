//! Per-link transport counters, aggregated into a [`TransportReport`]
//! that lands in the runtime's `RunReport` (and from there in the chaos
//! binary's `--json` output).

use rcm_json::{obj, Json};

/// Which transport carried the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Channels inside one process (the default runtime).
    #[default]
    InProcess,
    /// Real UDP front links and TCP back links.
    Sockets,
}

/// Sender-side counters for one DM → CE front link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontLinkStats {
    /// Frames handed to the socket (or channel). On a socket one
    /// datagram carries a feed's whole round — compare against
    /// `updates_sent`.
    pub frames_sent: u64,
    /// Frames dropped before delivery (loss model in-process; send
    /// errors on a socket).
    pub frames_dropped: u64,
    /// Updates handed to the link.
    pub updates_sent: u64,
    /// Updates in the dropped frames: the unit of `updates_sent`.
    pub updates_dropped: u64,
    /// Wire bytes handed to the socket, headers included.
    pub bytes_sent: u64,
}

impl FrontLinkStats {
    fn to_json(self) -> Json {
        obj([
            ("frames_sent", self.frames_sent.into()),
            ("frames_dropped", self.frames_dropped.into()),
            ("updates_sent", self.updates_sent.into()),
            ("updates_dropped", self.updates_dropped.into()),
            ("bytes_sent", self.bytes_sent.into()),
        ])
    }
}

/// Receiver-side counters for one CE's UDP ingress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Datagrams received from the socket.
    pub frames_received: u64,
    /// Updates admitted by the seqno gate and delivered downstream.
    pub delivered: u64,
    /// Updates discarded as reordered/duplicated (seqno not above the
    /// variable's high-water mark).
    pub dropped_stale: u64,
    /// Datagrams that failed to decode (bad version, checksum, codec).
    pub decode_errors: u64,
    /// Distinct end-of-stream markers seen.
    pub fins: u64,
    /// Wire bytes received from the socket, headers included.
    pub bytes_received: u64,
}

impl IngressStats {
    fn to_json(self) -> Json {
        obj([
            ("frames_received", self.frames_received.into()),
            ("delivered", self.delivered.into()),
            ("dropped_stale", self.dropped_stale.into()),
            ("decode_errors", self.decode_errors.into()),
            ("fins", self.fins.into()),
            ("bytes_received", self.bytes_received.into()),
        ])
    }
}

/// Counters for one CE → AD back link, in either transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpLinkStats {
    /// Alerts transmitted (excluding duplicate resends).
    pub sent: u64,
    /// Scripted severances that fired.
    pub severs: u64,
    /// Successful reconnects (the initial connect is not one).
    pub reconnects: u64,
    /// Connect attempts paced by the backoff schedule.
    pub attempts: u64,
    /// Duplicate alerts re-sent from the unacked tail on reconnect.
    pub resent_duplicates: u64,
    /// Peak resend-queue depth while disconnected.
    pub queued_peak: u64,
    /// Alerts lost to resend-queue overflow.
    pub lost_overflow: u64,
    /// Genuine socket errors (connection refused/reset mid-write) —
    /// distinct from scripted severances.
    pub io_errors: u64,
    /// Alert frames written to the stream, one per alert, duplicate
    /// resends included.
    pub frames_sent: u64,
    /// Wire bytes written to the stream, headers included.
    pub bytes_sent: u64,
    /// Alerts shed because the bounded resend queue was full while the
    /// peer was down (each is also counted in `lost_overflow` — this
    /// counter isolates back-pressure sheds from other overflow paths).
    pub shed: u64,
}

impl TcpLinkStats {
    fn to_json(self) -> Json {
        obj([
            ("sent", self.sent.into()),
            ("severs", self.severs.into()),
            ("reconnects", self.reconnects.into()),
            ("attempts", self.attempts.into()),
            ("resent_duplicates", self.resent_duplicates.into()),
            ("queued_peak", self.queued_peak.into()),
            ("lost_overflow", self.lost_overflow.into()),
            ("io_errors", self.io_errors.into()),
            ("frames_sent", self.frames_sent.into()),
            ("bytes_sent", self.bytes_sent.into()),
            ("shed", self.shed.into()),
        ])
    }
}

/// Counters for the AD-side TCP listener.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListenerStats {
    /// Connections accepted (reconnects count again).
    pub connections: u64,
    /// Alert frames received across all connections.
    pub alerts: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Distinct end-of-stream markers seen.
    pub fins: u64,
    /// Wire bytes received across all connections, headers included.
    pub bytes_received: u64,
}

impl ListenerStats {
    fn to_json(self) -> Json {
        obj([
            ("connections", self.connections.into()),
            ("alerts", self.alerts.into()),
            ("decode_errors", self.decode_errors.into()),
            ("fins", self.fins.into()),
            ("bytes_received", self.bytes_received.into()),
        ])
    }
}

/// Event-loop counters from the evented engine (all zero on the
/// threaded path and in-process runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Times the loop's readiness wait returned (readiness, timer
    /// deadline, or an explicit wake).
    pub wakeups: u64,
    /// Timer-wheel deadlines that fired.
    pub timer_fires: u64,
    /// Readable wakeups that yielded zero bytes/frames — the kernel
    /// said "ready", the read said `WouldBlock`.
    pub spurious_readiness: u64,
}

impl EngineStats {
    /// The counters as `--json` reports write them, one key per field.
    pub fn to_json(&self) -> Json {
        obj([
            ("wakeups", self.wakeups.into()),
            ("timer_fires", self.timer_fires.into()),
            ("spurious_readiness", self.spurious_readiness.into()),
        ])
    }
}

/// Counters for one [`LossProxy`](crate::LossProxy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Datagrams forwarded to the target.
    pub forwarded: u64,
    /// Datagrams eaten by the loss model.
    pub dropped: u64,
}

/// Everything the transport layer observed over one run.
///
/// The in-process links count into the same blocks as the socket links,
/// so `front_links` and `back_links` read alike in both modes: a channel
/// frame is one update, and a channel carries no wire bytes or socket
/// errors. In-process runs leave `ingress` empty and `ad` and `engine`
/// zeroed; socket runs fill all of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportReport {
    /// Which transport carried the run.
    pub mode: TransportMode,
    /// Sender-side front-link counters as `(feed, ce, stats)`, in
    /// builder feed order.
    pub front_links: Vec<(usize, usize, FrontLinkStats)>,
    /// Per-CE UDP ingress counters (socket mode only), indexed by
    /// replica.
    pub ingress: Vec<IngressStats>,
    /// Per-CE back-link counters, indexed by replica.
    pub back_links: Vec<TcpLinkStats>,
    /// AD-side listener counters (zeroed in-process).
    pub ad: ListenerStats,
    /// Event-loop counters (zeroed on the threaded path).
    pub engine: EngineStats,
}

impl TransportReport {
    /// The report as chaos `--json` writes it: one key per field, the
    /// mode as its variant name and each front link as a
    /// `[feed, ce, stats]` triple.
    pub fn to_json(&self) -> Json {
        let mode = match self.mode {
            TransportMode::InProcess => "InProcess",
            TransportMode::Sockets => "Sockets",
        };
        let front_links = self.front_links.iter().map(|(feed, ce, stats)| {
            Json::Arr(vec![(*feed).into(), (*ce).into(), stats.to_json()])
        });
        obj([
            ("mode", mode.into()),
            ("front_links", front_links.collect()),
            ("ingress", self.ingress.iter().map(|s| s.to_json()).collect()),
            ("back_links", self.back_links.iter().map(|s| s.to_json()).collect()),
            ("ad", self.ad.to_json()),
            ("engine", self.engine.to_json()),
        ])
    }

    /// Total frames dropped on front links (sender side).
    pub fn front_frames_dropped(&self) -> u64 {
        self.front_links.iter().map(|(_, _, s)| s.frames_dropped).sum()
    }

    /// Total successful back-link reconnects.
    pub fn reconnects(&self) -> u64 {
        self.back_links.iter().map(|s| s.reconnects).sum()
    }

    /// Total decode errors seen anywhere (ingress + listener).
    pub fn decode_errors(&self) -> u64 {
        self.ingress.iter().map(|s| s.decode_errors).sum::<u64>() + self.ad.decode_errors
    }

    /// Total frames handed to front links (sender side).
    pub fn front_frames_sent(&self) -> u64 {
        self.front_links.iter().map(|(_, _, s)| s.frames_sent).sum()
    }

    /// Total updates handed to front links (sender side).
    pub fn front_updates_sent(&self) -> u64 {
        self.front_links.iter().map(|(_, _, s)| s.updates_sent).sum()
    }

    /// Total wire bytes put on front links (sender side).
    pub fn front_bytes_sent(&self) -> u64 {
        self.front_links.iter().map(|(_, _, s)| s.bytes_sent).sum()
    }

    /// Mean updates per front-link datagram: how many readings a feed's
    /// round carries. `0.0` when no frames were sent (or the run
    /// predates the counter).
    pub fn updates_per_datagram(&self) -> f64 {
        let frames = self.front_frames_sent();
        if frames == 0 {
            0.0
        } else {
            self.front_updates_sent() as f64 / frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_stable_field_names() {
        let report = TransportReport {
            mode: TransportMode::Sockets,
            front_links: vec![(
                0,
                1,
                FrontLinkStats {
                    frames_sent: 10,
                    frames_dropped: 2,
                    updates_sent: 10,
                    updates_dropped: 2,
                    bytes_sent: 500,
                },
            )],
            ingress: vec![IngressStats { frames_received: 8, delivered: 8, ..Default::default() }],
            back_links: vec![TcpLinkStats { sent: 3, reconnects: 1, ..Default::default() }],
            ad: ListenerStats {
                connections: 2,
                alerts: 3,
                decode_errors: 0,
                fins: 1,
                bytes_received: 120,
            },
            engine: EngineStats { wakeups: 40, timer_fires: 6, spurious_readiness: 1 },
        };
        // `xtask assert-chaos` reads these keys; keep them stable.
        assert_eq!(
            report.to_json().to_string(),
            concat!(
                r#"{"mode":"Sockets","front_links":[[0,1,{"frames_sent":10,"frames_dropped":2,"#,
                r#""updates_sent":10,"updates_dropped":2,"bytes_sent":500}]],"#,
                r#""ingress":[{"frames_received":8,"#,
                r#""delivered":8,"dropped_stale":0,"decode_errors":0,"fins":0,"bytes_received":0}],"#,
                r#""back_links":[{"sent":3,"severs":0,"reconnects":1,"attempts":0,"#,
                r#""resent_duplicates":0,"queued_peak":0,"lost_overflow":0,"io_errors":0,"#,
                r#""frames_sent":0,"bytes_sent":0,"shed":0}],"#,
                r#""ad":{"connections":2,"alerts":3,"decode_errors":0,"fins":1,"bytes_received":120},"#,
                r#""engine":{"wakeups":40,"timer_fires":6,"spurious_readiness":1}}"#,
            )
        );
        let mode = TransportReport::default().to_json();
        assert_eq!(mode.get("mode").and_then(Json::as_str), Some("InProcess"));
    }

    #[test]
    fn rollups_sum_across_links() {
        let report = TransportReport {
            mode: TransportMode::Sockets,
            front_links: vec![
                (
                    0,
                    0,
                    FrontLinkStats {
                        frames_sent: 5,
                        frames_dropped: 1,
                        updates_sent: 20,
                        updates_dropped: 4,
                        bytes_sent: 250,
                    },
                ),
                (
                    0,
                    1,
                    FrontLinkStats {
                        frames_sent: 5,
                        frames_dropped: 2,
                        updates_sent: 20,
                        updates_dropped: 8,
                        bytes_sent: 250,
                    },
                ),
            ],
            ingress: vec![IngressStats { decode_errors: 1, ..Default::default() }],
            back_links: vec![
                TcpLinkStats { reconnects: 1, ..Default::default() },
                TcpLinkStats { reconnects: 2, ..Default::default() },
            ],
            ad: ListenerStats { decode_errors: 1, ..Default::default() },
            engine: EngineStats::default(),
        };
        assert_eq!(report.front_frames_dropped(), 3);
        assert_eq!(report.reconnects(), 3);
        assert_eq!(report.decode_errors(), 2);
        assert_eq!(report.front_frames_sent(), 10);
        assert_eq!(report.front_updates_sent(), 40);
        assert_eq!(report.front_bytes_sent(), 500);
        assert!((report.updates_per_datagram() - 4.0).abs() < f64::EPSILON);
    }

    #[test]
    fn ratio_rollups_are_zero_without_frames() {
        let report = TransportReport::default();
        assert_eq!(report.updates_per_datagram(), 0.0);
    }
}
