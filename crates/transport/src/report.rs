//! Per-link transport counters, aggregated into a [`TransportReport`]
//! that lands in the runtime's `RunReport` (and from there in the chaos
//! binary's `--json` output).
//!
//! Each counter block is one struct, generic over its cell. A link
//! counts into the block with [`AtomicU64`] cells, behind an `Arc` that
//! whoever reads it holds: one thread writes a block, any thread may
//! read it while the link runs, and no lock is ever taken. `snapshot()`
//! reads the live block into the same struct with `u64` cells (the
//! default), which is what reports, tests and `--json` use. A field and
//! its doc comment are written once, for both forms.

// LOCK ORDER: no locks — cross-thread visibility is atomics only.

use rcm_json::{obj, Json};
use rcm_sync::atomic::{AtomicU64, Ordering};

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
pub struct FrontLinkStats<C = u64> {
    /// Frames handed to the socket (or channel). On a socket one
    /// datagram carries a whole DM round, every feed's readings of it,
    /// and counts once, on the row of the feed that opens it — compare
    /// the sum against `updates_sent`.
    pub frames_sent: C,
    /// Frames dropped before delivery (loss model in-process; send
    /// errors on a socket).
    pub frames_dropped: C,
    /// Updates handed to the link.
    pub updates_sent: C,
    /// Updates in the dropped frames: the unit of `updates_sent`.
    pub updates_dropped: C,
    /// Wire bytes handed to the socket, headers included.
    pub bytes_sent: C,
}

impl FrontLinkStats<AtomicU64> {
    /// The counters as they stand.
    pub fn snapshot(&self) -> FrontLinkStats {
        FrontLinkStats {
            frames_sent: load(&self.frames_sent),
            frames_dropped: load(&self.frames_dropped),
            updates_sent: load(&self.updates_sent),
            updates_dropped: load(&self.updates_dropped),
            bytes_sent: load(&self.bytes_sent),
        }
    }
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
pub struct IngressStats<C = u64> {
    /// Datagrams received from the socket.
    pub frames_received: C,
    /// Updates admitted by the seqno gate and delivered downstream.
    pub delivered: C,
    /// Updates discarded as reordered/duplicated (seqno not above the
    /// variable's high-water mark).
    pub dropped_stale: C,
    /// Datagrams that failed to decode (bad version, checksum, codec),
    /// or decoded as a message that does not belong on a front link.
    pub decode_errors: C,
    /// Distinct end-of-stream markers seen.
    pub fins: C,
    /// Wire bytes received from the socket, headers included.
    pub bytes_received: C,
}

impl IngressStats<AtomicU64> {
    /// The counters as they stand.
    pub fn snapshot(&self) -> IngressStats {
        IngressStats {
            frames_received: load(&self.frames_received),
            delivered: load(&self.delivered),
            dropped_stale: load(&self.dropped_stale),
            decode_errors: load(&self.decode_errors),
            fins: load(&self.fins),
            bytes_received: load(&self.bytes_received),
        }
    }
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
pub struct BackLinkStats<C = u64> {
    /// Alerts transmitted (excluding duplicate resends).
    pub sent: C,
    /// Scripted severances that fired.
    pub severs: C,
    /// Successful reconnects (the initial connect is not one).
    pub reconnects: C,
    /// Reconnect attempts: over sockets paced by the backoff schedule;
    /// in-process every attempt is a reconnect.
    pub attempts: C,
    /// Duplicate alerts re-sent from the unacked tail on reconnect.
    pub resent_duplicates: C,
    /// Peak resend-queue depth while disconnected.
    pub queued_peak: C,
    /// Alerts lost to resend-queue overflow — the only permitted alert
    /// loss: more alerts than [`Outbox::QUEUE_CAP`](crate::Outbox::QUEUE_CAP)
    /// sent during one outage, or a queue a socket link's `finish` gave
    /// up on when its peer stayed away past the deadline.
    pub lost_overflow: C,
    /// Genuine socket errors (connection refused/reset mid-write) —
    /// distinct from scripted severances.
    pub io_errors: C,
    /// Alert frames written to the stream, one per alert, duplicate
    /// resends included.
    pub frames_sent: C,
    /// Wire bytes written to the stream, headers included.
    pub bytes_sent: C,
}

impl BackLinkStats<AtomicU64> {
    /// Raises `queued_peak` to `depth` if higher. A load-compare-store
    /// pair, not a fetch-max: the link's sending thread is the one
    /// writer, so the pair cannot race, and the model checker's atomics
    /// stay minimal.
    pub fn observe_queue_depth(&self, depth: u64) {
        if depth > load(&self.queued_peak) {
            self.queued_peak.store(depth, Ordering::SeqCst);
        }
    }

    /// The counters as they stand.
    pub fn snapshot(&self) -> BackLinkStats {
        BackLinkStats {
            sent: load(&self.sent),
            severs: load(&self.severs),
            reconnects: load(&self.reconnects),
            attempts: load(&self.attempts),
            resent_duplicates: load(&self.resent_duplicates),
            queued_peak: load(&self.queued_peak),
            lost_overflow: load(&self.lost_overflow),
            io_errors: load(&self.io_errors),
            frames_sent: load(&self.frames_sent),
            bytes_sent: load(&self.bytes_sent),
        }
    }
}

impl BackLinkStats {
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
        ])
    }
}

/// Counters for the AD-side TCP listener.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListenerStats<C = u64> {
    /// Connections accepted (reconnects count again).
    pub connections: C,
    /// Alert frames received across all connections.
    pub alerts: C,
    /// Frames that failed to decode, or decoded as an update, which
    /// does not belong on a back link.
    pub decode_errors: C,
    /// Distinct end-of-stream markers seen.
    pub fins: C,
    /// Wire bytes received across all connections, headers included.
    pub bytes_received: C,
}

impl ListenerStats<AtomicU64> {
    /// The counters as they stand.
    pub fn snapshot(&self) -> ListenerStats {
        ListenerStats {
            connections: load(&self.connections),
            alerts: load(&self.alerts),
            decode_errors: load(&self.decode_errors),
            fins: load(&self.fins),
            bytes_received: load(&self.bytes_received),
        }
    }
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

/// Event-loop counters from the evented engine (all zero in-process,
/// where no loop runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats<C = u64> {
    /// Times the loop's readiness wait returned (readiness, timer
    /// deadline, or an explicit wake).
    pub wakeups: C,
    /// Timer-wheel deadlines that fired.
    pub timer_fires: C,
    /// Readable wakeups that yielded zero bytes/frames — the kernel
    /// said "ready", the read said `WouldBlock`.
    pub spurious_readiness: C,
}

impl EngineStats<AtomicU64> {
    /// The counters as they stand.
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            wakeups: load(&self.wakeups),
            timer_fires: load(&self.timer_fires),
            spurious_readiness: load(&self.spurious_readiness),
        }
    }
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

/// One counter's value.
fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::SeqCst)
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
    /// Sender-side front-link counters as `(feed, ce, stats)`: one row
    /// per paper front link, feed-major in builder feed order. A row's
    /// `updates_sent` and `updates_dropped` are that feed's updates to
    /// that CE. In-process a frame is one update. Over sockets one
    /// datagram per CE carries a whole round of every feed, and counts
    /// its frame and bytes on the row of the feed whose update opens it,
    /// so a CE's rows sum to the datagrams its link sent.
    pub front_links: Vec<(usize, usize, FrontLinkStats)>,
    /// Per-CE UDP ingress counters (socket mode only), indexed by
    /// replica.
    pub ingress: Vec<IngressStats>,
    /// Per-CE back-link counters, indexed by replica.
    pub back_links: Vec<BackLinkStats>,
    /// AD-side listener counters (zeroed in-process).
    pub ad: ListenerStats,
    /// Event-loop counters (zeroed in-process).
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

    /// Total scripted back-link severances that fired.
    pub fn severs(&self) -> u64 {
        self.back_links.iter().map(|s| s.severs).sum()
    }

    /// Total successful back-link reconnects.
    pub fn reconnects(&self) -> u64 {
        self.back_links.iter().map(|s| s.reconnects).sum()
    }

    /// Total duplicate alerts re-sent from back links' unacked tails.
    pub fn resent_duplicates(&self) -> u64 {
        self.back_links.iter().map(|s| s.resent_duplicates).sum()
    }

    /// Total alerts lost to back-link resend-queue overflow.
    pub fn lost_overflow(&self) -> u64 {
        self.back_links.iter().map(|s| s.lost_overflow).sum()
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

    /// Mean updates per front-link datagram: how many readings a round
    /// carries. `0.0` when no frames were sent.
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
            back_links: vec![BackLinkStats { sent: 3, reconnects: 1, ..Default::default() }],
            ad: ListenerStats {
                connections: 2,
                alerts: 3,
                decode_errors: 0,
                fins: 1,
                bytes_received: 120,
            },
            engine: EngineStats { wakeups: 40, timer_fires: 6, spurious_readiness: 1 },
        };
        // `scale --json` and chaos `--json` carry these keys; keep them stable.
        assert_eq!(
            report.to_json().to_string(),
            concat!(
                r#"{"mode":"Sockets","front_links":[[0,1,{"frames_sent":10,"frames_dropped":2,"#,
                r#""updates_sent":10,"updates_dropped":2,"bytes_sent":500}]],"#,
                r#""ingress":[{"frames_received":8,"#,
                r#""delivered":8,"dropped_stale":0,"decode_errors":0,"fins":0,"bytes_received":0}],"#,
                r#""back_links":[{"sent":3,"severs":0,"reconnects":1,"attempts":0,"#,
                r#""resent_duplicates":0,"queued_peak":0,"lost_overflow":0,"io_errors":0,"#,
                r#""frames_sent":0,"bytes_sent":0}],"#,
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
                BackLinkStats { reconnects: 1, severs: 1, lost_overflow: 3, ..Default::default() },
                BackLinkStats {
                    reconnects: 2,
                    severs: 2,
                    resent_duplicates: 5,
                    ..Default::default()
                },
            ],
            ad: ListenerStats { decode_errors: 1, ..Default::default() },
            engine: EngineStats::default(),
        };
        assert_eq!(report.front_frames_dropped(), 3);
        assert_eq!(report.reconnects(), 3);
        assert_eq!(report.severs(), 3);
        assert_eq!(report.resent_duplicates(), 5);
        assert_eq!(report.lost_overflow(), 3);
        assert_eq!(report.decode_errors(), 2);
        assert_eq!(report.front_frames_sent(), 10);
        assert_eq!(report.front_updates_sent(), 40);
        assert_eq!(report.front_bytes_sent(), 500);
        assert!((report.updates_per_datagram() - 4.0).abs() < f64::EPSILON);
    }

    /// Each live block is built field by field, so a field added to a
    /// block and missed by its `snapshot` fails to compile here, and one
    /// read from the wrong cell fails the comparison.
    #[test]
    fn snapshots_mirror_the_atomic_blocks() {
        let n = AtomicU64::new;
        let front = FrontLinkStats {
            frames_sent: n(1),
            frames_dropped: n(2),
            updates_sent: n(3),
            updates_dropped: n(4),
            bytes_sent: n(5),
        };
        assert_eq!(
            front.snapshot(),
            FrontLinkStats {
                frames_sent: 1,
                frames_dropped: 2,
                updates_sent: 3,
                updates_dropped: 4,
                bytes_sent: 5
            }
        );

        let ingress = IngressStats {
            frames_received: n(1),
            delivered: n(2),
            dropped_stale: n(3),
            decode_errors: n(4),
            fins: n(5),
            bytes_received: n(6),
        };
        assert_eq!(
            ingress.snapshot(),
            IngressStats {
                frames_received: 1,
                delivered: 2,
                dropped_stale: 3,
                decode_errors: 4,
                fins: 5,
                bytes_received: 6
            }
        );

        let back = BackLinkStats {
            sent: n(1),
            severs: n(2),
            reconnects: n(3),
            attempts: n(4),
            resent_duplicates: n(5),
            queued_peak: n(6),
            lost_overflow: n(7),
            io_errors: n(8),
            frames_sent: n(9),
            bytes_sent: n(10),
        };
        back.observe_queue_depth(4); // lower: the peak sticks
        assert_eq!(
            back.snapshot(),
            BackLinkStats {
                sent: 1,
                severs: 2,
                reconnects: 3,
                attempts: 4,
                resent_duplicates: 5,
                queued_peak: 6,
                lost_overflow: 7,
                io_errors: 8,
                frames_sent: 9,
                bytes_sent: 10,
            }
        );
        back.observe_queue_depth(12);
        assert_eq!(back.snapshot().queued_peak, 12);

        let listener = ListenerStats {
            connections: n(1),
            alerts: n(2),
            decode_errors: n(3),
            fins: n(4),
            bytes_received: n(5),
        };
        assert_eq!(
            listener.snapshot(),
            ListenerStats {
                connections: 1,
                alerts: 2,
                decode_errors: 3,
                fins: 4,
                bytes_received: 5
            }
        );

        let engine = EngineStats { wakeups: n(1), timer_fires: n(2), spurious_readiness: n(3) };
        assert_eq!(
            engine.snapshot(),
            EngineStats { wakeups: 1, timer_fires: 2, spurious_readiness: 3 }
        );
    }

    #[test]
    fn ratio_rollups_are_zero_without_frames() {
        let report = TransportReport::default();
        assert_eq!(report.updates_per_datagram(), 0.0);
    }
}
