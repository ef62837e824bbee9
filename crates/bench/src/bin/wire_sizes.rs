//! Measures the paper's §2 wire-size observation: how many bytes an
//! alert costs at each payload fidelity, over realistic simulated
//! alert traffic.
//!
//! > "some systems do not need this information at all. Others need
//! > only the update sequence numbers contained in the histories.
//! > Still others … it may be sufficient to send just a checksum."
//!
//! | fidelity | sufficient for |
//! |----------|----------------|
//! | digest | AD-1 |
//! | heads | AD-2 / AD-5 |
//! | seqnos | AD-3 / AD-4 / AD-6 |
//! | full | value-rich displays |

use std::io;

use rcm_bench::{executions, Cli};
use rcm_core::Alert;
use rcm_sim::montecarlo::{ScenarioKind, Topology};
use serde::{Deserialize, Serialize};

/// How much of an alert's history set is put on the wire.
///
/// The paper's §2: "although conceptually we send all histories in an
/// alert, in practice this is often not necessary. … some systems do
/// not need this information at all. Others need only the update
/// sequence numbers contained in the histories. Still others only use
/// these sequence numbers in a simple equality test, in which case it
/// may be sufficient to send just a checksum of the histories."
///
/// Minimum fidelity per AD algorithm:
///
/// | Fidelity | Sufficient for |
/// |----------|----------------|
/// | [`Fidelity::Digest`] | AD-1 (equality test only) |
/// | [`Fidelity::Heads`] | AD-2, AD-5 (per-variable `a.seqno.x` comparisons) |
/// | [`Fidelity::Seqnos`] | AD-3, AD-4, AD-6 (full history seqnos for the spanning-set test) |
/// | [`Fidelity::Full`] | displays that show triggering values to the user |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum Fidelity {
    /// Only a 64-bit checksum of the histories.
    Digest,
    /// Only the newest seqno per variable.
    Heads,
    /// All history seqnos, no values.
    Seqnos,
    /// The complete alert including the value snapshot.
    Full,
}

/// An alert reduced to a wire fidelity level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum CompactAlert {
    /// Checksum only.
    Digest {
        /// Condition id.
        cond: rcm_core::CondId,
        /// Provenance.
        id: rcm_core::AlertId,
        /// [`HistoryDigest`](rcm_core::ad::HistoryDigest) value.
        digest: u64,
    },
    /// Newest seqno per variable.
    Heads {
        /// Condition id.
        cond: rcm_core::CondId,
        /// Provenance.
        id: rcm_core::AlertId,
        /// `(variable, a.seqno.var)` pairs, ascending by variable.
        heads: Vec<(rcm_core::VarId, rcm_core::SeqNo)>,
    },
    /// Full history seqnos, values stripped.
    Seqnos {
        /// Condition id.
        cond: rcm_core::CondId,
        /// Provenance.
        id: rcm_core::AlertId,
        /// The complete fingerprint.
        fingerprint: rcm_core::HistoryFingerprint,
    },
    /// The complete alert.
    Full(Alert),
}

impl CompactAlert {
    /// Reduces an alert to the requested fidelity.
    fn of(alert: &Alert, fidelity: Fidelity) -> Self {
        match fidelity {
            Fidelity::Digest => CompactAlert::Digest {
                cond: alert.cond,
                id: alert.id,
                digest: rcm_core::ad::HistoryDigest::of(alert).get(),
            },
            Fidelity::Heads => CompactAlert::Heads {
                cond: alert.cond,
                id: alert.id,
                heads: alert.fingerprint.iter().map(|(v, seqnos)| (v, seqnos[0])).collect(),
            },
            Fidelity::Seqnos => CompactAlert::Seqnos {
                cond: alert.cond,
                id: alert.id,
                fingerprint: alert.fingerprint.clone(),
            },
            Fidelity::Full => CompactAlert::Full(alert.clone()),
        }
    }

    /// Serialized JSON payload size in bytes at this fidelity,
    /// streamed into a counting sink — no serialization buffer is
    /// allocated.
    fn encoded_len(&self) -> usize {
        let mut sink = ByteCount(0);
        match serde_json::to_writer(&mut sink, self) {
            Ok(()) => sink.0,
            // Unreachable for well-formed alerts.
            Err(_) => 0,
        }
    }
}

/// An `io::Write` sink that only counts.
struct ByteCount(usize);

impl io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[derive(Debug, Serialize)]
struct Row {
    scenario: &'static str,
    alerts: usize,
    digest_avg: f64,
    heads_avg: f64,
    seqnos_avg: f64,
    full_avg: f64,
}

fn main() {
    let cli = Cli::parse(40);
    let mut rows = Vec::new();
    for (label, kind, topo) in [
        ("single-var aggressive", ScenarioKind::LossyAggressive, Topology::SingleVar),
        ("multi-var aggressive", ScenarioKind::LossyAggressive, Topology::MultiVar),
        ("three-var aggressive", ScenarioKind::LossyAggressive, Topology::MultiVar3),
    ] {
        let mut totals = [0usize; 4];
        let mut alerts = 0usize;
        for e in executions(kind, topo, cli.runs, cli.seed) {
            for a in &e.arrivals {
                alerts += 1;
                for (i, fidelity) in
                    [Fidelity::Digest, Fidelity::Heads, Fidelity::Seqnos, Fidelity::Full]
                        .into_iter()
                        .enumerate()
                {
                    totals[i] += CompactAlert::of(a, fidelity).encoded_len();
                }
            }
        }
        let avg = |t: usize| if alerts == 0 { 0.0 } else { t as f64 / alerts as f64 };
        rows.push(Row {
            scenario: label,
            alerts,
            digest_avg: avg(totals[0]),
            heads_avg: avg(totals[1]),
            seqnos_avg: avg(totals[2]),
            full_avg: avg(totals[3]),
        });
    }

    if cli.json {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serializable"));
        return;
    }

    println!(
        "Average alert payload bytes per wire fidelity ({} runs/scenario, seed {})\n",
        cli.runs, cli.seed
    );
    println!(
        "{:<22} {:>8} {:>9} {:>8} {:>8} {:>8}",
        "scenario", "alerts", "digest", "heads", "seqnos", "full"
    );
    for r in &rows {
        println!(
            "{:<22} {:>8} {:>9.1} {:>8.1} {:>8.1} {:>8.1}",
            r.scenario, r.alerts, r.digest_avg, r.heads_avg, r.seqnos_avg, r.full_avg
        );
        assert!(r.seqnos_avg <= r.full_avg);
        assert!(r.heads_avg <= r.seqnos_avg);
    }
    println!(
        "\nAn AD-1 deployment ships a fixed-size checksum; the consistency \
         algorithms need the history seqnos but never the values — the \
         value snapshot dominates the full payload, exactly the paper's \
         point about not sending histories wholesale."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};

    fn alert() -> Alert {
        Alert::new(
            CondId::new(2),
            HistoryFingerprint::single(VarId::new(3), vec![SeqNo::new(17), SeqNo::new(15)]),
            vec![Update::new(VarId::new(3), 17, 3000.5)],
            AlertId { ce: CeId::new(1), index: 9 },
        )
    }

    #[test]
    fn fidelity_levels_shrink() {
        let a = alert();
        let full = CompactAlert::of(&a, Fidelity::Full).encoded_len();
        let seqnos = CompactAlert::of(&a, Fidelity::Seqnos).encoded_len();
        let heads = CompactAlert::of(&a, Fidelity::Heads).encoded_len();
        let digest = CompactAlert::of(&a, Fidelity::Digest).encoded_len();
        assert!(full > seqnos, "{full} > {seqnos} expected");
        assert!(seqnos > heads, "{seqnos} > {heads} expected");
        assert!(seqnos > digest, "{seqnos} > {digest} expected");
    }

    #[test]
    fn encoded_len_matches_actual_serialization() {
        let a = alert();
        for fidelity in [Fidelity::Digest, Fidelity::Heads, Fidelity::Seqnos, Fidelity::Full] {
            let c = CompactAlert::of(&a, fidelity);
            let actual = serde_json::to_vec(&c).expect("compact alert serializes").len();
            assert_eq!(c.encoded_len(), actual, "{fidelity:?}");
        }
    }

    #[test]
    fn digest_size_is_constant_in_the_degree() {
        // The paper's checksum point: history payload grows with the
        // condition degree, the digest does not.
        let deep = |degree: u64| {
            let seqnos: Vec<SeqNo> = (0..degree).map(|i| SeqNo::new(100 - i)).collect();
            Alert::new(
                CondId::new(1),
                HistoryFingerprint::single(VarId::new(0), seqnos),
                vec![],
                AlertId { ce: CeId::new(0), index: 0 },
            )
        };
        let d2 = deep(2);
        let d8 = deep(8);
        assert!(
            CompactAlert::of(&d8, Fidelity::Seqnos).encoded_len()
                > CompactAlert::of(&d2, Fidelity::Seqnos).encoded_len()
        );
        // Digest length varies only with the decimal rendering of the
        // checksum, never with the degree.
        let l2 = CompactAlert::of(&d2, Fidelity::Digest).encoded_len();
        let l8 = CompactAlert::of(&d8, Fidelity::Digest).encoded_len();
        assert!(l2.abs_diff(l8) <= 20, "{l2} vs {l8}");
    }

    #[test]
    fn heads_keep_the_newest_seqno_per_variable() {
        let a = alert();
        match CompactAlert::of(&a, Fidelity::Heads) {
            CompactAlert::Heads { heads, .. } => {
                assert_eq!(heads, vec![(VarId::new(3), SeqNo::new(17))]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn digest_matches_core_digest() {
        let a = alert();
        match CompactAlert::of(&a, Fidelity::Digest) {
            CompactAlert::Digest { digest, cond, .. } => {
                assert_eq!(digest, rcm_core::ad::HistoryDigest::of(&a).get());
                assert_eq!(cond, a.cond);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compact_alert_serde_roundtrip() {
        let a = alert();
        for fidelity in [Fidelity::Digest, Fidelity::Heads, Fidelity::Seqnos, Fidelity::Full] {
            let c = CompactAlert::of(&a, fidelity);
            let json = serde_json::to_string(&c).expect("compact alert serializes");
            assert_eq!(
                serde_json::from_str::<CompactAlert>(&json).expect("compact alert parses back"),
                c
            );
        }
    }
}
