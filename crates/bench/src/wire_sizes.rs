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

use rcm_core::{Alert, AlertId};
use rcm_json::{obj, Json};
use rcm_sim::montecarlo::{ScenarioKind, Topology};

use crate::executions;
use crate::record::{col, num, Col, Record, Table};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq)]
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

    /// The payload as compact JSON, externally tagged by fidelity:
    /// `{"Digest":{"cond":…,"id":…,"digest":…}}`, `{"Heads":{…,"heads":[[var,seqno], …]}}`,
    /// `{"Seqnos":{…,"fingerprint":{"entries":[[var,[seqno, …]], …]}}}` or
    /// `{"Full":alert}`.
    fn to_json(&self) -> Json {
        let head = |cond: &rcm_core::CondId, id: &AlertId, key: &str, body: Json| {
            let id = obj([("ce", id.ce.index().into()), ("index", id.index.into())]);
            obj([("cond", cond.index().into()), ("id", id), (key, body)])
        };
        let (tag, body) = match self {
            CompactAlert::Digest { cond, id, digest } => {
                ("Digest", head(cond, id, "digest", (*digest).into()))
            }
            CompactAlert::Heads { cond, id, heads } => {
                let heads =
                    heads.iter().map(|(v, s)| Json::Arr(vec![v.index().into(), s.get().into()]));
                ("Heads", head(cond, id, "heads", heads.collect()))
            }
            CompactAlert::Seqnos { cond, id, fingerprint } => {
                let entries = fingerprint.iter().map(|(v, seqnos)| {
                    Json::Arr(vec![v.index().into(), seqnos.iter().map(|s| s.get()).collect()])
                });
                ("Seqnos", head(cond, id, "fingerprint", obj([("entries", entries.collect())])))
            }
            CompactAlert::Full(alert) => ("Full", alert.to_json()),
        };
        obj([(tag, body)])
    }

    /// JSON payload size in bytes at this fidelity.
    fn encoded_len(&self) -> usize {
        self.to_json().to_string().len()
    }
}

/// Average payload bytes per alert at each fidelity, over the lossy
/// aggressive class's alert traffic with one, two and three variables.
pub(crate) fn wire_sizes(runs: u64, seed: u64) -> Record {
    const COLS: &[Col] = &[
        col("scenario", "scenario"),
        col("alerts", "alerts"),
        num("digest_avg", "digest", 1),
        num("heads_avg", "heads", 1),
        num("seqnos_avg", "seqnos", 1),
        num("full_avg", "full", 1),
    ];
    let mut t = Table::new("sizes", "Average alert payload bytes per wire fidelity", COLS);
    let mut nested = true;
    for (label, kind, topo) in [
        ("single-var aggressive", ScenarioKind::LossyAggressive, Topology::SingleVar),
        ("multi-var aggressive", ScenarioKind::LossyAggressive, Topology::MultiVar),
        ("three-var aggressive", ScenarioKind::LossyAggressive, Topology::MultiVar3),
    ] {
        let mut totals = [0usize; 4];
        let mut alerts = 0usize;
        for e in executions(kind, topo, runs, seed) {
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
        let avg = totals.map(|t| if alerts == 0 { 0.0 } else { t as f64 / alerts as f64 });
        nested &= avg[1] <= avg[2] && avg[2] <= avg[3];
        t.row(label, [Json::from(alerts)].into_iter().chain(avg.map(Json::from)));
    }
    let mut record = Record::default();
    record.tables.push(t);
    record.check("heads ≤ seqnos ≤ full bytes on every scenario", nested);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::{CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};

    /// The test-only reader for [`CompactAlert::to_json`]: nothing else
    /// reads a compact alert back.
    fn from_json(j: &Json) -> rcm_json::Result<CompactAlert> {
        let (tag, body) = match j.variant()? {
            (tag, Some(body)) => (tag, body),
            (tag, None) => return Err(rcm_json::Error::new(format!("bare variant {tag}"))),
        };
        if tag == "Full" {
            return Alert::from_json(body).map(CompactAlert::Full);
        }
        let cond = CondId::new(body.field("cond")?.u32()?);
        let id = body.field("id")?;
        let id =
            AlertId { ce: CeId::new(id.field("ce")?.u32()?), index: id.field("index")?.u64()? };
        fn pair(p: &Json) -> rcm_json::Result<(VarId, &Json)> {
            match p.arr()? {
                [v, s] => Ok((VarId::new(v.u32()?), s)),
                _ => Err(rcm_json::Error::new("expected a pair")),
            }
        }
        Ok(match tag {
            "Digest" => CompactAlert::Digest { cond, id, digest: body.field("digest")?.u64()? },
            "Heads" => {
                let heads = body.field("heads")?.arr()?.iter().map(|p| {
                    let (v, s) = pair(p)?;
                    Ok((v, SeqNo::new(s.u64()?)))
                });
                CompactAlert::Heads { cond, id, heads: heads.collect::<rcm_json::Result<_>>()? }
            }
            "Seqnos" => {
                let entries = body.field("fingerprint")?.field("entries")?.arr()?.iter().map(|p| {
                    let (v, seqnos) = pair(p)?;
                    let seqnos = seqnos.arr()?.iter().map(|s| s.u64().map(SeqNo::new));
                    Ok((v, seqnos.collect::<rcm_json::Result<_>>()?))
                });
                let fingerprint =
                    HistoryFingerprint::try_new(entries.collect::<rcm_json::Result<_>>()?)
                        .map_err(|e| rcm_json::Error::new(e.to_string()))?;
                CompactAlert::Seqnos { cond, id, fingerprint }
            }
            other => return Err(rcm_json::Error::new(format!("unknown fidelity {other}"))),
        })
    }

    fn alert() -> Alert {
        Alert::new(
            CondId::new(2),
            HistoryFingerprint::single(VarId::new(3), vec![SeqNo::new(17), SeqNo::new(15)]),
            vec![Update::new(VarId::new(3), 17, 3000.5), Update::new(VarId::new(3), 15, 2999.5)],
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
        let digest = rcm_core::ad::HistoryDigest::of(&a).get();
        for (fidelity, text) in [
            (Fidelity::Digest, format!(r#"{{"Digest":{{"cond":2,"id":{{"ce":1,"index":9}},"digest":{digest}}}}}"#)),
            (Fidelity::Heads, r#"{"Heads":{"cond":2,"id":{"ce":1,"index":9},"heads":[[3,17]]}}"#.to_owned()),
            (
                Fidelity::Seqnos,
                r#"{"Seqnos":{"cond":2,"id":{"ce":1,"index":9},"fingerprint":{"entries":[[3,[17,15]]]}}}"#
                    .to_owned(),
            ),
            (
                Fidelity::Full,
                r#"{"Full":{"cond":2,"fingerprint":{"entries":[[3,[17,15]]]},"snapshot":[{"var":3,"seqno":17,"value":3000.5},{"var":3,"seqno":15,"value":2999.5}],"id":{"ce":1,"index":9}}}"#
                    .to_owned(),
            ),
        ] {
            let c = CompactAlert::of(&a, fidelity);
            assert_eq!(c.to_json().to_string(), text, "{fidelity:?}");
            assert_eq!(c.encoded_len(), text.len(), "{fidelity:?}");
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
    fn compact_alert_json_roundtrip() {
        let a = alert();
        for fidelity in [Fidelity::Digest, Fidelity::Heads, Fidelity::Seqnos, Fidelity::Full] {
            let c = CompactAlert::of(&a, fidelity);
            let json = rcm_json::parse(&c.to_json().to_string()).expect("compact alert is JSON");
            let back = from_json(&json).expect("compact alert parses back");
            assert_eq!(back, c);
            if let (CompactAlert::Full(back), CompactAlert::Full(a)) = (&back, &c) {
                // Alert equality ignores these; the payload must not.
                assert_eq!((back.id, &back.snapshot[..]), (a.id, &a.snapshot[..]));
            }
        }
    }
}
