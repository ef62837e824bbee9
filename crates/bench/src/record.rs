//! What an artifact computed, as data, and the three renderers that
//! show it: plain text, JSON and the Markdown of EXPERIMENTS.md's
//! generated blocks.

use rcm_json::{obj, Json};
use rcm_sim::report::{Matrix, MatrixCell};

/// One column of a [`Table`]: its JSON key, its header, and how many
/// decimals a float in it is shown with (JSON keeps every digit).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Col {
    key: &'static str,
    head: &'static str,
    prec: usize,
}

/// A column of integers or text.
pub(crate) const fn col(key: &'static str, head: &'static str) -> Col {
    Col { key, head, prec: 0 }
}

/// A column of floats shown with `prec` decimals.
pub(crate) const fn num(key: &'static str, head: &'static str, prec: usize) -> Col {
    Col { key, head, prec }
}

/// A table of an artifact: JSON writes it as `key: [{col.key: value, …}, …]`.
#[derive(Debug)]
pub(crate) struct Table {
    key: &'static str,
    title: String,
    cols: &'static [Col],
    rows: Vec<Vec<Json>>,
}

impl Table {
    pub(crate) fn new(key: &'static str, title: impl Into<String>, cols: &'static [Col]) -> Self {
        Table { key, title: title.into(), cols, rows: Vec::new() }
    }

    /// Appends a row: its label, then one value for each further
    /// column (a string, an integer or a float).
    pub(crate) fn row(
        &mut self,
        label: impl Into<Json>,
        values: impl IntoIterator<Item: Into<Json>>,
    ) {
        let row: Vec<Json> =
            [label.into()].into_iter().chain(values.into_iter().map(Into::into)).collect();
        assert_eq!(row.len(), self.cols.len(), "{}: one value per column", self.key);
        self.rows.push(row);
    }

    fn cell(&self, row: &[Json], i: usize) -> String {
        match &row[i] {
            Json::Num(x) => format!("{x:.*}", self.cols[i].prec),
            Json::Str(s) => s.clone(),
            other => other.to_string(),
        }
    }

    fn numeric(&self, i: usize) -> bool {
        self.rows.iter().all(|r| matches!(r[i], Json::Int(_) | Json::Num(_)))
    }

    fn to_json(&self) -> Json {
        let row = |r: &Vec<Json>| {
            Json::Obj(self.cols.iter().zip(r).map(|(c, v)| (c.key.to_owned(), v.clone())).collect())
        };
        self.rows.iter().map(row).collect()
    }

    fn text(&self) -> String {
        let cells: Vec<Vec<String>> =
            self.rows.iter().map(|r| (0..r.len()).map(|i| self.cell(r, i)).collect()).collect();
        let widths: Vec<usize> = (0..self.cols.len())
            .map(|i| {
                let w = cells.iter().map(|r| r[i].chars().count());
                w.chain([self.cols[i].head.chars().count()]).max().unwrap_or(0)
            })
            .collect();
        let line = |texts: Vec<&str>| {
            let padded = texts.iter().enumerate().map(|(i, t)| match self.numeric(i) {
                true => format!("{t:>w$}", w = widths[i]),
                false => format!("{t:<w$}", w = widths[i]),
            });
            padded.collect::<Vec<_>>().join("  ").trim_end().to_owned() + "\n"
        };
        let mut out = format!("{}\n", self.title);
        out += &line(self.cols.iter().map(|c| c.head).collect());
        for r in &cells {
            out += &line(r.iter().map(String::as_str).collect());
        }
        out
    }

    fn markdown(&self) -> String {
        let line = |texts: Vec<String>| format!("| {} |\n", texts.join(" | "));
        let mut out = format!("**{}**\n\n", self.title);
        out += &line(self.cols.iter().map(|c| c.head.to_owned()).collect());
        let rule = |i| if self.numeric(i) { "---:" } else { "---" }.to_owned();
        out += &line((0..self.cols.len()).map(rule).collect());
        for r in &self.rows {
            out += &line((0..r.len()).map(|i| self.cell(r, i).replace('|', "\\|")).collect());
        }
        out
    }
}

/// One claim an artifact checks, and whether its run upholds it.
#[derive(Debug)]
pub(crate) struct Verdict {
    claim: String,
    holds: bool,
    /// How a holding and a failing verdict read.
    words: [&'static str; 2],
}

impl Verdict {
    fn word(&self) -> &'static str {
        self.words[usize::from(!self.holds)]
    }
}

/// Everything one artifact computed: its property matrices, its
/// tables and its verdicts. Nothing is printed while an artifact runs;
/// the renderers below read records only.
#[derive(Debug, Default)]
pub struct Record {
    pub(crate) name: &'static str,
    pub(crate) section: &'static str,
    pub(crate) runs: u64,
    pub(crate) seed: u64,
    pub(crate) matrices: Vec<Matrix>,
    pub(crate) tables: Vec<Table>,
    pub(crate) verdicts: Vec<Verdict>,
}

impl Record {
    /// Adds a property matrix and its agreement verdict (FULL or MISMATCH).
    pub(crate) fn matrix(&mut self, m: Matrix) {
        let claim = format!("{} — agreement with the paper", m.title);
        self.verdicts.push(Verdict {
            claim,
            holds: m.matches_paper(),
            words: ["FULL", "MISMATCH"],
        });
        self.matrices.push(m);
    }

    /// Adds a theorem-level verdict (CONFIRMED or VIOLATED).
    pub(crate) fn check(&mut self, claim: impl Into<String>, holds: bool) {
        let words = ["CONFIRMED", "VIOLATED"];
        self.verdicts.push(Verdict { claim: claim.into(), holds, words });
    }

    /// Appends another record's matrices, tables and verdicts.
    pub(crate) fn and(mut self, other: Record) -> Record {
        self.matrices.extend(other.matrices);
        self.tables.extend(other.tables);
        self.verdicts.extend(other.verdicts);
        self
    }

    /// The verdicts as one part, one `line` each; none without verdicts.
    fn verdicts(&self, line: impl Fn(&Verdict) -> String) -> Option<String> {
        (!self.verdicts.is_empty()).then(|| self.verdicts.iter().map(line).collect())
    }

    fn text(&self) -> String {
        let mut parts = Vec::new();
        for m in &self.matrices {
            parts.push(m.render() + "cells read claimed/measured (violations/runs)\n");
        }
        parts.extend(self.tables.iter().map(Table::text));
        parts.extend(self.verdicts(|v| format!("{}: {}\n", v.claim, v.word())));
        let head =
            format!("== {} ({}) runs={} seed={}", self.name, self.section, self.runs, self.seed);
        format!("{head}\n{}", parts.join("\n"))
    }

    fn to_json(&self) -> Json {
        let mut fields =
            vec![("runs".to_owned(), self.runs.into()), ("seed".to_owned(), self.seed.into())];
        if !self.matrices.is_empty() {
            fields
                .push(("matrices".to_owned(), self.matrices.iter().map(Matrix::to_json).collect()));
        }
        fields.extend(self.tables.iter().map(|t| (t.key.to_owned(), t.to_json())));
        let verdicts = self.verdicts.iter().map(|v| {
            obj([
                ("claim", v.claim.as_str().into()),
                ("holds", v.holds.into()),
                ("reads", v.word().into()),
            ])
        });
        fields.push(("verdicts".to_owned(), verdicts.collect()));
        Json::Obj(fields)
    }

    /// The generated block, from its opening marker to the line before
    /// `<!-- end: NAME -->`.
    pub(crate) fn markdown(&self) -> String {
        let mut parts = Vec::new();
        for m in &self.matrices {
            parts.push(matrix_markdown(m));
        }
        parts.extend(self.tables.iter().map(Table::markdown));
        parts.extend(self.verdicts(|v| format!("- {}: **{}**\n", v.claim, v.word())));
        let open =
            format!("<!-- generated: {} runs={} seed={} -->", self.name, self.runs, self.seed);
        format!("{open}\n{}", parts.join("\n"))
    }
}

fn matrix_markdown(m: &Matrix) -> String {
    let cell = |c: &MatrixCell| {
        let mark = |ok| if ok { "√" } else { "✗" };
        let claimed = c.expected.map_or("·", mark);
        let flag = if c.agrees() == Some(false) { " !!" } else { "" };
        format!("{claimed} / {} ({}/{}){flag}", mark(c.measured_ok()), c.violations, c.runs)
    };
    let mut out = format!(
        "**{} — Algorithm {}**\n\n\
         | Scenario | Ordered | Complete | Consistent |\n|---|---|---|---|\n",
        m.title, m.filter
    );
    for r in &m.rows {
        let [o, c, k] = r.cells.each_ref().map(cell);
        out += &format!("| {} | {o} | {c} | {k} |\n", r.scenario);
    }
    out
}

/// The plain-text report of every record, in order.
pub fn render_text(records: &[Record]) -> String {
    records.iter().map(Record::text).collect::<Vec<_>>().join("\n")
}

/// One JSON object keyed by artifact name; each value carries `runs`,
/// `seed`, the artifact's `matrices` (in `Matrix::to_json`'s shape) and
/// tables, and its `verdicts`.
pub fn render_json(records: &[Record]) -> Json {
    Json::Obj(records.iter().map(|r| (r.name.to_owned(), r.to_json())).collect())
}

/// One line per verdict that does not hold: `artifact: claim: WORD`.
/// The process fails when this is not empty.
pub fn failures(records: &[Record]) -> Vec<String> {
    let failed = records.iter().flat_map(|r| r.verdicts.iter().map(move |v| (r.name, v)));
    failed
        .filter(|(_, v)| !v.holds)
        .map(|(name, v)| format!("{name}: {}: {}", v.claim, v.word()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_verdict_names_its_artifact_and_claim() {
        let mut record = Record { name: "planted", ..Record::default() };
        record.check("every alert is delivered", true);
        record.check("the drop policy stays ordered", false);
        let ok = Record { name: "fine", ..Record::default() };
        let records = [ok, record];
        assert_eq!(failures(&records), ["planted: the drop policy stays ordered: VIOLATED"]);
        assert!(failures(&records[..1]).is_empty());
        // Every renderer shows the failing verdict too.
        assert!(render_text(&records).contains("the drop policy stays ordered: VIOLATED"));
        assert!(records[1].markdown().contains("the drop policy stays ordered: **VIOLATED**"));
        let json = render_json(&records);
        let verdicts = json.field("planted").and_then(|p| p.field("verdicts")).unwrap();
        assert_eq!(verdicts.arr().unwrap()[1].field("holds"), Ok(&Json::Bool(false)));
    }
}
