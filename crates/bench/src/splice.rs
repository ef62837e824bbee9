//! `--write`: replaces the generated blocks of a Markdown file and
//! leaves every other byte alone.
//!
//! A block runs from a line `<!-- generated: NAME …-->` to the line
//! `<!-- end: NAME -->`. The opening line and everything up to the end
//! marker are replaced by the new block; the end marker line is kept.

use std::collections::BTreeSet;

const OPEN: &str = "<!-- generated: ";
const END: &str = "<!-- end: ";

/// Splices `blocks` (`(name, opening line and body)`) into `doc`.
///
/// Errors on a marker whose name is not in `known`, a name marked
/// twice, a block that is not closed (or closed under another name),
/// and a name in `blocks` that has no block in `doc`: an artifact can
/// never drop out of the record silently.
pub(crate) fn splice(
    doc: &str,
    known: &[&str],
    blocks: &[(&str, String)],
) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut seen = BTreeSet::new();
    let mut open: Option<(&str, bool)> = None;
    for (n, line) in doc.split_inclusive('\n').enumerate() {
        let at = |msg: String| Err(format!("line {}: {msg}", n + 1));
        let text = line.trim_end_matches(['\n', '\r']);
        if let Some(rest) = text.strip_prefix(OPEN) {
            let name = rest.split_whitespace().next().unwrap_or_default();
            if let Some((outer, _)) = open {
                return at(format!("block {name} opens inside block {outer}"));
            }
            if !known.contains(&name) {
                return at(format!("unknown artifact {name:?}"));
            }
            if !seen.insert(name) {
                return at(format!("artifact {name} has a second block"));
            }
            let new = blocks.iter().find(|(b, _)| *b == name).map(|(_, body)| body);
            out.push_str(new.map_or(line, String::as_str));
            open = Some((name, new.is_some()));
        } else if let Some(rest) = text.strip_prefix(END) {
            let name = rest.strip_suffix(" -->").unwrap_or(rest);
            match open.take() {
                Some((o, _)) if o == name => out.push_str(line),
                other => return at(format!("end of {name} closes {:?}", other.map(|o| o.0))),
            }
        } else if !matches!(open, Some((_, true))) {
            out.push_str(line);
        }
    }
    if let Some((name, _)) = open {
        return Err(format!("block {name} is never closed"));
    }
    match blocks.iter().find(|(name, _)| !seen.contains(name)) {
        Some((name, _)) => Err(format!("no block for artifact {name}")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# Record\n\nProse says 95/200.\n\
        <!-- generated: t1 runs=200 seed=7 -->\n| a | 69/200 |\n<!-- end: t1 -->\n\
        Between.\r\n<!-- generated: t2 runs=5 seed=7 -->\nold\n<!-- end: t2 -->\ntail, no newline";

    fn blocks() -> Vec<(&'static str, String)> {
        vec![("t1", "<!-- generated: t1 runs=200 seed=7 -->\n| a | 69/200 |\n".to_owned())]
    }

    #[test]
    fn a_one_digit_tamper_inside_a_block_is_restored() {
        let tampered = DOC.replace("| a | 69/200 |", "| a | 68/200 |");
        assert_ne!(tampered, DOC);
        assert_eq!(splice(&tampered, &["t1", "t2"], &blocks()).unwrap(), DOC);
    }

    #[test]
    fn bytes_outside_the_written_blocks_are_unchanged() {
        let new = vec![("t2", "<!-- generated: t2 runs=9 seed=1 -->\nnew\nlines\n".to_owned())];
        let out = splice(DOC, &["t1", "t2"], &new).unwrap();
        let want = DOC.replace("<!-- generated: t2 runs=5 seed=7 -->\nold\n", &new[0].1);
        assert_eq!(out, want);
        assert!(
            out.starts_with("# Record\n\nProse says 95/200.\n")
                && out.ends_with("\ntail, no newline")
        );
        assert!(out.contains("Between.\r\n"));
    }

    #[test]
    fn writing_twice_changes_nothing() {
        let once = splice(DOC, &["t1", "t2"], &blocks()).unwrap();
        assert_eq!(splice(&once, &["t1", "t2"], &blocks()).unwrap(), once);
    }

    #[test]
    fn unknown_missing_duplicated_or_unclosed_markers_are_errors() {
        let err = |doc: &str, known: &[&str], blocks: &[(&str, String)]| {
            splice(doc, known, blocks).unwrap_err()
        };
        assert!(err(DOC, &["t1"], &blocks()).contains("unknown artifact \"t2\""));
        let missing = vec![("t3", String::new())];
        assert_eq!(err(DOC, &["t1", "t2", "t3"], &missing), "no block for artifact t3");
        let twice = format!("{DOC}\n<!-- generated: t1 -->\n<!-- end: t1 -->\n");
        assert!(err(&twice, &["t1", "t2"], &blocks()).contains("artifact t1 has a second block"));
        let unclosed = DOC.replace("<!-- end: t2 -->", "");
        assert_eq!(err(&unclosed, &["t1", "t2"], &blocks()), "block t2 is never closed");
        let crossed = DOC.replace("<!-- end: t1 -->", "<!-- end: t2 -->");
        assert!(err(&crossed, &["t1", "t2"], &blocks()).contains("end of t2 closes Some(\"t1\")"));
    }
}
