//! Report rendering: aligned text tables per experiment.

use st_core::StError;
use std::fmt;
use std::io::Write;

/// One experiment's regenerated table.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `e3`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper claim being reproduced, one sentence.
    pub claim: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (pre-formatted).
    pub rows: Vec<Vec<String>>,
    /// The verdict line (does the measured shape match the claim?).
    pub verdict: String,
    /// Coarse wall-clock duration bucket (see [`duration_bucket`]), set
    /// only when the runner measured timing ([`TimingMode::Measured`]).
    /// This is the one field **outside** the cross-`--jobs` byte-identity
    /// contract: a run near a bucket edge may land on either side, so the
    /// determinism gates compare [`TimingMode::Suppressed`] artifacts.
    ///
    /// [`TimingMode::Measured`]: crate::runner::TimingMode::Measured
    /// [`TimingMode::Suppressed`]: crate::runner::TimingMode::Suppressed
    pub duration: Option<String>,
}

impl Report {
    /// Start a report.
    #[must_use]
    pub fn new(id: &str, title: &str, claim: &str, columns: &[&str]) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            claim: claim.into(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
            verdict: String::new(),
            duration: None,
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Set the verdict line.
    pub fn verdict(&mut self, ok: bool, detail: impl Into<String>) {
        let mark = if ok { "REPRODUCED" } else { "NOT REPRODUCED" };
        self.verdict = format!("{mark} — {}", detail.into());
    }

    /// Did the experiment reproduce the claim? A report whose verdict was
    /// never set is an explicit failure, never a silent pass.
    #[must_use]
    pub fn reproduced(&self) -> bool {
        !self.verdict.is_empty() && self.verdict.starts_with("REPRODUCED")
    }

    /// The verdict line as rendered: an unset verdict reads as an
    /// explicit `NOT REPRODUCED — verdict never set` instead of an empty
    /// line with no explanation.
    #[must_use]
    pub fn verdict_line(&self) -> &str {
        if self.verdict.is_empty() {
            "NOT REPRODUCED — verdict never set"
        } else {
            &self.verdict
        }
    }
}

/// Bucket a wall-clock duration into a coarse decade label. Decades are
/// deliberately wide — a measurement has to drift by 10× to change its
/// label — so repeated runs of the same experiment almost always render
/// identically, while a real perf regression (an order of magnitude) is
/// visible in the `BENCH_report.json` diff.
#[must_use]
pub fn duration_bucket(nanos: u128) -> &'static str {
    const BUCKETS: [(u128, &str); 8] = [
        (1_000, "<1µs"),
        (10_000, "<10µs"),
        (100_000, "<100µs"),
        (1_000_000, "<1ms"),
        (10_000_000, "<10ms"),
        (100_000_000, "<100ms"),
        (1_000_000_000, "<1s"),
        (10_000_000_000, "<10s"),
    ];
    for (limit, label) in BUCKETS {
        if nanos < limit {
            return label;
        }
    }
    "≥10s"
}

/// Render one report as its `"id":{…}` JSON member (the body of one
/// [`to_json`] entry; also what [`merge_json`] splices into an existing
/// document).
#[must_use]
pub fn entry_json(r: &Report) -> String {
    use st_trace::json::quote;
    let str_arr = |out: &mut String, items: &[String]| {
        out.push('[');
        for (i, s) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&quote(s));
        }
        out.push(']');
    };
    let mut out = String::new();
    out.push_str(&quote(&r.id));
    out.push_str(":{\"title\":");
    out.push_str(&quote(&r.title));
    out.push_str(",\"claim\":");
    out.push_str(&quote(&r.claim));
    out.push_str(",\"reproduced\":");
    out.push_str(if r.reproduced() { "true" } else { "false" });
    out.push_str(",\"verdict\":");
    out.push_str(&quote(r.verdict_line()));
    out.push_str(",\"columns\":");
    str_arr(&mut out, &r.columns);
    out.push_str(",\"rows\":[");
    for (j, row) in r.rows.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        str_arr(&mut out, row);
    }
    out.push(']');
    if let Some(d) = &r.duration {
        out.push_str(",\"duration\":");
        out.push_str(&quote(d));
    }
    out.push('}');
    out
}

/// Render `reports` as the `BENCH_report.json` document: one JSON object
/// mapping experiment id → metrics (title, claim, verdict, reproduced
/// flag, and the full data table), so the experiment trajectory is
/// machine-diffable across commits.
#[must_use]
pub fn to_json(reports: &[Report]) -> String {
    let mut out = String::from("{");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&entry_json(r));
    }
    out.push_str("}\n");
    out
}

/// Split a one-level JSON object document into its raw
/// `("key-as-quoted", "value")` members, respecting strings (with
/// escapes) and nested objects/arrays. Only the structure [`to_json`]
/// emits is accepted; anything else is an error rather than a silent
/// partial parse.
fn split_members(doc: &str) -> Result<Vec<(String, String)>, StError> {
    let bad = |why: &str| StError::Io(format!("merge BENCH json: {why}"));
    let body = doc
        .trim()
        .strip_prefix('{')
        .and_then(|d| d.strip_suffix('}'))
        .ok_or_else(|| bad("document is not a JSON object"))?;
    let mut members = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (at, c) in body.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.checked_sub(1).ok_or_else(|| bad("unbalanced"))?,
            ',' if depth == 0 => {
                members.push(&body[start..at]);
                start = at + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err(bad("unbalanced"));
    }
    if !body.trim().is_empty() {
        members.push(&body[start..]);
    }
    members
        .into_iter()
        .map(|m| {
            let m = m.trim();
            if !m.starts_with('"') {
                return Err(bad("member key is not a string"));
            }
            // Find the closing quote of the key (keys never contain
            // escapes in practice, but honour them anyway).
            let mut esc = false;
            for (at, c) in m.char_indices().skip(1) {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    let key = m[..=at].to_string();
                    let rest = m[at + 1..].trim_start();
                    let value = rest
                        .strip_prefix(':')
                        .ok_or_else(|| bad("member has no ':'"))?;
                    return Ok((key, value.trim().to_string()));
                }
            }
            Err(bad("unterminated member key"))
        })
        .collect()
}

/// Merge `reports` into an existing [`to_json`] document: members whose
/// id already appears are replaced **in place** (preserving the
/// document's entry order), new ids are appended at the end. This is how
/// auxiliary harnesses (the soak campaign) land their metrics in
/// `BENCH_report.json` without clobbering the experiment registry's
/// entries.
pub fn merge_json(existing: &str, reports: &[Report]) -> Result<String, StError> {
    use st_trace::json::quote;
    let mut members = split_members(existing)?;
    for r in reports {
        let key = quote(&r.id);
        let entry = entry_json(r);
        let value = entry[key.len() + 1..].to_string();
        match members.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => members.push((key, value)),
        }
    }
    let mut out = String::from("{");
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push(':');
        out.push_str(v);
    }
    out.push_str("}\n");
    Ok(out)
}

/// Write `bytes` to `path` atomically: the content lands in a hidden
/// `.tmp` sibling first and is moved over `path` with `rename`, so a
/// crash mid-write can tear only the temporary — readers of `path` see
/// either the previous artifact or the complete new one, never a torn
/// file.
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), StError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| StError::Io(format!("create {}: path has no file name", path.display())))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, bytes)
        .map_err(|e| StError::Io(format!("create {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        StError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// Write the [`to_json`] document to `path` (atomically; see
/// [`atomic_write`]).
pub fn save_json(path: &std::path::Path, reports: &[Report]) -> Result<(), StError> {
    atomic_write(path, to_json(reports).as_bytes())
}

/// Render `reports` to a writer, one table per report, in registry order.
pub fn write_text<W: Write>(mut w: W, reports: &[Report]) -> Result<(), StError> {
    for report in reports {
        writeln!(w, "{report}").map_err(|e| StError::Io(format!("report write: {e}")))?;
    }
    Ok(())
}

/// Render `reports` to a text file (the `--out` flag of the report bin;
/// atomic, see [`atomic_write`]).
pub fn save_text(path: &std::path::Path, reports: &[Report]) -> Result<(), StError> {
    let mut buf = Vec::new();
    write_text(&mut buf, reports)?;
    atomic_write(path, &buf)
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== [{}] {}", self.id.to_uppercase(), self.title)?;
        writeln!(f, "   claim: {}", self.claim)?;
        if let Some(d) = &self.duration {
            writeln!(f, "   duration: {d}")?;
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "   |")?;
            for (w, c) in widths.iter().zip(cells) {
                write!(f, " {c:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.columns)?;
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        writeln!(f, "   {}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        writeln!(f, "   {}", self.verdict_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned_table() {
        let mut r = Report::new("e0", "demo", "x grows", &["N", "value"]);
        r.row(vec!["16".into(), "4".into()]);
        r.row(vec!["1024".into(), "10".into()]);
        r.verdict(true, "log shape, r²=1.00");
        let s = r.to_string();
        assert!(s.contains("[E0] demo"));
        assert!(s.contains("| N    | value |"));
        assert!(s.contains("REPRODUCED"));
        assert!(r.reproduced());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut r = Report::new("e0", "demo", "c", &["a", "b"]);
        r.row(vec!["only-one".into()]);
    }

    #[test]
    fn failed_verdict_is_visible() {
        let mut r = Report::new("e0", "demo", "c", &["a"]);
        r.verdict(false, "slope off");
        assert!(!r.reproduced());
        assert!(r.to_string().contains("NOT REPRODUCED"));
    }

    #[test]
    fn unset_verdict_is_an_explicit_not_reproduced() {
        let r = Report::new("e0", "demo", "c", &["a"]);
        assert!(!r.reproduced(), "no verdict must never count as a pass");
        assert_eq!(r.verdict_line(), "NOT REPRODUCED — verdict never set");
        assert!(
            r.to_string().contains("NOT REPRODUCED — verdict never set"),
            "{r}"
        );
        assert!(
            to_json(&[r]).contains("NOT REPRODUCED — verdict never set"),
            "the JSON document must carry the explicit verdict too"
        );
    }

    #[test]
    fn write_text_concatenates_reports() {
        let mut a = Report::new("e1", "first", "c", &["x"]);
        a.verdict(true, "ok");
        let mut b = Report::new("e2", "second", "c", &["x"]);
        b.verdict(true, "ok");
        let mut buf = Vec::new();
        write_text(&mut buf, &[a, b]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("[E1] first"));
        assert!(text.contains("[E2] second"));
    }

    #[test]
    fn json_document_maps_id_to_metrics() {
        let mut r = Report::new("e3", "sort \"fast\"", "x grows", &["N", "scans"]);
        r.row(vec!["16".into(), "4".into()]);
        r.verdict(true, "log shape");
        let doc = to_json(&[r]);
        // Keys and escaping survive; the verdict flag is a real boolean.
        assert!(
            doc.starts_with("{\"e3\":{\"title\":\"sort \\\"fast\\\"\""),
            "{doc}"
        );
        assert!(doc.contains("\"reproduced\":true"));
        assert!(doc.contains("\"columns\":[\"N\",\"scans\"]"));
        assert!(doc.contains("\"rows\":[[\"16\",\"4\"]]"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn json_document_handles_many_reports_and_failures() {
        let mut a = Report::new("e1", "first", "c", &["x"]);
        a.verdict(true, "ok");
        let mut b = Report::new("e2", "second", "c", &["x"]);
        b.verdict(false, "slope off");
        let doc = to_json(&[a, b]);
        assert!(doc.contains("\"e1\":{"));
        assert!(doc.contains("\"e2\":{"));
        assert!(doc.contains("\"reproduced\":false"));
    }

    #[test]
    fn duration_buckets_are_coarse_decades() {
        assert_eq!(duration_bucket(0), "<1µs");
        assert_eq!(duration_bucket(999), "<1µs");
        assert_eq!(duration_bucket(1_000), "<10µs");
        assert_eq!(duration_bucket(250_000), "<1ms");
        assert_eq!(duration_bucket(5_000_000), "<10ms");
        assert_eq!(duration_bucket(42_000_000), "<100ms");
        assert_eq!(duration_bucket(999_999_999), "<1s");
        assert_eq!(duration_bucket(9_999_999_999), "<10s");
        assert_eq!(duration_bucket(u128::MAX), "≥10s");
    }

    #[test]
    fn duration_renders_after_rows_in_json_and_as_a_text_line() {
        let mut r = Report::new("e3", "demo", "c", &["x"]);
        r.row(vec!["1".into()]);
        r.verdict(true, "ok");
        // Without a duration, neither rendering mentions it.
        assert!(!to_json(std::slice::from_ref(&r)).contains("duration"));
        assert!(!r.to_string().contains("duration"));
        r.duration = Some(duration_bucket(5_000_000).to_string());
        let doc = to_json(std::slice::from_ref(&r));
        assert!(
            doc.contains("\"rows\":[[\"1\"]],\"duration\":\"<10ms\"}"),
            "duration must come after rows so existing prefix asserts hold: {doc}"
        );
        assert!(r.to_string().contains("   duration: <10ms\n"), "{r}");
    }

    #[test]
    fn merge_json_replaces_in_place_and_appends_new_ids() {
        let mut a = Report::new("e1", "first", "c", &["x"]);
        a.verdict(true, "ok");
        let mut b = Report::new("e2", "second \"quoted\"", "c", &["x"]);
        b.verdict(false, "slope off");
        let doc = to_json(&[a, b.clone()]);

        // Replacing e2 keeps it in the middle; soak lands at the end.
        let mut b2 = b.clone();
        b2.verdict(true, "fixed");
        let mut soak = Report::new("soak", "campaign", "c", &["stat"]);
        soak.verdict(true, "clean");
        let merged = merge_json(&doc, &[b2, soak]).unwrap();
        let e1 = merged.find("\"e1\"").unwrap();
        let e2 = merged.find("\"e2\"").unwrap();
        let sk = merged.find("\"soak\"").unwrap();
        assert!(e1 < e2 && e2 < sk, "{merged}");
        assert!(merged.contains("\"verdict\":\"REPRODUCED — fixed\""));
        assert!(!merged.contains("slope off"));
        assert!(merged.ends_with("}\n"));

        // Merging is idempotent: a second identical merge is byte-equal.
        let again = merge_json(&merged, &[]).unwrap();
        assert_eq!(merged, again);

        // Merging into an empty document works too.
        let mut only = Report::new("soak", "campaign", "c", &["stat"]);
        only.verdict(true, "clean");
        let fresh = merge_json("{}\n", std::slice::from_ref(&only)).unwrap();
        assert_eq!(fresh, to_json(&[only]));
    }

    #[test]
    fn merging_new_experiment_keys_preserves_foreign_entries_bytewise() {
        // Regression: a subset run (`report e24 e25`) merges brand-new
        // top-level keys into a BENCH_report.json that already holds
        // registry entries *and* foreign rows other harnesses own (bt1
        // from the block-tape bench, the soak campaign). The new keys
        // must append; every pre-existing member must survive with its
        // exact bytes — an earlier rewrite path clobbered them.
        let mut e3 = Report::new("e3", "fingerprint", "c", &["N", "scans"]);
        e3.row(vec!["64".into(), "2".into()]);
        e3.verdict(true, "flat");
        let mut bt1 = Report::new("bt1", "block tape", "c", &["block", "ns"]);
        bt1.row(vec!["4096".into(), "12".into()]);
        bt1.verdict(true, "amortized");
        let mut soak = Report::new("soak", "campaign", "c", &["stat"]);
        soak.verdict(true, "clean");
        let doc = to_json(&[e3.clone(), bt1.clone(), soak.clone()]);

        let mut e24 = Report::new("e24", "mpc flat", "c", &["p", "rounds"]);
        e24.row(vec!["16".into(), "1".into()]);
        e24.verdict(true, "flat at 1");
        let mut e25 = Report::new("e25", "mpc log", "c", &["p", "rounds"]);
        e25.row(vec!["16".into(), "4".into()]);
        e25.verdict(true, "⌈log₂p⌉");
        let merged = merge_json(&doc, &[e24.clone(), e25.clone()]).unwrap();

        for old in [&e3, &bt1, &soak] {
            assert!(
                merged.contains(&entry_json(old)),
                "member {} not preserved bytewise:\n{merged}",
                old.id
            );
        }
        let pos = |id: &str| merged.find(&format!("\"{id}\"")).unwrap();
        assert!(
            pos("e3") < pos("bt1")
                && pos("bt1") < pos("soak")
                && pos("soak") < pos("e24")
                && pos("e24") < pos("e25"),
            "new keys must append after the existing members: {merged}"
        );
        // The merged document is itself a valid merge target.
        assert_eq!(merge_json(&merged, &[]).unwrap(), merged);
    }

    #[test]
    fn merge_json_rejects_malformed_documents() {
        for bad in ["", "[]", "{\"a\":1", "{\"a\" 1}", "{x:1}"] {
            let err = merge_json(bad, &[]).unwrap_err();
            assert!(matches!(err, StError::Io(_)), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn save_text_reports_io_errors_cleanly() {
        let r = Report::new("e0", "demo", "c", &["a"]);
        let err = save_text(std::path::Path::new("/nonexistent/dir/report.txt"), &[r]).unwrap_err();
        assert!(
            matches!(err, StError::Io(_)),
            "expected StError::Io, got {err:?}"
        );
        assert!(err.to_string().contains("create"));
    }

    #[test]
    fn saves_are_atomic_and_leave_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("st_bench_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");

        // A previous artifact must survive untouched until the rename.
        std::fs::write(&path, "previous contents").unwrap();
        let mut r = Report::new("e1", "first", "c", &["x"]);
        r.verdict(true, "ok");
        save_text(&path, std::slice::from_ref(&r)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("[E1] first"));

        save_json(&dir.join("out.json"), &[r]).unwrap();
        assert!(std::fs::read_to_string(dir.join("out.json"))
            .unwrap()
            .contains("\"e1\""));

        // No .tmp siblings left behind by either save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
