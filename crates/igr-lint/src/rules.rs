//! The rule engine: each rule scans lexed source views and emits findings.
//!
//! Rules are *lexical*, not semantic — the offline environment has no `syn`
//! or `clippy` — but the lexer (`crate::lexer`) makes them precise enough to
//! be load-bearing: code patterns are searched in a mask where every
//! comment and string literal has been blanked, so `"unsafe"` in a test
//! string or `.unwrap()` in a doc example can never fire, and `// SAFETY:`
//! is only honored when it is a real comment.
//!
//! The catalog (see `docs/ANALYSIS.md` for the policy rationale):
//!
//! | rule | invariant |
//! |---|---|
//! | `unsafe-requires-safety` | every `unsafe` is preceded by `// SAFETY:` |
//! | `no-wall-clock-in-hashed-paths` | no `Instant`/`SystemTime` in content-hash codec modules |
//! | `no-unordered-iteration-in-codecs` | no `HashMap`/`HashSet` in persist/protocol/checkpoint encoders |
//! | `panic-policy` | no `.unwrap()`/`.expect(` in non-test library code of core crates |
//! | `docs-policy` | public-surface crates carry `#![deny(missing_docs)]` |
//! | `single-march-loop` | only `Driver::run` and the grind probe call `.step()` in app/campaign library code |

use crate::findings::Finding;
use crate::lexer;

/// A lexed source file ready for rule scans.
pub struct SourceFile {
    /// Path relative to the lint root, forward slashes.
    pub rel_path: String,
    /// Raw file contents.
    pub text: String,
    /// Code view: comments and literals blanked (newlines kept).
    pub code: String,
    /// Comment view: everything but comments blanked (newlines kept).
    pub comments: String,
}

impl SourceFile {
    /// Lex `text` into the masked views rules need.
    pub fn new(rel_path: String, text: String) -> Self {
        let spans = lexer::lex(&text);
        let code = lexer::code_mask(&text, &spans);
        let comments = lexer::comment_mask(&text, &spans);
        SourceFile {
            rel_path,
            text,
            code,
            comments,
        }
    }

    /// The original source line containing byte offset `pos`, trimmed.
    fn line_at(&self, pos: usize) -> (usize, String) {
        let line = lexer::line_of(&self.text, pos);
        let snippet = self
            .text
            .lines()
            .nth(line - 1)
            .unwrap_or_default()
            .trim()
            .to_string();
        (line, snippet)
    }
}

/// Which files each scoped rule applies to. Paths are root-relative
/// suffix/prefix strings with forward slashes.
pub struct RuleConfig {
    /// `no-wall-clock-in-hashed-paths`: modules feeding the
    /// `CONTENT_HASH_VERSION` codecs — a wall-clock value reaching these
    /// files risks perturbing content hashes or wire bytes.
    pub hashed_path_files: Vec<&'static str>,
    /// `no-unordered-iteration-in-codecs`: encoder modules whose output
    /// must be byte-stable — `HashMap`/`HashSet` iteration order would make
    /// identical results serialize differently run to run.
    pub codec_files: Vec<&'static str>,
    /// `panic-policy`: crate source prefixes whose non-test library code
    /// must not `unwrap`/`expect` (campaign workers isolate panics, but a
    /// panic in core solver code destroys an in-flight rank universe).
    pub panic_free_prefixes: Vec<&'static str>,
    /// `docs-policy`: lib.rs files excluded from the missing_docs
    /// requirement (vendored stand-ins are API mirrors, not public surface).
    pub docs_exempt_prefixes: Vec<&'static str>,
    /// `single-march-loop`: crate source prefixes whose non-test library
    /// code must march through `Driver::run` instead of calling `.step()`.
    pub march_loop_prefixes: Vec<&'static str>,
    /// `single-march-loop`: the files under those prefixes that own a
    /// marching loop (the driver itself, and the grind probe whose timed
    /// region must contain nothing but steps).
    pub march_loop_files: Vec<&'static str>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            hashed_path_files: vec![
                "crates/igr-campaign/src/spec.rs",
                "crates/igr-campaign/src/persist.rs",
                "crates/igr-campaign/src/protocol.rs",
            ],
            codec_files: vec![
                "crates/igr-campaign/src/persist.rs",
                "crates/igr-campaign/src/protocol.rs",
                "crates/igr-app/src/checkpoint.rs",
                "crates/igr-app/src/actions.rs",
                "crates/igr-app/src/recovery.rs",
            ],
            panic_free_prefixes: vec![
                "crates/igr-core/src/",
                "crates/igr-grid/src/",
                "crates/igr-campaign/src/",
            ],
            docs_exempt_prefixes: vec!["vendor/"],
            march_loop_prefixes: vec!["crates/igr-app/src/", "crates/igr-campaign/src/"],
            march_loop_files: vec![
                "crates/igr-app/src/driver.rs",
                "crates/igr-app/src/grind.rs",
            ],
        }
    }
}

/// Run every rule over `files`, appending findings.
pub fn run_all(files: &[SourceFile], cfg: &RuleConfig, out: &mut Vec<Finding>) {
    for f in files {
        unsafe_requires_safety(f, out);
        banned_words_in(
            f,
            cfg.hashed_path_files.iter(),
            &["Instant", "SystemTime"],
            "no-wall-clock-in-hashed-paths",
            "wall-clock types must not reach content-hash codec modules; keep telemetry \
             timing in queue/exec state (never hashed, never serialized)",
            out,
        );
        banned_words_in(
            f,
            cfg.codec_files.iter(),
            &["HashMap", "HashSet"],
            "no-unordered-iteration-in-codecs",
            "encoder modules must be byte-stable: use Vec/BTreeMap or sort before \
             iterating — HashMap order varies per process and would torture \
             byte-level store/wire diffs",
            out,
        );
        panic_policy(f, cfg, out);
        docs_policy(f, cfg, out);
        single_march_loop(f, cfg, out);
    }
}

/// `unsafe-requires-safety`: every `unsafe` token in code must have a
/// comment containing `SAFETY:` either on the same line or in the comment
/// block immediately above (blank and attribute lines may intervene; any
/// other code line breaks the link).
fn unsafe_requires_safety(f: &SourceFile, out: &mut Vec<Finding>) {
    for at in lexer::find_word(&f.code, "unsafe") {
        let (line, snippet) = f.line_at(at);
        if has_safety_comment(f, line) {
            continue;
        }
        out.push(Finding {
            rule: "unsafe-requires-safety",
            file: f.rel_path.clone(),
            line,
            snippet,
            message: "`unsafe` without an adjacent `// SAFETY:` comment — state the \
                      disjointness/lifetime argument the block relies on"
                .into(),
            allowed: false,
            justification: None,
        });
    }
}

/// Is line `line` (1-based) covered by a `SAFETY:` comment?
fn has_safety_comment(f: &SourceFile, line: usize) -> bool {
    let comment_lines: Vec<&str> = f.comments.lines().collect();
    let code_lines: Vec<&str> = f.code.lines().collect();
    let idx = line - 1;
    // Same line (trailing comment).
    if comment_lines
        .get(idx)
        .is_some_and(|l| l.contains("SAFETY:"))
    {
        return true;
    }
    // Walk upward through the adjacent comment/attribute/blank block.
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let comment = comment_lines.get(i).map_or("", |l| l.trim());
        let code = code_lines.get(i).map_or("", |l| l.trim());
        if comment.contains("SAFETY:") {
            return true;
        }
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !code.is_empty() && !is_attr {
            return false; // hit a real code line: the comment block ended
        }
        // Pure comment (without the marker), blank, or attribute line:
        // keep walking upward.
    }
    false
}

/// Shared scanner for "these identifiers must not appear in these files".
fn banned_words_in<'a>(
    f: &SourceFile,
    files: impl Iterator<Item = &'a &'static str>,
    words: &[&str],
    rule: &'static str,
    message: &str,
    out: &mut Vec<Finding>,
) {
    let applies = files.into_iter().any(|suffix| f.rel_path.ends_with(suffix));
    if !applies {
        return;
    }
    for word in words {
        for at in lexer::find_word(&f.code, word) {
            let (line, snippet) = f.line_at(at);
            out.push(Finding {
                rule,
                file: f.rel_path.clone(),
                line,
                snippet,
                message: format!("`{word}` in `{}`: {message}", f.rel_path),
                allowed: false,
                justification: None,
            });
        }
    }
}

/// `panic-policy`: `.unwrap()` / `.expect(` outside `#[cfg(test)]` regions
/// of the configured crates' library sources.
fn panic_policy(f: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
    let applies = cfg
        .panic_free_prefixes
        .iter()
        .any(|p| f.rel_path.starts_with(p));
    if !applies {
        return;
    }
    banned_calls_outside_tests(
        f,
        &[".unwrap()", ".expect("],
        "panic-policy",
        "unwrap/expect in non-test library code — return an error or \
         justify the invariant in lint.allow",
        out,
    );
}

/// `single-march-loop`: `.step()` outside `#[cfg(test)]` regions of the
/// configured crates' library sources, except in the files that own a
/// marching loop. Every capability (observe, act, recover, decompose)
/// composes on `Driver::run`; a second hand-rolled loop gets none of them.
fn single_march_loop(f: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
    let applies = cfg
        .march_loop_prefixes
        .iter()
        .any(|p| f.rel_path.starts_with(p))
        && !cfg.march_loop_files.contains(&f.rel_path.as_str());
    if !applies {
        return;
    }
    banned_calls_outside_tests(
        f,
        &[".step()"],
        "single-march-loop",
        "`.step()` outside the driver — march through `Driver::run` and attach what \
         the run needs (observe/control/recover/checkpoint_to) instead of a second loop",
        out,
    );
}

/// Shared scanner for "these call patterns must not appear in this file's
/// non-test code".
fn banned_calls_outside_tests(
    f: &SourceFile,
    patterns: &[&str],
    rule: &'static str,
    message: &str,
    out: &mut Vec<Finding>,
) {
    let tests = test_regions(&f.code);
    for pat in patterns {
        let mut from = 0usize;
        while let Some(rel) = f.code[from..].find(pat) {
            let at = from + rel;
            from = at + pat.len();
            if tests.iter().any(|r| r.contains(&at)) {
                continue;
            }
            let (line, snippet) = f.line_at(at);
            out.push(Finding {
                rule,
                file: f.rel_path.clone(),
                line,
                snippet,
                message: message.into(),
                allowed: false,
                justification: None,
            });
        }
    }
}

/// Byte ranges of `#[cfg(test)]`-gated items (the following `mod`/`fn`/item
/// body, brace-matched on the code mask so strings never confuse it).
pub fn test_regions(code: &str) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    for marker in ["#[cfg(test)]", "#[cfg(all(test"] {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(marker) {
            let attr_at = from + rel;
            from = attr_at + marker.len();
            // Scan forward to the gated item's opening `{` (or a `;` for
            // body-less items), skipping any further attributes.
            let mut i = attr_at + marker.len();
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => {
                        open = Some(i);
                        break;
                    }
                    b';' => break,
                    _ => i += 1,
                }
            }
            let Some(open) = open else { continue };
            let mut depth = 0usize;
            let mut j = open;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push(attr_at..j + 1);
        }
    }
    out
}

/// `docs-policy`: crate roots (`src/lib.rs`) must carry
/// `#![deny(missing_docs)]` unless exempted (vendored stand-ins).
fn docs_policy(f: &SourceFile, cfg: &RuleConfig, out: &mut Vec<Finding>) {
    let is_lib_root = f.rel_path.ends_with("/src/lib.rs") || f.rel_path == "src/lib.rs";
    if !is_lib_root {
        return;
    }
    if cfg
        .docs_exempt_prefixes
        .iter()
        .any(|p| f.rel_path.starts_with(p))
    {
        return;
    }
    if f.code.contains("#![deny(missing_docs)]") {
        return;
    }
    out.push(Finding {
        rule: "docs-policy",
        file: f.rel_path.clone(),
        line: 0,
        snippet: format!("crate root {} lacks #![deny(missing_docs)]", f.rel_path),
        message: "public-surface crates must deny missing docs (igr-campaign/igr-obs \
                  set the bar); allowlist with a justification while a crate's doc \
                  pass is pending"
            .into(),
        allowed: false,
        justification: None,
    });
}
