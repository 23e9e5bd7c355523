//! Rule-engine tests over the seeded fixture files in `tests/fixtures/`.
//!
//! Each fixture deliberately contains both violations and near-misses
//! (violating tokens inside strings, comments, raw strings, `#[cfg(test)]`
//! regions) so the tests pin *both* directions: the rules fire where they
//! must, and the lexer masking keeps them quiet where they must not. The
//! workspace walker never descends into `fixtures/` directories
//! (`igr_lint::SKIP_DIRS`), so these seeded violations can never dirty the
//! live scan.

use igr_lint::{lint_sources, parse_allowlist, RuleConfig, SourceFile};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Scan one fixture under a chosen root-relative path (which is what scopes
/// the per-file rules) with no allowlist.
fn scan_as(rel_path: &str, name: &str) -> Vec<(String, usize, String)> {
    let file = SourceFile::new(rel_path.to_string(), fixture(name));
    let report = lint_sources(&[file], &RuleConfig::default(), &[]);
    report
        .findings
        .iter()
        .map(|f| (f.rule.to_string(), f.line, f.snippet.clone()))
        .collect()
}

#[test]
fn unsafe_in_strings_comments_and_raw_strings_never_fires() {
    // Outside any rule-scoped path: only the unsafe rule applies.
    let findings = scan_as("crates/igr-x/src/a.rs", "strings_and_comments.rs");
    assert_eq!(
        findings.len(),
        1,
        "exactly the un-audited unsafe block must fire, got {findings:?}"
    );
    let (rule, line, snippet) = &findings[0];
    assert_eq!(rule, "unsafe-requires-safety");
    assert!(
        snippet.contains("unsafe") && *line > 20,
        "must point at `unaudited`, got line {line}: {snippet}"
    );
}

#[test]
fn safety_comment_on_wrong_line_does_not_count() {
    let findings = scan_as("crates/igr-x/src/b.rs", "safety_wrong_line.rs");
    // `broken_link` fires (code line between SAFETY and unsafe);
    // `attribute_between` and `trailing_same_line` are covered.
    assert_eq!(findings.len(), 1, "got {findings:?}");
    assert_eq!(findings[0].0, "unsafe-requires-safety");
    assert_eq!(findings[0].1, 8, "must flag the unsafe in broken_link");
}

#[test]
fn codec_and_wall_clock_rules_are_path_scoped() {
    // Under a codec + hashed path: HashMap (x2: use + signature) and
    // Instant (x2: use + call) fire — but never from the comment or string.
    let findings = scan_as("crates/igr-campaign/src/persist.rs", "codec_and_clock.rs");
    let codec: Vec<_> = findings
        .iter()
        .filter(|f| f.0 == "no-unordered-iteration-in-codecs")
        .collect();
    let clock: Vec<_> = findings
        .iter()
        .filter(|f| f.0 == "no-wall-clock-in-hashed-paths")
        .collect();
    assert_eq!(codec.len(), 2, "HashMap in use + fn signature: {codec:?}");
    assert_eq!(clock.len(), 2, "Instant in use + now() call: {clock:?}");
    assert!(
        findings.iter().all(|f| f.1 != 8),
        "the comment line must never fire: {findings:?}"
    );

    // The same file outside the configured paths is silent.
    let elsewhere = scan_as("crates/igr-x/src/c.rs", "codec_and_clock.rs");
    assert!(elsewhere.is_empty(), "got {elsewhere:?}");
}

#[test]
fn panic_policy_skips_cfg_test_regions() {
    let findings = scan_as("crates/igr-core/src/fake.rs", "panic_test_region.rs");
    let panics: Vec<_> = findings.iter().filter(|f| f.0 == "panic-policy").collect();
    assert_eq!(
        panics.len(),
        2,
        "library unwrap + expect fire, test-region ones do not: {panics:?}"
    );
    assert!(panics.iter().all(|f| f.1 < 12), "got {panics:?}");

    // Outside the panic-free crate prefixes the rule does not apply at all.
    let elsewhere = scan_as("crates/igr-bench/src/fake.rs", "panic_test_region.rs");
    assert!(
        elsewhere.iter().all(|f| f.0 != "panic-policy"),
        "got {elsewhere:?}"
    );
}

#[test]
fn single_march_loop_fires_outside_the_driver_only() {
    // A parallel.rs-like file: exactly the library loop fires — not the
    // test-region call, the string, or the comment.
    let findings = scan_as("crates/igr-app/src/parallel.rs", "march_loop.rs");
    assert_eq!(findings.len(), 1, "got {findings:?}");
    let (rule, line, snippet) = &findings[0];
    assert_eq!(rule, "single-march-loop");
    assert_eq!(*line, 7, "must flag the loop body: {snippet}");
    assert_eq!(
        scan_as("crates/igr-campaign/src/exec.rs", "march_loop.rs").len(),
        1
    );

    // The files that own a marching loop, and crates outside the rule's
    // scope, are silent.
    for path in [
        "crates/igr-app/src/driver.rs",
        "crates/igr-app/src/grind.rs",
        "crates/igr-bench/src/bin/fig2.rs",
    ] {
        let elsewhere = scan_as(path, "march_loop.rs");
        assert!(elsewhere.is_empty(), "{path}: {elsewhere:?}");
    }
}

#[test]
fn allowlist_hit_suppresses_and_miss_goes_stale() {
    let file = SourceFile::new(
        "crates/igr-core/src/fake.rs".to_string(),
        fixture("panic_test_region.rs"),
    );
    let entries = parse_allowlist(
        "panic-policy | igr-core/src/fake.rs | v.unwrap() | fixture: invariant documented\n\
         panic-policy | igr-core/src/fake.rs | no-such-snippet | fixture: never matches\n",
    )
    .unwrap();
    let report = lint_sources(&[file], &RuleConfig::default(), &entries);

    // The unwrap is allowlisted (justification attached), the expect is not.
    let allowed: Vec<_> = report.findings.iter().filter(|f| f.allowed).collect();
    assert_eq!(allowed.len(), 1, "{:?}", report.findings);
    assert_eq!(
        allowed[0].justification.as_deref(),
        Some("fixture: invariant documented")
    );
    let open: Vec<_> = report.violations().collect();
    assert_eq!(open.len(), 1, "the .expect( finding stays open");

    // The second entry matched nothing: reported stale, and staleness alone
    // makes the report dirty.
    assert_eq!(report.stale_allow.len(), 1);
    assert_eq!(report.stale_allow[0].pattern, "no-such-snippet");
    assert!(!report.is_clean());
}

#[test]
fn docs_policy_fires_on_lib_roots_only() {
    let bare = "pub fn undocumented() {}\n";
    let report = lint_sources(
        &[
            SourceFile::new("crates/igr-x/src/lib.rs".into(), bare.to_string()),
            SourceFile::new("crates/igr-x/src/other.rs".into(), bare.to_string()),
            SourceFile::new("vendor/fake/src/lib.rs".into(), bare.to_string()),
            SourceFile::new(
                "crates/igr-y/src/lib.rs".into(),
                "#![deny(missing_docs)]\n//! ok\n".to_string(),
            ),
        ],
        &RuleConfig::default(),
        &[],
    );
    let docs: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "docs-policy")
        .collect();
    assert_eq!(docs.len(), 1, "{docs:?}");
    assert_eq!(docs[0].file, "crates/igr-x/src/lib.rs");
}
