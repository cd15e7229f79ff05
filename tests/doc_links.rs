//! Link checker for the workspace documentation: every relative
//! markdown link in `README.md` and `docs/*.md` must point at a file
//! (or directory) that exists in the repository, so the docs map and
//! the figure-reproduction guide cannot rot silently. CI runs this
//! suite explicitly (`cargo test --test doc_links`) as the
//! link-checker gate.

use std::path::{Path, PathBuf};

/// The documents under link-checking (workspace-relative).
fn documents() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md")];
    let dir = root.join("docs");
    let entries = std::fs::read_dir(&dir).expect("docs/ exists");
    for entry in entries {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    docs.sort();
    docs
}

/// Extracts every inline markdown link target (`[text](target)`) from
/// `source`, ignoring images' leading `!` (the target syntax is the
/// same).
fn link_targets(source: &str) -> Vec<String> {
    let bytes = source.as_bytes();
    let mut targets = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(len) = source[start..].find(')') {
                targets.push(source[start..start + len].to_string());
                i = start + len;
                continue;
            }
        }
        i += 1;
    }
    targets
}

#[test]
fn relative_markdown_links_resolve() {
    let mut checked = 0usize;
    let mut broken = Vec::new();
    for doc in documents() {
        let source =
            std::fs::read_to_string(&doc).unwrap_or_else(|e| panic!("{}: {e}", doc.display()));
        let base = doc.parent().expect("documents live in a directory");
        for target in link_targets(&source) {
            // External links and pure in-page anchors are out of scope
            // (the checker is offline); only file links are verified.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or(&target);
            if path.is_empty() {
                continue;
            }
            checked += 1;
            if !base.join(path).exists() {
                broken.push(format!("{}: {target}", doc.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
    assert!(
        checked >= 10,
        "the docs should carry at least a handful of relative links \
         (found {checked}); did the extractor break?"
    );
}

#[test]
fn extractor_sees_inline_links() {
    let targets = link_targets("see [a](x.md), ![img](y.png) and [b](docs/z.md#frag)");
    assert_eq!(targets, vec!["x.md", "y.png", "docs/z.md#frag"]);
}

#[test]
fn figures_doc_names_every_bench_binary() {
    // docs/FIGURES.md is the figure → binary map; every bin in
    // crates/hisq-bench/src/bin and every bench target in
    // crates/hisq-bench/benches must appear in it, so a new executable
    // cannot ship undocumented.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let figures = std::fs::read_to_string(root.join("docs/FIGURES.md")).expect("FIGURES.md");
    let mut named = 0;
    for dir in ["crates/hisq-bench/src/bin", "crates/hisq-bench/benches"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("target dir") {
            let path = entry.expect("readable target entry").path();
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("target names are UTF-8");
            assert!(
                figures.contains(&format!("`{name}`")),
                "docs/FIGURES.md does not mention `{name}` from {dir}"
            );
            named += 1;
        }
    }
    assert!(named >= 3, "found only {named} bins and bench targets");
}
