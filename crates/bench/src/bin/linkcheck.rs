//! CI guard: every relative link in the repo's markdown must resolve.
//!
//! ```text
//! linkcheck [ROOT]
//! ```
//!
//! Walks `ROOT` (default `.`) for `*.md` files — skipping `target/`,
//! `.git/`, and anything else that starts with a dot — extracts inline
//! `[text](destination)` links plus reference definitions
//! (`[label]: destination`), and checks that every *relative*
//! destination exists on disk, resolved against the linking file's
//! directory. External schemes (`http:`, `https:`, `mailto:`) and
//! pure in-page anchors (`#…`) are skipped; a `path#anchor` suffix is
//! stripped before the existence check.
//!
//! `README.md` and `docs/*.md` additionally have their backticked repo
//! paths checked: a code span naming `crates/…`, `tests/…` or
//! `examples/…`, optionally with a `:LINE` suffix, must name a file that
//! exists (resolved against `ROOT`) and, with a line, has at least that
//! many lines. Exits nonzero listing every broken link or path, so docs
//! can't drift from the tree they describe.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn markdown_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            markdown_files(&path, out)?;
        } else if name.to_ascii_lowercase().ends_with(".md") {
            out.push(path);
        }
    }
    Ok(())
}

/// The lines of a markdown document outside fenced code blocks —
/// schemas and shell examples are full of `[...]` and paths that are
/// neither links nor references.
fn prose_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut in_fence = false;
    text.lines().filter(move |line| {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            return false;
        }
        !in_fence
    })
}

/// Extracts link destinations from one markdown document: inline
/// `[text](dest)` (tolerating one level of nested brackets in the text,
/// e.g. image-in-link) and reference definitions `[label]: dest` at
/// line starts, outside fenced code blocks.
fn destinations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in prose_lines(text) {
        let trimmed = line.trim_start();
        // Reference definition: [label]: destination
        if let Some(rest) = trimmed.strip_prefix('[') {
            if let Some(close) = rest.find(']') {
                if let Some(dest) = rest[close + 1..].strip_prefix(':') {
                    let dest = dest.trim();
                    if !dest.is_empty() {
                        out.push(dest.split_whitespace().next().unwrap().to_string());
                        continue;
                    }
                }
            }
        }
        // Inline links: scan for ](dest), then walk brackets back.
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < bytes.len() && depth > 0 {
                    match bytes[j] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                if depth == 0 {
                    let dest = line[start..j - 1].trim();
                    // `[x](dest "title")` — the destination is the
                    // first whitespace-delimited token.
                    if let Some(first) = dest.split_whitespace().next() {
                        out.push(first.to_string());
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// Backticked repo paths in one markdown document, outside fenced code
/// blocks: code spans that are exactly `crates/…`, `tests/…` or
/// `examples/…` (path characters only — globs and brace lists are not
/// references), with the `:LINE` suffix split off when present.
fn code_paths(text: &str) -> Vec<(String, Option<usize>)> {
    let mut out = Vec::new();
    for line in prose_lines(text) {
        // Odd-numbered pieces between backticks are code spans.
        for span in line.split('`').skip(1).step_by(2) {
            let (path, line_no) = match span.rsplit_once(':') {
                Some((path, n)) => match n.parse::<usize>() {
                    Ok(n) => (path, Some(n)),
                    Err(_) => continue,
                },
                None => (span, None),
            };
            let is_repo_path = ["crates/", "tests/", "examples/"]
                .iter()
                .any(|prefix| path.starts_with(prefix))
                && path
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c));
            if is_repo_path {
                out.push((path.to_string(), line_no));
            }
        }
    }
    out
}

/// Why a backticked repo path does not resolve under `root`, or `None`
/// when it does.
fn code_path_problem(root: &Path, path: &str, line: Option<usize>) -> Option<String> {
    let target = root.join(path);
    let Some(n) = line else {
        return (!target.exists()).then(|| "no such file".to_string());
    };
    match std::fs::read_to_string(&target) {
        Err(_) => Some("no such file".to_string()),
        Ok(text) => {
            let lines = text.lines().count();
            (n == 0 || n > lines).then(|| format!("line {n} is past the end ({lines} lines)"))
        }
    }
}

/// `true` when the destination is out of scope for a filesystem check.
fn is_external(dest: &str) -> bool {
    dest.starts_with('#')
        || dest.contains("://")
        || dest.starts_with("mailto:")
        || dest.starts_with("data:")
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let mut files = Vec::new();
    if let Err(e) = markdown_files(&root, &mut files) {
        eprintln!("linkcheck: cannot walk {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    files.sort();
    let mut broken: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                broken.push(format!("{}: unreadable: {e}", file.display()));
                continue;
            }
        };
        let dir = file.parent().unwrap_or(Path::new("."));
        if *file == root.join("README.md") || dir == root.join("docs") {
            for (path, line) in code_paths(&text) {
                checked += 1;
                if let Some(problem) = code_path_problem(&root, &path, line) {
                    let shown = line.map_or(path.clone(), |n| format!("{path}:{n}"));
                    broken.push(format!("{}: `{shown}`: {problem}", file.display()));
                }
            }
        }
        for dest in destinations(&text) {
            if is_external(&dest) {
                continue;
            }
            let path_part = dest.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            let target = if let Some(abs) = path_part.strip_prefix('/') {
                root.join(abs)
            } else {
                dir.join(path_part)
            };
            if !target.exists() {
                broken.push(format!(
                    "{}: broken link {dest:?} (resolved to {})",
                    file.display(),
                    target.display()
                ));
            }
        }
    }
    if broken.is_empty() {
        println!(
            "linkcheck: {checked} relative links and repo paths across {} markdown files all resolve",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("linkcheck: {} broken link(s) or path(s):", broken.len());
        for b in &broken {
            eprintln!("  {b}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_inline_and_reference_links_and_skips_fences() {
        let md = "\
see [docs](docs/API.md) and [ext](https://example.com) plus [a](#x)\n\
[ref]: ../other.md\n\
```\n\
not a [link](inside/fence.md)\n\
```\n\
[titled](path/to.md \"title\")\n";
        let d = destinations(md);
        assert_eq!(
            d,
            vec![
                "docs/API.md",
                "https://example.com",
                "#x",
                "../other.md",
                "path/to.md"
            ]
        );
        assert!(is_external("https://example.com"));
        assert!(is_external("#x"));
        assert!(!is_external("docs/API.md"));
    }

    #[test]
    fn backticked_repo_paths_must_exist_with_their_lines() {
        let md = "\
see `crates/a.rs:3` and `crates/a.rs:4`, `tests/gone.rs`, `crates/*/src`\n\
and `cargo test`\n\
```\n\
`crates/in_fence.rs:99`\n\
```\n";
        let refs = code_paths(md);
        assert_eq!(
            refs,
            vec![
                ("crates/a.rs".to_string(), Some(3)),
                ("crates/a.rs".to_string(), Some(4)),
                ("tests/gone.rs".to_string(), None),
            ]
        );
        let root = std::env::temp_dir().join(format!("jqi-linkcheck-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates")).unwrap();
        std::fs::write(root.join("crates/a.rs"), "one\ntwo\nthree\n").unwrap();
        assert_eq!(code_path_problem(&root, "crates/a.rs", Some(3)), None);
        assert_eq!(code_path_problem(&root, "crates/a.rs", None), None);
        assert!(code_path_problem(&root, "crates/a.rs", Some(4))
            .unwrap()
            .contains("past the end"));
        assert!(code_path_problem(&root, "tests/gone.rs", None).is_some());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
