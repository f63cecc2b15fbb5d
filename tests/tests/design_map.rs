//! Keeps `DESIGN.md` a true map of the code. Each layer of the document
//! ends in a contract table (guarantee | mechanism | enforcing test), in
//! the shape `docs/indexing.md` uses. This suite fails when:
//!
//! - a test a table names is not a `fn` under `crates/`, `tests/` or
//!   `examples/`, or a file it names does not exist;
//! - a `tests/tests/*.rs` file is cited by no table (neither by name nor
//!   through a test it defines);
//! - a citation of a section of `DESIGN.md` (the file name, `§`, a
//!   number) in any `.rs` file, any `.md` file below the root or one of
//!   the living root documents names no heading (the other root `.md`
//!   files are history and planning notes, and are exempt);
//! - the six layers are not there, each ending in its table.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const DESIGN: &str = include_str!("../../DESIGN.md");

/// The header row of every contract table.
const CONTRACT_HEADER: &str = "| guarantee | mechanism | enforcing test |";

/// The root `.md` files that describe the code as it is. The other root
/// `.md` files are history and planning notes: their `§` citations record
/// what a heading was called when they were written.
const LIVING: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
];

/// The six layers, in order.
const LAYERS: [&str; 6] = [
    "1. Paper model",
    "2. Evaluation",
    "3. Stream",
    "4. Store",
    "5. Replication and sharding",
    "6. Serving and standing queries",
];

fn repo_root() -> PathBuf {
    let tests = Path::new(env!("CARGO_MANIFEST_DIR"));
    tests
        .parent()
        .expect("tests/ sits in the repo")
        .to_path_buf()
}

/// Every file under `dir` with extension `ext`, skipping build output
/// and hidden directories.
fn files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                files(&path, ext, out);
            }
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/`, `tests/` and `examples/`.
fn sources() -> Vec<PathBuf> {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        files(&root.join(dir), "rs", &mut sources);
    }
    sources
}

/// `fn` name → the files in `sources` that define it.
fn defined_fns(sources: &[PathBuf]) -> BTreeMap<String, BTreeSet<PathBuf>> {
    let mut fns: BTreeMap<String, BTreeSet<PathBuf>> = BTreeMap::new();
    for path in sources {
        let text = fs::read_to_string(path).unwrap();
        for (i, _) in text.match_indices("fn ") {
            let before = text[..i].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let name: String = text[i + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                fns.entry(name).or_default().insert(path.clone());
            }
        }
    }
    fns
}

/// Every row of every contract table, as `(guarantee, enforcing test)`.
fn contract_rows() -> Vec<(&'static str, &'static str)> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in DESIGN.lines() {
        let line = line.trim();
        if line == CONTRACT_HEADER {
            in_table = true;
            continue;
        }
        if !in_table || line.starts_with("|---") {
            continue;
        }
        if !line.starts_with('|') {
            in_table = false;
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split(" | ").collect();
        assert_eq!(cells.len(), 3, "a contract row has three cells: {line}");
        rows.push((cells[0].trim(), cells[2].trim()));
    }
    rows
}

/// The backticked names in a table cell.
fn backticked(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

/// A cited name is a test `fn` (a `path::to::fn` cites its last
/// segment) or, when it ends in `.rs`, a source file.
enum Cited<'a> {
    Test(&'a str),
    File(&'a str),
}

fn classify(name: &str) -> Option<Cited<'_>> {
    if name.ends_with(".rs") {
        return Some(Cited::File(name));
    }
    let last = name.rsplit("::").next().unwrap();
    let ident = !last.is_empty()
        && last
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    ident.then_some(Cited::Test(last))
}

#[test]
fn every_cited_test_exists() {
    let sources = sources();
    let fns = defined_fns(&sources);
    let rows = contract_rows();
    assert!(rows.len() >= 30, "only {} contract rows found", rows.len());
    let mut problems = Vec::new();
    for (guarantee, tests) in rows {
        let names: Vec<&str> = backticked(tests).collect();
        if names.is_empty() {
            problems.push(format!("{guarantee:?} names no enforcing test"));
        }
        for name in names {
            match classify(name) {
                Some(Cited::Test(f)) if !fns.contains_key(f) => {
                    problems.push(format!("{guarantee:?}: no `fn {f}` in the tree"))
                }
                Some(Cited::File(file)) if !sources.iter().any(|p| p.ends_with(file)) => {
                    problems.push(format!("{guarantee:?}: no file `{file}`"))
                }
                None => problems.push(format!("{guarantee:?}: `{name}` is not a test or a file")),
                _ => {}
            }
        }
    }
    assert!(
        problems.is_empty(),
        "DESIGN.md contract tables: {problems:#?}"
    );
}

#[test]
fn every_integration_test_file_is_cited() {
    let fns = defined_fns(&sources());
    let mut cited_files = BTreeSet::new();
    for (_, tests) in contract_rows() {
        for name in backticked(tests) {
            match classify(name) {
                Some(Cited::File(file)) => {
                    let file = file.rsplit('/').next().unwrap();
                    cited_files.insert(file.to_string());
                }
                Some(Cited::Test(f)) => {
                    for path in fns.get(f).into_iter().flatten() {
                        let file = path.file_name().unwrap().to_string_lossy();
                        cited_files.insert(file.into_owned());
                    }
                }
                None => {}
            }
        }
    }
    let mut suites = Vec::new();
    files(&repo_root().join("tests/tests"), "rs", &mut suites);
    assert!(suites.len() >= 30, "found {} suites", suites.len());
    let uncited: Vec<String> = suites
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .filter(|name| !cited_files.contains(name))
        .collect();
    assert!(
        uncited.is_empty(),
        "tests/tests files no DESIGN.md contract table cites: {uncited:?}"
    );
}

/// The section number of each heading: `### 4.3 WAL` → `4.3`.
fn heading_ids() -> BTreeSet<String> {
    DESIGN
        .lines()
        .filter(|line| line.starts_with('#'))
        .filter_map(|line| line.trim_start_matches('#').split_whitespace().next())
        .map(|id| id.trim_end_matches('.').to_string())
        .filter(|id| id.starts_with(|c: char| c.is_ascii_digit()))
        .collect()
}

#[test]
fn every_design_citation_names_a_heading() {
    let ids = heading_ids();
    let root = repo_root();
    let mut docs = Vec::new();
    files(&root, "rs", &mut docs);
    files(&root, "md", &mut docs);
    let mut dangling = Vec::new();
    let mut citations = 0;
    for path in docs {
        let name = path.file_name().unwrap().to_string_lossy();
        let root_md = path.parent() == Some(root.as_path()) && name.ends_with(".md");
        if root_md && !LIVING.contains(&name.as_ref()) {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        for (i, _) in text.match_indices("DESIGN.md") {
            let rest = text[i + "DESIGN.md".len()..]
                .trim_start_matches('`')
                .trim_start();
            let Some(rest) = rest.strip_prefix('§') else {
                continue;
            };
            let id: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '.')
                .collect();
            let id = id.trim_end_matches('.');
            citations += 1;
            if !ids.contains(id) {
                let file = path.strip_prefix(&root).unwrap().display();
                dangling.push(format!("{file}: §{id}"));
            }
        }
    }
    assert!(citations >= 10, "found only {citations} citations");
    assert!(
        dangling.is_empty(),
        "citations naming no DESIGN.md heading: {dangling:#?}"
    );
}

#[test]
fn design_has_six_layers_each_ending_in_a_contract_table() {
    let sections: Vec<(&str, &str)> = DESIGN
        .split("\n## ")
        .skip(1)
        .map(|s| s.split_once('\n').expect("a section has a body"))
        .collect();
    let headings: Vec<&str> = sections.iter().map(|(h, _)| *h).collect();
    for (n, layer) in LAYERS.iter().enumerate() {
        let Some((_, body)) = sections.iter().find(|(h, _)| h == layer) else {
            panic!("no `## {layer}` section in {headings:?}");
        };
        assert_eq!(
            headings.iter().position(|h| h == layer),
            headings
                .iter()
                .position(|h| h.starts_with(&format!("{}. ", n + 1))),
            "layer {layer} is out of order"
        );
        let at = body
            .find(CONTRACT_HEADER)
            .unwrap_or_else(|| panic!("{layer} has no contract table"));
        let tail = body[at..].trim_end();
        assert!(
            tail.lines().all(|l| l.trim_start().starts_with('|')),
            "{layer} does not end in its contract table"
        );
    }
}
