//! Coverage test for the workspace's environment flags.
//!
//! `gisolap_obs::config` is the single registry of `GISOLAP_*` runtime
//! knobs; this test keeps the registry, the docs and the one literal
//! copy outside the registry (the vendored rayon shim) in sync:
//!
//! 1. every flag in `config::ALL` is documented — name *and* stated
//!    default — in README.md or OBSERVABILITY.md;
//! 2. the rayon shim's hand-written `"GISOLAP_THREADS"` literal matches
//!    `config::THREADS.name` (the shim mirrors the real crate's
//!    independence, so it cannot link against `gisolap-obs`);
//! 3. registry entries are well-formed (non-empty docs/defaults);
//! 4. every registered flag still has a reader, so a flag cannot outlive
//!    the last code that consults it;
//! 5. `GISOLAP_THREADS` has one consumer: `crates/core/src/engine.rs` is
//!    the only source file that fans work out over the rayon shim.

use gisolap_obs::config;
use std::path::{Path, PathBuf};

#[test]
fn every_flag_is_documented() {
    let readme = include_str!("../../README.md");
    let obs = include_str!("../../OBSERVABILITY.md");
    for flag in config::ALL {
        assert!(
            readme.contains(flag.name) || obs.contains(flag.name),
            "flag `{}` is in config::ALL but neither README.md nor \
             OBSERVABILITY.md mentions it",
            flag.name
        );
    }
}

#[test]
fn rayon_shim_literal_matches_registry() {
    // The shim reads the variable by a literal string (it predates the
    // registry and must stay dependency-free); pin the two together so a
    // rename in either place fails loudly.
    let shim = include_str!("../../shims/rayon/src/lib.rs");
    assert!(
        shim.contains(&format!("\"{}\"", config::THREADS.name)),
        "shims/rayon reads a different variable than config::THREADS ({})",
        config::THREADS.name
    );
}

#[test]
fn registry_entries_are_well_formed() {
    for flag in config::ALL {
        assert!(flag.name.starts_with("GISOLAP_"), "{}", flag.name);
        assert!(!flag.doc.is_empty(), "{} has no doc", flag.name);
        assert!(!flag.default.is_empty(), "{} has no default", flag.name);
    }
}

/// The non-test lines of every `src/**/*.rs` file under `crates/*` and
/// `shims/*`, except the registry itself, keyed by path relative to the
/// workspace root: comment lines are dropped and each file is cut at its
/// first `#[cfg(test)]`.
fn reader_sources() -> Vec<(PathBuf, String)> {
    fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
            let path = entry.path();
            if path.is_dir() {
                rs_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let registry = root.join("crates/obs/src/config.rs");
    let mut files = Vec::new();
    for group in ["crates", "shims"] {
        for member in std::fs::read_dir(root.join(group)).unwrap() {
            let src = member.unwrap().path().join("src");
            if src.is_dir() {
                rs_files(&src, &mut files);
            }
        }
    }
    files.retain(|f| *f != registry);
    files
        .into_iter()
        .map(|f| {
            let text = std::fs::read_to_string(&f).unwrap();
            let code: Vec<&str> = text
                .lines()
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .filter(|l| !l.trim_start().starts_with("//"))
                .collect();
            (f.strip_prefix(root).unwrap().to_path_buf(), code.join("\n"))
        })
        .collect()
}

/// Whether `code` names `needle` followed by a non-identifier character.
fn names(code: &str, needle: &str) -> bool {
    code.match_indices(needle).any(|(at, _)| {
        !code[at + needle.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
    })
}

#[test]
fn every_registered_flag_has_a_reader() {
    let sources = reader_sources();
    for flag in config::ALL {
        // `GISOLAP_CASES` sizes the property suites; its reader is
        // `config::cases()`, called by those suites.
        if flag.name == config::CASES.name {
            let suites = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
            let called = std::fs::read_dir(suites).unwrap().any(|f| {
                std::fs::read_to_string(f.unwrap().path())
                    .unwrap()
                    .contains("config::cases()")
            });
            assert!(called, "no property suite reads `config::cases()`");
            continue;
        }
        let constant = format!("config::{}", &flag.name["GISOLAP_".len()..]);
        let literal = format!("\"{}\"", flag.name);
        assert!(
            sources
                .iter()
                .any(|(_, code)| names(code, &constant) || code.contains(&literal)),
            "flag `{}` is registered in config::ALL but no non-test file under \
             crates/*/src or shims/*/src reads `{constant}` or {literal}",
            flag.name
        );
    }
}

#[test]
fn only_the_engine_fans_out() {
    // Parallelism is decided in one place, by records scanned; every
    // other module runs on the caller's thread.
    let engine = Path::new("crates/core/src/engine.rs");
    let offenders: Vec<String> = reader_sources()
        .into_iter()
        .filter(|(path, _)| path.starts_with("crates") && path != engine)
        .flat_map(|(path, code)| {
            ["rayon::", "par_iter"]
                .into_iter()
                .filter(move |needle| code.contains(needle))
                .map(move |needle| format!("{} uses `{needle}`", path.display()))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "only {} may fan work out across threads: {offenders:?}",
        engine.display()
    );
}
