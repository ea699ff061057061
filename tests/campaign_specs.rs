//! The committed campaign specs and stores agree: every
//! `reports/specs/<name>.json`, dry-run against its committed store
//! `reports/campaign-<name>/`, finds every run already stored.
//!
//! A store stops matching its spec when the spec changes, or when a change
//! to the run fingerprint (policy canonicalization, geometry defaults,
//! `STORE_FORMAT_VERSION`) re-keys the runs; either way the dry run reports
//! pending runs and this test names the spec to regenerate.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn every_committed_spec_matches_its_committed_store() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut specs: Vec<_> = fs::read_dir(root.join("reports/specs"))
        .expect("reports/specs exists")
        .map(|entry| entry.expect("readable spec entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "no campaign specs under reports/specs");

    for spec in &specs {
        let name = spec
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 name");
        let store = root.join("reports").join(format!("campaign-{name}"));
        // Checked first: a dry run opens (and so creates) a missing store.
        assert!(
            store.join("manifest.jsonl").is_file(),
            "{}: no committed store at {}",
            spec.display(),
            store.display()
        );
        let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
            .arg("campaign")
            .arg(spec)
            .arg("-o")
            .arg(&store)
            .arg("--dry-run")
            .output()
            .expect("ltp runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}: dry run failed: {}",
            spec.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(" 0 stuck,") && stdout.contains(" 0 pending"),
            "{} no longer matches {}; regenerate it with \
             `ltp campaign {} -o <DIR> && ltp report <DIR>`: {stdout}",
            spec.display(),
            store.display(),
            spec.display()
        );
    }
}
