//! The regression corpus: one shrunk replay line per checked-in file.
//!
//! Policy (see DESIGN.md §14 "Corpus policy"): every failure the
//! explorer finds is shrunk and appended here; corpus files are never
//! edited by hand and never deleted while the invariant they pinned still
//! exists. CI replays the whole corpus on every run, so a fixed bug stays
//! fixed.
//!
//! File format: `#`-prefixed comment lines (provenance: seed, date, the
//! violated oracle), then exactly one `sim(...)` line.

use crate::config::{parse, SimConfig};
use std::io;
use std::path::{Path, PathBuf};

/// Default corpus location, relative to the workspace root.
pub const DEFAULT_DIR: &str = "tests/corpus";

/// Load every `*.ron` corpus file under `dir`, sorted by file name for a
/// deterministic replay order. Returns `(path, config)` pairs; a file
/// that fails to parse is reported as an error so CI fails loudly
/// instead of silently skipping a regression.
pub fn load(dir: &Path) -> Result<Vec<(PathBuf, SimConfig)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ron"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let line = text
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'))
            .ok_or_else(|| format!("{}: no config line found", path.display()))?;
        let config = parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, config));
    }
    Ok(out)
}

/// Append a shrunk failing config to the corpus. The file name embeds
/// the originating seed and a content hash, so re-finding the same
/// minimal case is idempotent.
pub fn append(dir: &Path, config: &SimConfig, oracle: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let line = config.render();
    let path = dir.join(format!(
        "seed-{}-{:08x}.ron",
        config.seed,
        content_hash(&line)
    ));
    let body = format!(
        "# shrunk regression case from seed {} (violated oracle: {oracle})\n# replay: cargo xtask sim --replay '{line}'\n{line}\n",
        config.seed
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

/// FNV-1a over the rendered line (stable across platforms and sessions).
fn content_hash(s: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in s.bytes() {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::generate;

    #[test]
    fn append_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("qcc-sim-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c1 = generate(1);
        let c2 = generate(2);
        append(&dir, &c1, "conservation").unwrap();
        append(&dir, &c2, "ban_liveness").unwrap();
        // Idempotent: same config → same file name, no duplicate entry.
        append(&dir, &c1, "conservation").unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        let configs: Vec<&SimConfig> = loaded.iter().map(|(_, c)| c).collect();
        assert!(configs.contains(&&c1));
        assert!(configs.contains(&&c2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_fails_loudly_on_garbage() {
        let dir =
            std::env::temp_dir().join(format!("qcc-sim-corpus-garbage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.ron"), "# comment only\nnot a config\n").unwrap();
        assert!(load(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
