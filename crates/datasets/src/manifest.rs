//! Per-sample manifest records: the label of every QoR sample.
//!
//! Both QoR builders label each `(design, recipe)` sample as one record;
//! the resumable one writes it to disk as a small text file with a trailing
//! CRC-32, written atomically (temp-file + rename via
//! `crate::io::write_atomic`), so a killed sweep leaves only complete,
//! verifiable records and a resumed sweep can trust what it finds.
//!
//! Records carry **no timestamps, hostnames, or other run-local state**:
//! the byte content is a pure function of the dataset configuration, so an
//! interrupted-then-resumed sweep produces a byte-identical manifest to an
//! uninterrupted one — the property the resume tests assert.
//!
//! Format (line-oriented, `key value`, order fixed):
//!
//! ```text
//! hoga-qor-record v1
//! design <name>
//! recipe_index <r>
//! seed <u64>
//! recipe <recipe string>
//! status ok|quarantined
//! initial_ands <n>
//! final_ands <n>
//! initial_depth <n>
//! final_depth <n>
//! result_hash 0x<16 hex digits>
//! lint <finding>          (zero or more)
//! incident <incident>     (zero or more)
//! crc 0x<8 hex digits>
//! ```
//!
//! `result_hash` is [`crate::io::structural_hash`] of the optimized
//! circuit; `crc` covers every byte above it. Quarantined records (guard
//! incidents) live in `quarantine/`, and neither a loader nor the in-memory
//! builder ever takes them for clean samples.

use crate::io::{crc32, write_atomic};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Name of the clean-record subdirectory under a dataset output directory.
pub const MANIFEST_DIR: &str = "manifest";
/// Name of the quarantine subdirectory for samples with guard incidents.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Whether a sample is usable training data or quarantined evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStatus {
    /// Every synthesis pass was applied and verified; the labels are clean.
    Ok,
    /// At least one pass was refuted or exceeded its budget; the sample is
    /// kept as evidence but excluded from the dataset.
    Quarantined,
}

impl fmt::Display for SampleStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleStatus::Ok => write!(f, "ok"),
            SampleStatus::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// One `(design, recipe)` sample of the QoR sweep, as persisted on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRecord {
    /// Table-1 design name.
    pub design: String,
    /// 0-based recipe index within the design.
    pub recipe_index: usize,
    /// The seed `random_recipe` was called with for this sample.
    pub seed: u64,
    /// The recipe, pretty-printed (`"b; rw; rf -z"`).
    pub recipe: String,
    /// Clean or quarantined.
    pub status: SampleStatus,
    /// Gate count before synthesis.
    pub initial_ands: usize,
    /// Gate count after the recipe.
    pub final_ands: usize,
    /// AND-level depth before synthesis.
    pub initial_depth: u32,
    /// AND-level depth after the recipe.
    pub final_depth: u32,
    /// [`crate::io::structural_hash`] of the optimized circuit.
    pub result_hash: u64,
    /// `recipe::lint` findings for this sample's recipe (display form).
    pub lints: Vec<String>,
    /// Guard incidents (display form); non-empty iff quarantined.
    pub incidents: Vec<String>,
}

/// Error from [`SampleRecord::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError(String);

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest record error: {}", self.0)
    }
}

impl Error for ManifestError {}

fn err(msg: impl Into<String>) -> ManifestError {
    ManifestError(msg.into())
}

/// FNV-1a over arbitrary bytes (`structural_hash`, the QoR sweep's seeds).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl SampleRecord {
    /// Canonical file name for this record: `<design>-r<index>.rec` with a
    /// zero-padded index so lexicographic and sweep order agree.
    pub fn file_name(design: &str, recipe_index: usize) -> String {
        format!("{design}-r{recipe_index:04}.rec")
    }

    /// Serializes the record, appending the CRC-32 trailer.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("hoga-qor-record v1\n");
        out.push_str(&format!("design {}\n", self.design));
        out.push_str(&format!("recipe_index {}\n", self.recipe_index));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("recipe {}\n", self.recipe));
        out.push_str(&format!("status {}\n", self.status));
        out.push_str(&format!("initial_ands {}\n", self.initial_ands));
        out.push_str(&format!("final_ands {}\n", self.final_ands));
        out.push_str(&format!("initial_depth {}\n", self.initial_depth));
        out.push_str(&format!("final_depth {}\n", self.final_depth));
        out.push_str(&format!("result_hash {:#018x}\n", self.result_hash));
        for l in &self.lints {
            out.push_str(&format!("lint {l}\n"));
        }
        for i in &self.incidents {
            out.push_str(&format!("incident {i}\n"));
        }
        out.push_str(&format!("crc {:#010x}\n", crc32(out.as_bytes())));
        out
    }

    /// Parses and validates a record produced by [`SampleRecord::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] on CRC mismatch, missing or out-of-order
    /// fields, or malformed values — a truncated or hand-edited record is
    /// rejected rather than trusted.
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        // Split off and verify the CRC trailer first.
        let body_end = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map(|i| i + 1)
            .ok_or_else(|| err("too short"))?;
        let (body, trailer) = text.split_at(body_end);
        // Strict trailer shape (`crc 0x########\n`, nothing else): lenient
        // whitespace handling would let corrupted terminators slip past.
        let stored = trailer
            .strip_suffix('\n')
            .and_then(|t| t.strip_prefix("crc 0x"))
            .filter(|h| h.len() == 8)
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| err("missing or malformed crc trailer"))?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(err(format!(
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} \
                 (record corrupt or truncated)"
            )));
        }
        let mut lines = body.lines();
        if lines.next() != Some("hoga-qor-record v1") {
            return Err(err("bad header line"));
        }
        let mut field = |key: &str| -> Result<String, ManifestError> {
            let line = lines.next().ok_or_else(|| err(format!("missing field `{key}`")))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| err(format!("expected field `{key}`, found `{line}`")))
        };
        let design = field("design")?;
        let recipe_index = field("recipe_index")?.parse().map_err(|_| err("bad recipe_index"))?;
        let seed = field("seed")?.parse().map_err(|_| err("bad seed"))?;
        let recipe = field("recipe")?;
        let status = match field("status")?.as_str() {
            "ok" => SampleStatus::Ok,
            "quarantined" => SampleStatus::Quarantined,
            other => return Err(err(format!("unknown status `{other}`"))),
        };
        let initial_ands = field("initial_ands")?.parse().map_err(|_| err("bad initial_ands"))?;
        let final_ands = field("final_ands")?.parse().map_err(|_| err("bad final_ands"))?;
        let initial_depth =
            field("initial_depth")?.parse().map_err(|_| err("bad initial_depth"))?;
        let final_depth = field("final_depth")?.parse().map_err(|_| err("bad final_depth"))?;
        let result_hash = field("result_hash")?
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| err("bad result_hash"))?;
        let mut lints = Vec::new();
        let mut incidents = Vec::new();
        for line in lines {
            if let Some(l) = line.strip_prefix("lint ") {
                if !incidents.is_empty() {
                    return Err(err("lint line after incident lines"));
                }
                lints.push(l.to_string());
            } else if let Some(i) = line.strip_prefix("incident ") {
                incidents.push(i.to_string());
            } else {
                return Err(err(format!("unexpected trailing line `{line}`")));
            }
        }
        Ok(Self {
            design,
            recipe_index,
            seed,
            recipe,
            status,
            initial_ands,
            final_ands,
            initial_depth,
            final_depth,
            result_hash,
            lints,
            incidents,
        })
    }
}

/// Atomically writes `record` under `out_dir` — into [`MANIFEST_DIR`] when
/// clean, [`QUARANTINE_DIR`] otherwise — and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors from [`write_atomic`].
pub(crate) fn write_record(out_dir: &Path, record: &SampleRecord) -> std::io::Result<PathBuf> {
    let dir = if record.status == SampleStatus::Ok { MANIFEST_DIR } else { QUARANTINE_DIR };
    let path = out_dir.join(dir).join(SampleRecord::file_name(&record.design, record.recipe_index));
    write_atomic(&path, record.encode().as_bytes())?;
    Ok(path)
}

/// Reads and validates the record at `path`; `None` if the file is absent
/// or fails validation (a resumed sweep regenerates such samples).
pub fn read_record(path: &Path) -> Option<SampleRecord> {
    let text = std::fs::read_to_string(path).ok()?;
    SampleRecord::parse(&text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SampleRecord {
        SampleRecord {
            design: "spi".to_string(),
            recipe_index: 7,
            seed: 0xABC0_1234,
            recipe: "b; rw -z; rf; rs".to_string(),
            status: SampleStatus::Ok,
            initial_ands: 420,
            final_ands: 371,
            initial_depth: 19,
            final_depth: 17,
            result_hash: 0xDEAD_BEEF_CAFE_F00D,
            lints: vec!["3: redundant consecutive `balance` (idempotent)".to_string()],
            incidents: Vec::new(),
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let r = sample();
        let back = SampleRecord::parse(&r.encode()).expect("roundtrip");
        assert_eq!(r, back);
    }

    #[test]
    fn quarantined_roundtrip_with_incidents() {
        let mut r = sample();
        r.status = SampleStatus::Quarantined;
        r.incidents = vec!["step 2 (rf): refuted by random simulation (2 rounds)".to_string()];
        let back = SampleRecord::parse(&r.encode()).expect("roundtrip");
        assert_eq!(back.status, SampleStatus::Quarantined);
        assert_eq!(back.incidents.len(), 1);
    }

    #[test]
    fn encoding_is_deterministic() {
        // Identical records encode to identical bytes — together with the
        // fixed field order this is what makes resumed sweeps byte-stable.
        let r = sample();
        assert_eq!(r.encode(), r.clone().encode());
    }

    #[test]
    fn parse_rejects_any_single_byte_flip() {
        let bytes = sample().encode().into_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            if let Ok(text) = String::from_utf8(bad) {
                assert!(SampleRecord::parse(&text).is_err(), "flip at byte {i} accepted: {text}");
            }
        }
    }

    #[test]
    fn parse_rejects_truncation() {
        let text = sample().encode();
        for cut in [0, 1, 19, text.len() / 2, text.len() - 2] {
            assert!(SampleRecord::parse(&text[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn file_name_is_zero_padded_for_lexicographic_order() {
        assert_eq!(SampleRecord::file_name("spi", 3), "spi-r0003.rec");
        assert!(SampleRecord::file_name("spi", 9) < SampleRecord::file_name("spi", 10));
    }

    #[test]
    fn atomic_write_and_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hoga-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join(MANIFEST_DIR)).expect("mkdir");
        let r = sample();
        let path = write_record(&dir, &r).expect("write");
        assert!(path.ends_with("manifest/spi-r0007.rec"));
        assert_eq!(read_record(&path), Some(r));
        // Corruption is detected, not trusted.
        std::fs::write(&path, b"hoga-qor-record v1\ngarbage\n").expect("overwrite");
        assert_eq!(read_record(&path), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
