//! Checkpoint journal: versioned, checksummed, written atomically.
//!
//! A campaign checkpoints its integer tallies (and only its tallies — no
//! floats that depend on fold order are derived at load time from stored
//! bit patterns) into a small line-oriented text file:
//!
//! ```text
//! WLANJRNL 1
//! key per v1 seed=7 ...
//! point i=0 trials=96 errors=12 erasures=3 status=active
//! sum 1f2e3d4c5b6a7988
//! ```
//!
//! Every `sum` line is the FNV-1a 64 digest of every byte before it.
//! [`save`] writes one after each body line, so the file carries a chain
//! of cumulative checksums and the *last* one covers the whole file; a
//! torn, truncated, or hand-edited file is detected rather than trusted.
//! Because FNV-1a folds bytes one at a time, the chain is computed in a
//! single streaming pass — each `sum` extends the running digest by the
//! bytes since the previous one — so writing or walking a journal costs
//! O(bytes), not O(lines × bytes).
//! Writes go to a temporary sibling file which is then renamed over the
//! target, so a `SIGKILL` mid-checkpoint leaves either the old journal
//! or the new one — never a hybrid. Body lines starting with `sum ` are
//! reserved for this chain; campaign records never use that prefix.
//!
//! Loading never panics: every failure mode maps to a typed
//! [`JournalError`]. [`load`] is all-or-nothing — any defect and the
//! caller cold-starts. [`load_salvage`] goes one step further: when the
//! file is damaged it walks the checksum chain and returns the body
//! lines of the longest verified prefix, so a resumed campaign only
//! re-runs the damaged tail instead of starting over.

use std::fmt::{self, Write as _};
use std::fs;
use std::path::{Path, PathBuf};

/// File magic for campaign journals.
pub const MAGIC: &str = "WLANJRNL";
/// Current journal format version.
pub const VERSION: u32 = 1;

/// Everything that can go wrong loading a journal. `Io(NotFound)` is the
/// ordinary "no checkpoint yet" case; all other variants mean a journal
/// exists but cannot be trusted, and the campaign should cold-start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(std::io::ErrorKind),
    /// The first line is not `WLANJRNL <version>`.
    MissingHeader,
    /// The header names a format version this build does not speak.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The file lacks the trailing `sum` line (e.g. cut short).
    Truncated,
    /// The `sum` line does not match the digest of the preceding bytes.
    ChecksumMismatch,
    /// A body line failed to parse (1-based line number in the file).
    Malformed {
        /// Line number of the offending line.
        line: usize,
    },
    /// The journal's `key` line describes a different campaign
    /// configuration than the one trying to resume from it.
    KeyMismatch,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(kind) => write!(f, "journal i/o error: {kind}"),
            JournalError::MissingHeader => write!(f, "journal missing {MAGIC} header"),
            JournalError::VersionMismatch { found } => {
                write!(f, "journal version {found}, this build speaks {VERSION}")
            }
            JournalError::Truncated => write!(f, "journal truncated (no sum line)"),
            JournalError::ChecksumMismatch => write!(f, "journal checksum mismatch"),
            JournalError::Malformed { line } => write!(f, "journal line {line} malformed"),
            JournalError::KeyMismatch => {
                write!(f, "journal belongs to a different campaign configuration")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Running FNV-1a 64 state. FNV-1a is a byte-serial fold, so feeding a
/// byte stream in pieces yields the digest of the concatenation — which
/// lets the cumulative `sum` chain be written and checked in one pass.
#[derive(Debug, Clone, Copy)]
struct Fnv1a64(u64);

impl Fnv1a64 {
    const fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a 64-bit digest — tiny, dependency-free, and plenty to catch
/// torn writes and hand edits (this is corruption detection, not crypto).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.update(bytes);
    hash.0
}

/// Length of one `sum <16 hex digits>\n` line.
const SUM_LINE_LEN: usize = 21;

/// Renders `value` as the 16-hex-digit bit pattern of its IEEE-754
/// encoding, so journal round-trips are bit-exact (no decimal drift).
pub fn f64_to_hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// Inverse of [`f64_to_hex`].
pub fn f64_from_hex(hex: &str) -> Option<f64> {
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

/// Saves a journal atomically: header + `key` line + `body` lines are
/// written to `<path>.tmp`, then renamed over `path`. A cumulative `sum`
/// line follows every body line (each digesting all bytes before it, via
/// one running hash), so [`load_salvage`] can recover the longest intact
/// prefix of a later corruption; the final `sum` line doubles as the
/// whole-file checksum [`load`] verifies.
pub fn save(path: &Path, key: &str, body: &[String]) -> Result<(), JournalError> {
    let header = format!("{MAGIC} {VERSION}\nkey {key}\n");
    let len = header.len()
        + body.iter().map(|line| line.len() + 1).sum::<usize>()
        + body.len().max(1) * SUM_LINE_LEN;
    let mut text = String::with_capacity(len);
    text.push_str(&header);
    let mut hash = Fnv1a64::new();
    let mut hashed = 0; // bytes of `text` already folded into `hash`
    let mut push_sum = |text: &mut String| {
        hash.update(&text.as_bytes()[hashed..]);
        hashed = text.len();
        let _ = writeln!(text, "sum {:016x}", hash.0);
    };
    for line in body {
        text.push_str(line);
        text.push('\n');
        push_sum(&mut text);
    }
    if body.is_empty() {
        push_sum(&mut text);
    }

    let tmp = tmp_path(path);
    fs::write(&tmp, &text).map_err(|e| JournalError::Io(e.kind()))?;
    fs::rename(&tmp, path).map_err(|e| JournalError::Io(e.kind()))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Loads and verifies a journal, returning its body lines.
///
/// Verification order: readability, checksum over everything before the
/// `sum` line, magic + version header, then the campaign `key`. Only a
/// fully verified journal yields body lines; any defect is a typed error
/// and the caller cold-starts.
pub fn load(path: &Path, expected_key: &str) -> Result<Vec<String>, JournalError> {
    let text = fs::read_to_string(path).map_err(|e| JournalError::Io(e.kind()))?;

    // Peel the final `sum` line and verify the digest of what precedes it.
    let stripped = text.strip_suffix('\n').ok_or(JournalError::Truncated)?;
    let (prefix, sum_line) = match stripped.rfind('\n') {
        Some(i) => (&stripped[..=i], &stripped[i + 1..]),
        None => return Err(JournalError::Truncated),
    };
    let sum_hex = sum_line.strip_prefix("sum ").ok_or(JournalError::Truncated)?;
    let recorded = u64::from_str_radix(sum_hex, 16).map_err(|_| JournalError::ChecksumMismatch)?;
    if fnv1a64(prefix.as_bytes()) != recorded {
        return Err(JournalError::ChecksumMismatch);
    }

    let mut lines = prefix.lines();
    let header = lines.next().ok_or(JournalError::MissingHeader)?;
    let version_str = header
        .strip_prefix(MAGIC)
        .map(str::trim)
        .ok_or(JournalError::MissingHeader)?;
    let found: u32 = version_str.parse().map_err(|_| JournalError::MissingHeader)?;
    if found != VERSION {
        return Err(JournalError::VersionMismatch { found });
    }

    let key_line = lines.next().ok_or(JournalError::Truncated)?;
    let key = key_line.strip_prefix("key ").ok_or(JournalError::Malformed { line: 2 })?;
    if key != expected_key {
        return Err(JournalError::KeyMismatch);
    }

    // Interior `sum` lines are part of the salvage chain, not the body;
    // the final digest verified above already covers their bytes.
    Ok(lines
        .filter(|l| !l.starts_with("sum "))
        .map(str::to_owned)
        .collect())
}

/// Loads a journal, salvaging what it can from a damaged file.
///
/// * Fully intact: `(body, None)` — identical to [`load`].
/// * Damaged after a verified `sum` line: the body lines of the longest
///   prefix whose cumulative checksum chain verifies, plus the typed
///   error describing the damage. The campaign re-runs only the tail.
/// * Damaged before any `sum` verifies (header/key corrupt, wrong key,
///   wrong version, unreadable): `(vec![], Some(error))` — a cold start.
///
/// `Io(NotFound)` comes back as `(vec![], Some(Io(NotFound)))`; callers
/// distinguish "no checkpoint yet" from damage exactly as with [`load`].
pub fn load_salvage(path: &Path, expected_key: &str) -> (Vec<String>, Option<JournalError>) {
    match load(path, expected_key) {
        Ok(body) => (body, None),
        // salvage_prefix re-verifies header and key from scratch, so an
        // unreadable file, wrong version, or wrong key salvages nothing.
        Err(error) => match salvage_prefix(path, expected_key) {
            Some(body) => (body, Some(error)),
            None => (Vec::new(), Some(error)),
        },
    }
}

/// Walks the cumulative checksum chain from the top of the file, in one
/// streaming pass, and returns the body lines covered by the last `sum`
/// line that verifies.
/// `None` when the header or key is damaged or no `sum` line verifies —
/// there is no trustworthy prefix at all.
fn salvage_prefix(path: &Path, expected_key: &str) -> Option<Vec<String>> {
    // Read raw bytes: corruption may have destroyed UTF-8 validity, and
    // the intact prefix must still be recoverable.
    let bytes = fs::read(path).ok()?;

    let mut offset = 0usize; // start of the current line
    let mut line_no = 0usize;
    let mut hash = Fnv1a64::new();
    let mut hashed = 0usize; // bytes already folded into `hash`
    let mut body: Vec<String> = Vec::new();
    let mut verified_len: Option<usize> = None; // body lines under a good sum

    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // torn final line: unverifiable, stop at the last sum
        };
        let line_end = offset + nl;
        let Ok(line) = std::str::from_utf8(&bytes[offset..line_end]) else {
            break; // damage produced invalid UTF-8: stop scanning
        };
        match line_no {
            0 => {
                let ok = line
                    .strip_prefix(MAGIC)
                    .map(str::trim)
                    .and_then(|v| v.parse::<u32>().ok())
                    == Some(VERSION);
                if !ok {
                    return None;
                }
            }
            1 => {
                if line.strip_prefix("key ") != Some(expected_key) {
                    return None;
                }
            }
            _ => {
                if let Some(sum_hex) = line.strip_prefix("sum ") {
                    let recorded = u64::from_str_radix(sum_hex, 16).ok();
                    hash.update(&bytes[hashed..offset]);
                    hashed = offset;
                    if recorded == Some(hash.0) {
                        verified_len = Some(body.len());
                    } else {
                        break; // chain broken: everything beyond is suspect
                    }
                } else {
                    body.push(line.to_owned());
                }
            }
        }
        offset = line_end + 1;
        line_no += 1;
    }

    verified_len.map(|n| {
        body.truncate(n);
        body
    })
}

/// Feeds body lines to `accept` in order and stops at the first one it
/// rejects, reporting that line's number in the file: body line `idx`
/// sits at file line `idx + 3`, after the header and the key.
pub fn decode_lines(
    body: &[String],
    mut accept: impl FnMut(&str) -> bool,
) -> Result<(), JournalError> {
    match body.iter().position(|line| !accept(line)) {
        Some(idx) => Err(JournalError::Malformed { line: idx + 3 }),
        None => Ok(()),
    }
}

/// Parses `name=value` out of one whitespace-separated journal token,
/// checking the name. Campaign modules build their line parsers on this.
pub fn kv<'a>(token: &'a str, name: &str) -> Option<&'a str> {
    let (k, v) = token.split_once('=')?;
    (k == name).then_some(v)
}

/// `kv` for `u64` fields.
pub fn kv_u64(token: &str, name: &str) -> Option<u64> {
    kv(token, name)?.parse().ok()
}

/// `kv` for bit-exact `f64` fields (hex bit patterns, see [`f64_to_hex`]).
pub fn kv_f64(token: &str, name: &str) -> Option<f64> {
    f64_from_hex(kv(token, name)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wlan_journal_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_body_lines() {
        let path = tmp_file("roundtrip");
        let body = vec!["point i=0 trials=3".to_owned(), "quar point=1 frame=2".to_owned()];
        save(&path, "test v1 seed=7", &body).unwrap();
        let loaded = load(&path, "test v1 seed=7").unwrap();
        assert_eq!(loaded, body);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_not_found_io() {
        let err = load(Path::new("/nonexistent/journal"), "k").unwrap_err();
        assert_eq!(err, JournalError::Io(std::io::ErrorKind::NotFound));
    }

    #[test]
    fn flipped_byte_is_checksum_mismatch() {
        let path = tmp_file("corrupt");
        save(&path, "k", &["point i=0 trials=3".to_owned()]).unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        text = text.replace("trials=3", "trials=4");
        fs::write(&path, text).unwrap();
        assert_eq!(load(&path, "k").unwrap_err(), JournalError::ChecksumMismatch);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_detected() {
        let path = tmp_file("trunc");
        save(&path, "k", &["point i=0".to_owned(), "point i=1".to_owned()]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = load(&path, "k").unwrap_err();
        assert!(
            matches!(err, JournalError::Truncated | JournalError::ChecksumMismatch),
            "{err:?}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn version_bump_is_rejected_with_found_version() {
        let path = tmp_file("version");
        // Hand-build a well-checksummed file with a future version.
        let mut text = String::from("WLANJRNL 9\nkey k\n");
        let digest = fnv1a64(text.as_bytes());
        text.push_str(&format!("sum {digest:016x}\n"));
        fs::write(&path, text).unwrap();
        assert_eq!(
            load(&path, "k").unwrap_err(),
            JournalError::VersionMismatch { found: 9 }
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wrong_key_is_key_mismatch() {
        let path = tmp_file("key");
        save(&path, "campaign A", &[]).unwrap();
        assert_eq!(load(&path, "campaign B").unwrap_err(), JournalError::KeyMismatch);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_is_missing_header_or_checksum() {
        let path = tmp_file("garbage");
        fs::write(&path, "not a journal at all\n").unwrap();
        let err = load(&path, "k").unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::MissingHeader | JournalError::Truncated | JournalError::ChecksumMismatch
            ),
            "{err:?}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn empty_file_is_truncated() {
        let path = tmp_file("empty");
        fs::write(&path, "").unwrap();
        assert_eq!(load(&path, "k").unwrap_err(), JournalError::Truncated);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn f64_hex_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-308, 0.1 + 0.2] {
            let back = f64_from_hex(&f64_to_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn kv_helpers_parse_and_reject() {
        assert_eq!(kv("trials=12", "trials"), Some("12"));
        assert_eq!(kv("trials=12", "errors"), None);
        assert_eq!(kv_u64("trials=12", "trials"), Some(12));
        assert_eq!(kv_u64("trials=x", "trials"), None);
        assert_eq!(kv_f64(&format!("t={}", f64_to_hex(2.5)), "t"), Some(2.5));
    }

    #[test]
    fn salvage_recovers_prefix_before_mid_file_bit_flip() {
        let path = tmp_file("salvage_flip");
        let body: Vec<String> = (0..8).map(|i| format!("point i={i} trials=32")).collect();
        save(&path, "k", &body).unwrap();

        // Flip one bit in the middle of the file: load must reject the
        // whole journal, salvage must return every line before the flip.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&path, &bytes).unwrap();

        assert!(load(&path, "k").is_err());
        let (records, err) = load_salvage(&path, "k");
        assert!(err.is_some());
        assert!(!records.is_empty(), "mid-file flip must salvage a prefix");
        assert!(records.len() < body.len(), "damage must cost the tail");
        assert_eq!(records, body[..records.len()], "salvage is an exact prefix");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_file() {
        let path = tmp_file("salvage_trunc");
        let body: Vec<String> = (0..6).map(|i| format!("point i={i} trials=64")).collect();
        save(&path, "k", &body).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

        let (records, err) = load_salvage(&path, "k");
        assert!(err.is_some());
        assert!(!records.is_empty());
        assert_eq!(records, body[..records.len()]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn salvage_yields_nothing_for_damaged_identity() {
        let path = tmp_file("salvage_identity");
        save(&path, "k", &["point i=0 trials=1".to_owned()]).unwrap();

        // Wrong key: whole file intact but not ours.
        let (records, err) = load_salvage(&path, "other");
        assert_eq!(records, Vec::<String>::new());
        assert_eq!(err, Some(JournalError::KeyMismatch));

        // Corrupted header: nothing verifiable at all.
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let (records, err) = load_salvage(&path, "k");
        assert!(records.is_empty());
        assert!(err.is_some());

        // Missing file: plain NotFound, no salvage.
        let (records, err) = load_salvage(Path::new("/nonexistent/journal"), "k");
        assert!(records.is_empty());
        assert_eq!(err, Some(JournalError::Io(std::io::ErrorKind::NotFound)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn salvage_of_intact_file_is_load() {
        let path = tmp_file("salvage_intact");
        let body = vec!["point i=0 trials=3".to_owned(), "quar point=0 frame=1".to_owned()];
        save(&path, "k", &body).unwrap();
        let (records, err) = load_salvage(&path, "k");
        assert_eq!(records, body);
        assert_eq!(err, None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn interior_sum_lines_are_invisible_to_load() {
        // save() now interleaves cumulative sum lines; load must return
        // exactly the body that was saved, for any body size.
        for n in [0usize, 1, 5] {
            let path = tmp_file(&format!("interior_{n}"));
            let body: Vec<String> = (0..n).map(|i| format!("rec i={i}")).collect();
            save(&path, "k", &body).unwrap();
            assert_eq!(load(&path, "k").unwrap(), body);
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn on_disk_format_is_pinned_byte_exact() {
        // Bytes recorded from the original writer, which re-hashed the
        // whole file after every body line: journals it wrote must keep
        // resuming, so the streaming chain has to reproduce them exactly.
        let path = tmp_file("golden");
        let key = "golden v1 seed=7";
        let body = ["point i=0 trials=96 errors=12", "quar point=1 frame=2", "end"]
            .map(str::to_owned)
            .to_vec();
        save(&path, key, &body).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "WLANJRNL 1\nkey golden v1 seed=7\n\
             point i=0 trials=96 errors=12\nsum ea55c85e143d0f26\n\
             quar point=1 frame=2\nsum 153e20470361ce63\n\
             end\nsum fb7c3d6b3bb275f7\n"
        );
        assert_eq!(load(&path, key).unwrap(), body);

        save(&path, key, &[]).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "WLANJRNL 1\nkey golden v1 seed=7\nsum 85894a996e9bc65e\n"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sum_chain_matches_whole_prefix_digests_and_salvages_exact_prefix() {
        use wlan_math::rng::{Rng, WlanRng};

        // No 's', '\r' or '\n': a body line can never be, or be split
        // into, a reserved `sum ` line.
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrtuvwxyz0123456789 =,.-_";
        let mut rng = WlanRng::seed_from_u64(0x6a6f_7572_6e61_6c31);
        let path = tmp_file("chain_property");
        for _ in 0..48 {
            let n = rng.gen_range(0..=200usize);
            let body: Vec<String> = (0..n)
                .map(|_| {
                    let len = rng.gen_range(0..=80usize);
                    (0..len)
                        .map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]))
                        .collect()
                })
                .collect();
            save(&path, "prop v1", &body).unwrap();
            assert_eq!(load(&path, "prop v1").unwrap(), body);

            // Every `sum` line is the digest of all bytes before it — the
            // definition the original whole-prefix writer used.
            let bytes = fs::read(&path).unwrap();
            let mut sum_ends = Vec::new(); // offset just past each sum line
            let mut offset = 0;
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                if let Some(hex) = line.strip_prefix(b"sum ") {
                    let hex = std::str::from_utf8(&hex[..16]).unwrap();
                    assert_eq!(u64::from_str_radix(hex, 16).unwrap(), fnv1a64(&bytes[..offset]));
                    sum_ends.push(offset + line.len());
                }
                offset += line.len();
            }
            assert_eq!(sum_ends.len(), n.max(1));

            // A bit flip anywhere keeps exactly the body lines whose `sum`
            // line lies wholly before the damaged byte.
            let flip = rng.gen_range(0..bytes.len());
            let mut damaged = bytes.clone();
            damaged[flip] ^= 1 << rng.gen_range(0..8u32);
            fs::write(&path, &damaged).unwrap();
            let intact = sum_ends.iter().take(n).filter(|&&end| end <= flip).count();
            let (records, err) = load_salvage(&path, "prop v1");
            assert!(err.is_some(), "flip at byte {flip} went unnoticed");
            assert_eq!(records, body[..intact], "flip at byte {flip} of {}", bytes.len());
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
