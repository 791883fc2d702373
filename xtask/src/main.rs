//! Workspace automation tasks (`cargo xtask <command>`).
//!
//! * `lint` — the workspace invariants neither rustc nor clippy can state,
//!   checked as text over the sources (zero dependencies, fast enough for
//!   every CI run). Three lints:
//!
//!   * **span-names** — obs `span!` names must be `dot.separated_lowercase`
//!     literals, and a given span name must always carry the same explicit
//!     `Bucket` so the four-bucket fold stays well-defined.
//!   * **stencil-literals** — stencil coefficients (division by the
//!     characteristic finite-difference denominators 12/24/30/60/120, also
//!     behind an opening parenthesis as in `/ (12.0 / h)`, or hand-expanded
//!     repeating decimals like `0.8333`) may only appear in the designated
//!     stencil homes (`crates/advection/src/`, `crates/mesh/src/stencil.rs`)
//!     where kerncheck verifies them; a copy anywhere else is an unverified
//!     fork of a kernel constant.
//!   * **unsafe-send-registry** — every `unsafe impl Send`/`Sync` must
//!     cite, in a `[racecheck: region, …]` tag in its SAFETY comment, the
//!     racecheck regions that discharge it ([`TagRegistry`]).
//!     Every cited name must be registered (stale tags fail), and — the
//!     reverse direction — every region flagged as backing such an impl
//!     must be cited, so the registry cannot rot either.
//!
//!   `#[cfg(test)]` modules are exempt (tests spell out expected
//!   coefficients and build fixtures on purpose).
//!
//!   No blocking communication inside the overlapped sweep is a type: its
//!   body sees the grid only as `mpisim::SplitPhase` (`post`, which stops
//!   at a plan's first wait), so a blocking call there does not compile. The pencil
//!   transpose needs no lint either: it has no index arithmetic of its own,
//!   only the `fft::layout` maps layoutcheck proves. Three
//!   invariants are clippy's (CI runs `cargo clippy --workspace
//!   --all-targets -- -D warnings`; settings in `clippy.toml`): a SAFETY
//!   comment on every `unsafe` block and impl and a `# Safety` section on
//!   every `unsafe fn` (`undocumented_unsafe_blocks`, `missing_safety_doc`);
//!   no `unwrap`/`panic!` outside tests in the hot-path modules, which open
//!   with `#![deny(clippy::unwrap_used, clippy::panic)]`; no `std::fs::write`
//!   / `File::create` outside the writer homes, which allow
//!   `clippy::disallowed_methods` module-wide with a reason.
//!
//! * `verify` — run the three families of `vlasov6d-verify`: kerncheck
//!   (kernel weights, positivity, footprints, SIMD equivalence, op counts),
//!   racecheck (write-disjointness of every registered parallel region) and
//!   layoutcheck (bijectivity and conservation of every registered
//!   repartition). Fail on any violated property, or on counts other than
//!   the family's pin in `FAMILIES` (a silently dropped property or negative
//!   control). Print the reports; `--json <path>` also writes them, one
//!   object per family, machine-readable.
//!
//! * `perf-gate` — the trace-derived performance regression gate: runs the
//!   2-rank overlapped smoke simulation with the flight recorder on and
//!   off, extracts per-step critical paths, and compares the summary
//!   (path coverage, overlapped / synchronous x-sweep wall, exposed-comm
//!   agreement with the span tree, communication imbalance, tracing
//!   overhead) against the checked-in `perf-baseline.json` bounds. See
//!   [`perf_gate`].
//!
//! * `hashes [--check]` — bitwise trajectory fingerprints of the hybrid,
//!   distributed and two-stream drivers on the benchmark's reference
//!   configurations; `--check` fails unless they read the pinned values.
//!   See [`hashes`].

#![allow(
    clippy::disallowed_methods,
    reason = "xtask writes reports, baselines and trace artifacts, not simulation state"
)]

mod hashes;
mod perf_gate;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vlasov6d_obs::Json;
use vlasov6d_verify::FAMILIES;

const USAGE: &str = "usage: cargo xtask <lint | verify [--json <path>] | perf-gate [--baseline <path>] [--write-baseline] [--trace-out <path>] [--summary-out <path>] | hashes [--check]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(Path::new(".")),
        Some("verify") => verify(&args[1..]),
        Some("perf-gate") => perf_gate::perf_gate(&args[1..]),
        Some("hashes") => hashes::hashes(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Run every verifier family and fail on any violated property or on counts
/// other than the family's pin.
fn verify(args: &[String]) -> ExitCode {
    let json_path = match args {
        [] => None,
        [flag, path] if flag == "--json" => Some(PathBuf::from(path)),
        _ => {
            eprintln!("bad verify arguments {args:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for family in &FAMILIES {
        let report = family.report();
        print!("{}", report.render_text(family.name));
        failures.extend(family.gate(&report).err());
        reports.push((family.name, report.to_json()));
    }
    if let Some(path) = json_path {
        let json = Json::obj(reports).to_string_compact();
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    }
    for failure in &failures {
        eprintln!("{failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: usize,
    lint: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

fn lint(root: &Path) -> ExitCode {
    let mut files = Vec::new();
    for top in ["crates", "compat", "xtask"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut spans = SpanRegistry::default();
    let mut tags = TagRegistry::races();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = file.strip_prefix(root).unwrap_or(file);
        if !is_stencil_home(rel) {
            violations.extend(check_stencil_literals(rel, &source));
        }
        spans.scan(rel, &source);
        tags.scan(rel, &source);
    }
    violations.extend(spans.check());
    violations.extend(tags.check());

    if violations.is_empty() {
        println!(
            "xtask lint: {} files clean (span-names, stencil-literals, unsafe-send-registry)",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `rel` with `/` separators, for comparing against the path constants.
fn slash_path(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

/// Strip `// ...` line comments and the contents of ordinary string
/// literals, so keyword scans do not fire inside either. Good enough for
/// this codebase (no raw strings containing the scanned needles).
fn code_only(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push('"');
            }
            '\'' => {
                // Char literal (or lifetime — harmless either way): skip a
                // possibly escaped char and its closing quote.
                out.push('\'');
                if let Some(n) = chars.next() {
                    if n == '\\' {
                        chars.next();
                    }
                    if chars.peek() == Some(&'\'') {
                        chars.next();
                    }
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// Index of the line closing the first brace block opened at or after
/// `lines[start]`, by brace counting.
fn brace_block_end(lines: &[&str], start: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(start) {
        for c in code_only(line).chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return Some(j);
        }
    }
    None
}

/// Line indices (0-based) covered by `#[cfg(test)]`-gated items: from each
/// attribute to the close of its item's brace block.
fn test_code_lines(source: &str) -> Vec<bool> {
    let lines: Vec<&str> = source.lines().collect();
    let mut masked = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let end = brace_block_end(&lines, i).unwrap_or(lines.len() - 1);
        masked[i..=end].fill(true);
        i = end + 1;
    }
    masked
}

/// Where stencil coefficients are allowed to live: the advection kernels
/// (weights, limiter, method-of-lines baseline), the mesh finite-difference
/// stencils, and kerncheck itself (which reconstructs the coefficients
/// symbolically to verify them).
const STENCIL_HOMES: &[&str] = &[
    "crates/advection/src/",
    "crates/mesh/src/stencil.rs",
    "crates/verify/src/kerncheck/",
];

fn is_stencil_home(rel: &Path) -> bool {
    let p = slash_path(rel);
    STENCIL_HOMES.iter().any(|h| p.starts_with(h))
}

/// The characteristic denominators of centred finite-difference and
/// semi-Lagrangian stencil coefficients. `6.0` is deliberately absent:
/// `/ 6.0` is the RK4 combination weight used legitimately by the cosmology
/// integrator.
const STENCIL_DENOMS: &[&str] = &["12.0", "24.0", "30.0", "60.0", "120.0"];

/// Does `code` divide by one of the stencil denominators, directly or as
/// the leading factor of a parenthesised divisor (`/ (12.0 / h)`)?
fn divides_by_stencil_denom(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'/' {
            continue;
        }
        // `//` never reaches here (comments are stripped); skip spaces and
        // opening parentheses.
        let rest = code[i + 1..].trim_start_matches(|c: char| c == '(' || c.is_whitespace());
        for d in STENCIL_DENOMS {
            if let Some(after) = rest.strip_prefix(d) {
                // Reject longer literals like `12.05` or `120.0` vs `12.0`.
                if !after.starts_with(|c: char| c.is_ascii_digit()) {
                    return Some(d);
                }
            }
        }
    }
    None
}

/// Does `code` contain a decimal literal that looks like a hand-expanded
/// repeating stencil fraction — a *trailing* run of three or more `3`s or
/// `6`s right of the decimal point (`0.8333`, `0.41666`)? The run must end
/// the literal: truncating 5/6 = 0.8333… or 5/12 = 0.41666… always leaves
/// the repeated digit last, while physical constants that merely contain a
/// triple (8.617_333_262) keep going and are left alone.
fn has_repeating_stencil_decimal(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Find `<digit>.<digit>` — the start of a decimal literal's
        // fractional part.
        if bytes[i] == b'.'
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && i + 1 < bytes.len()
            && bytes[i + 1].is_ascii_digit()
        {
            let mut j = i + 1;
            let mut run = 0usize;
            let mut run_digit = 0u8;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
                let d = bytes[j];
                if d == b'_' {
                    // Digit-group separators don't break a run.
                } else if d == run_digit && (d == b'3' || d == b'6') {
                    run += 1;
                } else if d == b'3' || d == b'6' {
                    run_digit = d;
                    run = 1;
                } else {
                    run_digit = 0;
                    run = 0;
                }
                j += 1;
            }
            // `j` now sits just past the literal; the run is trailing by
            // construction (anything after it reset the counter).
            if run >= 3 {
                let mut lo = i - 1;
                while lo > 0 && bytes[lo - 1].is_ascii_digit() {
                    lo -= 1;
                }
                return Some(code[lo..j].to_string());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    None
}

/// stencil-literals: no stencil coefficients outside the designated homes.
fn check_stencil_literals(rel: &Path, source: &str) -> Vec<Violation> {
    let masked = test_code_lines(source);
    let mut violations = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        if masked[idx] {
            continue;
        }
        let code = code_only(raw);
        if let Some(d) = divides_by_stencil_denom(&code) {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: idx + 1,
                lint: "stencil-literals",
                message: format!(
                    "division by stencil denominator {d} outside the verified stencil \
                     modules; import the coefficient from `advection::flux` or \
                     `mesh::stencil` instead of restating it"
                ),
            });
        }
        if let Some(lit) = has_repeating_stencil_decimal(&code) {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: idx + 1,
                lint: "stencil-literals",
                message: format!(
                    "hand-expanded repeating decimal {lit} looks like a stencil \
                     coefficient; use the exact fraction in a verified stencil module"
                ),
            });
        }
    }
    violations
}

/// span-names: the span-name registry across the workspace.
#[derive(Default)]
struct SpanRegistry {
    /// `(name, explicit bucket, file, line)` per literal-named `span!` call.
    uses: Vec<(String, Option<String>, PathBuf, usize)>,
}

impl SpanRegistry {
    fn scan(&mut self, rel: &Path, source: &str) {
        let masked = test_code_lines(source);
        for (idx, raw) in source.lines().enumerate() {
            if masked[idx] {
                continue;
            }
            // Literal first argument: `span!("name"...)`.
            if let Some(call) = raw.find("span!(") {
                let rest = &raw[call + "span!(".len()..];
                if let Some(name) = leading_str_literal(rest) {
                    let bucket = extract_bucket(rest);
                    self.uses.push((name, bucket, rel.to_path_buf(), idx + 1));
                }
            }
            // Names routed through consts (`span!(SPAN[d], ..)`): the
            // `const SPAN: [&str; N] = ["a", "b", ...];` table. Needle split
            // so the lint does not match its own source.
            if raw.contains(concat!("SPAN: [", "&str")) {
                for name in str_literals(raw) {
                    self.uses.push((name, None, rel.to_path_buf(), idx + 1));
                }
            }
        }
    }

    fn check(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (name, _, file, line) in &self.uses {
            if !valid_span_name(name) {
                violations.push(Violation {
                    file: file.clone(),
                    line: *line,
                    lint: "span-names",
                    message: format!(
                        "span name \"{name}\" is not dot.separated_lowercase \
                         (`[a-z0-9_]+` segments joined by `.`)"
                    ),
                });
            }
        }
        // Same name, two different explicit buckets → ambiguous fold.
        let mut by_name: std::collections::HashMap<&str, (&str, &Path, usize)> =
            std::collections::HashMap::new();
        for (name, bucket, file, line) in &self.uses {
            let Some(bucket) = bucket else { continue };
            match by_name.get(name.as_str()) {
                None => {
                    by_name.insert(name, (bucket, file, *line));
                }
                Some((first, ffile, fline)) if first != bucket => {
                    violations.push(Violation {
                        file: file.clone(),
                        line: *line,
                        lint: "span-names",
                        message: format!(
                            "span \"{name}\" declared with Bucket::{bucket}, but \
                             {}:{fline} uses Bucket::{first}",
                            ffile.display()
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        violations
    }
}

/// unsafe-send-registry: `unsafe impl Send`/`Sync` ↔ the racecheck regions
/// that discharge it.
///
/// Direction 1 (per impl): every non-test `unsafe impl Send`/`Sync` must
/// carry a `[racecheck: region, …]` tag (it may span several lines) in the
/// comment/attribute block directly above it, citing only registered
/// regions. Direction 2 (per registry): every region flagged
/// `backs_unsafe_impl` must be cited by at least one tag.
struct TagRegistry {
    registered: BTreeSet<&'static str>,
    backing: Vec<&'static str>,
    cited: BTreeSet<String>,
    violations: Vec<Violation>,
}

impl TagRegistry {
    const LINT: &'static str = "unsafe-send-registry";
    const TAG: &'static str = "racecheck";
    /// Where direction-2 findings point.
    const REGISTRY_FILE: &'static str = "crates/verify/src/racecheck/registry.rs";

    fn races() -> Self {
        use vlasov6d_verify::racecheck::registry;
        Self {
            registered: registry::region_names().into_iter().collect(),
            backing: registry::backing_region_names(),
            cited: BTreeSet::new(),
            violations: Vec::new(),
        }
    }

    fn scan(&mut self, rel: &Path, source: &str) {
        let masked = test_code_lines(source);
        let lines: Vec<&str> = source.lines().collect();
        for (idx, raw) in lines.iter().enumerate() {
            if masked[idx] {
                continue;
            }
            let Some(trait_name) = unsafe_send_sync_impl(&code_only(raw)) else {
                continue;
            };
            let item = format!("`unsafe impl {trait_name}`");
            // Gather the contiguous comment/attribute block directly above.
            let mut lo = idx;
            while lo > 0 {
                let t = lines[lo - 1].trim_start();
                if t.starts_with("//") || t.starts_with("#[") {
                    lo -= 1;
                } else {
                    break;
                }
            }
            let block: String = lines[lo..idx]
                .iter()
                .map(|l| l.trim_start().trim_start_matches("//").trim())
                .collect::<Vec<_>>()
                .join(" ");
            let tag = Self::TAG;
            let mut flag = |message: String| {
                self.violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    lint: Self::LINT,
                    message,
                })
            };
            match tag_names(tag, &block) {
                None => flag(format!(
                    "{item} has no `[{tag}: name, …]` tag in the comment above it; cite the \
                     registered {tag} entries it relies on"
                )),
                Some(names) if names.is_empty() => flag(format!(
                    "empty `[{tag}:]` tag on {item}; cite at least one registered entry"
                )),
                Some(names) => {
                    for name in names {
                        if self.registered.contains(name) {
                            self.cited.insert(name.to_string());
                        } else {
                            flag(format!(
                                "{item} cites `{name}`, which is not in the {tag} registry — \
                                 stale tag or missing registry entry"
                            ));
                        }
                    }
                }
            }
        }
    }

    fn check(mut self) -> Vec<Violation> {
        for name in &self.backing {
            if !self.cited.contains(*name) {
                self.violations.push(Violation {
                    file: PathBuf::from(Self::REGISTRY_FILE),
                    line: 1,
                    lint: Self::LINT,
                    message: format!(
                        "registry entry `{name}` is flagged `backs_unsafe_impl` but no `[{}:]` \
                         tag cites it — stale registry entry or missing tag",
                        Self::TAG
                    ),
                });
            }
        }
        self.violations
    }
}

/// Is this line an `unsafe impl` *of* `Send` or `Sync` (not an unsafe impl
/// of some other trait that merely has `Send`/`Sync` bounds in its generics)?
/// Returns the implemented trait name.
fn unsafe_send_sync_impl(code: &str) -> Option<&'static str> {
    let rest = code.trim_start().strip_prefix("unsafe impl")?;
    let mut rest = rest.trim_start();
    if rest.starts_with('<') {
        // Skip the balanced generics list so bounds like `T: Send` inside
        // it cannot masquerade as the implemented trait.
        let mut depth = 0i64;
        let mut end = None;
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[end?..].trim_start();
    }
    ["Send", "Sync"].into_iter().find(|t| {
        rest.strip_prefix(t)
            .is_some_and(|after| after.trim_start().starts_with("for "))
    })
}

/// The names inside the first `[<tag>: …]` tag of a flattened comment
/// block, or `None` if there is no tag.
fn tag_names<'b>(tag: &str, block: &'b str) -> Option<Vec<&'b str>> {
    let open = format!("[{tag}:");
    let body = &block[block.find(&open)? + open.len()..];
    let end = body.find(']')?;
    Some(
        body[..end]
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .collect(),
    )
}

/// `"name"` at the start of `rest` (ignoring leading whitespace).
fn leading_str_literal(rest: &str) -> Option<String> {
    let t = rest.trim_start();
    let inner = t.strip_prefix('"')?;
    let end = inner.find('"')?;
    Some(inner[..end].to_string())
}

/// Every `"..."` literal on the line.
fn str_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let inner = &rest[start + 1..];
        let Some(end) = inner.find('"') else { break };
        out.push(inner[..end].to_string());
        rest = &inner[end + 1..];
    }
    out
}

/// `Bucket::X` on the line, if present.
fn extract_bucket(rest: &str) -> Option<String> {
    let pos = rest.find("Bucket::")?;
    let tail = &rest[pos + "Bucket::".len()..];
    let end = tail
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(tail.len());
    Some(tail[..end].to_string())
}

fn valid_span_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `reg` after scanning `source` as the file `rel`.
    fn scanned(mut reg: TagRegistry, rel: &str, source: &str) -> TagRegistry {
        reg.scan(Path::new(rel), source);
        reg
    }

    #[test]
    fn stencil_literal_detection() {
        let count = |src: &str| check_stencil_literals(Path::new("a.rs"), src).len();
        // Division by a stencil denominator, also behind parentheses.
        assert_eq!(count("let g = (8.0 * d1 - d2) / 12.0;\n"), 1);
        assert_eq!(count("let f = x / 60.0;\n"), 1);
        assert_eq!(count("let d = (8.0 * a - b) / (12.0 / h0);\n"), 1);
        assert_eq!(count("let d = a / ( (24.0 * h));\n"), 1);
        // Longer literals and the RK4 denominator don't fire.
        assert_eq!(
            count("let a = x / 12.05; let b = y / 6.0; let c = z / 1200.0;\n"),
            0
        );
        // Hand-expanded repeating decimals.
        let v = check_stencil_literals(Path::new("a.rs"), "const W: f64 = 0.8333333;\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("0.8333333"));
        assert_eq!(count("let w = 0.41666;\n"), 1);
        // Short runs, non-trailing triples (physical constants), and
        // unrelated decimals pass.
        assert_eq!(count("let t = 0.33; let u = 3.1366; let v = 1e-6;\n"), 0);
        assert_eq!(count("pub const K_B: f64 = 8.617_333_262e-5;\n"), 0);
        // cfg(test) code is exempt.
        assert_eq!(
            count("#[cfg(test)]\nmod tests {\n  let w = 0.8333333;\n}\n"),
            0
        );
    }

    #[test]
    fn unsafe_send_sync_impl_detection() {
        assert_eq!(
            unsafe_send_sync_impl("unsafe impl Send for X {}"),
            Some("Send")
        );
        assert_eq!(
            unsafe_send_sync_impl("unsafe impl<'a, T: Send> Sync for Y<'a, T> {}"),
            Some("Sync")
        );
        // `Send`/`Sync` as *bounds* of some other unsafe trait must not match.
        assert_eq!(
            unsafe_send_sync_impl("unsafe impl<'a, T: Sync> Source for SliceSrc<'a, T> {"),
            None
        );
        assert_eq!(unsafe_send_sync_impl("impl Send for X {}"), None);
        assert_eq!(unsafe_send_sync_impl("unsafe impl Sender for X {}"), None);
    }

    #[test]
    fn racecheck_tag_parsing_spans_lines() {
        let block = "SAFETY: [racecheck: sweep.spatial.x.scalar, sweep.spatial.y.scalar] — ok";
        assert_eq!(
            tag_names("racecheck", block),
            Some(vec!["sweep.spatial.x.scalar", "sweep.spatial.y.scalar"])
        );
        assert_eq!(tag_names("racecheck", "SAFETY: pointer is fine"), None);
        assert_eq!(tag_names("racecheck", "[racecheck:]"), Some(vec![]));
    }

    #[test]
    fn send_registry_lint_directions() {
        // A valid citation is accepted and recorded.
        let good = [
            "// SAFETY: [racecheck: pool.slice_mut] — disjoint indices",
            "unsafe impl<'a, T: Send> Sync for S<'a, T> {}",
        ]
        .join("\n");
        let reg = scanned(TagRegistry::races(), "a.rs", &good);
        assert!(reg.violations.is_empty());
        assert!(reg.cited.contains("pool.slice_mut"));

        // A tag spanning two comment lines still parses.
        let wrapped = [
            "// SAFETY: [racecheck: pool.slice_mut,",
            "// pool.chunks_mut] — both regions verified",
            "unsafe impl Send for P {}",
        ]
        .join("\n");
        let reg = scanned(TagRegistry::races(), "a.rs", &wrapped);
        assert!(reg.violations.is_empty());
        assert!(reg.cited.contains("pool.chunks_mut"));

        // Missing tag → violation.
        let untagged = ["// SAFETY: trust me", "unsafe impl Send for Q {}"].join("\n");
        let reg = scanned(TagRegistry::races(), "a.rs", &untagged);
        assert_eq!(reg.violations.len(), 1);
        assert!(reg.violations[0].message.contains("no `[racecheck:"));

        // Stale name → violation.
        let stale = [
            "// SAFETY: [racecheck: sweep.spatial.w.scalar]",
            "unsafe impl Send for R {}",
        ]
        .join("\n");
        let reg = scanned(TagRegistry::races(), "a.rs", &stale);
        assert_eq!(reg.violations.len(), 1);
        assert!(reg.violations[0]
            .message
            .contains("not in the racecheck registry"));

        // Reverse direction: a backing region nobody cites → violation.
        let reg = TagRegistry::races();
        let v = reg.check();
        assert!(
            v.iter().all(|x| x.message.contains("backs_unsafe_impl")),
            "only reverse-direction findings expected"
        );
        assert_eq!(
            v.len(),
            vlasov6d_verify::racecheck::registry::backing_region_names().len()
        );
    }

    #[test]
    fn layoutcheck_tag_parsing() {
        let block = "[layoutcheck: fft.pencil.stage1, fft.pencil.stage2]";
        assert_eq!(
            tag_names("layoutcheck", block),
            Some(vec!["fft.pencil.stage1", "fft.pencil.stage2"])
        );
        assert_eq!(tag_names("layoutcheck", "no tag here"), None);
        assert_eq!(tag_names("layoutcheck", "[layoutcheck:]"), Some(vec![]));
    }

    #[test]
    fn stencil_home_selection() {
        assert!(is_stencil_home(Path::new("crates/advection/src/flux.rs")));
        assert!(is_stencil_home(Path::new("crates/mesh/src/stencil.rs")));
        assert!(is_stencil_home(Path::new(
            "crates/verify/src/kerncheck/weights.rs"
        )));
        assert!(!is_stencil_home(Path::new("crates/mesh/src/field.rs")));
        assert!(!is_stencil_home(Path::new("crates/poisson/src/lib.rs")));
    }

    #[test]
    fn span_name_format() {
        assert!(valid_span_name("sweep.dist.x"));
        assert!(valid_span_name("fft.c2c3d.forward"));
        assert!(valid_span_name("poisson.dist_solve"));
        assert!(!valid_span_name("Sweep.X"));
        assert!(!valid_span_name("sweep..x"));
        assert!(!valid_span_name(""));
        assert!(!valid_span_name("sweep x"));
    }

    #[test]
    fn span_registry_flags_bucket_conflicts() {
        let mut reg = SpanRegistry::default();
        reg.scan(
            Path::new("a.rs"),
            "let _s = span!(\"gravity\", Bucket::Pm);\n",
        );
        reg.scan(
            Path::new("b.rs"),
            "let _s = span!(\"gravity\", Bucket::Tree);\n",
        );
        let v = reg.check();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("Bucket::Tree"));
    }

    #[test]
    fn span_registry_reads_const_tables_and_skips_tests() {
        let mut reg = SpanRegistry::default();
        reg.scan(
            Path::new("a.rs"),
            "const SPAN: [&str; 2] = [\"sweep.x\", \"BAD NAME\"];\n",
        );
        assert_eq!(reg.check().len(), 1);
        let mut reg = SpanRegistry::default();
        reg.scan(
            Path::new("a.rs"),
            "#[cfg(test)]\nmod tests {\n let _ = span!(\"BAD\", Bucket::Pm);\n}\n",
        );
        assert!(reg.check().is_empty());
    }
}
