//! Workspace automation tasks (`cargo xtask <command>`).
//!
//! * `lint` — a custom static-analysis pass over the workspace sources
//!   enforcing invariants rustc and clippy do not know about. Seven lints,
//!   all text-based (zero dependencies, fast enough for every CI run):
//!
//!   * **safety-comments** — every `unsafe` keyword (impl, fn, block) must
//!     be preceded by a `SAFETY:` comment within the few lines above it, so
//!     each soundness argument is written down where the obligation arises.
//!   * **hot-path-panics** — no `.unwrap()` / `panic!` in the designated
//!     hot-path kernels (advection, FFT kernels, phase-space sweeps): those
//!     run inside rayon tasks on every step, and a panic there aborts the
//!     whole rank without rank/tag context. Fallible paths must use
//!     contextful `expect`/`unwrap_or_else` at orchestration layers instead.
//!   * **span-names** — obs `span!` names must be `dot.separated_lowercase`
//!     literals, and a given span name must always carry the same explicit
//!     `Bucket` so the four-bucket fold stays well-defined.
//!   * **stencil-literals** — stencil coefficients (division by the
//!     characteristic finite-difference denominators 12/24/30/60/120, or
//!     hand-expanded repeating decimals like `0.8333`) may only appear in
//!     the designated stencil homes (`crates/advection/src/`,
//!     `crates/mesh/src/stencil.rs`) where kerncheck verifies them; a copy
//!     anywhere else is an unverified fork of a kernel constant.
//!   * **raw-fs-writes** — no direct `fs::write` / `File::create` outside
//!     the designated writer homes (the `vlasov6d-ckpt` layer, the obs
//!     JSONL sink, the map/image writers, benches and xtask itself).
//!     Durable simulation state must go through the ckpt container format —
//!     chunk CRCs, whole-file checksum, two-phase atomic commit — never
//!     through an ad-hoc `fs::write` that a torn write can corrupt silently.
//!   * **overlap-blocking-calls** — no blocking `send` / `recv` /
//!     `sendrecv` / `shift_exchange` inside the overlapped-step region
//!     (`sweep_spatial_overlapped`): a blocking call there serialises the
//!     exchange and silently destroys the comm/compute overlap the split
//!     pipeline exists to provide. Only the split-phase `isend` / `irecv` +
//!     `wait` API is allowed; the synchronous oracle path
//!     (`sweep_spatial_distributed` / `exchange_ghosts`) is allowlisted by
//!     construction because only the overlapped function's body is scanned.
//!   * **unsafe-send-registry** — every `unsafe impl Send`/`Sync` in the
//!     workspace must justify itself against the race verifier: its SAFETY
//!     comment must carry a `[racecheck: region, …]` tag naming at least one
//!     region registered in `vlasov6d-racecheck`, every cited name must
//!     exist in the registry (stale tags fail), and — the reverse
//!     direction — every registry region flagged as backing an unsafe impl
//!     must actually be cited by some SAFETY comment, so the registry
//!     cannot rot either.
//!   * **layout-index-arith** — the distributed-FFT transpose source
//!     (`crates/fft/src/pencil.rs`) is pure
//!     flat-index arithmetic; every pack/unpack/repartition/plan-building
//!     function there must cite the registered layout map it implements via
//!     a `[layoutcheck: name, …]` tag in its doc comment, every cited name
//!     must exist in the `vlasov6d-layoutcheck` registry, and — the reverse
//!     direction — every registered repartition backing a pack loop must be
//!     cited by some tag, mirroring `unsafe-send-registry`.
//!
//!   `#[cfg(test)]` modules are exempt from `hot-path-panics`,
//!   `span-names`, `stencil-literals` and `raw-fs-writes` (tests panic on
//!   purpose, spell out expected coefficients and build fixture files), but
//!   never from `safety-comments`.
//!
//! * `verify-kernels` — run every `vlasov6d-kerncheck` analysis pass
//!   (symbolic weights, interval abstract interpretation, stencil
//!   footprints, SIMD equivalence, op counts) and fail on any violated
//!   property. Prints the human report to stdout and, with
//!   `--json <path>`, writes the machine-readable report there.
//!
//! * `verify-races` — run every `vlasov6d-racecheck` pass (symbolic
//!   write-disjointness proofs for all registered parallel regions,
//!   concrete plan/claim-map cross-checks, single-task taint probes against
//!   the real kernels) and fail on any violated property. Same `--json`
//!   convention as `verify-kernels`.
//!
//! * `verify-layouts` — run every `vlasov6d-layoutcheck` pass (symbolic
//!   layout-bijectivity and conservation proofs for all registered
//!   repartitions, concrete enumeration/plan diffs, sentinel probes through
//!   the live exchange, exact cyclotomic transform identities) and fail on
//!   any violated property. Same `--json` convention as `verify-kernels`.
//!
//! * `perf-gate` — the trace-derived performance regression gate: runs the
//!   2-rank overlapped smoke simulation with the flight recorder on and
//!   off, extracts per-step critical paths, and compares the summary
//!   (path coverage, overlapped / synchronous x-sweep wall, exposed-comm
//!   agreement with the span tree, communication imbalance, tracing
//!   overhead) against the
//!   checked-in `perf-baseline.json` bounds. See [`perf_gate`].

mod perf_gate;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <lint | verify-kernels [--json <path>] | verify-races [--json <path>] | verify-layouts [--json <path>] | perf-gate [--baseline <path>] [--write-baseline] [--trace-out <path>] [--summary-out <path>]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(Path::new(".")),
        Some("verify-kernels") => verify_kernels(&args[1..]),
        Some("verify-races") => verify_races(&args[1..]),
        Some("verify-layouts") => verify_layouts(&args[1..]),
        Some("perf-gate") => perf_gate::perf_gate(&args[1..]),
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

/// Run the kerncheck verifier and fail on any violated property.
fn verify_kernels(args: &[String]) -> ExitCode {
    let mut json_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown verify-kernels flag `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = vlasov6d_kerncheck::run_all();
    print!("{}", report.render_text());
    if let Some(path) = json_path {
        let json = report.to_json().to_string_compact();
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("verify-kernels: {} violation(s)", report.violations());
        ExitCode::FAILURE
    }
}

fn verify_races(args: &[String]) -> ExitCode {
    let mut json_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown verify-races flag `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = vlasov6d_racecheck::run_all();
    print!("{}", report.render_text());
    if let Some(path) = json_path {
        let json = report.to_json().to_string_compact();
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("verify-races: {} violation(s)", report.violations());
        ExitCode::FAILURE
    }
}

fn verify_layouts(args: &[String]) -> ExitCode {
    let mut json_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown verify-layouts flag `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = vlasov6d_layoutcheck::run_all();
    print!("{}", report.render_text());
    if let Some(path) = json_path {
        let json = report.to_json().to_string_compact();
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("verify-layouts: {} violation(s)", report.violations());
        ExitCode::FAILURE
    }
}

/// Hot-path modules: compute kernels where a panic aborts a rayon task on
/// every simulation step. Orchestration layers (e.g. `fft/src/pencil.rs`)
/// are excluded on purpose — their failure paths carry rank/tag context
/// via `expect`/`unwrap_or_else`, which is exactly what this lint pushes
/// code toward.
const HOT_PATHS: &[&str] = &[
    "crates/advection/src/",
    "crates/fft/src/fft3d.rs",
    "crates/fft/src/plan.rs",
    "crates/fft/src/real.rs",
    "crates/fft/src/complex.rs",
    "crates/phase-space/src/sweep.rs",
    "crates/phase-space/src/exchange.rs",
];

/// How many lines above an `unsafe` keyword a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 4;

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
    let mut sends = SendRegistry::new();
    let mut layouts = LayoutRegistry::new();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = file.strip_prefix(root).unwrap_or(file);
        violations.extend(check_safety_comments(rel, &source));
        if is_hot_path(rel) {
            violations.extend(check_hot_path_panics(rel, &source));
        }
        if !is_stencil_home(rel) {
            violations.extend(check_stencil_literals(rel, &source));
        }
        if !is_fs_write_home(rel) {
            violations.extend(check_raw_fs_writes(rel, &source));
        }
        violations.extend(check_overlap_blocking_calls(rel, &source));
        spans.scan(rel, &source);
        sends.scan(rel, &source);
        layouts.scan(rel, &source);
    }
    violations.extend(spans.check());
    violations.extend(sends.check());
    violations.extend(layouts.check());

    if violations.is_empty() {
        // Two literals (not one wrapped with `\`) so the keyword scanner,
        // which strips strings line-by-line, never sees this text as code.
        println!(
            concat!(
                "xtask lint: {} files clean (safety-comments, hot-path-panics, span-names, ",
                "stencil-literals, raw-fs-writes, overlap-blocking-calls, unsafe-send-registry, ",
                "layout-index-arith)"
            ),
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

fn is_hot_path(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    HOT_PATHS.iter().any(|h| {
        if h.ends_with('/') {
            p.starts_with(h)
        } else {
            p == *h
        }
    })
}

/// Strip `// ...` line comments and the contents of ordinary string
/// literals, so keyword scans do not fire inside either. Good enough for
/// this codebase (no raw strings containing `unsafe` or `panic!`).
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

/// Does `code` contain `unsafe` as a standalone keyword?
fn has_unsafe_keyword(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let i = start + pos;
        let before_ok = i == 0 || !is_ident_char(bytes[i - 1]);
        let after = i + "unsafe".len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lint 1: every `unsafe` keyword carries a `SAFETY:` comment on the same
/// line or within [`SAFETY_WINDOW`] lines above it. A rustdoc `# Safety`
/// section heading counts too — that is the idiomatic form on `unsafe`
/// trait and method *declarations*, where the comment states a contract
/// for callers rather than a discharge of one.
fn check_safety_comments(rel: &Path, source: &str) -> Vec<Violation> {
    let lines: Vec<&str> = source.lines().collect();
    let mut violations = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        if !has_unsafe_keyword(&code_only(raw)) {
            continue;
        }
        let lo = idx.saturating_sub(SAFETY_WINDOW);
        let documented = lines[lo..=idx]
            .iter()
            .any(|l| l.contains("SAFETY:") || l.contains("# Safety"));
        if !documented {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: idx + 1,
                lint: "safety-comments",
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines above"
                ),
            });
        }
    }
    violations
}

/// Line indices (0-based) covered by `#[cfg(test)]`-gated items, found by
/// brace counting from each attribute.
fn test_code_lines(source: &str) -> Vec<bool> {
    let lines: Vec<&str> = source.lines().collect();
    let mut masked = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Mask from the attribute to the close of the item's brace block.
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            masked[j] = true;
            for c in code_only(lines[j]).chars() {
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
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    masked
}

/// Lint 2: no `.unwrap()` / `panic!` in hot-path modules outside tests.
fn check_hot_path_panics(rel: &Path, source: &str) -> Vec<Violation> {
    let masked = test_code_lines(source);
    let mut violations = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        if masked.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let code = code_only(raw);
        for (needle, what) in [(".unwrap()", "`unwrap()`"), ("panic!", "`panic!`")] {
            if code.contains(needle) {
                violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    lint: "hot-path-panics",
                    message: format!(
                        "{what} in a hot-path module; use a contextful `expect`/\
                         `unwrap_or_else` at the orchestration layer instead"
                    ),
                });
            }
        }
    }
    violations
}

/// Where stencil coefficients are allowed to live: the advection kernels
/// (weights, limiter, method-of-lines baseline), the mesh finite-difference
/// stencils, and kerncheck itself (which reconstructs the coefficients
/// symbolically to verify them).
const STENCIL_HOMES: &[&str] = &[
    "crates/advection/src/",
    "crates/mesh/src/stencil.rs",
    "crates/kerncheck/src/",
];

fn is_stencil_home(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    STENCIL_HOMES.iter().any(|h| {
        if h.ends_with('/') {
            p.starts_with(h)
        } else {
            p == *h
        }
    })
}

/// The characteristic denominators of centred finite-difference and
/// semi-Lagrangian stencil coefficients. `6.0` is deliberately absent:
/// `/ 6.0` is the RK4 combination weight used legitimately by the cosmology
/// integrator.
const STENCIL_DENOMS: &[&str] = &["12.0", "24.0", "30.0", "60.0", "120.0"];

/// Does `code` divide by one of the stencil denominators?
fn divides_by_stencil_denom(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'/' {
            continue;
        }
        // `//` never reaches here (comments are stripped); skip spaces.
        let rest = code[i + 1..].trim_start();
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

/// Lint 4: no stencil-coefficient literals outside the designated homes.
fn check_stencil_literals(rel: &Path, source: &str) -> Vec<Violation> {
    let masked = test_code_lines(source);
    let mut violations = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        if masked.get(idx).copied().unwrap_or(false) {
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

/// Where direct file creation is allowed: the checkpoint layer (whose
/// atomic two-phase commit is the workspace's durable-write primitive), the
/// obs JSONL sink, the map/image writers (lossy visual exports, not state),
/// benches and xtask itself. Everything else — snapshots, restart files,
/// any serialised simulation state — must go through `vlasov6d-ckpt`.
const RAW_FS_WRITE_HOMES: &[&str] = &[
    "crates/ckpt/src/",
    "crates/obs/src/event.rs",
    "crates/core/src/maps.rs",
    "crates/bench/",
    "xtask/",
];

fn is_fs_write_home(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    RAW_FS_WRITE_HOMES.iter().any(|h| {
        if h.ends_with('/') {
            p.starts_with(h)
        } else {
            p == *h
        }
    })
}

/// Lint 5: no direct `fs::write` / `File::create` outside the writer homes.
fn check_raw_fs_writes(rel: &Path, source: &str) -> Vec<Violation> {
    let masked = test_code_lines(source);
    let mut violations = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        if masked.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let code = code_only(raw);
        for (needle, what) in [
            ("fs::write(", "`fs::write`"),
            ("File::create(", "`File::create`"),
        ] {
            if code.contains(needle) {
                violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    lint: "raw-fs-writes",
                    message: format!(
                        "{what} outside the designated writer modules; durable \
                         simulation state must go through `vlasov6d-ckpt` \
                         (atomic commit + checksums)"
                    ),
                });
            }
        }
    }
    violations
}

/// The overlapped-step regions: `(file, function)` pairs whose bodies must
/// stay free of blocking communication. The synchronous oracle
/// (`sweep_spatial_distributed` / `exchange_ghosts` in the same file) is
/// allowlisted by construction — only the named functions are scanned.
const OVERLAP_REGION_FNS: &[(&str, &str)] = &[(
    "crates/phase-space/src/exchange.rs",
    "sweep_spatial_overlapped",
)];

/// Blocking point-to-point calls that would serialise the ghost exchange.
/// The needles include the leading dot, so the split-phase `.isend(` /
/// `.irecv(` never match (the character before `send(` there is `i`).
const BLOCKING_COMM_CALLS: &[(&str, &str)] = &[
    (".send(", "`Comm::send`"),
    (".recv(", "`Comm::recv`"),
    (".sendrecv(", "`Comm::sendrecv`"),
    (".shift_exchange(", "`Cart3::shift_exchange`"),
];

/// Line span (0-based, inclusive) of `fn <name>`'s definition in `source`,
/// from the signature line to the close of its brace block.
fn function_body_lines(source: &str, fn_name: &str) -> Option<(usize, usize)> {
    let lines: Vec<&str> = source.lines().collect();
    let needle = format!("fn {fn_name}");
    let start = lines.iter().position(|l| code_only(l).contains(&needle))?;
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
            return Some((start, j));
        }
    }
    None
}

/// Lint 6: no blocking communication inside the overlapped-step region.
fn check_overlap_blocking_calls(rel: &Path, source: &str) -> Vec<Violation> {
    let p = rel.to_string_lossy().replace('\\', "/");
    let mut violations = Vec::new();
    for (file, fn_name) in OVERLAP_REGION_FNS {
        if p != *file {
            continue;
        }
        let Some((start, end)) = function_body_lines(source, fn_name) else {
            // A rename must not silently disable the lint.
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: 1,
                lint: "overlap-blocking-calls",
                message: format!(
                    "overlapped-region fn `{fn_name}` not found; update \
                     OVERLAP_REGION_FNS in xtask if it moved or was renamed"
                ),
            });
            continue;
        };
        for (idx, raw) in source.lines().enumerate().take(end + 1).skip(start) {
            let code = code_only(raw);
            for (needle, what) in BLOCKING_COMM_CALLS {
                if code.contains(needle) {
                    violations.push(Violation {
                        file: rel.to_path_buf(),
                        line: idx + 1,
                        lint: "overlap-blocking-calls",
                        message: format!(
                            "blocking {what} inside the overlapped-step region \
                             `{fn_name}`; use the split-phase `isend`/`irecv` + \
                             `wait` API so the exchange overlaps the interior \
                             sweep (the synchronous oracle path is the only \
                             blocking caller allowed, and it lives outside \
                             this function)"
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Lint 3: span-name registry across the workspace.
#[derive(Default)]
struct SpanRegistry {
    /// `(name, explicit bucket, file, line)` per literal-named `span!` call.
    uses: Vec<(String, Option<String>, PathBuf, usize)>,
}

impl SpanRegistry {
    fn scan(&mut self, rel: &Path, source: &str) {
        let masked = test_code_lines(source);
        for (idx, raw) in source.lines().enumerate() {
            if masked.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let Some(call) = raw.find("span!(") else {
                continue;
            };
            let rest = &raw[call + "span!(".len()..];
            // Literal first argument: `span!("name"...)`. Names routed
            // through consts (`span!(SPAN[d], ..)`) are picked up below via
            // the const definition.
            if let Some(name) = leading_str_literal(rest) {
                let bucket = extract_bucket(rest);
                self.uses.push((name, bucket, rel.to_path_buf(), idx + 1));
            }
        }
        // `const SPAN: [&str; N] = ["a", "b", ...];` name tables.
        for (idx, raw) in source.lines().enumerate() {
            if masked.get(idx).copied().unwrap_or(false) {
                continue;
            }
            // Needle split so the lint does not match its own source.
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
    for t in ["Send", "Sync"] {
        if let Some(after) = rest.strip_prefix(t) {
            if after.trim_start().starts_with("for ") {
                return Some(if t == "Send" { "Send" } else { "Sync" });
            }
        }
    }
    None
}

/// Lint 7: `unsafe impl Send`/`Sync` ↔ racecheck-registry cross-reference.
///
/// Direction 1 (per impl): the SAFETY comment block directly above the impl
/// must contain a `[racecheck: name, …]` tag (the tag may span several `//`
/// lines) citing only registered region names. Direction 2 (per registry):
/// every region flagged `backs_unsafe_impl` in
/// `vlasov6d_racecheck::registry` must be cited by at least one tag.
struct SendRegistry {
    registered: std::collections::BTreeSet<&'static str>,
    backing: Vec<&'static str>,
    cited: std::collections::BTreeSet<String>,
    violations: Vec<Violation>,
}

impl SendRegistry {
    fn new() -> Self {
        Self {
            registered: vlasov6d_racecheck::registry::region_names()
                .into_iter()
                .collect(),
            backing: vlasov6d_racecheck::registry::backing_region_names(),
            cited: Default::default(),
            violations: Vec::new(),
        }
    }

    fn scan(&mut self, rel: &Path, source: &str) {
        let lines: Vec<&str> = source.lines().collect();
        for (idx, raw) in lines.iter().enumerate() {
            let Some(trait_name) = unsafe_send_sync_impl(&code_only(raw)) else {
                continue;
            };
            // Gather the contiguous `//` comment block directly above.
            let mut lo = idx;
            while lo > 0 && lines[lo - 1].trim_start().starts_with("//") {
                lo -= 1;
            }
            let block: String = lines[lo..idx]
                .iter()
                .map(|l| l.trim_start().trim_start_matches("//").trim())
                .collect::<Vec<_>>()
                .join(" ");
            match racecheck_tag_names(&block) {
                None => self.violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    lint: "unsafe-send-registry",
                    message: format!(
                        "`unsafe impl {trait_name}` without a `[racecheck: region, …]` tag \
                         in its SAFETY comment; name the verified parallel region(s) this \
                         impl enables"
                    ),
                }),
                Some(names) if names.is_empty() => self.violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    lint: "unsafe-send-registry",
                    message: "empty `[racecheck:]` tag; cite at least one registered region"
                        .to_string(),
                }),
                Some(names) => {
                    for name in names {
                        if self.registered.contains(name.as_str()) {
                            self.cited.insert(name);
                        } else {
                            self.violations.push(Violation {
                                file: rel.to_path_buf(),
                                line: idx + 1,
                                lint: "unsafe-send-registry",
                                message: format!(
                                    "SAFETY tag cites `{name}`, which is not in the racecheck \
                                     registry — stale tag or missing registry entry"
                                ),
                            });
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
                    file: PathBuf::from("crates/racecheck/src/registry.rs"),
                    line: 1,
                    lint: "unsafe-send-registry",
                    message: format!(
                        "registry region `{name}` is flagged `backs_unsafe_impl` but no \
                         SAFETY comment cites it — stale registry entry or missing tag"
                    ),
                });
            }
        }
        self.violations
    }
}

/// Lint 8: `[layoutcheck:]` ↔ layout-registry cross-reference over the
/// distributed-FFT transpose sources.
///
/// Direction 1 (per function): every non-test fn in [`LAYOUT_INDEX_FILES`]
/// whose name marks it as transpose index arithmetic (see
/// [`layout_index_fn`]) must carry a `[layoutcheck: name, …]` tag in the
/// comment block directly above its signature, citing only repartitions
/// registered in `vlasov6d_layoutcheck::registry`. Direction 2 (per
/// registry): every registered repartition flagged `backs_pack_loop` must
/// be cited by at least one tag, so the registry cannot rot.
struct LayoutRegistry {
    registered: std::collections::BTreeSet<&'static str>,
    backing: Vec<&'static str>,
    cited: std::collections::BTreeSet<String>,
    violations: Vec<Violation>,
}

/// The files whose flat-index transpose arithmetic the lint polices.
const LAYOUT_INDEX_FILES: &[&str] = &["crates/fft/src/pencil.rs"];

/// Is `name` a function implementing (or planning) a registered repartition's
/// index arithmetic? Pack/unpack loops, repartition entry points, and the
/// plan functions whose byte accounting must match them.
fn layout_index_fn(name: &str) -> bool {
    name.starts_with("transpose_")
        || name.starts_with("repartition_")
        || name.starts_with("pack_")
        || name.starts_with("unpack_")
        || matches!(name, "add_stage" | "add_forward" | "add_inverse")
}

/// `fn <name>` on a (comment-stripped) line, if it declares a function.
fn declared_fn_name(code: &str) -> Option<&str> {
    let pos = code.find("fn ")?;
    // Require a word boundary before `fn` so e.g. `btn ` cannot match.
    if pos > 0 && is_ident_char(code.as_bytes()[pos - 1]) {
        return None;
    }
    let rest = &code[pos + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

impl LayoutRegistry {
    fn new() -> Self {
        Self {
            registered: vlasov6d_layoutcheck::registry::repartition_names()
                .into_iter()
                .collect(),
            backing: vlasov6d_layoutcheck::registry::entries()
                .iter()
                .filter(|e| e.backs_pack_loop)
                .map(|e| e.rep.name)
                .collect(),
            cited: Default::default(),
            violations: Vec::new(),
        }
    }

    fn scan(&mut self, rel: &Path, source: &str) {
        let p = rel.to_string_lossy().replace('\\', "/");
        if !LAYOUT_INDEX_FILES.contains(&p.as_str()) {
            return;
        }
        let masked = test_code_lines(source);
        let lines: Vec<&str> = source.lines().collect();
        for (idx, raw) in lines.iter().enumerate() {
            if masked.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let code = code_only(raw);
            let Some(name) = declared_fn_name(&code) else {
                continue;
            };
            if !layout_index_fn(name) {
                continue;
            }
            let name = name.to_string();
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
            match layoutcheck_tag_names(&block) {
                None => self.violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    lint: "layout-index-arith",
                    message: format!(
                        "fn `{name}` does transpose index arithmetic but carries no \
                         `[layoutcheck: map, …]` tag; cite the registered repartition(s) \
                         its flat-index math implements"
                    ),
                }),
                Some(names) if names.is_empty() => self.violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    lint: "layout-index-arith",
                    message: "empty `[layoutcheck:]` tag; cite at least one registered repartition"
                        .to_string(),
                }),
                Some(names) => {
                    for cited in names {
                        if self.registered.contains(cited.as_str()) {
                            self.cited.insert(cited);
                        } else {
                            self.violations.push(Violation {
                                file: rel.to_path_buf(),
                                line: idx + 1,
                                lint: "layout-index-arith",
                                message: format!(
                                    "tag on fn `{name}` cites `{cited}`, which is not in the \
                                     layoutcheck registry — stale tag or missing registry entry"
                                ),
                            });
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
                    file: PathBuf::from("crates/layoutcheck/src/registry.rs"),
                    line: 1,
                    lint: "layout-index-arith",
                    message: format!(
                        "registered repartition `{name}` is flagged `backs_pack_loop` but no \
                         pack/unpack loop cites it — stale registry entry or missing tag"
                    ),
                });
            }
        }
        self.violations
    }
}

/// The names inside the first `[layoutcheck: …]` tag of a flattened comment
/// block, or `None` if there is no tag.
fn layoutcheck_tag_names(block: &str) -> Option<Vec<String>> {
    let start = block.find("[layoutcheck:")?;
    let body = &block[start + "[layoutcheck:".len()..];
    let end = body.find(']')?;
    Some(
        body[..end]
            .split(',')
            .map(|n| n.trim().to_string())
            .filter(|n| !n.is_empty())
            .collect(),
    )
}

/// The names inside the first `[racecheck: …]` tag of a flattened comment
/// block, or `None` if there is no tag.
fn racecheck_tag_names(block: &str) -> Option<Vec<String>> {
    let start = block.find("[racecheck:")?;
    let body = &block[start + "[racecheck:".len()..];
    let end = body.find(']')?;
    Some(
        body[..end]
            .split(',')
            .map(|n| n.trim().to_string())
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

    #[test]
    fn unsafe_keyword_detection_ignores_idents_and_comments() {
        assert!(has_unsafe_keyword(&code_only("unsafe { foo() }")));
        assert!(has_unsafe_keyword(&code_only("unsafe impl Send for X {}")));
        assert!(!has_unsafe_keyword(&code_only("#![deny(unsafe_code)]")));
        assert!(!has_unsafe_keyword(&code_only("// unsafe in a comment")));
        assert!(!has_unsafe_keyword(&code_only("let s = \"unsafe\";")));
        assert!(!has_unsafe_keyword(&code_only("my_unsafe_helper()")));
    }

    #[test]
    fn safety_comment_window() {
        let ok = "// SAFETY: disjoint indices\nunsafe { x() }\n";
        assert!(check_safety_comments(Path::new("a.rs"), ok).is_empty());
        let doc_comment = "/// SAFETY: caller upholds X.\nunsafe fn f() {}\n";
        assert!(check_safety_comments(Path::new("a.rs"), doc_comment).is_empty());
        let safety_section = "/// # Safety\n/// `i` must be in bounds.\nunsafe fn g(i: usize);\n";
        assert!(check_safety_comments(Path::new("a.rs"), safety_section).is_empty());
        let missing = "fn f() {\n    unsafe { x() }\n}\n";
        let v = check_safety_comments(Path::new("a.rs"), missing);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        let too_far = format!("// SAFETY: stale\n{}unsafe {{ x() }}\n", "\n".repeat(6));
        assert_eq!(check_safety_comments(Path::new("a.rs"), &too_far).len(), 1);
    }

    #[test]
    fn hot_path_lint_skips_cfg_test_blocks() {
        let source = "\
fn hot() {
    let v = compute();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        x.unwrap();
        panic!(\"boom\");
    }
}
";
        assert!(check_hot_path_panics(Path::new("a.rs"), source).is_empty());
        let bad = "fn hot() { x.unwrap(); }\n";
        let v = check_hot_path_panics(Path::new("a.rs"), bad);
        assert_eq!(v.len(), 1);
        let bad_panic = "fn hot() { panic!(\"no context\"); }\n";
        assert_eq!(check_hot_path_panics(Path::new("a.rs"), bad_panic).len(), 1);
    }

    #[test]
    fn hot_path_selection() {
        assert!(is_hot_path(Path::new("crates/advection/src/mol.rs")));
        assert!(is_hot_path(Path::new("crates/fft/src/fft3d.rs")));
        assert!(is_hot_path(Path::new("crates/phase-space/src/sweep.rs")));
        assert!(!is_hot_path(Path::new("crates/fft/src/pencil.rs")));
        assert!(!is_hot_path(Path::new("crates/mpisim/src/comm.rs")));
    }

    #[test]
    fn stencil_literal_detection() {
        // Division by a stencil denominator.
        let bad = "let g = (8.0 * d1 - d2) / 12.0;\n";
        assert_eq!(check_stencil_literals(Path::new("a.rs"), bad).len(), 1);
        let bad60 = "let f = x / 60.0;\n";
        assert_eq!(check_stencil_literals(Path::new("a.rs"), bad60).len(), 1);
        // Longer literals and the RK4 denominator don't fire.
        let ok = "let a = x / 12.05; let b = y / 6.0; let c = z / 1200.0;\n";
        assert!(check_stencil_literals(Path::new("a.rs"), ok).is_empty());
        // Hand-expanded repeating decimals.
        let rep = "const W: f64 = 0.8333333;\n";
        let v = check_stencil_literals(Path::new("a.rs"), rep);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("0.8333333"));
        assert_eq!(
            check_stencil_literals(Path::new("a.rs"), "let w = 0.41666;\n").len(),
            1
        );
        // Short runs, non-trailing triples (physical constants), and
        // unrelated decimals pass.
        let fine = "let t = 0.33; let u = 3.1366; let v = 1e-6;\n";
        assert!(check_stencil_literals(Path::new("a.rs"), fine).is_empty());
        let boltzmann = "pub const K_B: f64 = 8.617_333_262e-5;\n";
        assert!(check_stencil_literals(Path::new("a.rs"), boltzmann).is_empty());
        // cfg(test) code is exempt.
        let test_code = "#[cfg(test)]\nmod tests {\n  let w = 0.8333333;\n}\n";
        assert!(check_stencil_literals(Path::new("a.rs"), test_code).is_empty());
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
            racecheck_tag_names(block),
            Some(vec![
                "sweep.spatial.x.scalar".to_string(),
                "sweep.spatial.y.scalar".to_string()
            ])
        );
        assert_eq!(racecheck_tag_names("SAFETY: pointer is fine"), None);
        assert_eq!(racecheck_tag_names("[racecheck:]"), Some(vec![]));
    }

    #[test]
    fn send_registry_lint_directions() {
        // A valid citation is accepted and recorded.
        let good = [
            "// SAFETY: [racecheck: pool.slice_mut] — disjoint indices",
            "unsafe impl<'a, T: Send> Sync for S<'a, T> {}",
        ]
        .join("\n");
        let mut reg = SendRegistry::new();
        reg.scan(Path::new("a.rs"), &good);
        assert!(reg.violations.is_empty());
        assert!(reg.cited.contains("pool.slice_mut"));

        // A tag spanning two comment lines still parses.
        let wrapped = [
            "// SAFETY: [racecheck: pool.slice_mut,",
            "// pool.chunks_mut] — both regions verified",
            "unsafe impl Send for P {}",
        ]
        .join("\n");
        let mut reg = SendRegistry::new();
        reg.scan(Path::new("a.rs"), &wrapped);
        assert!(reg.violations.is_empty());
        assert!(reg.cited.contains("pool.chunks_mut"));

        // Missing tag → violation.
        let untagged = ["// SAFETY: trust me", "unsafe impl Send for Q {}"].join("\n");
        let mut reg = SendRegistry::new();
        reg.scan(Path::new("a.rs"), &untagged);
        assert_eq!(reg.violations.len(), 1);
        assert!(reg.violations[0].message.contains("without a"));

        // Stale name → violation.
        let stale = [
            "// SAFETY: [racecheck: sweep.spatial.w.scalar]",
            "unsafe impl Send for R {}",
        ]
        .join("\n");
        let mut reg = SendRegistry::new();
        reg.scan(Path::new("a.rs"), &stale);
        assert_eq!(reg.violations.len(), 1);
        assert!(reg.violations[0]
            .message
            .contains("not in the racecheck registry"));

        // Reverse direction: a backing region nobody cites → violation.
        let reg = SendRegistry::new();
        let v = reg.check();
        assert!(
            v.iter().all(|x| x.message.contains("backs_unsafe_impl")),
            "only reverse-direction findings expected"
        );
        assert_eq!(
            v.len(),
            vlasov6d_racecheck::registry::backing_region_names().len()
        );
    }

    #[test]
    fn layout_index_fn_selection() {
        assert!(layout_index_fn("transpose_plan"));
        assert!(layout_index_fn("repartition_stage2_inv"));
        assert!(layout_index_fn("pack_stage1"));
        assert!(layout_index_fn("unpack_stage2"));
        assert!(layout_index_fn("add_forward"));
        assert!(layout_index_fn("add_stage"));
        // Accessors and unrelated helpers are not index-arithmetic loops.
        assert!(!layout_index_fn("spectral_coords"));
        assert!(!layout_index_fn("forward"));
        assert!(!layout_index_fn("run_stage"));
    }

    #[test]
    fn declared_fn_name_parsing() {
        assert_eq!(
            declared_fn_name("    pub fn pack_stage1(&self) {"),
            Some("pack_stage1")
        );
        assert_eq!(declared_fn_name("fn add_stage("), Some("add_stage"));
        assert_eq!(declared_fn_name("let f = btn_fn;"), None);
        assert_eq!(declared_fn_name("x + y"), None);
    }

    #[test]
    fn layout_registry_lint_directions() {
        let pencil = Path::new("crates/fft/src/pencil.rs");
        // A valid citation is accepted and recorded.
        let good = [
            "    /// Pack loop for the forward stage-1 transpose.",
            "    ///",
            "    /// [layoutcheck: fft.pencil.stage1]",
            "    fn pack_stage1(&self) {}",
        ]
        .join("\n");
        let mut reg = LayoutRegistry::new();
        reg.scan(pencil, &good);
        assert!(reg.violations.is_empty(), "{:?}", reg.violations);
        assert!(reg.cited.contains("fft.pencil.stage1"));

        // Missing tag → violation.
        let untagged = ["    /// Undocumented.", "    fn pack_stage1(&self) {}"].join("\n");
        let mut reg = LayoutRegistry::new();
        reg.scan(pencil, &untagged);
        assert_eq!(reg.violations.len(), 1);
        assert!(reg.violations[0].message.contains("no `[layoutcheck:"));

        // Stale name → violation.
        let stale = [
            "    /// [layoutcheck: fft.pencil.stage3]",
            "    fn unpack_stage2(&self) {}",
        ]
        .join("\n");
        let mut reg = LayoutRegistry::new();
        reg.scan(pencil, &stale);
        assert_eq!(reg.violations.len(), 1);
        assert!(reg.violations[0]
            .message
            .contains("not in the layoutcheck registry"));

        // Files outside LAYOUT_INDEX_FILES and cfg(test) code are exempt.
        let mut reg = LayoutRegistry::new();
        reg.scan(Path::new("crates/poisson/src/dist.rs"), &untagged);
        assert!(reg.violations.is_empty());
        let test_code = "#[cfg(test)]\nmod tests {\n    fn pack_stage1() {}\n}\n";
        let mut reg = LayoutRegistry::new();
        reg.scan(pencil, test_code);
        assert!(reg.violations.is_empty());

        // Reverse direction: every backs_pack_loop repartition nobody cites
        // is a violation.
        let reg = LayoutRegistry::new();
        let v = reg.check();
        assert_eq!(
            v.len(),
            vlasov6d_layoutcheck::registry::entries()
                .iter()
                .filter(|e| e.backs_pack_loop)
                .count()
        );
        assert!(v.iter().all(|x| x.message.contains("backs_pack_loop")));
    }

    #[test]
    fn layoutcheck_tag_parsing() {
        assert_eq!(
            layoutcheck_tag_names("[layoutcheck: fft.pencil.stage1, fft.pencil.stage2]"),
            Some(vec![
                "fft.pencil.stage1".to_string(),
                "fft.pencil.stage2".to_string()
            ])
        );
        assert_eq!(layoutcheck_tag_names("no tag here"), None);
        assert_eq!(layoutcheck_tag_names("[layoutcheck:]"), Some(vec![]));
    }

    #[test]
    fn stencil_home_selection() {
        assert!(is_stencil_home(Path::new("crates/advection/src/flux.rs")));
        assert!(is_stencil_home(Path::new("crates/mesh/src/stencil.rs")));
        assert!(is_stencil_home(Path::new(
            "crates/kerncheck/src/weights.rs"
        )));
        assert!(!is_stencil_home(Path::new("crates/mesh/src/field.rs")));
        assert!(!is_stencil_home(Path::new("crates/poisson/src/lib.rs")));
    }

    #[test]
    fn raw_fs_write_lint() {
        let bad = "fn save() { std::fs::write(path, bytes).unwrap(); }\n";
        let v = check_raw_fs_writes(Path::new("a.rs"), bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("vlasov6d-ckpt"));
        let bad_create = "let f = std::fs::File::create(path)?;\n";
        assert_eq!(check_raw_fs_writes(Path::new("a.rs"), bad_create).len(), 1);
        // Reads, mentions in comments/strings, and cfg(test) fixtures pass.
        let ok = "let b = fs::read(path)?; // fs::write( would be flagged\n";
        assert!(check_raw_fs_writes(Path::new("a.rs"), ok).is_empty());
        let test_code = "#[cfg(test)]\nmod tests {\n  fs::write(&p, b\"x\").unwrap();\n}\n";
        assert!(check_raw_fs_writes(Path::new("a.rs"), test_code).is_empty());
    }

    #[test]
    fn fs_write_home_selection() {
        assert!(is_fs_write_home(Path::new("crates/ckpt/src/container.rs")));
        assert!(is_fs_write_home(Path::new("crates/obs/src/event.rs")));
        assert!(is_fs_write_home(Path::new("crates/core/src/maps.rs")));
        assert!(is_fs_write_home(Path::new("xtask/src/main.rs")));
        assert!(!is_fs_write_home(Path::new("crates/core/src/snapshot.rs")));
        assert!(!is_fs_write_home(Path::new("crates/obs/src/report.rs")));
    }

    #[test]
    fn overlap_blocking_lint() {
        let exchange = Path::new("crates/phase-space/src/exchange.rs");
        // Split-phase calls inside the region and blocking calls outside it
        // both pass: only the named function's body is scanned.
        let clean = "\
pub fn sweep_spatial_overlapped(d: usize) {
    let s = comm.isend(peer, tag, planes);
    let r = comm.irecv::<Vec<f32>>(peer, tag);
    let got = r.wait();
    s.wait();
}
fn oracle() {
    let got = cart.shift_exchange(0, -1, tag, planes);
    comm.send(peer, tag, x);
}
";
        assert!(check_overlap_blocking_calls(exchange, clean).is_empty());
        // A blocking call inside the region is flagged with its line.
        let bad = "\
pub fn sweep_spatial_overlapped(d: usize) {
    let got = cart.shift_exchange(0, -1, tag, planes);
}
";
        let v = check_overlap_blocking_calls(exchange, bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("shift_exchange"));
        let bad_recv = "\
pub fn sweep_spatial_overlapped(d: usize) {
    let s = comm.isend(peer, tag, planes);
    let got: Vec<f32> = comm.recv(peer, tag);
    s.wait();
}
";
        assert_eq!(check_overlap_blocking_calls(exchange, bad_recv).len(), 1);
        // Mentions in comments don't fire.
        let comment = "\
pub fn sweep_spatial_overlapped(d: usize) {
    // unlike .sendrecv(, the split phases let the interior sweep run
    let s = comm.isend(peer, tag, planes);
    s.wait();
}
";
        assert!(check_overlap_blocking_calls(exchange, comment).is_empty());
        // Other files are never scanned, even with blocking calls.
        let other = Path::new("crates/core/src/dist_sim.rs");
        assert!(check_overlap_blocking_calls(other, bad).is_empty());
        // A rename/removal of the region fn is itself a violation, so the
        // lint cannot be disabled silently.
        let gone = "fn unrelated() {}\n";
        let v = check_overlap_blocking_calls(exchange, gone);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("OVERLAP_REGION_FNS"));
    }

    #[test]
    fn function_body_span_by_brace_counting() {
        let source = "\
fn before() {
    body();
}
pub fn target(
    a: usize,
) -> usize {
    if a > 0 {
        a
    } else {
        0
    }
}
fn after() {}
";
        let (start, end) = function_body_lines(source, "target").expect("found");
        assert_eq!((start, end), (3, 11));
        assert!(function_body_lines(source, "missing").is_none());
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
