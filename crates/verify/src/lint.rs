//! `qmc-lint` — the workspace invariant linter.
//!
//! A token-level scanner (dependency-free, in the spirit of the
//! `qmc_obs::json` parser) that mechanically enforces invariants the
//! repo otherwise carries only as prose:
//!
//! | rule                | invariant                                            |
//! |---------------------|------------------------------------------------------|
//! | `hot-transcendental`| no `exp`/`ln`/`powf`/`sqrt`/… inside `#[qmc_hot::hot]` functions — sweep kernels are table-driven |
//! | `hot-alloc`         | no `Vec::new`/`Box::new`/`collect`/`vec![]`/`to_vec` inside `#[qmc_hot::hot]` functions — steady state is allocation-free |
//! | `wall-clock`        | no `Instant::now`/`SystemTime::now` outside the `qmc-obs` crate (waivable where timeouts genuinely need host time) |
//! | `ckpt-hashmap`      | no `HashMap`/`HashSet` in checkpoint/wire-serialization files (qmc-ckpt, a `Checkpoint` impl, or any file naming the `Encoder`/`Decoder` codec) — iteration order would break the deterministic format |
//! | `lib-unwrap`        | no `.unwrap()` in library crates' non-test code       |
//! | `ckpt-unbounded-chain` | no `.write_sections(`/`.write_plan(` in a file that never mentions a `full_every` cadence knob — an unbounded delta chain grows restore cost without limit |
//! | `hot-scalar-spin-loop` | no per-spin `.metropolis(`/`.bernoulli(` decision inside `#[qmc_hot::hot]` functions — the sanctioned shapes compare raw draws with exact integer thresholds (`qmc_rng::threshold`), bit-identical to the per-spin loop: the TFIM colour kernel (`qmc_tfim`'s `colour.rs`, which batches its draws and resolves without a branch) and the world-line chain engine's two walks over its packed rows (`qmc_worldline`'s `Worldline::corner_row`, whose candidate mask marks a row's proposals and which draws once per proposal that needs one, and `Worldline::try_straight_line`, which rejects a kinked column by one mask bit without a draw and decides a straight one on the threshold of its ratio); or code many replicas a word, the multi-spin-coded `qmc_tfim::packed` (bitwise acceptance, 64 replicas a word); scalar per-spin branching in a hot kernel must be a waived reference path |
//! | `hot-wall-clock`    | no `Instant::now`/`SystemTime::now` inside `#[qmc_hot::hot]` functions, *any* crate — timing belongs in `qmc_obs::span` guards around the kernel, not per-iteration clock reads inside it |
//! | `net-unbounded-queue` | no `.push(`/`.push_back(` in a network-fed file (`TcpStream`/`TcpListener`/`FrameConn`/`FrameListener`/`recv_frame`) that never mentions a quota — a hostile peer must hit an admission bound, not grow server memory |
//! | `blocking-recv-no-stop` | no blocking `.recv(`/`.recv_frame(`/`.read(`/`.read_exact(` inside a `loop`/`while` body of a network-fed file that never consults a timeout, stop flag, drain, or deadline — a dead peer parks that loop forever and the thread never re-checks shutdown |
//!
//! Test code (`#[cfg(test)]` items, `#[test]` functions, `tests/`
//! directories) is exempt from every rule. A violation can be waived at
//! a specific site with a comment on the same or the preceding line:
//!
//! ```text
//! // lint: allow(wall-clock) — receive timeouts need host time
//! let deadline = Instant::now() + timeout;
//! ```
//!
//! Waivers are deliberately loud: they are the audit trail of every
//! sanctioned exception.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// The lint rules, each enforcing one workspace invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Transcendental call inside a `#[qmc_hot::hot]` region.
    HotTranscendental,
    /// Heap allocation inside a `#[qmc_hot::hot]` region.
    HotAlloc,
    /// Wall-clock read outside `qmc-obs`.
    WallClock,
    /// `HashMap`/`HashSet` in a checkpoint-serialization file.
    CkptHashMap,
    /// `.unwrap()` in library non-test code.
    LibUnwrap,
    /// Delta checkpoint writes in a file with no full-snapshot bound.
    CkptUnboundedChain,
    /// Per-spin acceptance branching inside a `#[qmc_hot::hot]` region.
    HotScalarSpinLoop,
    /// Wall-clock read inside a `#[qmc_hot::hot]` region (any crate).
    HotWallClock,
    /// Queue growth in a network-fed file with no quota in sight.
    NetUnboundedQueue,
    /// Blocking receive in a loop of a network-fed file that never
    /// consults a timeout, stop flag, drain, or deadline.
    BlockingRecvNoStop,
}

impl Rule {
    /// The kebab-case name used in output and waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotTranscendental => "hot-transcendental",
            Rule::HotAlloc => "hot-alloc",
            Rule::WallClock => "wall-clock",
            Rule::CkptHashMap => "ckpt-hashmap",
            Rule::LibUnwrap => "lib-unwrap",
            Rule::CkptUnboundedChain => "ckpt-unbounded-chain",
            Rule::HotScalarSpinLoop => "hot-scalar-spin-loop",
            Rule::HotWallClock => "hot-wall-clock",
            Rule::NetUnboundedQueue => "net-unbounded-queue",
            Rule::BlockingRecvNoStop => "blocking-recv-no-stop",
        }
    }

    /// All rules, for iteration and `--rules` listings.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::HotTranscendental,
            Rule::HotAlloc,
            Rule::WallClock,
            Rule::CkptHashMap,
            Rule::LibUnwrap,
            Rule::CkptUnboundedChain,
            Rule::HotScalarSpinLoop,
            Rule::HotWallClock,
            Rule::NetUnboundedQueue,
            Rule::BlockingRecvNoStop,
        ]
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------
// Lexer: Rust source → significant tokens + waiver map
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    Num,
    Str,
    CharLit,
    Lifetime,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: u32,
}

#[derive(Default)]
struct Lexed {
    tokens: Vec<Token>,
    /// line → rule names waived on that line (by a `lint: allow(...)`
    /// comment on it).
    waivers: BTreeMap<u32, Vec<String>>,
}

fn record_waiver(waivers: &mut BTreeMap<u32, Vec<String>>, comment: &str, line: u32) {
    let Some(idx) = comment.find("lint:") else {
        return;
    };
    let rest = comment[idx + 5..].trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return;
    };
    let Some(close) = rest.find(')') else { return };
    for rule in rest[..close].split(',') {
        waivers
            .entry(line)
            .or_default()
            .push(rule.trim().to_string());
    }
}

fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    let is_ident_start = |c: u8| c == b'_' || c.is_ascii_alphabetic();
    let is_ident_cont = |c: u8| c == b'_' || c.is_ascii_alphanumeric();

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                record_waiver(&mut out.waivers, &src[start..i], line);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                record_waiver(&mut out.waivers, &src[start..i], start_line);
            }
            b'"' => {
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Str,
                    line,
                });
            }
            b'\'' => {
                // Lifetime vs char literal. A char literal closes with a
                // quote after one (possibly escaped) character; a
                // lifetime is a quote followed by an identifier with no
                // closing quote.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    i += 3; // ' \ x
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Token {
                        tok: Tok::CharLit,
                        line,
                    });
                } else if i + 1 < b.len() && is_ident_start(b[i + 1]) {
                    let mut j = i + 1;
                    while j < b.len() && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'\'' {
                        i = j + 1;
                        out.tokens.push(Token {
                            tok: Tok::CharLit,
                            line,
                        });
                    } else {
                        i = j;
                        out.tokens.push(Token {
                            tok: Tok::Lifetime,
                            line,
                        });
                    }
                } else {
                    // ',' '(' etc.: single non-ident char literal.
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Token {
                        tok: Tok::CharLit,
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (is_ident_cont(b[i])) {
                    i += 1;
                }
                // Fractional part, but never consume a `..` range.
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Num,
                    line,
                });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                let word = &src[start..i];
                // Raw strings (r"", r#""#, br""), byte strings (b"").
                let next = b.get(i).copied();
                if matches!(word, "r" | "b" | "br") && matches!(next, Some(b'"') | Some(b'#')) {
                    if next == Some(b'#') {
                        // Raw identifier r#name?
                        let mut j = i;
                        while j < b.len() && b[j] == b'#' {
                            j += 1;
                        }
                        if j < b.len() && is_ident_start(b[j]) && word == "r" && j == i + 1 {
                            // r#ident — a raw identifier.
                            let start2 = j;
                            while j < b.len() && is_ident_cont(b[j]) {
                                j += 1;
                            }
                            out.tokens.push(Token {
                                tok: Tok::Ident(src[start2..j].to_string()),
                                line,
                            });
                            i = j;
                            continue;
                        }
                        if j >= b.len() || b[j] != b'"' {
                            // Not a raw string after all.
                            out.tokens.push(Token {
                                tok: Tok::Ident(word.to_string()),
                                line,
                            });
                            continue;
                        }
                        let hashes = j - i;
                        i = j + 1; // past the opening quote
                        let closer: Vec<u8> = std::iter::once(b'"')
                            .chain(std::iter::repeat_n(b'#', hashes))
                            .collect();
                        while i < b.len() {
                            if b[i] == b'\n' {
                                line += 1;
                            }
                            if b[i..].starts_with(&closer) {
                                i += closer.len();
                                break;
                            }
                            i += 1;
                        }
                    } else {
                        // r"..." / b"..." — plain quote-delimited.
                        i += 1;
                        while i < b.len() {
                            match b[i] {
                                b'\\' if word == "b" => i += 2,
                                b'"' => {
                                    i += 1;
                                    break;
                                }
                                b'\n' => {
                                    line += 1;
                                    i += 1;
                                }
                                _ => i += 1,
                            }
                        }
                    }
                    out.tokens.push(Token {
                        tok: Tok::Str,
                        line,
                    });
                } else {
                    out.tokens.push(Token {
                        tok: Tok::Ident(word.to_string()),
                        line,
                    });
                }
            }
            c => {
                out.tokens.push(Token {
                    tok: Tok::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Region analysis: #[cfg(test)] / #[test] items, #[qmc_hot::hot] fns
// ---------------------------------------------------------------------

/// Per-token masks: `test[i]` / `hot[i]` say which region token `i`
/// falls in.
struct Regions {
    test: Vec<bool>,
    hot: Vec<bool>,
}

fn bracket_match(tokens: &[Token], open: usize, open_ch: char, close_ch: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct(c) if c == open_ch => depth += 1,
            Tok::Punct(c) if c == close_ch => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len() - 1
}

fn attr_idents(tokens: &[Token], start: usize, end: usize) -> Vec<&str> {
    tokens[start..=end]
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect()
}

/// Find the end (inclusive) of the item starting at `start`: the close
/// of its first depth-0 brace block, or its terminating depth-0 `;`.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return bracket_match(tokens, i, '{', '}'),
            Tok::Punct(';') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

fn compute_regions(tokens: &[Token]) -> Regions {
    let mut test = vec![false; tokens.len()];
    let mut hot = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !matches!(tokens[i].tok, Tok::Punct('#')) {
            i += 1;
            continue;
        }
        // Inner attribute `#![...]`: no item follows it; skip.
        if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!'))) {
            if matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('['))) {
                i = bracket_match(tokens, i + 2, '[', ']') + 1;
            } else {
                i += 1;
            }
            continue;
        }
        if !matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) {
            i += 1;
            continue;
        }
        // Collect the full run of consecutive outer attributes.
        let mut is_test_item = false;
        let mut is_hot_item = false;
        let mut j = i;
        while matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('#')))
            && matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let close = bracket_match(tokens, j + 1, '[', ']');
            let idents = attr_idents(tokens, j + 1, close);
            match idents.as_slice() {
                ["test"] | ["cfg", "test"] => is_test_item = true,
                ["hot"] | ["qmc_hot", "hot"] => is_hot_item = true,
                _ => {}
            }
            j = close + 1;
        }
        if is_test_item || is_hot_item {
            let end = item_end(tokens, j);
            for k in j..=end.min(tokens.len() - 1) {
                if is_test_item {
                    test[k] = true;
                }
                if is_hot_item {
                    hot[k] = true;
                }
            }
        }
        // Continue scanning *inside* the item (nested attributes).
        i = j;
    }
    Regions { test, hot }
}

/// Per-token mask of `loop { … }` / `while … { … }` bodies. The body is
/// the brace-balanced region opened by the first `{` after the keyword
/// — sound at token level because Rust forbids an unparenthesized
/// struct literal in a `while` condition. Nested loops re-mark inner
/// tokens, which is idempotent.
fn compute_loop_regions(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !matches!(&tokens[i].tok, Tok::Ident(s) if s == "loop" || s == "while") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < tokens.len() && !matches!(tokens[j].tok, Tok::Punct('{')) {
            j += 1;
        }
        let mut depth = 0i32;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            mask[j] = true;
            j += 1;
        }
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------

struct FileClass {
    /// `crates/<name>/...` → `Some(name)`.
    crate_name: Option<String>,
    /// Under a `tests/` directory (integration tests, exempt from all
    /// rules).
    in_tests_dir: bool,
}

fn classify(display_path: &str) -> FileClass {
    let parts: Vec<&str> = display_path.split(['/', '\\']).collect();
    let crate_name = parts
        .iter()
        .position(|p| *p == "crates")
        .and_then(|i| parts.get(i + 1))
        .map(|s| s.to_string());
    let in_tests_dir = parts.contains(&"tests");
    FileClass {
        crate_name,
        in_tests_dir,
    }
}

// ---------------------------------------------------------------------
// Rule scanning
// ---------------------------------------------------------------------

const TRANSCENDENTALS: &[&str] = &[
    "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "powf", "powi", "sqrt", "cbrt",
    "sin", "cos", "tan", "sinh", "cosh", "tanh", "atan", "atan2", "asin", "acos",
];

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `.name(` — a method call on some receiver.
fn method_call<'t>(tokens: &'t [Token], i: usize, names: &[&str]) -> Option<&'t str> {
    if !punct_at(tokens, i, '.') {
        return None;
    }
    let name = ident_at(tokens, i + 1)?;
    if names.contains(&name) && punct_at(tokens, i + 2, '(') {
        Some(name)
    } else {
        None
    }
}

/// Is token `i` part of a `use ...;` declaration? Walks back through
/// path/brace tokens looking for the `use` keyword.
fn inside_use_decl(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    for _ in 0..64 {
        if j == 0 {
            return false;
        }
        j -= 1;
        match &tokens[j].tok {
            Tok::Ident(s) if s == "use" => return true,
            Tok::Ident(_) | Tok::Punct(':') | Tok::Punct('{') | Tok::Punct(',') => {}
            _ => return false,
        }
    }
    false
}

/// `First::second` — a path expression head.
fn path_expr(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    ident_at(tokens, i) == Some(first)
        && punct_at(tokens, i + 1, ':')
        && punct_at(tokens, i + 2, ':')
        && ident_at(tokens, i + 3) == Some(second)
}

/// Lint a single file's source text. `display_path` determines crate
/// classification (rule applicability) and appears in findings.
pub fn lint_source(display_path: &str, source: &str) -> Vec<Finding> {
    let class = classify(display_path);
    if class.in_tests_dir {
        return Vec::new();
    }
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    let regions = compute_regions(tokens);

    let is_obs = class.crate_name.as_deref() == Some("obs");
    let is_lib_crate = matches!(&class.crate_name, Some(c) if c != "bench");
    // Wire-serialization file: anything in qmc-ckpt, any file
    // implementing the `Checkpoint` wire trait, or any file naming the
    // byte codec (`qmc_comm::wire`'s `Encoder` / `Decoder`).
    let ckpt_file = class.crate_name.as_deref() == Some("ckpt")
        || tokens.windows(2).any(|w| {
            matches!(&w[0].tok, Tok::Ident(a) if a == "Checkpoint")
                && matches!(&w[1].tok, Tok::Ident(b) if b == "for")
        })
        || tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "Encoder" || s == "Decoder"));

    // Delta-chain bounding: a file that writes delta generations must
    // also carry the policy that bounds the chain — a `full_every`
    // cadence knob. Without one, every restore walks an ever-longer base
    // chain and a single torn base strands every delta behind it.
    let chain_bounded = tokens
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "full_every"));

    // Network-fed queue bounding: a file that reads from the network
    // (raw TCP or the framed transport) and grows a queue must mention
    // the quota that bounds it. Without an admission bound a hostile
    // peer can submit until the server dies of allocation.
    let net_fed = tokens.iter().any(|t| {
        matches!(&t.tok, Tok::Ident(s) if s == "TcpStream"
            || s == "TcpListener"
            || s == "FrameConn"
            || s == "FrameListener"
            || s == "recv_frame")
    });
    let queue_bounded = tokens
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if s.to_lowercase().contains("quota")));

    // Blocking-receive liveness: a network-fed file whose read loops
    // can park forever must somewhere consult a timeout, stop flag,
    // drain verdict, or deadline — any such ident anywhere in the file
    // counts as the loop's escape hatch.
    let stop_aware = tokens.iter().any(|t| {
        matches!(&t.tok, Tok::Ident(s) if {
            let s = s.to_lowercase();
            s.contains("timeout") || s.contains("stop") || s.contains("drain")
                || s.contains("deadline")
        })
    });
    let loops = compute_loop_regions(tokens);

    let mut findings = Vec::new();
    let mut push = |line: u32, rule: Rule, message: String| {
        let waived = [line, line.saturating_sub(1)].iter().any(|l| {
            lexed
                .waivers
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule.name() || r == "all"))
        });
        if !waived {
            findings.push(Finding {
                path: display_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    for i in 0..tokens.len() {
        let in_test = regions.test[i];
        if in_test {
            continue;
        }
        let line = tokens[i].line;

        if regions.hot[i] {
            if let Some(name) = method_call(tokens, i, TRANSCENDENTALS) {
                push(
                    line,
                    Rule::HotTranscendental,
                    format!("transcendental `.{name}()` inside a #[qmc_hot::hot] kernel (precompute a table instead)"),
                );
            }
            for ty in ["f64", "f32"] {
                for name in TRANSCENDENTALS {
                    if path_expr(tokens, i, ty, name) {
                        push(
                            line,
                            Rule::HotTranscendental,
                            format!("transcendental `{ty}::{name}` inside a #[qmc_hot::hot] kernel (precompute a table instead)"),
                        );
                    }
                }
            }
            for (first, second) in [
                ("Vec", "new"),
                ("Vec", "with_capacity"),
                ("Box", "new"),
                ("String", "new"),
                ("String", "from"),
            ] {
                if path_expr(tokens, i, first, second) {
                    push(
                        line,
                        Rule::HotAlloc,
                        format!("heap allocation `{first}::{second}` inside a #[qmc_hot::hot] kernel (reuse persistent buffers)"),
                    );
                }
            }
            if let Some(name) = method_call(tokens, i, &["collect", "to_vec", "to_owned"]) {
                push(
                    line,
                    Rule::HotAlloc,
                    format!("heap allocation `.{name}()` inside a #[qmc_hot::hot] kernel (reuse persistent buffers)"),
                );
            }
            for mac in ["vec", "format"] {
                if ident_at(tokens, i) == Some(mac) && punct_at(tokens, i + 1, '!') {
                    push(
                        line,
                        Rule::HotAlloc,
                        format!("heap allocation `{mac}!` inside a #[qmc_hot::hot] kernel (reuse persistent buffers)"),
                    );
                }
            }
            if let Some(name) = method_call(tokens, i, &["metropolis", "bernoulli"]) {
                push(
                    line,
                    Rule::HotScalarSpinLoop,
                    format!("per-spin `.{name}()` decision inside a #[qmc_hot::hot] kernel (multi-spin coding resolves 64 spins per word with batched draws — see qmc_tfim::packed; waive only on sanctioned reference scalar kernels)"),
                );
            }
            // Unlike the crate-scoped `wall-clock` rule this one fires even
            // in qmc-obs: a hot kernel must not read the clock per
            // iteration — wrap the kernel in a `qmc_obs::span` guard and
            // let the span pay the two clock reads once.
            for clock in ["Instant", "SystemTime"] {
                if path_expr(tokens, i, clock, "now") {
                    push(
                        line,
                        Rule::HotWallClock,
                        format!("`{clock}::now()` inside a #[qmc_hot::hot] kernel (time the kernel with a qmc_obs::span guard around the call site, not per-iteration clock reads)"),
                    );
                }
            }
        }

        if !is_obs {
            for clock in ["Instant", "SystemTime"] {
                if path_expr(tokens, i, clock, "now") {
                    push(
                        line,
                        Rule::WallClock,
                        format!("`{clock}::now()` outside qmc-obs (wall-clock reads belong to the observability layer; waive where a timeout genuinely needs host time)"),
                    );
                }
            }
        }

        if ckpt_file {
            for map in ["HashMap", "HashSet"] {
                if ident_at(tokens, i) == Some(map) && !inside_use_decl(tokens, i) {
                    push(
                        line,
                        Rule::CkptHashMap,
                        format!("`{map}` in a checkpoint/wire-serialization file (iteration order is nondeterministic; use BTreeMap or a sorted Vec)"),
                    );
                }
            }
        }

        if !chain_bounded {
            if let Some(name) = method_call(tokens, i, &["write_sections", "write_plan"]) {
                push(
                    line,
                    Rule::CkptUnboundedChain,
                    format!("`.{name}()` writes delta checkpoints but this file never bounds the chain (add a `full_every` cadence)"),
                );
            }
        }

        if net_fed && !queue_bounded {
            if let Some(name) = method_call(tokens, i, &["push", "push_back"]) {
                push(
                    line,
                    Rule::NetUnboundedQueue,
                    format!("`.{name}()` grows a queue in a network-fed file that never names a quota (enforce an admission quota before queueing; waive only for provably bounded buffers)"),
                );
            }
        }

        if net_fed && !stop_aware && loops[i] {
            if let Some(name) =
                method_call(tokens, i, &["recv", "recv_frame", "read", "read_exact"])
            {
                push(
                    line,
                    Rule::BlockingRecvNoStop,
                    format!("blocking `.{name}()` in a loop of a network-fed file that never consults a timeout, stop flag, drain, or deadline (a dead peer parks this loop forever; add a read timeout or a shutdown check, or waive for provably finite protocols)"),
                );
            }
        }

        if is_lib_crate && method_call(tokens, i, &["unwrap"]).is_some() {
            push(
                line,
                Rule::LibUnwrap,
                "`.unwrap()` in library non-test code (use `expect` with context or propagate the error)"
                    .to_string(),
            );
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------

/// Find the workspace root by walking up from `start` looking for a
/// `Cargo.toml` that declares `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint every `.rs` file under `root`'s `crates/`, `tests/` and
/// `examples/` directories (skipping `target/` and lint `fixtures/`).
/// Findings are sorted by path and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for sub in ["crates", "tests", "examples"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_rs(&dir, &mut files);
        }
    }
    let mut findings = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let display = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&display, &source));
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT_BAD_TRANSCENDENTAL: &str = include_str!("../fixtures/hot_transcendental.rs");
    const HOT_BAD_ALLOC: &str = include_str!("../fixtures/hot_alloc.rs");
    const WALL_CLOCK_BAD: &str = include_str!("../fixtures/wall_clock.rs");
    const CKPT_HASHMAP_BAD: &str = include_str!("../fixtures/ckpt_hashmap.rs");
    const WIRE_HASHMAP_BAD: &str = include_str!("../fixtures/wire_hashmap.rs");
    const LIB_UNWRAP_BAD: &str = include_str!("../fixtures/lib_unwrap.rs");
    const CKPT_CHAIN_BAD: &str = include_str!("../fixtures/ckpt_chain.rs");
    const HOT_SCALAR_SPIN_BAD: &str = include_str!("../fixtures/hot_scalar_spin_loop.rs");
    const HOT_WALL_CLOCK_BAD: &str = include_str!("../fixtures/hot_wall_clock.rs");
    const NET_QUEUE_BAD: &str = include_str!("../fixtures/net_queue.rs");
    const BLOCKING_RECV_BAD: &str = include_str!("../fixtures/blocking_recv.rs");
    const CLEAN: &str = include_str!("../fixtures/clean.rs");

    fn rules_fired(path: &str, src: &str) -> Vec<Rule> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn fixture_fires_hot_transcendental() {
        let fired = rules_fired("crates/fixture/src/lib.rs", HOT_BAD_TRANSCENDENTAL);
        assert!(fired.contains(&Rule::HotTranscendental), "{fired:?}");
    }

    #[test]
    fn fixture_fires_hot_alloc() {
        let fired = rules_fired("crates/fixture/src/lib.rs", HOT_BAD_ALLOC);
        assert!(fired.contains(&Rule::HotAlloc), "{fired:?}");
    }

    #[test]
    fn fixture_fires_wall_clock() {
        let fired = rules_fired("crates/fixture/src/lib.rs", WALL_CLOCK_BAD);
        assert!(fired.contains(&Rule::WallClock), "{fired:?}");
    }

    #[test]
    fn fixture_fires_ckpt_hashmap() {
        let fired = rules_fired("crates/fixture/src/lib.rs", CKPT_HASHMAP_BAD);
        assert!(fired.contains(&Rule::CkptHashMap), "{fired:?}");
    }

    #[test]
    fn fixture_fires_ckpt_hashmap_in_a_codec_file_outside_qmc_ckpt() {
        let fired = rules_fired("crates/obs/src/record.rs", WIRE_HASHMAP_BAD);
        assert_eq!(fired, vec![Rule::CkptHashMap]);
    }

    #[test]
    fn fixture_fires_lib_unwrap() {
        let fired = rules_fired("crates/fixture/src/lib.rs", LIB_UNWRAP_BAD);
        assert!(fired.contains(&Rule::LibUnwrap), "{fired:?}");
    }

    #[test]
    fn fixture_fires_ckpt_unbounded_chain() {
        let fired = rules_fired("crates/fixture/src/lib.rs", CKPT_CHAIN_BAD);
        // Both write entries fire: `write_plan` and `write_sections`.
        assert_eq!(
            fired
                .iter()
                .filter(|r| **r == Rule::CkptUnboundedChain)
                .count(),
            2,
            "{fired:?}"
        );
    }

    #[test]
    fn fixture_fires_hot_scalar_spin_loop() {
        let fired = rules_fired("crates/fixture/src/lib.rs", HOT_SCALAR_SPIN_BAD);
        // Both the `.metropolis(` and the `.bernoulli(` branch fire.
        assert_eq!(
            fired
                .iter()
                .filter(|r| **r == Rule::HotScalarSpinLoop)
                .count(),
            2,
            "{fired:?}"
        );
    }

    #[test]
    fn fixture_fires_hot_wall_clock() {
        let fired = rules_fired("crates/fixture/src/lib.rs", HOT_WALL_CLOCK_BAD);
        // Both the Instant and the SystemTime violation fire; the
        // span-guarded caller outside the hot region does not.
        assert_eq!(
            fired.iter().filter(|r| **r == Rule::HotWallClock).count(),
            2,
            "{fired:?}"
        );
    }

    #[test]
    fn fixture_fires_net_unbounded_queue() {
        let fired = rules_fired("crates/fixture/src/lib.rs", NET_QUEUE_BAD);
        // The Vec push and the VecDeque push_back both fire; the
        // quota-checked sibling file pattern is covered below.
        assert_eq!(
            fired
                .iter()
                .filter(|r| **r == Rule::NetUnboundedQueue)
                .count(),
            2,
            "{fired:?}"
        );
    }

    #[test]
    fn fixture_fires_blocking_recv_no_stop() {
        let fired = rules_fired("crates/fixture/src/lib.rs", BLOCKING_RECV_BAD);
        // The `loop { recv_frame }` and the `while { read_exact }`
        // fire; the one-shot receive outside any loop does not.
        assert_eq!(
            fired
                .iter()
                .filter(|r| **r == Rule::BlockingRecvNoStop)
                .count(),
            2,
            "{fired:?}"
        );
    }

    #[test]
    fn blocking_recv_is_fine_once_the_file_consults_a_stop() {
        // Any timeout/stop/drain/deadline ident anywhere in the file is
        // the loop's escape hatch — here a receive-timeout setter.
        let aware = BLOCKING_RECV_BAD.replace("fn run(", "fn run_with_timeout(");
        let fired = rules_fired("crates/fixture/src/lib.rs", &aware);
        assert!(!fired.contains(&Rule::BlockingRecvNoStop), "{fired:?}");
    }

    #[test]
    fn net_queue_is_fine_once_a_quota_is_named() {
        let bounded = NET_QUEUE_BAD.replace(
            "fn admit(",
            "fn admit_quota(", // any ident naming the quota bounds the file
        );
        let fired = rules_fired("crates/fixture/src/lib.rs", &bounded);
        assert!(!fired.contains(&Rule::NetUnboundedQueue), "{fired:?}");
    }

    #[test]
    fn hot_wall_clock_fires_even_inside_qmc_obs() {
        // The crate-scoped `wall-clock` rule exempts qmc-obs; the hot
        // variant must not — a kernel is a kernel wherever it lives.
        let src = "
            #[qmc_hot::hot]
            fn bad(xs: &mut [f64]) {
                let _t = Instant::now();
            }
        ";
        let fired = rules_fired("crates/obs/src/lib.rs", src);
        assert!(fired.contains(&Rule::HotWallClock), "{fired:?}");
        assert!(!fired.contains(&Rule::WallClock), "{fired:?}");
    }

    #[test]
    fn scalar_spin_decisions_outside_hot_fns_are_fine() {
        // Replica exchange and cluster seeding legitimately draw per
        // decision — the rule only polices `#[qmc_hot::hot]` kernels.
        let src = "
            fn exchange<R: Rng64>(&mut self, rng: &mut R) {
                if rng.metropolis(self.ratio) {
                    self.swap();
                }
            }
        ";
        assert!(rules_fired("crates/fixture/src/lib.rs", src).is_empty());
    }

    #[test]
    fn chain_write_is_fine_when_the_file_bounds_it() {
        let src = "
            fn drive(store: &CkptStore, full_every: usize, s: u64, plan: Plan, delta: bool) {
                let _ = store.write_plan(s, plan, delta);
                let _ = store.write_sections(s, s % full_every == 0, |w| w.plan(plan));
            }
        ";
        assert!(rules_fired("crates/fixture/src/lib.rs", src).is_empty());
    }

    #[test]
    fn every_rule_has_a_live_fixture() {
        // The union of the fixture corpus must exercise every rule — a
        // rule nothing can trigger is dead code.
        let mut fired: Vec<Rule> = Vec::new();
        for src in [
            HOT_BAD_TRANSCENDENTAL,
            HOT_BAD_ALLOC,
            WALL_CLOCK_BAD,
            CKPT_HASHMAP_BAD,
            LIB_UNWRAP_BAD,
            CKPT_CHAIN_BAD,
            HOT_SCALAR_SPIN_BAD,
            HOT_WALL_CLOCK_BAD,
            NET_QUEUE_BAD,
            BLOCKING_RECV_BAD,
        ] {
            fired.extend(rules_fired("crates/fixture/src/lib.rs", src));
        }
        for rule in Rule::all() {
            assert!(
                fired.contains(rule),
                "rule {} has no fixture that triggers it",
                rule.name()
            );
        }
    }

    #[test]
    fn clean_fixture_has_no_findings() {
        let findings = lint_source("crates/fixture/src/lib.rs", CLEAN);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn helper() { let x: Option<u8> = None; x.unwrap(); }
                #[test]
                fn t() { let _ = std::time::Instant::now(); }
            }
        "#;
        assert!(rules_fired("crates/comm/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_fn_is_exempt() {
        let src = r#"
            #[cfg(test)]
            fn reference_impl(x: f64) -> f64 { x.exp() }
        "#;
        assert!(rules_fired("crates/tfim/src/serial.rs", src).is_empty());
    }

    #[test]
    fn tests_dir_is_exempt() {
        let src = "fn f() { let x: Option<u8> = None; x.unwrap(); }";
        assert!(rules_fired("tests/integration.rs", src).is_empty());
        assert!(rules_fired("crates/comm/tests/conformance.rs", src).is_empty());
    }

    #[test]
    fn bench_crate_exempt_from_unwrap_but_not_wall_clock() {
        let src = "fn f() { let x: Option<u8> = None; x.unwrap(); let _ = Instant::now(); }";
        let fired = rules_fired("crates/bench/src/kernels.rs", src);
        assert_eq!(fired, vec![Rule::WallClock]);
    }

    #[test]
    fn waiver_on_same_or_previous_line_suppresses() {
        let src = "
            fn f() {
                // lint: allow(wall-clock) — timeout bookkeeping
                let _ = Instant::now();
                let _ = Instant::now(); // lint: allow(wall-clock)
            }
        ";
        assert!(rules_fired("crates/comm/src/lib.rs", src).is_empty());
    }

    #[test]
    fn waiver_for_other_rule_does_not_suppress() {
        let src = "
            fn f() {
                // lint: allow(lib-unwrap)
                let _ = Instant::now();
            }
        ";
        assert_eq!(
            rules_fired("crates/comm/src/lib.rs", src),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn strings_and_chars_are_not_code() {
        let src = r##"
            fn f() -> &'static str {
                let _c = '.';
                let _s = "x.unwrap() Instant::now()";
                r#"Vec::new() .collect()"#
            }
        "##;
        assert!(rules_fired("crates/comm/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hot_region_scopes_to_the_annotated_fn_only() {
        let src = r#"
            #[qmc_hot::hot]
            fn kernel(t: &[f64], i: usize) -> f64 { t[i] }

            fn table() -> Vec<f64> {
                (0..10).map(|k| (k as f64).exp()).collect()
            }
        "#;
        assert!(
            rules_fired("crates/tfim/src/serial.rs", src).is_empty(),
            "table construction outside the hot fn must be allowed"
        );
    }

    #[test]
    fn hot_violation_inside_annotated_fn_detected_with_line() {
        let src = "#[qmc_hot::hot]\nfn kernel(x: f64) -> f64 {\n    x.exp()\n}\n";
        let findings = lint_source("crates/tfim/src/serial.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert_eq!(findings[0].rule, Rule::HotTranscendental);
    }

    #[test]
    fn lattice_ring_kernel_passes_the_hot_rules() {
        // `DoubledRing::{load, mismatches}` and `doubled_mismatches` run
        // once per measured sweep, but qmc-lattice cannot name the
        // attribute: it has no dependencies, and an edge to qmc-hot would
        // invalidate the frozen benchmark/Cargo.lock (built --locked). The
        // marker is applied here instead, so the same rules still judge
        // the code.
        let mut src = include_str!("../../lattice/src/packed.rs").to_string();
        for sig in [
            "pub fn load(&mut self",
            "pub fn mismatches(&self",
            "pub fn doubled_mismatches(",
        ] {
            assert_eq!(src.matches(sig).count(), 1, "{sig} moved or was renamed");
            src = src.replace(sig, &format!("#[qmc_hot::hot]\n{sig}"));
        }
        let findings = lint_source("crates/lattice/src/packed.rs", &src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ckpt_rule_triggers_on_impl_checkpoint_outside_ckpt_crate() {
        let src = "
            struct S;
            impl Checkpoint for S {}
            fn f(m: &HashMap<u32, u32>) -> usize { m.len() }
        ";
        assert_eq!(
            rules_fired("crates/tfim/src/serial.rs", src),
            vec![Rule::CkptHashMap]
        );
    }

    #[test]
    fn use_declaration_of_hashmap_is_not_flagged() {
        let src = "
            use std::collections::HashMap;
            struct S;
            impl Checkpoint for S {}
        ";
        assert!(rules_fired("crates/ckpt/src/wire.rs", src).is_empty());
    }
}
