//! The determinism rule table and its token-pattern matchers.
//!
//! Every rule exists to protect one invariant: **simulation output is a
//! pure function of the simulation**, never of thread interleaving, hash
//! seeds, or wall clocks. The rules are declared in [`RULES`] — a
//! checked-in table with per-path scopes and allowlists, so an exemption
//! is a reviewed diff to this file, not an inline escape hatch.
//!
//! | id | protects against |
//! |----|------------------|
//! | `map-iteration` | `HashMap`/`HashSet` traversal in simulation crates: iteration order is randomized per process, so any traversal that feeds results (or even log lines) is nondeterminism. Keyed lookups are fine; traversals belong on `BTreeMap` or a sorted drain. |
//! | `wall-clock` | `Instant::now` / `SystemTime` outside the real-time executors and the bench crate: simulated time must come from the event clock. |
//! | `float-total-order` | `.partial_cmp(..)` on floats (usually inside `sort_by`/`min_by`): IEEE partial order makes comparators panic or misbehave on NaN; `f64::total_cmp` is the project norm. |
//! | `forbid-unsafe` | a crate root missing `#![forbid(unsafe_code)]`: data races are the other way scheduling leaks into results. |
//! | `allow-justification` | `#[allow(..)]` without a same-line-or-above justification comment: every suppressed diagnostic carries its reason. |
//!
//! Matching is heuristic by design — a hand-rolled lexer cannot resolve
//! types — but tuned so the workspace's real patterns are caught and the
//! false-positive rate is zero on the current tree (enforced by the
//! `workspace_is_clean` test). The walker skips `target/`, `.git/`, and
//! any path containing a `fixtures/` segment, so the lint's own negative
//! fixtures don't fail the gate.

use crate::lexer::{lex, Kind, Lexed};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation, reported as `path:line: [rule] message`.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// A rule's declaration: scope and allowlist live here, in review-able
/// data, not in matcher code.
pub struct Rule {
    /// Stable id, shown in reports and used by tests.
    pub id: &'static str,
    /// One-line description for `--list-rules` and the README table.
    pub summary: &'static str,
    /// Path scopes the rule applies to (prefix for entries ending in
    /// `/`, exact match otherwise). Empty ⇒ the whole workspace.
    pub applies: &'static [&'static str],
    /// `(path scope, reason)` exemptions, same matching as `applies`.
    pub allows: &'static [(&'static str, &'static str)],
}

/// Crates whose results are simulation output: HashMap traversal here is
/// nondeterminism. `crates/bench` (reports wall-clock measurements) and
/// `crates/lint` itself are out of scope.
const SIM_SCOPES: &[&str] = &[
    "src/",
    "tests/",
    "examples/",
    "crates/simcore/",
    "crates/core/",
    "crates/queuesim/",
    "crates/storesim/",
    "crates/netsim/",
    "crates/wansim/",
];

/// Every crate root in the workspace: library roots, binary roots,
/// benches, examples, and integration-test roots. Rule `forbid-unsafe`
/// requires the attribute in each; keeping the list explicit means
/// adding a crate root is a reviewed change to the determinism policy.
pub const CRATE_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/simcore/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/queuesim/src/lib.rs",
    "crates/storesim/src/lib.rs",
    "crates/netsim/src/lib.rs",
    "crates/wansim/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/bench/src/bin/repro.rs",
    "crates/bench/benches/engine.rs",
    "crates/bench/benches/hotpath.rs",
    "crates/bench/benches/primitives.rs",
    "crates/bench/tests/cli.rs",
    "crates/lint/src/lib.rs",
    "crates/lint/src/main.rs",
    "examples/capacity_planner.rs",
    "examples/dns_race.rs",
    "examples/fat_tree_flows.rs",
    "examples/quickstart.rs",
    "examples/replicated_store.rs",
    "tests/properties.rs",
    "tests/paper_claims.rs",
];

/// The determinism rule table. See the module docs for the rationale
/// behind each rule.
pub const RULES: &[Rule] = &[
    Rule {
        id: "map-iteration",
        summary: "no HashMap/HashSet traversal (iter/keys/values/drain/for-in) in simulation crates",
        applies: SIM_SCOPES,
        allows: &[],
    },
    Rule {
        id: "wall-clock",
        summary: "no Instant::now / SystemTime outside the executor and bench allowlist",
        applies: &[],
        allows: &[
            (
                "crates/core/src/sync_exec.rs",
                "the thread-backed racer executes in real time by definition",
            ),
            (
                "crates/core/src/tokio_exec.rs",
                "the async racer executes in real time by definition",
            ),
            (
                "crates/bench/",
                "benchmarks measure wall-clock; that is their output, not simulation state",
            ),
            (
                "crates/storesim/src/rt.rs",
                "the wall-clock runtime module executes on real threads; Instant is its \
                 data plane, and every estimator/planner input there is script time by \
                 construction (see the module docs) — no other storesim module is exempt",
            ),
        ],
    },
    Rule {
        id: "float-total-order",
        summary: "no .partial_cmp() calls; float comparators use f64::total_cmp",
        applies: &[],
        allows: &[],
    },
    Rule {
        id: "forbid-unsafe",
        summary: "#![forbid(unsafe_code)] present in every crate root",
        applies: CRATE_ROOTS,
        allows: &[],
    },
    Rule {
        id: "allow-justification",
        summary: "every #[allow(..)] carries a justification comment on the same line or the line above",
        applies: &[],
        allows: &[],
    },
];

/// `true` if `path` falls under `scope` (directory prefix if the scope
/// ends in `/`, exact file path otherwise).
fn in_scope(path: &str, scope: &str) -> bool {
    if let Some(dir) = scope.strip_suffix('/') {
        path.strip_prefix(dir)
            .is_some_and(|rest| rest.starts_with('/'))
    } else {
        path == scope
    }
}

fn rule_applies(rule: &Rule, path: &str) -> bool {
    let applies = rule.applies.is_empty() || rule.applies.iter().any(|s| in_scope(path, s));
    applies && !rule.allows.iter().any(|(s, _)| in_scope(path, s))
}

/// Map methods whose results depend on iteration order.
const ORDER_DEPENDENT_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Checks one file's source against every applicable rule. `path` is the
/// workspace-relative path with `/` separators; it selects which rules
/// and allowlists apply.
pub fn check_file(path: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let mut out = Vec::new();
    for rule in RULES {
        if !rule_applies(rule, path) {
            continue;
        }
        match rule.id {
            "map-iteration" => check_map_iteration(path, &lexed, &mut out),
            "wall-clock" => check_wall_clock(path, &lexed, &mut out),
            "float-total-order" => check_float_total_order(path, &lexed, &mut out),
            "forbid-unsafe" => check_forbid_unsafe(path, &lexed, &mut out),
            "allow-justification" => check_allow_justification(path, &lexed, &mut out),
            other => unreachable!("rule {other} has no matcher"),
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Names bound to a `HashMap`/`HashSet` in this file, collected from
/// `let [mut] NAME = Hash…`, `NAME: Hash…` (field, param, or annotated
/// let), including through `std::collections::` paths.
fn hash_bound_names(lexed: &Lexed) -> BTreeSet<String> {
    let toks = &lexed.toks;
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `::`-separated path prefix.
        let mut k = i;
        while k >= 3
            && toks[k - 1].is_punct(':')
            && toks[k - 2].is_punct(':')
            && toks[k - 3].kind == Kind::Ident
        {
            k -= 3;
        }
        // Skip reference sigils in type position: `m: &HashMap`,
        // `m: &mut HashMap`, `m: &&HashMap`.
        while k >= 1 && (toks[k - 1].is_punct('&') || toks[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k < 2 {
            continue;
        }
        let before = &toks[k - 1];
        let name = &toks[k - 2];
        if name.kind != Kind::Ident {
            continue;
        }
        // `name: HashMap<..>` (field/param/let-annotation) — make sure it
        // is a single `:`; a path's `::` was consumed above.
        let single_colon = before.is_punct(':') && (k < 3 || !toks[k - 3].is_punct(':'));
        let assignment = before.is_punct('=');
        if single_colon || assignment {
            names.insert(name.text.clone());
        }
    }
    names
}

fn check_map_iteration(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let names = hash_bound_names(lexed);
    if names.is_empty() {
        return;
    }
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        // `NAME.iter()` / `self.NAME.keys()` / `NAME.drain()` …
        if t.kind == Kind::Ident && names.contains(&t.text) {
            if let (Some(dot), Some(method), Some(paren)) =
                (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
            {
                if dot.is_punct('.')
                    && method.kind == Kind::Ident
                    && ORDER_DEPENDENT_METHODS.contains(&method.text.as_str())
                    && paren.is_punct('(')
                {
                    out.push(Violation {
                        path: path.to_string(),
                        line: method.line,
                        rule: "map-iteration",
                        msg: format!(
                            "`{}.{}()` traverses a HashMap/HashSet in iteration order; \
                             use BTreeMap or collect-and-sort",
                            t.text, method.text
                        ),
                    });
                }
            }
        }
        // `for pat in [&mut] [self.]NAME {`
        if t.is_ident("for") {
            let Some(in_at) = (i + 1..(i + 14).min(toks.len()))
                .find(|&j| toks[j].is_ident("in"))
            else {
                continue;
            };
            let mut k = in_at + 1;
            while toks.get(k).is_some_and(|x| x.is_punct('&') || x.is_ident("mut")) {
                k += 1;
            }
            // Skip a field-access chain (`self.counts`, `state.counts`):
            // the map name is the last segment.
            while toks.get(k).is_some_and(|x| x.kind == Kind::Ident)
                && toks.get(k + 1).is_some_and(|x| x.is_punct('.'))
                && toks.get(k + 2).is_some_and(|x| x.kind == Kind::Ident)
            {
                k += 2;
            }
            let Some(name) = toks.get(k) else { continue };
            if name.kind == Kind::Ident
                && names.contains(&name.text)
                && toks.get(k + 1).is_some_and(|x| x.is_punct('{'))
            {
                out.push(Violation {
                    path: path.to_string(),
                    line: name.line,
                    rule: "map-iteration",
                    msg: format!(
                        "`for .. in {}` traverses a HashMap/HashSet in iteration order; \
                         use BTreeMap or collect-and-sort",
                        name.text
                    ),
                });
            }
        }
    }
}

fn check_wall_clock(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("SystemTime") {
            out.push(Violation {
                path: path.to_string(),
                line: t.line,
                rule: "wall-clock",
                msg: "SystemTime in simulation code; time must come from the event clock"
                    .to_string(),
            });
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && toks.get(i + 3).is_some_and(|x| x.is_ident("now"))
        {
            out.push(Violation {
                path: path.to_string(),
                line: t.line,
                rule: "wall-clock",
                msg: "Instant::now in simulation code; time must come from the event clock"
                    .to_string(),
            });
        }
    }
}

fn check_float_total_order(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        // A *call* `.partial_cmp(` — a `fn partial_cmp` definition (the
        // canonical `Some(self.cmp(other))` impl) has no preceding dot.
        if t.is_ident("partial_cmp")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
        {
            out.push(Violation {
                path: path.to_string(),
                line: t.line,
                rule: "float-total-order",
                msg: ".partial_cmp() is a partial order (panics or lies on NaN); \
                      use f64::total_cmp"
                    .to_string(),
            });
        }
    }
}

fn check_forbid_unsafe(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    let found = toks.windows(6).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
    });
    if !found {
        out.push(Violation {
            path: path.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            msg: "crate root missing #![forbid(unsafe_code)]".to_string(),
        });
    }
}

fn check_allow_justification(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct('#') {
            continue;
        }
        let mut k = i + 1;
        if toks.get(k).is_some_and(|x| x.is_punct('!')) {
            k += 1;
        }
        if !(toks.get(k).is_some_and(|x| x.is_punct('['))
            && toks.get(k + 1).is_some_and(|x| x.is_ident("allow"))
            && toks.get(k + 2).is_some_and(|x| x.is_punct('(')))
        {
            continue;
        }
        let line = t.line;
        if !(lexed.has_comment_on(line) || (line > 1 && lexed.has_comment_on(line - 1))) {
            out.push(Violation {
                path: path.to_string(),
                line,
                rule: "allow-justification",
                msg: "#[allow(..)] without a justification comment on the same line \
                      or the line above"
                    .to_string(),
            });
        }
    }
}

/// Recursively collects `.rs` files under `root` in sorted order,
/// skipping `target/`, `.git/`, hidden directories, and any `fixtures/`
/// segment (the lint's own negative fixtures are violations on purpose).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root`. Returns the violations (sorted
/// by path, then line) and the number of files scanned.
///
/// # Errors
/// Propagates IO errors; also errors if `root` has no `Cargo.toml`, to
/// catch running the gate against the wrong directory.
pub fn check_workspace(root: &Path) -> io::Result<(Vec<Violation>, usize)> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no Cargo.toml; pass the workspace root", root.display()),
        ));
    }
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut violations = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(file)?;
        violations.extend(check_file(&rel, &src));
    }
    violations.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok((violations, files.len()))
}
