//! Offline stand-in for `crossbeam`, kept empty: no source in the workspace
//! names it, only the `funnel-core` and `funnel-sim` manifests still list the
//! dependency. Removing those lines rewrites both lock files, so the crate
//! stays as an empty package until that edit (ROADMAP 3(g)) deletes it. See
//! `crates/shims/README.md` for why external crates are vendored.

#![forbid(unsafe_code)]
