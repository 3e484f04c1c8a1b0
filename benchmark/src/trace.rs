//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}`; spans of one
//! operation share its `request` number. They are kept in memory and
//! written out once, when the run ends. With tracing off a span costs one
//! relaxed atomic load, which is how the untraced run stays untraced.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static PARENT: Cell<u32> = const { Cell::new(0) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag the spans this thread records from now on with operation `id`.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

/// Run `f` inside a span called `name`; a plain call when tracing is off.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = PARENT.with(|p| p.replace(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    PARENT.with(|p| p.set(parent));
    let request = REQUEST.with(Cell::get);
    SPANS
        .lock()
        .expect("a span recorder panicked while holding the span list")
        .push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("a span recorder panicked while holding the span list"),
    )
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time = duration − the part of the interval direct children cover.
/// Children of one parent run on the parent's thread, one after the other,
/// so their durations add without overlap.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The trace file: one object per span, in completion order.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id as i64)),
                    ("parent", Json::Int(s.parent as i64)),
                    ("request", Json::Int(s.request as i64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { b 15..25 }, a 50..70 }
        let spans = [
            sp(3, 2, "b", 15, 25),
            sp(2, 1, "a", 10, 40),
            sp(4, 1, "a", 50, 70),
            sp(1, 0, "root", 0, 100),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["a"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(
            t["b"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times of a tree add up to its root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn recorded_spans_nest_by_thread() {
        set_enabled(true);
        set_request(7);
        let v = span("outer", || span("inner", || 5) + 1);
        set_enabled(false);
        assert_eq!(v, 6);
        let spans = drain();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!((inner.request, outer.request), (7, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(span("off", || 1), 1);
        // (Other tests may record spans of their own while this one has
        // tracing on; only this test's names are looked at.)
        assert!(
            drain().iter().all(|s| s.name != "off"),
            "nothing is recorded while tracing is off"
        );
    }
}
