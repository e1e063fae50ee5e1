//! The structured trace event stream.
//!
//! Every instrumentation point in the two-engine loop emits one of these
//! compact, `Copy` records: engine transitions, step begin/end, the
//! action-cache miss → recovery → resume sequence, cache clears and
//! external calls. Events carry a *logical* timestamp (the simulator step
//! count at emission) so traces are deterministic across hosts; host
//! wall-clock durations appear only as explicit `ns` fields measured at
//! coarse boundaries.
//!
//! The serialized form is JSONL: one self-describing JSON object per
//! line, keyed by `"ev"`.

use std::fmt::Write as _;

/// Which engine an event refers to (mirror of the runtime's `Engine`,
/// redeclared here so this crate stays dependency-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineTag {
    /// The slow/complete simulator.
    Slow,
    /// The fast/residual simulator.
    Fast,
}

impl EngineTag {
    fn name(self) -> &'static str {
        match self {
            EngineTag::Slow => "slow",
            EngineTag::Fast => "fast",
        }
    }
}

/// One structured trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Control transferred between the engines.
    EngineSwitch {
        /// Logical step count at the switch.
        step: u64,
        /// Engine handing off.
        from: EngineTag,
        /// Engine taking over.
        to: EngineTag,
    },
    /// One slow/complete step finished (recording or recovering).
    SlowStep {
        /// Logical step count after the step.
        step: u64,
        /// Instructions retired during the step.
        insns: u64,
        /// Host nanoseconds the step took (0 when timing is off).
        ns: u64,
    },
    /// One fast/residual replay burst finished (entry to exit of the
    /// replay loop, possibly spanning many steps).
    FastBurst {
        /// Logical step count after the burst.
        step: u64,
        /// Steps completed by the burst.
        steps: u64,
        /// Actions replayed by the burst.
        actions: u64,
        /// Instructions retired during the burst.
        insns: u64,
        /// Host nanoseconds the burst took (0 when timing is off).
        ns: u64,
    },
    /// The fast engine hit an action-cache miss mid-entry.
    Miss {
        /// Logical step count at the miss.
        step: u64,
        /// Action number whose successor was missing.
        action: u32,
        /// Recovery-stack depth (actions replayed since the entry,
        /// including the missing one).
        depth: u64,
        /// The observed divergent value when the miss was a dynamic
        /// result test whose outcome had no recorded successor; `None`
        /// for plain-successor misses.
        value: Option<i64>,
    },
    /// Miss recovery started re-executing the run-time-static slice.
    RecoveryBegin {
        /// Logical step count.
        step: u64,
        /// Recovery-stack depth to consume.
        depth: u64,
    },
    /// Miss recovery committed and normal slow execution resumes.
    RecoveryEnd {
        /// Logical step count.
        step: u64,
        /// Action at which the miss occurred.
        action: u32,
        /// Run-time-static slots committed back to the real state.
        committed: u64,
    },
    /// The fast engine reached a step key with no cached entry (a clean
    /// boundary hand-off, no recovery needed).
    NeedSlow {
        /// Logical step count.
        step: u64,
    },
    /// The action cache cleared itself (clear-on-full policy).
    CacheClear {
        /// Bytes held immediately before the clear.
        bytes: u64,
        /// Live nodes immediately before the clear.
        nodes: u64,
        /// Clears so far, including this one.
        clears: u64,
    },
    /// The action cache retired one storage generation (generational
    /// eviction policy).
    CacheEvict {
        /// Sequence number of the evicted generation.
        gen: u64,
        /// Bytes the generation held.
        bytes: u64,
        /// Nodes the generation held.
        nodes: u64,
        /// Evictions so far, including this one.
        evictions: u64,
    },
    /// A persisted action-cache snapshot was installed before the run
    /// (warm start; see docs/PERSISTENCE.md).
    SnapshotLoad {
        /// Snapshot payload bytes decoded from disk.
        bytes: u64,
        /// Frozen generations pinned into the cache.
        gens: u64,
        /// Action nodes the snapshot carried.
        nodes: u64,
        /// Step entries re-registered from the snapshot.
        entries: u64,
    },
    /// The action cache was serialized to a `facile-snap/v3` snapshot.
    SnapshotSave {
        /// Snapshot payload bytes produced (header excluded).
        bytes: u64,
        /// Generations exported.
        gens: u64,
        /// Action nodes exported.
        nodes: u64,
        /// Step entries exported.
        entries: u64,
    },
    /// An external (host) function was called.
    ExtCall {
        /// Logical step count.
        step: u64,
        /// Index of the external in the program's declaration order.
        ext: u32,
    },
    /// The simulation halted.
    Halt {
        /// Logical step count.
        step: u64,
        /// Engine that executed the halt.
        engine: EngineTag,
        /// Program halt code (0 = explicit, 1 = no-next, 2 = decode
        /// failure; anything else is program-defined).
        code: i64,
    },
}

impl TraceEvent {
    /// The `"ev"` discriminator used in the JSONL form.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::EngineSwitch { .. } => "switch",
            TraceEvent::SlowStep { .. } => "slow_step",
            TraceEvent::FastBurst { .. } => "fast_burst",
            TraceEvent::Miss { .. } => "miss",
            TraceEvent::RecoveryBegin { .. } => "recovery_begin",
            TraceEvent::RecoveryEnd { .. } => "recovery_end",
            TraceEvent::NeedSlow { .. } => "need_slow",
            TraceEvent::CacheClear { .. } => "cache_clear",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::SnapshotLoad { .. } => "snapshot_load",
            TraceEvent::SnapshotSave { .. } => "snapshot_save",
            TraceEvent::ExtCall { .. } => "ext_call",
            TraceEvent::Halt { .. } => "halt",
        }
    }

    /// Appends the single-line JSON form (no trailing newline) to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"ev\":\"{}\"", self.kind());
        match *self {
            TraceEvent::EngineSwitch { step, from, to } => {
                let _ = write!(
                    out,
                    ",\"step\":{step},\"from\":\"{}\",\"to\":\"{}\"",
                    from.name(),
                    to.name()
                );
            }
            TraceEvent::SlowStep { step, insns, ns } => {
                let _ = write!(out, ",\"step\":{step},\"insns\":{insns},\"ns\":{ns}");
            }
            TraceEvent::FastBurst {
                step,
                steps,
                actions,
                insns,
                ns,
            } => {
                let _ = write!(
                    out,
                    ",\"step\":{step},\"steps\":{steps},\"actions\":{actions},\"insns\":{insns},\"ns\":{ns}"
                );
            }
            TraceEvent::Miss {
                step,
                action,
                depth,
                value,
            } => {
                let _ = write!(out, ",\"step\":{step},\"action\":{action},\"depth\":{depth}");
                if let Some(v) = value {
                    let _ = write!(out, ",\"value\":{v}");
                }
            }
            TraceEvent::RecoveryBegin { step, depth } => {
                let _ = write!(out, ",\"step\":{step},\"depth\":{depth}");
            }
            TraceEvent::RecoveryEnd {
                step,
                action,
                committed,
            } => {
                let _ = write!(
                    out,
                    ",\"step\":{step},\"action\":{action},\"committed\":{committed}"
                );
            }
            TraceEvent::NeedSlow { step } => {
                let _ = write!(out, ",\"step\":{step}");
            }
            TraceEvent::CacheClear {
                bytes,
                nodes,
                clears,
            } => {
                let _ = write!(out, ",\"bytes\":{bytes},\"nodes\":{nodes},\"clears\":{clears}");
            }
            TraceEvent::CacheEvict {
                gen,
                bytes,
                nodes,
                evictions,
            } => {
                let _ = write!(
                    out,
                    ",\"gen\":{gen},\"bytes\":{bytes},\"nodes\":{nodes},\"evictions\":{evictions}"
                );
            }
            TraceEvent::SnapshotLoad {
                bytes,
                gens,
                nodes,
                entries,
            }
            | TraceEvent::SnapshotSave {
                bytes,
                gens,
                nodes,
                entries,
            } => {
                let _ = write!(
                    out,
                    ",\"bytes\":{bytes},\"gens\":{gens},\"nodes\":{nodes},\"entries\":{entries}"
                );
            }
            TraceEvent::ExtCall { step, ext } => {
                let _ = write!(out, ",\"step\":{step},\"ext\":{ext}");
            }
            TraceEvent::Halt { step, engine, code } => {
                let _ = write!(
                    out,
                    ",\"step\":{step},\"engine\":\"{}\",\"code\":{code}",
                    engine.name()
                );
            }
        }
        out.push('}');
    }

    /// The single-line JSON form.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_self_describing() {
        let ev = TraceEvent::Miss {
            step: 42,
            action: 7,
            depth: 3,
            value: None,
        };
        assert_eq!(ev.to_json(), "{\"ev\":\"miss\",\"step\":42,\"action\":7,\"depth\":3}");
        let ev = TraceEvent::Miss {
            step: 42,
            action: 7,
            depth: 3,
            value: Some(-9),
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"miss\",\"step\":42,\"action\":7,\"depth\":3,\"value\":-9}"
        );
    }

    #[test]
    fn switch_names_both_engines() {
        let ev = TraceEvent::EngineSwitch {
            step: 1,
            from: EngineTag::Slow,
            to: EngineTag::Fast,
        };
        let j = ev.to_json();
        assert!(j.contains("\"from\":\"slow\""), "{j}");
        assert!(j.contains("\"to\":\"fast\""), "{j}");
    }

    #[test]
    fn every_kind_parses_as_json() {
        let events = [
            TraceEvent::EngineSwitch { step: 0, from: EngineTag::Fast, to: EngineTag::Slow },
            TraceEvent::SlowStep { step: 1, insns: 2, ns: 3 },
            TraceEvent::FastBurst { step: 9, steps: 8, actions: 70, insns: 8, ns: 100 },
            TraceEvent::Miss { step: 9, action: 2, depth: 4, value: Some(17) },
            TraceEvent::RecoveryBegin { step: 9, depth: 4 },
            TraceEvent::RecoveryEnd { step: 9, action: 2, committed: 5 },
            TraceEvent::NeedSlow { step: 10 },
            TraceEvent::CacheClear { bytes: 4096, nodes: 17, clears: 1 },
            TraceEvent::CacheEvict { gen: 3, bytes: 512, nodes: 9, evictions: 2 },
            TraceEvent::SnapshotLoad { bytes: 4096, gens: 2, nodes: 40, entries: 6 },
            TraceEvent::SnapshotSave { bytes: 4096, gens: 2, nodes: 40, entries: 6 },
            TraceEvent::ExtCall { step: 11, ext: 0 },
            TraceEvent::Halt { step: 12, engine: EngineTag::Fast, code: 0 },
        ];
        for ev in events {
            let j = ev.to_json();
            let v = crate::json::parse(&j).expect("event JSON parses");
            assert_eq!(
                v.get("ev").and_then(crate::json::Value::as_str),
                Some(ev.kind()),
                "{j}"
            );
        }
    }
}
