#pragma once

// Process memory accounting + host identification for the profiling layer.
//
// ReadSelfStatus() samples /proc/self/status (VmRSS / VmHWM / VmData), the
// portable-enough Linux source for current and peak resident set size.
// SampleMemStatsToMetrics() pushes a sample into the metrics registry as
// high-water gauges so bench snapshots (results/metrics_*.json) carry memory
// alongside the existing workspace arena gauges (workspace.in_use_high_water,
// workspace.pool_matrices, workspace.pool_bytes_high_water) — the malloc-side
// and arena-side views of the same footprint.
//
// HostFingerprint() identifies the machine in results/BENCH_history.jsonl
// records, so wall times are only ever read against runs from the same host
// (comparing them across machines is noise).
//
// All of it degrades gracefully off-Linux or in jailed mounts: samples come
// back with ok=false / zeros and the fingerprint falls back to "unknown".
// Like everything in obs/, this header is freestanding (stdlib only), and
// the /proc reads live here by lint decree (tools/lint.py rule `prof`).

#include <cstdint>
#include <string>

namespace lncl::obs {

struct MemSample {
  bool ok = false;        // the sample was actually read
  int64_t vm_rss_kb = 0;  // current resident set size
  int64_t vm_hwm_kb = 0;  // peak resident set size ("high water mark")
  int64_t vm_data_kb = 0; // data segment (heap + arenas)
};

// One sample of /proc/self/status. ok=false (zeros) when unreadable.
MemSample ReadSelfStatus();

// Records a sample into the metrics registry as high-water gauges
// (mem.vm_rss_kb, mem.vm_hwm_kb, mem.vm_data_kb). No-op when the registry
// is disabled or the sample fails; never throws.
void SampleMemStatsToMetrics();

// Stable per-machine identifier: "<hostname>/<cpu model>/<N>t". Spaces in
// the CPU model collapse to '-' so the string stays token-like for JSON and
// baseline keys. "unknown" pieces substitute wherever a source is missing.
std::string HostFingerprint();

}  // namespace lncl::obs
