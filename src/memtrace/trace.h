// Memory-trace infrastructure: the adversary's view of public memory.
//
// The paper's adversarial model (§3.1) gives the server a complete view of
// which (array, index) cells are read and written, but not their contents.
// Everything the library stores in public memory goes through OArray<T>
// (oarray.h); each access is reported to the currently-installed TraceSink.
//
// Sinks implement the paper's experiments:
//   * VectorTraceSink  — full log, compared entry-by-entry (§6.1, small n);
//   * HashTraceSink    — chained SHA-256 of the log (§6.1, large n);
//   * CountingTraceSink— operation counts (Table 3);
//   * sgx_sim::EpcSimulator — EPC paging model (Figure 8).
//
// Array ids restart from zero whenever a sink is (re)installed, so two runs
// of the same algorithm produce directly comparable logs.

#ifndef OBLIVDB_MEMTRACE_TRACE_H_
#define OBLIVDB_MEMTRACE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace oblivdb::memtrace {

enum class AccessKind : uint8_t { kRead = 0, kWrite = 1 };

// One public-memory access: <R|W, array, index>, plus the element size so
// address-level models (EPC paging) can reconstruct byte extents.
struct AccessEvent {
  AccessKind kind;
  uint32_t array_id;
  uint64_t index;
  uint32_t elem_size;

  friend bool operator==(const AccessEvent&, const AccessEvent&) = default;
};

// Receiver interface for public-memory events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Called once when an OArray is constructed (before any access).
  virtual void OnAlloc(uint32_t array_id, const std::string& name,
                       size_t length, size_t elem_size);

  // Called on every Read / Write.
  virtual void OnAccess(const AccessEvent& event) = 0;
};

namespace internal {
// Storage for the installed sink.  Defined inline in the header so the
// per-access sink test in OArray::Read/Write compiles down to a single
// load-and-branch at every call site (no cross-TU function call); when no
// sink is installed the access is a raw vector access.  Mutated only
// through SetTraceSink and TracePause below.
inline TraceSink* g_trace_sink = nullptr;
}  // namespace internal

// Currently-installed sink, or nullptr when tracing is off.
inline TraceSink* GetTraceSink() { return internal::g_trace_sink; }

// Installs `sink` (may be nullptr) and resets the array-id counter so that
// traces from consecutive sessions are comparable.  Returns the previous
// sink.  Prefer TraceScope for scoped installation.
TraceSink* SetTraceSink(TraceSink* sink);

// Allocates the next array id and reports the allocation to the sink.
uint32_t RegisterArray(const std::string& name, size_t length,
                       size_t elem_size);

// RAII installation of a sink for the duration of a scope.
class TraceScope {
 public:
  explicit TraceScope(TraceSink* sink) : previous_(SetTraceSink(sink)) {}
  ~TraceScope() { SetTraceSink(previous_); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSink* previous_;
};

// RAII *suppression* of tracing without ending the trace session: unlike
// TraceScope / SetTraceSink, the ambient session survives — the sink is
// detached for the scope and the array-id counter is restored on exit, so
// arrays registered after the pause get exactly the ids they would have
// had without it.  For activity that must remain invisible to an installed
// sink — e.g. an untraced reference run made from inside a traced test —
// and must neither pollute its log, nor shift its ids, nor pay the traced
// path.  (Defined in trace.cc: the id counter lives there.)
class TracePause {
 public:
  TracePause();
  ~TracePause();

  TracePause(const TracePause&) = delete;
  TracePause& operator=(const TracePause&) = delete;

 private:
  TraceSink* previous_sink_;
  uint32_t previous_next_array_id_;
};

}  // namespace oblivdb::memtrace

#endif  // OBLIVDB_MEMTRACE_TRACE_H_
