#include "memtrace/trace.h"

#include <atomic>

namespace oblivdb::memtrace {
namespace {

// Tracing is a sequential-mode activity (parallel sorts and concurrent
// query sessions require the sink to be off), but *untraced* OArray
// construction can happen from concurrent query sessions
// (service/query_service.h), so the id counter must be race-free.
// Relaxed ordering suffices: ids only need to be unique, and in every
// traced (sequential) context the sequence is the same as the old plain
// counter's.  The sink pointer itself lives in
// trace.h as an inline variable so the per-access test inlines everywhere.
std::atomic<uint32_t> g_next_array_id{0};

}  // namespace

void TraceSink::OnAlloc(uint32_t /*array_id*/, const std::string& /*name*/,
                        size_t /*length*/, size_t /*elem_size*/) {}

TraceSink* SetTraceSink(TraceSink* sink) {
  TraceSink* previous = internal::g_trace_sink;
  internal::g_trace_sink = sink;
  g_next_array_id.store(0, std::memory_order_relaxed);
  return previous;
}

TracePause::TracePause()
    : previous_sink_(internal::g_trace_sink),
      previous_next_array_id_(
          g_next_array_id.load(std::memory_order_relaxed)) {
  internal::g_trace_sink = nullptr;
}

TracePause::~TracePause() {
  internal::g_trace_sink = previous_sink_;
  g_next_array_id.store(previous_next_array_id_, std::memory_order_relaxed);
}

uint32_t RegisterArray(const std::string& name, size_t length,
                       size_t elem_size) {
  const uint32_t id = g_next_array_id.fetch_add(1, std::memory_order_relaxed);
  if (internal::g_trace_sink != nullptr) {
    internal::g_trace_sink->OnAlloc(id, name, length, elem_size);
  }
  return id;
}

}  // namespace oblivdb::memtrace
