// Span recorder for the traced run. Spans are opened and closed from the
// benchmark's own code around calls into the program's layers, kept in memory
// and written out once the run ends. Single-threaded: spans nest strictly.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span, -1 for a root
  };

  explicit Tracer(uint64_t run_id) : run_id_(run_id) {}

  // Opens a span under the innermost open one; returns its id for End().
  int Begin(std::string name);
  void End(int id);

  // Sum over every span called `name` of its duration minus the part of it
  // that its child spans cover.
  uint64_t SelfNs(const std::string& name) const;
  // Sum of the durations of every span called `name`.
  uint64_t TotalNs(const std::string& name) const;
  // The duration of each span called `name`, in the order they were opened.
  std::vector<double> DurationsNs(const std::string& name) const;

  // Writes the spans as Chrome trace-event JSON ("X" events; args carry the
  // span id, its parent and the run id). Returns false when the file cannot
  // be written.
  bool Write(const std::string& path) const;

 private:
  uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
