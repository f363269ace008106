// In-memory span recorder for the traced run. Spans are taken around the
// benchmark's own calls into the library (and, for a join, synthesized
// from the JobStats phase walls the library returns); nothing here reaches
// inside the library. Written once at exit as Chrome trace-event JSON plus
// a per-layer table of count, busy time and self time.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  /// The repository module the span's work belongs to (workload,
  /// tokenized, distance, assignment, massjoin, mapreduce, tsj, ...).
  std::string layer;
  double start_s = 0;  // seconds since the recorder's epoch
  double end_s = 0;
  int parent = -1;  // index into the span list, -1 for a root
};

struct LayerTotals {
  std::string layer;
  uint64_t count = 0;
  double busy_s = 0;
  double self_s = 0;
};

class TraceRecorder {
 public:
  TraceRecorder() : epoch_(Clock::now()) {}

  /// Seconds since the recorder was created.
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Records a finished span; returns its index for use as a parent.
  int Add(std::string name, std::string layer, double start_s, double end_s,
          int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer count, busy time (sum of span durations) and self time
  /// (duration minus the part of the span its children cover).
  std::vector<LayerTotals> Layers() const;

  /// Writes {"traceEvents": [...], "layers": [...]} to `path`.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of span `index`: its duration minus the union of its direct
/// children's intervals clipped to it.
double SelfSeconds(const std::vector<Span>& spans, int index);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
