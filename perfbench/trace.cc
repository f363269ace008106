#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace perfbench {

int TraceRecorder::Add(std::string name, std::string layer, double start_s,
                       double end_s, int parent) {
  spans_.push_back(
      Span{std::move(name), std::move(layer), start_s, end_s, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double SelfSeconds(const std::vector<Span>& spans, int index) {
  const Span& span = spans[index];
  std::vector<std::pair<double, double>> children;
  for (const Span& child : spans) {
    if (child.parent != index) continue;
    const double lo = std::max(child.start_s, span.start_s);
    const double hi = std::min(child.end_s, span.end_s);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  double covered = 0;
  double reach = span.start_s;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return std::max(0.0, span.end_s - span.start_s - covered);
}

std::vector<LayerTotals> TraceRecorder::Layers() const {
  std::map<std::string, LayerTotals> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& totals = by_layer[spans_[i].layer];
    totals.layer = spans_[i].layer;
    ++totals.count;
    totals.busy_s += spans_[i].end_s - spans_[i].start_s;
    totals.self_s += SelfSeconds(spans_, static_cast<int>(i));
  }
  std::vector<LayerTotals> out;
  for (auto& [layer, totals] : by_layer) out.push_back(totals);
  return out;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "  {\"name\": \"" << JsonEscape(s.name)
        << "\", \"cat\": \"" << JsonEscape(s.layer)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << s.start_s * 1e6 << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n], \"layers\": [\n";
  const std::vector<LayerTotals> layers = Layers();
  for (size_t i = 0; i < layers.size(); ++i) {
    out << (i == 0 ? "" : ",\n") << "  {\"layer\": \""
        << JsonEscape(layers[i].layer) << "\", \"count\": " << layers[i].count
        << ", \"busy_s\": " << layers[i].busy_s
        << ", \"self_s\": " << layers[i].self_s << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
