//===- perfbench/Trace.h - The benchmark's own span recorder ----*- C++ -*-===//
///
/// \file
/// Spans recorded from the benchmark's side of the library boundary: one
/// around each public call into a layer (Superoptimizer construction,
/// compileSource, verify, CompileServer::compileText, canonicalizeGma,
/// parseAnyModule), plus derived child spans whose durations come from
/// the result structs the call returns (GmaResult::MatchSeconds,
/// SearchResult::WallSeconds, each Probe's encode/solve/proof-check time,
/// ServerResponse::Seconds). Derived spans have a known length but no
/// known position inside their parent, so they are laid end to end from
/// the parent's start; a layer's self time is its duration minus its
/// children's durations.
///
/// One Tracer per thread: spans live in memory and are written as JSON
/// lines when the benchmark ends.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_PERFBENCH_TRACE_H
#define DENALI_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint64_t Unit = 0;   ///< The compile or request this span belongs to.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  bool Derived = false; ///< Length taken from a result struct.
  int64_t durNs() const { return EndNs - StartNs; }
};

class Tracer {
public:
  /// \p IdBase keeps ids unique across the per-thread tracers.
  explicit Tracer(uint64_t IdBase) : Base(IdBase) {}

  /// Opens a span; close it with end().
  uint64_t begin(const char *Name, uint64_t Parent, uint64_t Unit) {
    Spans.push_back(Span{Name, nextId(), Parent, Unit, nowNs(), 0, false});
    return Spans.back().Id;
  }

  void end(uint64_t Id) { at(Id).EndNs = nowNs(); }

  /// Records a child of \p Parent whose length \p Seconds comes from a
  /// result struct, placed after the parent's earlier derived children.
  uint64_t derived(const char *Name, uint64_t Parent, double Seconds) {
    const Span P = at(Parent);
    int64_t &Cursor =
        DerivedCursor.try_emplace(Parent, P.StartNs).first->second;
    const int64_t Start = Cursor;
    Cursor += static_cast<int64_t>(Seconds * 1e9);
    Spans.push_back(Span{Name, nextId(), Parent, P.Unit, Start, Cursor, true});
    return Spans.back().Id;
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  uint64_t nextId() const { return Base + Spans.size() + 1; }
  Span &at(uint64_t Id) { return Spans[Id - Base - 1]; }

  uint64_t Base;
  std::vector<Span> Spans;
  std::unordered_map<uint64_t, int64_t> DerivedCursor;
};

/// Self time of every span: its duration minus its children's durations.
inline std::unordered_map<uint64_t, int64_t>
selfTimesNs(const std::vector<const Span *> &All) {
  std::unordered_map<uint64_t, int64_t> Self;
  for (const Span *S : All)
    Self[S->Id] += S->durNs();
  for (const Span *S : All)
    if (S->Parent)
      Self[S->Parent] -= S->durNs();
  return Self;
}

/// Writes every span as one JSON object per line. \returns false if the
/// file cannot be written.
inline bool writeSpans(const std::string &Path,
                       const std::vector<const Span *> &All,
                       const std::unordered_map<uint64_t, int64_t> &Self) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Epoch = All.empty() ? 0 : All.front()->StartNs;
  for (const Span *S : All)
    if (S->StartNs < Epoch)
      Epoch = S->StartNs;
  for (const Span *S : All)
    std::fprintf(F,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"unit\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f, \"derived\": %s}\n",
                 S->Name, static_cast<unsigned long long>(S->Id),
                 static_cast<unsigned long long>(S->Parent),
                 static_cast<unsigned long long>(S->Unit),
                 (S->StartNs - Epoch) / 1e3, (S->EndNs - Epoch) / 1e3,
                 Self.at(S->Id) / 1e3, S->Derived ? "true" : "false");
  return std::fclose(F) == 0;
}

} // namespace perfbench

#endif // DENALI_PERFBENCH_TRACE_H
