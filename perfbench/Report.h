//===- perfbench/Report.h - Metrics, statistics and run options -*- C++ -*-===//
///
/// \file
/// What every workload shares: the command-line options, small
/// statistics helpers, and the metric report. The report prints one
/// human-readable line per metric (name, value, unit, sample count) and
/// ends with one machine-readable line,
///
///   PERFBENCH_RESULT {"correct": ..., "attempted": ..., "failed": ...,
///                     "metrics": {"<name>": {"value": v, "unit": u}, ...}}
///
/// holding every metric the workload measured; run.py selects from it the
/// metrics BENCHMARK.json names for the run's trace mode.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_PERFBENCH_REPORT_H
#define DENALI_PERFBENCH_REPORT_H

#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace denali::driver {
struct GmaResult;
}

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string InputsDir; ///< The committed paper programs.
  std::string TraceOut;  ///< Span file written at exit (trace mode).
};

/// Linear-interpolated percentile, \p P in [0, 100]; 0 for no samples.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Log = 0;
  for (double X : V)
    Log += std::log(X);
  return std::exp(Log / static_cast<double>(V.size()));
}

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// A fixed kernel that shares no code with Denali: hash-map inserts and
/// lookups and a sort over \p Keys distinct keys, repeated until
/// CalibrationWork keys have been handled, like the hash-consing and
/// clause work of a compile. \returns its wall time in ms. The workloads
/// time it beside their set-ups and once per round or pass; its median
/// measures the host's speed. On a shared VM that speed drifts by tens of
/// percent within minutes; a time divided by this kernel's time spreads
/// far less from run to run (README.md gives the measurements).
///
/// \p Keys sets the working set. bswap and ladder use CompileKeys, about
/// the size of a compile's e-graph and clause database. replay and serve
/// use HitKeys: they tear a server down before every pass, after which
/// the large working set's allocations page-fault, and the large kernel
/// read up to twice its bswap time and scaled replay's set-up time with
/// a spread of 0.24 over eight seeds (0.09 with HitKeys).
double calibrationMs(uint32_t Keys);
constexpr uint32_t CalibrationWork = 50000, CompileKeys = 50000,
                   HitKeys = 500;

/// The calibration kernel's median time at either size on the
/// development VM (4-vCPU Intel Xeon), the host speed setup_s is
/// expressed at.
constexpr double ReferenceCalibrationMs = 10.0;

/// Set-ups per run, and calibration kernel runs before each set-up.
constexpr int SetupReps = 5, SetupCalibrations = 4;

/// Set-up seconds at the reference host speed: the median of \p RawS
/// times ReferenceCalibrationMs over the median of \p CalibrationMs, the
/// kernel runs beside the set-ups. The host's speed moves within seconds,
/// so the kernel runs next to the set-ups track it better than the timed
/// loop's runs do.
inline double setupAtReference(const std::vector<double> &RawS,
                               const std::vector<double> &CalibrationMs) {
  return median(RawS) * ReferenceCalibrationMs / median(CalibrationMs);
}

/// One of the paper programs a workload compiles.
struct ProgramSpec {
  std::string Name;
  std::string Source;
  /// Minimal cycles per GMA, in compile order: the paper's figures where
  /// it gives them (byteswap4 = 5, Fig. 4; byteswap5 = 6, E4; checksum
  /// 4 + 5 + 10, E5; rowop = 22, E8), the golden CLI captures otherwise.
  std::vector<unsigned> Cycles;
};

/// The programs of \p O's workload (bswap, ladder or replay), read from
/// the inputs directory; exits with status 2 when one is missing.
std::vector<ProgramSpec> loadPrograms(const RunOptions &O);

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0; ///< 0: not a sampled statistic.
  std::string Note;     ///< Printed after the value.
};

class Report {
public:
  void add(std::string Name, double Value, std::string Unit,
           uint64_t Samples = 0, std::string Note = "") {
    Metrics.push_back(Metric{std::move(Name), Value, std::move(Unit), Samples,
                             std::move(Note)});
  }

  /// Free-form context lines printed above the metric table.
  void note(std::string Line) { Notes.push_back(std::move(Line)); }

  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
    for (const std::string &L : Notes)
      std::printf("%s\n", L.c_str());
    for (const Metric &M : Metrics) {
      std::printf("%-26s %14.6g %-6s", M.Name.c_str(), M.Value, M.Unit.c_str());
      if (M.Samples)
        std::printf(" n=%llu", static_cast<unsigned long long>(M.Samples));
      if (!M.Note.empty())
        std::printf("  (%s)", M.Note.c_str());
      std::printf("\n");
    }
    std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (size_t I = 0; I < Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                  Metrics[I].Unit.c_str());
    std::printf("}}\n");
  }

private:
  std::vector<std::string> Notes;
  std::vector<Metric> Metrics;
};

/// Layer totals of one traced compile or request, read off its spans.
struct LayerTimes {
  double ConstructMs = 0, CompileMs = 0, UnattributedMs = 0, MatchMs = 0,
         SearchMs = 0, ExtractMs = 0, EncodeMs = 0, SolveMs = 0,
         VerifyMs = 0, ParseUs = 0, CanonUs = 0, FrontdoorUs = 0;
  LayerTimes &operator+=(const LayerTimes &O);
};

/// Work counts of one compile, summed over its GMAs. Whole numbers held
/// as doubles so the serve workload can average them per cold compile.
struct WorkCounts {
  double Gmas = 0, CyclesSum = 0, LowerBound = 0, Rounds = 0, Raw = 0,
         Asserted = 0, SeenHits = 0, Nodes = 0, Classes = 0, CapHits = 0,
         Clauses = 0, Vars = 0, UniverseTerms = 0, Conflicts = 0,
         Propagations = 0, Probes = 0, UnsatProbes = 0;
  bool operator==(const WorkCounts &) const = default;
  WorkCounts &operator+=(const WorkCounts &O);
  WorkCounts scaled(double F) const;
};

/// Work counts of one compiled GMA; \p MaxNodes is the saturation cap.
WorkCounts countsOf(const denali::driver::GmaResult &G, size_t MaxNodes);

/// Records the layers inside one GMA compile as derived children of
/// \p Parent, from the durations its result structs carry. Without
/// \p Matched the saturation was reused, not run.
void traceGma(Tracer &T, uint64_t Parent, const denali::driver::GmaResult &G,
              bool Matched = true);

/// Server-tier figures (replay and serve).
struct ServerFigures {
  double HitMsP50 = 0, ColdMsP50 = 0, HitRatio = 0, ColdCompiles = 0,
         DupCold = 0;
  /// Traced requests behind the per-request layers (front door,
  /// canonicalization, verify), and servers started; the compile layers
  /// count cold compiles.
  uint64_t TracedRequests = 0, Servers = 0;
};

/// Adds the per-layer metrics, in one fixed order. \p Times holds layer
/// medians over \p Units compiles or requests; without \p Traced only its
/// CompileMs and UnattributedMs (timed directly) are reported. \p S is
/// null on the workloads without a server; their server.* figures are
/// then reported as 0 and marked "n/a".
void addLayerMetrics(Report &R, const LayerTimes &Times, bool Traced,
                     uint64_t Units, const WorkCounts &C,
                     const ServerFigures *S, double OverheadPct);

/// The figures a user of one workload sees. Latencies are per compile
/// (bswap, ladder) or per request (replay, serve); \c Request says which.
struct EndToEnd {
  bool Request = false;
  double P50Ms = 0, TailMs = 0, OpsPerS = 0, CalibrationMs = 0,
         SetupS = 0, SetupRawS = 0, CyclesSum = 0, LowerBoundRatio = 0,
         FailRatio = 0;
  uint64_t Samples = 0;      ///< Latency samples (per program, the fewest).
  uint64_t Calibrations = 0; ///< Calibration kernel runs.
  std::string P50Note;       ///< How the p50 was formed.
};

/// Adds the end-to-end metrics. Every workload reports the same names:
/// the latency, tail and throughput of the other kind of operation are
/// reported as 0 and marked "n/a".
void addEndToEnd(Report &R, const EndToEnd &E);

/// Per-field median over \p Units.
LayerTimes medianTimes(const std::vector<LayerTimes> &Units);

/// Workload entry points. Each fills \p R and \returns true when every
/// output was correct; \p Attempted / \p Failed count the timed
/// operations.
bool runPrograms(const RunOptions &O, Report &R, uint64_t &Attempted,
                 uint64_t &Failed);
/// replay and serve.
bool runServer(const RunOptions &O, Report &R, uint64_t &Attempted,
               uint64_t &Failed);

/// Gathers every tracer's spans, derives self times, writes the span file
/// (when \p Path is set) and \returns the layer totals per unit id.
std::vector<std::pair<uint64_t, LayerTimes>>
finishTrace(const std::vector<const Tracer *> &Tracers,
            const std::string &Path);

} // namespace perfbench

#endif // DENALI_PERFBENCH_REPORT_H
