//===- perfbench/main.cpp - Denali benchmark entry point ------------------===//
///
/// \file
/// Usage:
///   perfbench --workload bswap|ladder|replay|serve --seed N --seconds S
///             --trace 0|1 --inputs DIR [--trace-out FILE]
///
/// Runs one workload for S seconds and prints its metric report (see
/// Report.h). Exit status 0 means every output was correct; 1 means some
/// output was wrong (the report still prints, with "correct": false);
/// 2 means bad arguments or unreadable inputs.
///
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "support/StringExtras.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>
#include <unordered_map>

namespace perfbench {

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double calibrationMs(uint32_t Keys) {
  const int64_t Start = nowNs();
  uint64_t X = 88172645463325252ULL, Hits = 0, Inversions = 0;
  auto next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  for (uint32_t Rep = 0; Rep < CalibrationWork / Keys; ++Rep) {
    std::unordered_map<uint64_t, uint32_t> Map;
    for (uint32_t I = 0; I < Keys * 6 / 5; ++I)
      Map.emplace(next() % Keys, I);
    for (uint32_t I = 0; I < Keys * 6 / 5; ++I)
      Hits += Map.count(next() % Keys);
    std::vector<uint64_t> Sorted(Keys);
    for (uint64_t &K : Sorted)
      K = next();
    std::sort(Sorted.begin(), Sorted.end());
    Inversions += Sorted.front() > Sorted.back();
  }
  const double Ms = (nowNs() - Start) / 1e6;
  if (Hits == 0 || Inversions)
    std::fprintf(stderr, "perfbench: calibration kernel misbehaved\n");
  return Ms;
}

namespace {
constexpr double LayerTimes::*TimeFields[] = {
    &LayerTimes::ConstructMs, &LayerTimes::CompileMs,
    &LayerTimes::UnattributedMs, &LayerTimes::MatchMs,
    &LayerTimes::SearchMs, &LayerTimes::ExtractMs,
    &LayerTimes::EncodeMs, &LayerTimes::SolveMs,
    &LayerTimes::VerifyMs, &LayerTimes::ParseUs,
    &LayerTimes::CanonUs, &LayerTimes::FrontdoorUs};
constexpr double WorkCounts::*CountFields[] = {
    &WorkCounts::Gmas, &WorkCounts::CyclesSum, &WorkCounts::LowerBound,
    &WorkCounts::Rounds, &WorkCounts::Raw, &WorkCounts::Asserted,
    &WorkCounts::SeenHits, &WorkCounts::Nodes, &WorkCounts::Classes,
    &WorkCounts::CapHits, &WorkCounts::Clauses, &WorkCounts::Vars,
    &WorkCounts::UniverseTerms, &WorkCounts::Conflicts,
    &WorkCounts::Propagations, &WorkCounts::Probes, &WorkCounts::UnsatProbes};
} // namespace

LayerTimes &LayerTimes::operator+=(const LayerTimes &O) {
  for (double LayerTimes::*F : TimeFields)
    this->*F += O.*F;
  return *this;
}

WorkCounts &WorkCounts::operator+=(const WorkCounts &O) {
  for (double WorkCounts::*F : CountFields)
    this->*F += O.*F;
  return *this;
}

WorkCounts WorkCounts::scaled(double Factor) const {
  WorkCounts Out = *this;
  for (double WorkCounts::*F : CountFields)
    Out.*F *= Factor;
  return Out;
}

LayerTimes medianTimes(const std::vector<LayerTimes> &Units) {
  LayerTimes Out;
  for (double LayerTimes::*F : TimeFields) {
    std::vector<double> V;
    for (const LayerTimes &U : Units)
      V.push_back(U.*F);
    Out.*F = median(std::move(V));
  }
  return Out;
}

void addEndToEnd(Report &R, const EndToEnd &E) {
  const char *NA = "n/a on this workload";
  const bool C = !E.Request;
  R.add("latency_rel.p50", ratio(E.P50Ms, E.CalibrationMs), "ratio",
        E.Calibrations,
        C ? "compile_ms.p50 / calibration_ms" : "request_ms.p50 / "
                                                "calibration_ms");
  R.add("compile_ms.p50", C ? E.P50Ms : 0, "ms", C ? E.Samples : 0,
        C ? E.P50Note : NA);
  R.add("compile_ms.p90", C ? E.TailMs : 0, "ms", C ? E.Samples : 0,
        C ? "" : NA);
  R.add("compiles_per_s", C ? E.OpsPerS : 0, "1/s", 0, C ? "" : NA);
  R.add("request_ms.p50", C ? 0 : E.P50Ms, "ms", C ? 0 : E.Samples,
        C ? NA : E.P50Note);
  R.add("request_ms.p99", C ? 0 : E.TailMs, "ms", C ? 0 : E.Samples,
        C ? NA : E.Samples < 1000 ? "under 1000 samples" : "");
  R.add("requests_per_s", C ? 0 : E.OpsPerS, "1/s", 0, C ? NA : "");
  R.add("calibration_ms", E.CalibrationMs, "ms", E.Calibrations,
        "median of the host-speed kernel, once per round "
        "or pass");
  R.add("setup_s", E.SetupS, "s", SetupReps,
        "median set-up at the reference host speed");
  R.add("setup_raw_s", E.SetupRawS, "s", SetupReps,
        "median set-up, wall clock");
  R.add("peak_rss_mb", peakRssMb(), "MiB");
  R.add("cycles_sum", E.CyclesSum, "cycles");
  R.add("lower_bound_ratio", E.LowerBoundRatio, "ratio");
  R.add("fail_ratio", E.FailRatio, "ratio");
}

void addLayerMetrics(Report &R, const LayerTimes &T, bool Traced,
                     uint64_t Units, const WorkCounts &C,
                     const ServerFigures *S, double OverheadPct) {
  // Without a trace only the compile call itself is timed.
  auto time = [&](const char *Name, double V, const char *Unit,
                  uint64_t N) {
    if (Traced)
      R.add(Name, V, Unit, N);
  };
  const uint64_t Requests = S ? S->TracedRequests : Units;
  const uint64_t Constructs = S ? S->Servers : Units;
  time("driver.construct_ms", T.ConstructMs, "ms", Constructs);
  R.add("driver.compile_ms", T.CompileMs, "ms", Units);
  R.add("driver.unattributed_ms", T.UnattributedMs, "ms", Units);
  if (Traced)
    R.add("lang.parse_us", T.ParseUs, "us", S ? 0 : Units,
          S ? "n/a: the server parses inside compileText" : "");
  time("match.ms", T.MatchMs, "ms", Units);
  R.add("match.rounds", C.Rounds, "count");
  R.add("match.raw_matches", C.Raw, "count");
  R.add("match.asserted", C.Asserted, "count");
  R.add("match.seen_hits", C.SeenHits, "count");
  R.add("match.useful_ratio", ratio(C.Asserted, C.Raw), "ratio");
  R.add("match.node_cap_hits", C.CapHits, "count");
  R.add("egraph.nodes", C.Nodes, "count");
  R.add("egraph.classes", C.Classes, "count");
  time("encode.ms", T.EncodeMs, "ms", Units);
  R.add("encode.clauses", C.Clauses, "count");
  R.add("encode.vars", C.Vars, "count");
  time("encode.ns_per_clause", ratio(T.EncodeMs * 1e6, C.Clauses), "ns",
       Units);
  R.add("universe.terms", C.UniverseTerms, "count");
  time("sat.solve_ms", T.SolveMs, "ms", Units);
  R.add("sat.conflicts", C.Conflicts, "count");
  R.add("sat.propagations", C.Propagations, "count");
  R.add("sat.probes", C.Probes, "count");
  R.add("sat.unsat_probes", C.UnsatProbes, "count");
  time("search.ms", T.SearchMs, "ms", Units);
  time("search.extract_ms", T.ExtractMs, "ms", Units);
  time("verify.ms", T.VerifyMs, "ms", Requests);
  // The server figures, 0 where no server runs.
  const ServerFigures None;
  const ServerFigures &F = S ? *S : None;
  const char *Tier = S ? "" : "n/a on this workload";
  R.add("server.hit_ms.p50", F.HitMsP50, "ms", 0, Tier);
  R.add("server.cold_ms.p50", F.ColdMsP50, "ms", 0, Tier);
  R.add("server.hit_ratio", F.HitRatio, "ratio", 0, Tier);
  R.add("server.cold_compiles", F.ColdCompiles, "count", 0, Tier);
  R.add("server.dup_cold", F.DupCold, "count", 0, Tier);
  if (Traced)
    R.add("server.frontdoor_us", T.FrontdoorUs, "us", S ? Requests : 0, Tier);
  time("server.canon_us", T.CanonUs, "us", Requests);
  time("trace.overhead_pct", OverheadPct, "%", Units);
}

namespace {
/// Folds one span into its unit's layer totals; \p SelfNs is the span's
/// self time.
void addSpan(LayerTimes &L, const Span &S, int64_t SelfNs) {
  const double Ms = S.durNs() / 1e6, SelfMs = SelfNs / 1e6;
  const std::string_view N = S.Name;
  if (N == "driver.construct" || N == "server.construct")
    L.ConstructMs += Ms;
  else if (N == "driver.compileSource" || N == "server.inside") {
    L.CompileMs += Ms;
    L.UnattributedMs += SelfMs;
  } else if (N == "gma.match")
    L.MatchMs += Ms;
  else if (N == "gma.search") {
    L.SearchMs += Ms;
    L.ExtractMs += SelfMs;
  } else if (N == "search.encode")
    L.EncodeMs += Ms;
  else if (N == "search.solve")
    L.SolveMs += Ms;
  else if (N == "driver.verify")
    L.VerifyMs += Ms;
  else if (N == "lang.parse")
    L.ParseUs += Ms * 1e3;
  else if (N == "server.canon")
    L.CanonUs += Ms * 1e3;
  else if (N == "server.compileText")
    L.FrontdoorUs += SelfMs * 1e3;
}
} // namespace

std::vector<std::pair<uint64_t, LayerTimes>>
finishTrace(const std::vector<const Tracer *> &Tracers,
            const std::string &Path) {
  std::vector<const Span *> All;
  for (const Tracer *T : Tracers)
    for (const Span &S : T->spans())
      All.push_back(&S);
  std::unordered_map<uint64_t, int64_t> Self = selfTimesNs(All);
  if (!Path.empty() && !writeSpans(Path, All, Self))
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());

  std::vector<std::pair<uint64_t, LayerTimes>> Units;
  std::unordered_map<uint64_t, size_t> Slot;
  for (const Span *S : All) {
    auto [It, Fresh] = Slot.try_emplace(S->Unit, Units.size());
    if (Fresh)
      Units.emplace_back(S->Unit, LayerTimes());
    addSpan(Units[It->second].second, *S, Self.at(S->Id));
  }
  return Units;
}

} // namespace perfbench

using namespace perfbench;

int main(int argc, char **argv) {
  RunOptions O;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: every flag takes a value\n");
    return 2;
  }
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *Flag = argv[I], *V = argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      O.Workload = V;
    else if (!std::strcmp(Flag, "--seed"))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      O.Seconds = std::atof(V);
    else if (!std::strcmp(Flag, "--trace"))
      O.Trace = std::atoi(V) != 0;
    else if (!std::strcmp(Flag, "--inputs"))
      O.InputsDir = V;
    else if (!std::strcmp(Flag, "--trace-out"))
      O.TraceOut = V;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", Flag);
      return 2;
    }
  }
  if (O.InputsDir.empty() || O.Seconds <= 0) {
    std::fprintf(stderr, "perfbench: need --inputs DIR and --seconds > 0\n");
    return 2;
  }

  Report R;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct;
  if (O.Workload == "bswap" || O.Workload == "ladder")
    Correct = runPrograms(O, R, Attempted, Failed);
  else if (O.Workload == "replay" || O.Workload == "serve")
    Correct = runServer(O, R, Attempted, Failed);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  R.print(Correct, Attempted, Failed);
  return Correct ? 0 : 1;
}
