//===- perfbench/Programs.cpp - The bswap and ladder workloads ------------===//
///
/// \file
/// A single-threaded closed loop over the paper's programs. One compile
/// is what one `denali` run does: a fresh driver::Superoptimizer, then
/// compileSource, then Superoptimizer::verify of every GMA. A fresh
/// instance per compile keeps the work identical from compile to compile
/// (compileSource appends the program's axioms to the instance it runs
/// on), so every compile must repeat its program's reference counts
/// exactly; a drift is reported as a failure.
///
///   bswap   byteswap4 (Figure 3/4) and byteswap5, search ceiling 16 (the
///           CLI default). Matching dominates.
///   ladder  checksum, rowop, checksum_pipelined and copyloop, ceiling 24
///           (rowop's optimum is 22 cycles). Encoding dominates.
///
/// The seed orders the compiles: each round is a seeded permutation of
/// the workload's programs.
///
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "driver/Superoptimizer.h"
#include "lang/Surface.h"
#include "server/Canon.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <unordered_map>

using namespace denali;

namespace perfbench {

std::string readInput(const RunOptions &O, const std::string &File) {
  std::ifstream In(O.InputsDir + "/" + File);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s/%s\n",
                 O.InputsDir.c_str(), File.c_str());
    std::exit(2);
  }
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<ProgramSpec> loadPrograms(const RunOptions &O) {
  if (O.Workload == "bswap")
    return {{"byteswap4", readInput(O, "byteswap4.dnl"), {5}},
            {"byteswap5", readInput(O, "byteswap5.dnl"), {6}}};
  if (O.Workload == "replay")
    return {{"byteswap4", readInput(O, "byteswap4.dnl"), {5}},
            {"byteswap5", readInput(O, "byteswap5.dnl"), {6}},
            {"copyloop", readInput(O, "copyloop.dnl"), {5}}};
  return {{"checksum", readInput(O, "checksum.dnl"), {4, 5, 10}},
          {"rowop", readInput(O, "rowop.dnl"), {22}},
          {"checksum_pipelined", readInput(O, "checksum_pipelined.dnl"),
           {3, 4}},
          {"copyloop", readInput(O, "copyloop.dnl"), {5}}};
}

namespace {

driver::Options pipelineOptions(const RunOptions &O) {
  driver::Options Opts;
  Opts.Search.MaxCycles = O.Workload == "bswap" ? 16 : 24;
  return Opts;
}

struct Sample {
  double TotalMs = 0;
  /// compileSource, and its time outside MatchSeconds and WallSeconds.
  double CompileMs = 0, UnattributedMs = 0;
  WorkCounts Counts;
  std::string Error; ///< Empty when every output was right.
};

/// One compile of \p P. With \p T, also records its spans under unit
/// \p Unit and makes the traced parse and canonicalization calls.
Sample compileOnce(const ProgramSpec &P, const driver::Options &Opts,
                   Tracer *T, uint64_t Unit) {
  Sample S;
  std::vector<std::optional<std::string>> Verdicts;
  uint64_t Root = T ? T->begin("compile", 0, Unit) : 0;
  const int64_t Start = nowNs();

  uint64_t Sp = T ? T->begin("driver.construct", Root, Unit) : 0;
  driver::Superoptimizer Opt(Opts);
  if (T)
    T->end(Sp);

  Sp = T ? T->begin("driver.compileSource", Root, Unit) : 0;
  const int64_t CompileStart = nowNs();
  driver::CompileResult R = Opt.compileSource(P.Source);
  S.CompileMs = (nowNs() - CompileStart) / 1e6;
  S.UnattributedMs = S.CompileMs;
  for (const driver::GmaResult &G : R.Gmas)
    S.UnattributedMs -= (G.MatchSeconds + G.Search.WallSeconds) * 1e3;
  if (T) {
    T->end(Sp);
    for (const driver::GmaResult &G : R.Gmas)
      traceGma(*T, Sp, G);
  }

  for (const driver::GmaResult &G : R.Gmas) {
    Sp = T ? T->begin("driver.verify", Root, Unit) : 0;
    Verdicts.push_back(Opt.verify(G));
    if (T)
      T->end(Sp);
  }
  S.TotalMs = (nowNs() - Start) / 1e6;
  if (T) {
    T->end(Root);
    std::string Err;
    Sp = T->begin("lang.parse", 0, Unit);
    bool Parsed = lang::parseAnyModule(P.Source, &Err).has_value();
    T->end(Sp);
    if (!Parsed)
      S.Error = "traced re-parse failed: " + Err;
    for (const driver::GmaResult &G : R.Gmas) {
      Sp = T->begin("server.canon", 0, Unit);
      server::canonicalizeGma(Opt.context(), G.Gma);
      T->end(Sp);
    }
  }

  if (!R.ok()) {
    S.Error = "compile error: " + R.Error;
    return S;
  }
  if (R.Gmas.size() != P.Cycles.size())
    S.Error = strFormat("%zu GMAs, expected %zu", R.Gmas.size(),
                        P.Cycles.size());
  for (size_t I = 0; I < R.Gmas.size(); ++I) {
    const driver::GmaResult &G = R.Gmas[I];
    S.Counts += countsOf(G, Opts.Matching.MaxNodes);
    if (!G.ok())
      S.Error =
          G.Gma.Name + ": " + (G.Error.empty() ? G.Search.Error : G.Error);
    else if (I < P.Cycles.size() && G.Search.Cycles != P.Cycles[I])
      S.Error = strFormat("%s: %u cycles, expected %u", G.Gma.Name.c_str(),
                          G.Search.Cycles, P.Cycles[I]);
    else if (Verdicts[I])
      S.Error = G.Gma.Name + ": oracle: " + *Verdicts[I];
  }
  return S;
}

} // namespace

WorkCounts countsOf(const driver::GmaResult &G, size_t MaxNodes) {
  WorkCounts C;
  C.Gmas = 1;
  C.CyclesSum = G.Search.Cycles;
  C.LowerBound = G.Search.LowerBoundProved;
  C.Rounds = G.Matching.Rounds;
  C.Raw = static_cast<double>(G.Matching.MatchesFound);
  C.Asserted = static_cast<double>(G.Matching.InstancesAsserted);
  C.SeenHits = static_cast<double>(G.Matching.SeenHits);
  C.Nodes = static_cast<double>(G.Matching.FinalNodes);
  C.Classes = static_cast<double>(G.Matching.FinalClasses);
  C.CapHits = G.Matching.FinalNodes >= MaxNodes;
  if (!G.Search.Probes.empty())
    C.UniverseTerms =
        static_cast<double>(G.Search.Probes[0].Stats.MachineTerms);
  for (const codegen::Probe &P : G.Search.Probes) {
    C.Clauses += static_cast<double>(P.Stats.Clauses);
    C.Vars += P.Stats.Vars;
    C.Conflicts += static_cast<double>(P.Conflicts);
    C.Propagations += static_cast<double>(P.Propagations);
    C.Probes += 1;
    C.UnsatProbes += P.Result == sat::SolveResult::Unsat;
  }
  return C;
}

void traceGma(Tracer &T, uint64_t Parent, const driver::GmaResult &G,
              bool Matched) {
  if (Matched)
    T.derived("gma.match", Parent, G.MatchSeconds);
  uint64_t Search = T.derived("gma.search", Parent, G.Search.WallSeconds);
  for (const codegen::Probe &P : G.Search.Probes) {
    T.derived("search.encode", Search, P.EncodeSeconds);
    T.derived("search.solve", Search, P.SolveSeconds);
    T.derived("search.proofcheck", Search, P.ProofCheckSeconds);
  }
}

bool runPrograms(const RunOptions &O, Report &R, uint64_t &Attempted,
                 uint64_t &Failed) {
  const driver::Options Opts = pipelineOptions(O);
  bool Correct = true;
  auto fail = [&](const std::string &What, const std::string &Why) {
    if (Correct || Failed < 5)
      std::fprintf(stderr, "perfbench: %s: %s\n", What.c_str(), Why.c_str());
    Correct = false;
  };

  // Set-up, repeated: load the inputs and compile each program once for
  // its reference counts. The repetitions double as the determinism
  // self-check (fresh instances must agree exactly).
  std::vector<ProgramSpec> Programs;
  std::vector<WorkCounts> Reference;
  std::vector<double> SetupS, SetupCalibrationMs;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    for (int I = 0; I < SetupCalibrations; ++I)
      SetupCalibrationMs.push_back(calibrationMs(CompileKeys));
    const int64_t Start = nowNs();
    Programs = loadPrograms(O);
    std::vector<WorkCounts> Counts;
    for (const ProgramSpec &P : Programs) {
      Sample S = compileOnce(P, Opts, nullptr, 0);
      if (!S.Error.empty())
        fail(P.Name + " (set-up)", S.Error);
      Counts.push_back(S.Counts);
    }
    SetupS.push_back((nowNs() - Start) / 1e9);
    if (Rep > 0 && Counts != Reference)
      fail("set-up", "reference counts differ between fresh instances");
    Reference = std::move(Counts);
  }

  // The timed loop: whole seeded rounds, at least two; in trace mode every
  // odd round is traced and the even rounds give the untraced comparison.
  std::mt19937_64 Rng(O.Seed);
  Tracer T(0);
  std::vector<std::vector<double>> Plain(Programs.size()),
      Traced(Programs.size()), CompileMs(Programs.size()),
      UnattributedMs(Programs.size());
  std::vector<size_t> UnitProgram; // Traced unit id -> program index.
  std::vector<double> CalibrationMs;
  std::vector<size_t> Order(Programs.size());
  const int64_t LoopStart = nowNs();
  const int64_t Deadline = LoopStart + static_cast<int64_t>(O.Seconds * 1e9);
  for (uint64_t Round = 0; Round < 2 || nowNs() < Deadline; ++Round) {
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);
    const bool TraceRound = O.Trace && Round % 2 == 1;
    CalibrationMs.push_back(calibrationMs(CompileKeys));
    for (size_t Idx : Order) {
      const ProgramSpec &P = Programs[Idx];
      uint64_t Unit = UnitProgram.size();
      if (TraceRound)
        UnitProgram.push_back(Idx);
      Sample S = compileOnce(P, Opts, TraceRound ? &T : nullptr, Unit);
      ++Attempted;
      if (S.Error.empty() && !(S.Counts == Reference[Idx]))
        S.Error = "work counts differ from the reference compile";
      if (!S.Error.empty()) {
        ++Failed;
        fail(P.Name, S.Error);
      }
      (TraceRound ? Traced : Plain)[Idx].push_back(S.TotalMs);
      if (!TraceRound) {
        CompileMs[Idx].push_back(S.CompileMs);
        UnattributedMs[Idx].push_back(S.UnattributedMs);
      }
    }
  }
  const double LoopS = (nowNs() - LoopStart) / 1e9;

  // End to end, from the untraced compiles.
  EndToEnd E;
  E.P50Note = "geometric mean over programs of each program's median";
  std::vector<double> P50s, Tails;
  size_t Fewest = SIZE_MAX;
  for (const std::vector<double> &V : Plain)
    Fewest = std::min(Fewest, V.size());
  for (size_t I = 0; I < Programs.size(); ++I) {
    P50s.push_back(median(Plain[I]));
    // Ten samples beyond the p90 from 100 compiles per program.
    Tails.push_back(percentile(Plain[I], 90));
    R.note(strFormat("%-20s median %9.3f ms  p90 %9.3f ms  n=%zu",
                     Programs[I].Name.c_str(), P50s.back(), Tails.back(),
                     Plain[I].size()));
  }
  WorkCounts Pass;
  for (const WorkCounts &C : Reference)
    Pass += C;
  E.P50Ms = geomean(P50s);
  E.TailMs = geomean(Tails);
  E.Samples = Fewest;
  E.OpsPerS = ratio(static_cast<double>(Attempted), LoopS);
  E.CalibrationMs = median(CalibrationMs);
  E.Calibrations = CalibrationMs.size();
  E.SetupS = setupAtReference(SetupS, SetupCalibrationMs);
  E.SetupRawS = median(SetupS);
  E.CyclesSum = Pass.CyclesSum;
  E.LowerBoundRatio = ratio(Pass.LowerBound, Pass.Gmas);
  E.FailRatio =
      ratio(static_cast<double>(Failed), static_cast<double>(Attempted));
  addEndToEnd(R, E);
  // Per layer: each program's median traced compile, summed over the
  // workload's programs (one pass); counts are the reference pass. Without
  // a trace, the untraced compiles give the compileSource times.
  LayerTimes PassTimes;
  double OverheadPct = 0;
  uint64_t Units = Fewest;
  if (O.Trace) {
    std::vector<std::vector<LayerTimes>> PerProgram(Programs.size());
    for (auto &[Unit, L] : finishTrace({&T}, O.TraceOut))
      PerProgram[UnitProgram[Unit]].push_back(L);
    std::vector<double> TracedP50s;
    Units = SIZE_MAX;
    for (size_t I = 0; I < Programs.size(); ++I) {
      PassTimes += medianTimes(PerProgram[I]);
      TracedP50s.push_back(median(Traced[I]));
      Units = std::min(Units, PerProgram[I].size());
    }
    OverheadPct = (ratio(geomean(TracedP50s), E.P50Ms) - 1) * 100;
  } else {
    for (size_t I = 0; I < Programs.size(); ++I) {
      PassTimes.CompileMs += median(CompileMs[I]);
      PassTimes.UnattributedMs += median(UnattributedMs[I]);
    }
  }
  addLayerMetrics(R, PassTimes, O.Trace, Units, Pass, nullptr, OverheadPct);
  R.note(strFormat("workload %s seed %llu: %llu compiles in %.2f s, %s",
                   O.Workload.c_str(),
                   static_cast<unsigned long long>(O.Seed),
                   static_cast<unsigned long long>(Attempted), LoopS,
                   O.Trace ? "odd rounds traced" : "untraced"));
  return Correct;
}

} // namespace perfbench
