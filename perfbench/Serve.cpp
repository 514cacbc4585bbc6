//===- perfbench/Serve.cpp - The replay and serve workloads ---------------===//
///
/// \file
/// A server::CompileServer configured exactly as tools/denali_server ships
/// it (driver defaults, search ceiling 16, 2 workers, 64 MiB result cache,
/// 64 warm graphs, telemetry on), driven in a closed loop by two client
/// threads calling compileText. The stream is cut into blocks; each pass
/// replays the next block on a fresh server until the run's time is up.
/// The clients then take no new request, and the requests in flight
/// finish. Both streams are pure functions of the seed.
///
///   replay  the GMAs of the paper programs the shipped configuration
///           compiles (byteswap4, byteswap5, copyloop: the bswap and
///           ladder programs without program axioms and within 16
///           cycles), printed with verify::printGma. A block is a seeded
///           shuffle of ten renamed copies of each, so one request in ten
///           is a skeleton's first, cold compile. Set-up compiles each
///           skeleton once for its reference answer.
///   serve   skeletons from verify::GmaGen (default options) at the seed;
///           one request in ten (seeded) is a new skeleton, the rest are
///           renamed duplicates of an earlier skeleton picked uniformly.
///           One block of 1000 requests. A stress test: about one
///           skeleton in 80 saturates to the 60000-node cap.
///
/// A renamed duplicate renames variables, targets and the GMA; the memory
/// M keeps its name. Every response is checked after its pass: the oracle
/// (Superoptimizer::verify) on every program; every response for a
/// skeleton (cold, warm or cache-served, in any pass) must report the
/// same answer; on replay that answer must be the paper's minimal K. A
/// "no program within 16 cycles" answer on serve is a legitimate reply of
/// the shipped configuration; it is counted in fail_ratio but is not a
/// wrong output.
///
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "gma/GMA.h"
#include "lang/Surface.h"
#include "server/Canon.h"
#include "server/Server.h"
#include "support/StringExtras.h"
#include "verify/GmaGen.h"
#include "verify/GmaText.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace denali;

namespace perfbench {
namespace {

/// serve: one block of this many requests, one in NewSkeletonPercent new.
constexpr unsigned ServeRequests = 1000;
constexpr unsigned NewSkeletonPercent = 10;
/// replay: blocks of ReplayCopies renamed copies of each skeleton.
constexpr unsigned ReplayBlocks = 40;
constexpr unsigned ReplayCopies = 10;
/// Closed-loop client threads: two on serve, one on replay, because two
/// clients crash the shipped server now and then:
/// compileText interns a request's new names into the Context (its
/// TermTable vector can reallocate) while another client's compile
/// reads that Context without the lock, a use-after-free that
/// ThreadSanitizer reports within seconds (README.md).
unsigned clientsOf(bool Replay) { return Replay ? 1 : 2; }
/// Units of the server-construction spans, clear of the request units.
constexpr uint64_t ConstructUnitBase = uint64_t(1) << 62;

server::ServerOptions shippedOptions() {
  server::ServerOptions S; // tools/denali_server.cpp's defaults.
  S.Pipeline.Search.MaxCycles = 16;
  return S;
}

struct Request {
  size_t Skeleton = 0;
  gma::GMA Gma; ///< In the generator's context (canonicalization reads it).
  std::string Text;
};

/// A request stream, replayed one block per pass.
struct Stream {
  std::vector<Request> Requests;
  size_t BlockSize = 0;
  std::vector<gma::GMA> Skeletons;
  /// Minimal cycles per skeleton (replay only).
  std::vector<unsigned> Cycles;
};

/// \p G with every variable but the memory M, every target but M, and the
/// GMA itself renamed for request \p Index.
gma::GMA renamed(ir::Context &Ctx, const gma::GMA &G, unsigned Index) {
  const std::string Suffix = strFormat("_r%u", Index);
  std::unordered_map<ir::OpId, ir::TermId> Subst;
  for (ir::OpId V : gma::gmaInputs(Ctx, G)) {
    std::string Name = Ctx.Ops.info(V).Name;
    if (Name != "M")
      Subst.emplace(V, Ctx.Terms.makeVar(Name + Suffix));
  }
  auto Sub = [&](ir::TermId T) { return Ctx.Terms.substitute(T, Subst); };
  gma::GMA Out = G;
  Out.Name = strFormat("req%u", Index);
  if (Out.Guard)
    Out.Guard = Sub(*Out.Guard);
  for (size_t I = 0; I < Out.NewVals.size(); ++I) {
    Out.NewVals[I] = Sub(Out.NewVals[I]);
    if (Out.Targets[I] != "M")
      Out.Targets[I] += Suffix;
  }
  for (ir::TermId &A : Out.MissAddrs)
    A = Sub(A);
  for (gma::GMA::Assumption &A : Out.Assumptions) {
    A.Lhs = Sub(A.Lhs);
    A.Rhs = Sub(A.Rhs);
  }
  return Out;
}

Request makeRequest(ir::Context &Ctx, const Stream &S, size_t Skeleton,
                    unsigned Index) {
  Request R;
  R.Skeleton = Skeleton;
  R.Gma = renamed(Ctx, S.Skeletons[Skeleton], Index);
  R.Text = verify::printGma(Ctx, R.Gma);
  return R;
}

Stream serveStream(ir::Context &Ctx, uint64_t Seed) {
  verify::GmaGen Gen(Ctx, Seed);
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 1);
  Stream S;
  S.BlockSize = ServeRequests;
  for (unsigned I = 0; I < ServeRequests; ++I) {
    size_t Skel;
    if (S.Skeletons.empty() || Rng() % 100 < NewSkeletonPercent) {
      S.Skeletons.push_back(Gen.next());
      Skel = S.Skeletons.size() - 1;
    } else {
      Skel = Rng() % S.Skeletons.size();
    }
    S.Requests.push_back(makeRequest(Ctx, S, Skel, I));
  }
  return S;
}

/// \returns the replay stream, or an empty one with \p Err set when a
/// program does not translate.
Stream replayStream(ir::Context &Ctx, const std::vector<ProgramSpec> &Programs,
                    uint64_t Seed, std::string &Err) {
  Stream S;
  for (const ProgramSpec &P : Programs) {
    std::optional<lang::Module> M = lang::parseAnyModule(P.Source, &Err);
    if (!M)
      return Stream();
    std::vector<gma::GMA> Gmas;
    for (const lang::Proc &Proc : M->Procs) {
      std::optional<std::vector<gma::GMA>> G =
          gma::translateProc(Ctx, Proc, &Err);
      if (!G)
        return Stream();
      Gmas.insert(Gmas.end(), G->begin(), G->end());
    }
    if (Gmas.size() != P.Cycles.size()) {
      Err = strFormat("%s: %zu GMAs, expected %zu", P.Name.c_str(),
                      Gmas.size(), P.Cycles.size());
      return Stream();
    }
    S.Skeletons.insert(S.Skeletons.end(), Gmas.begin(), Gmas.end());
    S.Cycles.insert(S.Cycles.end(), P.Cycles.begin(), P.Cycles.end());
  }
  std::mt19937_64 Rng(Seed);
  S.BlockSize = S.Skeletons.size() * ReplayCopies;
  std::vector<size_t> Block;
  for (size_t Skel = 0; Skel < S.Skeletons.size(); ++Skel)
    Block.insert(Block.end(), ReplayCopies, Skel);
  for (unsigned B = 0; B < ReplayBlocks; ++B) {
    std::shuffle(Block.begin(), Block.end(), Rng);
    for (size_t Skel : Block)
      S.Requests.push_back(makeRequest(
          Ctx, S, Skel, static_cast<unsigned>(S.Requests.size())));
  }
  return S;
}

struct Outcome {
  size_t Req = 0;
  double ClientMs = 0;
  bool Traced = false;
  server::ServerResponse Resp;
};

/// A "no program within the ceiling" answer.
bool exhausted(const driver::GmaResult &R) {
  const std::string &Why = R.Error.empty() ? R.Search.Error : R.Error;
  return !R.Search.Found && Why.rfind("no program within", 0) == 0;
}

} // namespace

bool runServer(const RunOptions &O, Report &R, uint64_t &Attempted,
               uint64_t &Failed) {
  const bool Replay = O.Workload == "replay";
  const unsigned Clients = clientsOf(Replay);
  bool Correct = true;
  auto fail = [&](const std::string &What) {
    ++Failed;
    if (Failed <= 5)
      std::fprintf(stderr, "perfbench: %s\n", What.c_str());
    Correct = false;
  };

  std::vector<std::unique_ptr<Tracer>> Tracers;
  for (unsigned C = 0; C <= Clients; ++C)
    Tracers.push_back(std::make_unique<Tracer>(uint64_t(C) << 48));
  Tracer &Main = *Tracers[Clients];
  std::unique_ptr<server::CompileServer> Server;
  uint64_t Servers = 0;
  auto startServer = [&] {
    Server.reset();
    uint64_t Sp =
        Main.begin("server.construct", 0, ConstructUnitBase + Servers++);
    Server = std::make_unique<server::CompileServer>(shippedOptions());
    Main.end(Sp);
  };

  // Skeleton -> (answered with a program, its cycles).
  std::unordered_map<size_t, std::pair<bool, unsigned>> Answer;
  const std::vector<ProgramSpec> Programs =
      Replay ? loadPrograms(O) : std::vector<ProgramSpec>();

  // Set-up, repeated: build the request stream and start a server; on
  // replay, compile each skeleton once through it for its reference
  // answer.
  std::unique_ptr<driver::Superoptimizer> Gen;
  Stream S;
  std::vector<double> SetupS, SetupCalibrationMs;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    for (int I = 0; I < SetupCalibrations; ++I)
      SetupCalibrationMs.push_back(calibrationMs(HitKeys));
    const int64_t Start = nowNs();
    Gen = std::make_unique<driver::Superoptimizer>(shippedOptions().Pipeline);
    std::string Err;
    S = Replay ? replayStream(Gen->context(), Programs, O.Seed, Err)
               : serveStream(Gen->context(), O.Seed);
    if (S.Requests.empty()) {
      std::fprintf(stderr, "perfbench: replay stream: %s\n", Err.c_str());
      std::exit(2);
    }
    startServer();
    for (size_t Skel = 0; Skel < S.Cycles.size(); ++Skel) {
      server::ServerResponse Resp = Server->compileText(
          verify::printGma(Gen->context(), S.Skeletons[Skel]));
      const driver::GmaResult &Res = Resp.Result;
      const std::string What = strFormat("skeleton %zu (set-up)", Skel);
      if (!Res.ok())
        fail(What + ": " + (Res.Error.empty() ? Res.Search.Error : Res.Error));
      else if (Res.Search.Cycles != S.Cycles[Skel])
        fail(strFormat("%s: %u cycles, expected %u", What.c_str(),
                       Res.Search.Cycles, S.Cycles[Skel]));
      else if (std::optional<std::string> Bad = Server->opt().verify(Res))
        fail(What + ": oracle: " + *Bad);
      Answer[Skel] = {Res.ok(), Res.Search.Cycles};
    }
    SetupS.push_back((nowNs() - Start) / 1e9);
  }

  const size_t MaxNodes = shippedOptions().Pipeline.Matching.MaxNodes;
  std::vector<double> Plain, TracedMs, HitS, ColdS, ColdUnattributedMs,
      CalibrationMs;
  WorkCounts ColdWork;
  double ColdResponses = 0, Hits = 0, LowerBound = 0, Exhausted = 0;
  double DupCold = 0, ClientSeconds = 0;
  std::unordered_set<uint64_t> ColdUnits;
  const int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  const size_t Blocks = S.Requests.size() / S.BlockSize;
  unsigned Passes = 0;
  for (; nowNs() < Deadline; ++Passes) {
    CalibrationMs.push_back(calibrationMs(HitKeys));
    startServer();
    const size_t First = (Passes % Blocks) * S.BlockSize;
    const uint64_t UnitBase = uint64_t(Passes) * S.BlockSize;
    std::atomic<size_t> Next{0};
    std::vector<std::vector<Outcome>> Done(Clients);
    const int64_t PassStart = nowNs();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        while (nowNs() < Deadline) {
          const size_t I = Next.fetch_add(1);
          if (I >= S.BlockSize)
            break;
          const Request &Q = S.Requests[First + I];
          Outcome Out;
          Out.Req = First + I;
          Out.Traced = O.Trace && I % 2 == 1;
          Tracer *T = Out.Traced ? Tracers[C].get() : nullptr;
          const uint64_t Unit = UnitBase + I;
          uint64_t Root = T ? T->begin("server.compileText", 0, Unit) : 0;
          const int64_t Start = nowNs();
          Out.Resp = Server->compileText(Q.Text);
          Out.ClientMs = (nowNs() - Start) / 1e6;
          if (T) {
            T->end(Root);
            uint64_t Inside =
                T->derived("server.inside", Root, Out.Resp.Seconds);
            if (Out.Resp.Source != server::ResultSource::CacheHit)
              traceGma(*T, Inside, Out.Resp.Result,
                       Out.Resp.Source == server::ResultSource::Cold);
            uint64_t Sp = T->begin("server.canon", 0, Unit);
            server::canonicalizeGma(Gen->context(), Q.Gma);
            T->end(Sp);
          }
          Done[C].push_back(std::move(Out));
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    ClientSeconds += (nowNs() - PassStart) / 1e9;

    // Check the pass: oracle, and one answer per skeleton.
    std::unordered_set<size_t> Seen;
    for (std::vector<Outcome> &Client : Done)
      for (Outcome &Out : Client) {
        ++Attempted;
        const driver::GmaResult &Res = Out.Resp.Result;
        const size_t Skel = S.Requests[Out.Req].Skeleton;
        const uint64_t Unit = UnitBase + Out.Req - First;
        Seen.insert(Skel);
        (Out.Traced ? TracedMs : Plain).push_back(Out.ClientMs);
        switch (Out.Resp.Source) {
        case server::ResultSource::CacheHit:
          ++Hits;
          HitS.push_back(Out.Resp.Seconds);
          break;
        case server::ResultSource::Cold:
          ++ColdResponses;
          ColdS.push_back(Out.Resp.Seconds);
          ColdUnattributedMs.push_back(
              (Out.Resp.Seconds - Res.MatchSeconds - Res.Search.WallSeconds) *
              1e3);
          ColdWork += countsOf(Res, MaxNodes);
          if (Out.Traced)
            ColdUnits.insert(Unit);
          break;
        case server::ResultSource::WarmGraph:
          break;
        }
        const bool Ok = Res.ok();
        if (!Ok && (Replay || !exhausted(Res))) {
          const std::string &Why =
              Res.Error.empty() ? Res.Search.Error : Res.Error;
          fail(strFormat("request %zu: %s", Out.Req, Why.c_str()));
          continue;
        }
        Exhausted += !Ok;
        LowerBound += Ok && Res.Search.LowerBoundProved;
        auto [It, Fresh] = Answer.try_emplace(Skel, Ok, Res.Search.Cycles);
        if (!Fresh && It->second != std::make_pair(Ok, Res.Search.Cycles)) {
          fail(strFormat("request %zu (%s): skeleton %zu answered %u cycles "
                         "before, %u now",
                         Out.Req, server::resultSourceName(Out.Resp.Source),
                         Skel, It->second.second, Res.Search.Cycles));
          continue;
        }
        if (!Ok)
          continue;
        uint64_t Sp = Out.Traced ? Main.begin("driver.verify", 0, Unit) : 0;
        std::optional<std::string> Bad = Server->opt().verify(Res);
        if (Out.Traced)
          Main.end(Sp);
        if (Bad)
          fail(strFormat("request %zu: oracle: %s", Out.Req, Bad->c_str()));
      }
    server::ServerStats St = Server->stats();
    DupCold += static_cast<double>(St.ColdCompiles) -
               static_cast<double>(Seen.size());
    if (Passes == 0)
      R.note(strFormat("pass 1: %zu requests over %zu skeletons: %llu cold, "
                       "%llu warm, %llu cache-served; evictions: %llu "
                       "results, %llu warm graphs",
                       static_cast<size_t>(St.Requests), Seen.size(),
                       static_cast<unsigned long long>(St.ColdCompiles),
                       static_cast<unsigned long long>(St.WarmCompiles),
                       static_cast<unsigned long long>(St.CacheServes),
                       static_cast<unsigned long long>(
                           St.ResultCache.Evictions),
                       static_cast<unsigned long long>(
                           St.GraphMemo.Evictions)));
  }
  Server.reset();

  EndToEnd E;
  E.Request = true;
  E.P50Note = "client-observed compileText latency";
  E.Samples = Plain.size();
  E.P50Ms = median(Plain);
  E.TailMs = percentile(Plain, 99);
  E.OpsPerS = ratio(static_cast<double>(Attempted), ClientSeconds);
  E.CalibrationMs = median(CalibrationMs);
  E.Calibrations = CalibrationMs.size();
  E.SetupS = setupAtReference(SetupS, SetupCalibrationMs);
  E.SetupRawS = median(SetupS);
  for (const auto &[Skel, A] : Answer)
    E.CyclesSum += A.first ? A.second : 0;
  E.LowerBoundRatio = ratio(LowerBound, static_cast<double>(Attempted));
  E.FailRatio = ratio(static_cast<double>(Failed) + Exhausted,
                      static_cast<double>(Attempted));
  addEndToEnd(R, E);

  ServerFigures F;
  F.HitMsP50 = median(HitS) * 1e3;
  F.ColdMsP50 = median(ColdS) * 1e3;
  F.HitRatio = ratio(Hits, static_cast<double>(Attempted));
  F.ColdCompiles = ratio(ColdResponses, Passes);
  F.DupCold = ratio(DupCold, Passes);

  // Per layer: frontdoor, canonicalization and verification over every
  // traced request; the compile layers over the traced cold compiles;
  // construction over every server started. Counts are means per cold
  // compile, except node-cap hits, which are the run's total.
  LayerTimes Times;
  Times.CompileMs = F.ColdMsP50;
  Times.UnattributedMs = median(ColdUnattributedMs);
  double OverheadPct = 0;
  uint64_t Units = ColdS.size();
  if (O.Trace) {
    std::vector<const Tracer *> All;
    for (const std::unique_ptr<Tracer> &T : Tracers)
      All.push_back(T.get());
    std::vector<LayerTimes> Requests, Cold, Construct;
    for (auto &[Unit, L] : finishTrace(All, O.TraceOut)) {
      if (Unit >= ConstructUnitBase)
        Construct.push_back(L);
      else {
        Requests.push_back(L);
        if (ColdUnits.count(Unit))
          Cold.push_back(L);
      }
    }
    Units = Cold.size();
    F.TracedRequests = Requests.size();
    F.Servers = Construct.size();
    LayerTimes Req = medianTimes(Requests);
    Times = medianTimes(Cold);
    Times.ConstructMs = medianTimes(Construct).ConstructMs;
    Times.VerifyMs = Req.VerifyMs;
    Times.CanonUs = Req.CanonUs;
    Times.FrontdoorUs = Req.FrontdoorUs;
    OverheadPct = (ratio(median(TracedMs), E.P50Ms) - 1) * 100;
    R.note(strFormat("traced: %zu requests, %zu cold compiles, %zu servers",
                     Requests.size(), Cold.size(), Construct.size()));
  }
  WorkCounts PerCold =
      ColdWork.scaled(ColdResponses > 0 ? 1 / ColdResponses : 0);
  PerCold.CapHits = ColdWork.CapHits;
  addLayerMetrics(R, Times, O.Trace, Units, PerCold, &F, OverheadPct);
  R.note(strFormat("workload %s seed %llu: %zu skeletons, %zu requests per "
                   "pass, %u passes, %llu requests in %.2f s (%.0f ceiling "
                   "exhausted), %s",
                   O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                   S.Skeletons.size(), S.BlockSize, Passes,
                   static_cast<unsigned long long>(Attempted), ClientSeconds,
                   Exhausted, O.Trace ? "odd requests traced" : "untraced"));
  return Correct;
}

} // namespace perfbench
