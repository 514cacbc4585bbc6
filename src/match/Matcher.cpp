//===- match/Matcher.cpp --------------------------------------------------===//

#include "match/Matcher.h"

#include "match/Elaborate.h"
#include "obs/Obs.h"
#include "support/Error.h"
#include "support/FunctionRef.h"
#include "support/StringExtras.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

using namespace denali;
using namespace denali::match;
using namespace denali::egraph;

namespace {

/// Operator-application count of a pattern, by explicit stack (axiom
/// sides can be arbitrarily deep; nothing in the matcher may recurse on
/// pattern or graph depth).
size_t patternAppCount(const Axiom &A, PatternId Root) {
  size_t Count = 0;
  std::vector<PatternId> Stack{Root};
  while (!Stack.empty()) {
    PatternId P = Stack.back();
    Stack.pop_back();
    const PatternNode &N = A.pattern(P);
    if (N.TheKind != PatternNode::Kind::App)
      continue;
    ++Count;
    Stack.insert(Stack.end(), N.Children.begin(), N.Children.end());
  }
  return Count;
}

/// Levels of App atoms in pattern \p Id (0 for Var/Const), by explicit
/// stack like patternAppCount.
unsigned appHeight(const Axiom &A, PatternId Id) {
  unsigned Height = 0;
  std::vector<std::pair<PatternId, unsigned>> Stack{{Id, 1}};
  while (!Stack.empty()) {
    auto [P, Depth] = Stack.back();
    Stack.pop_back();
    const PatternNode &N = A.pattern(P);
    if (N.TheKind != PatternNode::Kind::App)
      continue;
    Height = std::max(Height, Depth);
    for (PatternId C : N.Children)
      Stack.push_back({C, Depth + 1});
  }
  return Height;
}

/// What the semi-naive filter needs to know about one trigger, computed
/// once per saturation, the first time the trigger has roots to match.
struct TriggerShape {
  unsigned NumApps = 0; ///< App atoms in the trigger.
  /// (child index, h - 1) for each App child of App height h: a root
  /// whose own epoch is old can only start a new match through a class
  /// changed within h levels below one of these children, which is what
  /// classChangedWithin(child, h - 1) reports.
  std::vector<std::pair<size_t, unsigned>> Reach;
  /// False when some child is deeper than the graph summarizes: then
  /// every root is a candidate.
  bool Prunable = true;

  TriggerShape(const Axiom &A, PatternId Trigger)
      : NumApps(static_cast<unsigned>(patternAppCount(A, Trigger))) {
    const PatternNode &Root = A.pattern(Trigger);
    for (size_t I = 0; I < Root.Children.size(); ++I) {
      unsigned H = appHeight(A, Root.Children[I]);
      if (H > EGraph::ChangeLevels)
        Prunable = false;
      else if (H > 0)
        Reach.push_back({I, H - 1});
    }
  }
};

/// Backtracking e-matcher for one axiom over a slice of the trigger's root
/// nodes. Matches are reported through OnMatch; the engine never mutates
/// the graph (matches are collected and instantiated afterwards), which is
/// what lets work items run concurrently on a frozen graph.
///
/// The search is semi-naive: it enumerates only matches that bind at least
/// one node stamped past \p Since (the epoch of the axiom's last complete
/// enumeration) — the root by its nodeEpoch, every other atom by its
/// memberEpoch (a root's class plays no part in its matches). A root that
/// is not new is skipped outright when no class within its trigger's
/// child heights changed either; and once the search reaches the
/// trigger's last App atom (in binding order) with no new node bound, that
/// atom scans only new members of its class. Since = 0 is a full scan.
///
/// The backtracking search is continuation-passing, but the continuations
/// are non-owning FunctionRefs into stack frames of the search itself —
/// the inner loop of saturation performs no heap allocation (a
/// std::function per pattern node per candidate used to dominate the
/// matcher's profile).
class MatchEngine {
public:
  /// OnMatch returns false to stop the enumeration (budget caps).
  MatchEngine(const EGraph &G, const Axiom &A, uint32_t Since,
              FunctionRef<bool(const std::vector<ClassId> &)> OnMatch)
      : G(G), A(A), Since(Since), OnMatch(OnMatch),
        Bindings(A.VarNames.size(), 0), Bound(A.VarNames.size(), 0) {}

  /// Matches \p Trigger against the root nodes in [Begin, End) — a slice
  /// of G.nodesWithOp(trigger op). Slices partition the root list in
  /// order, so concatenating slice outputs in slice order reproduces the
  /// full sequential enumeration order exactly. \returns the number of
  /// roots skipped by the semi-naive filter.
  uint64_t run(PatternId Trigger, const TriggerShape &Shape,
               const ENodeId *Begin, const ENodeId *End) {
    const PatternNode &Root = A.pattern(Trigger);
    assert(Root.TheKind == PatternNode::Kind::App && "trigger must be App");
    NumApps = Shape.NumApps;
    // The engine only reads the graph and the match callback only collects
    // (instantiation happens after every work item has run), so the op
    // index is stable here — no defensive copy. Retired nodes in the
    // index are skipped.
    auto Report = [&] {
      if (!OnMatch(Bindings))
        Stopped = true;
    };
    uint64_t Pruned = 0;
    for (const ENodeId *I = Begin; I != End && !Stopped; ++I) {
      const ENode &N = G.node(*I);
      if (!N.Alive)
        continue;
      const bool New = G.nodeEpoch(*I) > Since;
      if (!New && Shape.Prunable &&
          std::none_of(Shape.Reach.begin(), Shape.Reach.end(),
                       [&](const auto &R) {
                         return G.classChangedWithin(N.Children[R.first],
                                                     R.second) > Since;
                       })) {
        ++Pruned;
        continue;
      }
      BoundApps = 1;
      BoundNew = New;
      matchChildren(Root, *I, 0, Report);
    }
    return Pruned;
  }

private:
  const EGraph &G;
  const Axiom &A;
  const uint32_t Since;
  FunctionRef<bool(const std::vector<ClassId> &)> OnMatch;
  std::vector<ClassId> Bindings;
  std::vector<uint8_t> Bound;
  bool Stopped = false;
  unsigned NumApps = 0;   ///< App atoms in the trigger.
  unsigned BoundApps = 0; ///< App atoms bound on the current search path.
  unsigned BoundNew = 0;  ///< Of those, nodes past Since.

  using Cont = FunctionRef<void()>;

  void matchChildren(const PatternNode &P, ENodeId N, size_t Idx, Cont K) {
    if (Stopped)
      return;
    if (Idx == P.Children.size()) {
      K();
      return;
    }
    ClassId ChildClass = G.node(N).Children[Idx];
    auto Rest = [&, Idx] { matchChildren(P, N, Idx + 1, K); };
    matchClass(P.Children[Idx], ChildClass, Rest);
  }

  void matchClass(PatternId PId, ClassId C, Cont K) {
    if (Stopped)
      return;
    const PatternNode &P = A.pattern(PId);
    C = G.find(C);
    switch (P.TheKind) {
    case PatternNode::Kind::Var: {
      uint32_t V = P.VarIndex;
      if (Bound[V]) {
        if (G.find(Bindings[V]) == C)
          K();
        return;
      }
      Bound[V] = 1;
      Bindings[V] = C;
      K();
      Bound[V] = 0;
      return;
    }
    case PatternNode::Kind::Const: {
      std::optional<uint64_t> K2 = G.classConstant(C);
      if (K2 && *K2 == P.ConstVal)
        K();
      return;
    }
    case PatternNode::Kind::App: {
      // E-matching proper: search the whole equivalence class for nodes
      // with the right operator (Figure 2's 2**2 inside 4's class). Atoms
      // bind in pattern pre-order, so every other App atom is bound when
      // the last one is reached: with nothing new bound by then, only a
      // new node here can make the match new.
      const bool OnlyNew = BoundApps + 1 == NumApps && BoundNew == 0;
      G.forEachClassNode(C, [&](ENodeId N) {
        if (Stopped || G.node(N).Op != P.Op)
          return;
        const bool New = G.memberEpoch(N) > Since;
        if (OnlyNew && !New)
          return;
        ++BoundApps;
        BoundNew += New;
        matchChildren(P, N, 0, K);
        --BoundApps;
        BoundNew -= New;
      });
      return;
    }
    }
  }
};

/// One unit of the per-round match loop: one axiom trigger against one
/// slice of the trigger's root-node list. Items are built in a fixed
/// order (axiom, trigger, slice) that does not depend on the thread
/// count, and each item caps its enumeration at thread-independent
/// limits — so the merged result (and every statistic derived from it) is
/// identical whether items run inline or fan out across a pool.
///
/// Workers filter matches against the matcher's queued set, which is
/// frozen for the whole match phase (inserts happen only in the
/// single-threaded merge phase) — concurrent lookups are data-race-free
/// and, crucially, every filter decision is independent of what other
/// items do, keeping the round deterministic. Survivors carry their
/// 1-based raw-match index so the merge phase can truncate at exactly the
/// axiom's budget across item boundaries, and their key hash so it need
/// not hash them again.
struct WorkItem {
  uint32_t AxiomIdx = 0;
  PatternId Trigger = 0;
  const TriggerShape *Shape = nullptr;
  size_t Begin = 0, End = 0;  ///< Root slice in nodesWithOp(trigger op).
  uint64_t RawCap = 0;        ///< Stop enumerating at this many raw matches.
  size_t StoreCap = 0;        ///< Stop after this many stored survivors.
  uint64_t Raw = 0;           ///< Matches enumerated (pre-dedup).
  uint64_t Deduped = 0;       ///< Filtered against the queued set.
  uint64_t Pruned = 0;        ///< Roots skipped by the semi-naive filter.
  struct Survivor {
    uint64_t Raw;  ///< 1-based raw-match index within the item.
    uint32_t Hash; ///< Key hash of (axiom, bindings).
  };
  std::vector<Survivor> Matches;
  /// Survivor I's canonical bindings: the I-th run of the axiom's
  /// variable count.
  std::vector<ClassId> MatchBindings;
  bool Capped = false;        ///< Enumeration stopped at a cap.
  uint64_t Ns = 0;            ///< Wall time enumerating this item.
};

/// Root-slice granularity. Chunking is by this fixed size — never by the
/// thread count — so the work-item list (and with it every per-item cap
/// decision) is the same for any --match-threads value.
constexpr size_t RootChunk = 1024;

/// The next power of two >= \p V (for adaptive budget seeding: budgets
/// stay on the same doubling ladder the blind backoff walks).
uint64_t roundUpPow2(uint64_t V) {
  uint64_t P = 1;
  while (P < V && P < (1ull << 62))
    P <<= 1;
  return P;
}

} // namespace

unsigned Matcher::axiomPhase(const Axiom &A) {
  // Expansive: some equality rewrites one side into a materially larger
  // one (k*x -> shifts/adds style decompositions). Those blow the graph
  // up, so under --match-phases they wait for the cheap phase to quiesce.
  for (const AxiomLiteral &L : A.Body) {
    if (!L.IsEq)
      continue;
    size_t Lhs = patternAppCount(A, L.Lhs);
    size_t Rhs = patternAppCount(A, L.Rhs);
    size_t Diff = Lhs > Rhs ? Lhs - Rhs : Rhs - Lhs;
    if (Diff >= 2)
      return 1;
  }
  return 0;
}

uint32_t Matcher::keyHash(uint32_t AxiomIdx, const ClassId *Bindings) const {
  uint64_t H = hashMix(0, AxiomIdx);
  for (size_t I = 0, N = Axioms[AxiomIdx].VarNames.size(); I < N; ++I)
    H = hashMix(H, Bindings[I]);
  return hashFinish(H);
}

bool Matcher::keyEquals(uint32_t Off, uint32_t AxiomIdx,
                        const ClassId *Bindings) const {
  if (KeyArena[Off] != AxiomIdx)
    return false;
  const uint32_t *Stored = KeyArena.data() + Off + 1;
  return std::equal(Bindings, Bindings + Axioms[AxiomIdx].VarNames.size(),
                    Stored);
}

ClassId Matcher::instantiate(EGraph &G, const Axiom &A, PatternId Root,
                             const ClassId *Bindings) {
  // Post-order by explicit stack with a value stack: each App pops its
  // children's classes. Stress axioms nest deeply enough that recursing
  // here was the one remaining unbounded-depth path under saturation.
  InstStack.clear();
  InstStack.push_back({Root, 0});
  InstValues.clear();
  while (!InstStack.empty()) {
    InstFrame &F = InstStack.back();
    const PatternNode &P = A.pattern(F.P);
    switch (P.TheKind) {
    case PatternNode::Kind::Var:
      InstValues.push_back(Bindings[P.VarIndex]);
      InstStack.pop_back();
      break;
    case PatternNode::Kind::Const:
      InstValues.push_back(G.addConst(P.ConstVal));
      InstStack.pop_back();
      break;
    case PatternNode::Kind::App:
      if (F.NextChild < P.Children.size()) {
        PatternId Child = P.Children[F.NextChild++];
        InstStack.push_back({Child, 0}); // May invalidate F.
      } else {
        size_t N = P.Children.size();
        ClassId C = G.addNode(P.Op, InstValues.data() + InstValues.size() - N,
                              N);
        InstValues.resize(InstValues.size() - N);
        InstValues.push_back(C);
        InstStack.pop_back();
      }
      break;
    }
  }
  assert(InstValues.size() == 1 && "unbalanced pattern evaluation");
  return InstValues.back();
}

bool Matcher::assertInstance(EGraph &G, const Axiom &A, uint32_t AxiomIdx,
                             unsigned Round, const ClassId *Bindings) {
  uint64_t Before = G.version();
  if (A.Body.size() == 1) {
    const AxiomLiteral &L = A.Body[0];
    ClassId Lhs = instantiate(G, A, L.Lhs, Bindings);
    ClassId Rhs = instantiate(G, A, L.Rhs, Bindings);
    if (L.IsEq) {
      if (G.provenanceEnabled()) {
        const size_t NumVars = A.VarNames.size();
        G.assertEqual(Lhs, Rhs,
                      Justification::axiom(AxiomIdx, Round,
                                           G.internSubst(Bindings, NumVars),
                                           static_cast<uint32_t>(NumVars)));
      } else
        G.assertEqual(Lhs, Rhs);
    } else
      G.assertDistinct(Lhs, Rhs);
    return G.version() != Before;
  }
  // Clause: skip if some literal is already satisfied; otherwise record.
  // Under deferred rebuilding the satisfied-check can miss equalities the
  // pending rebuild has not yet propagated — that only admits a redundant
  // clause, which clause processing retires later; never unsoundness.
  std::vector<Literal> Lits;
  Lits.reserve(A.Body.size());
  bool Satisfied = false;
  for (const AxiomLiteral &L : A.Body) {
    ClassId Lhs = instantiate(G, A, L.Lhs, Bindings);
    ClassId Rhs = instantiate(G, A, L.Rhs, Bindings);
    if (L.IsEq ? G.sameClass(Lhs, Rhs) : G.areDistinct(Lhs, Rhs))
      Satisfied = true;
    Lits.push_back(L.IsEq ? Literal::eq(Lhs, Rhs) : Literal::ne(Lhs, Rhs));
  }
  if (!Satisfied)
    G.addClause(std::move(Lits));
  return G.version() != Before;
}

MatchStats Matcher::saturate(EGraph &G, const MatchLimits &Limits) {
  MatchStats Stats;
  obs::ObsSpan SatSpan("match.saturate");

  // Saturation owns the rebuild schedule: batched per round unless the
  // caller pins the old per-assert behavior (--match-eager-rebuild).
  RebuildMode PrevMode = G.rebuildMode();
  G.setRebuildMode(Limits.EagerRebuild ? RebuildMode::Eager
                                       : RebuildMode::Deferred);
  RebuildStats BaseRB = G.rebuildStats();

  // Per-axiom scheduling state for this run.
  const size_t NumAxioms = Axioms.size();
  // Trigger shapes, flat: axiom I's triggers start at ShapeBase[I].
  std::vector<size_t> ShapeBase(NumAxioms + 1, 0);
  for (size_t I = 0; I < NumAxioms; ++I)
    ShapeBase[I + 1] = ShapeBase[I] + Axioms[I].Triggers.size();
  std::vector<std::optional<TriggerShape>> Shapes(ShapeBase[NumAxioms]);
  std::vector<uint64_t> BudgetNow(NumAxioms, Limits.MatchBudget);
  std::vector<uint8_t> SitOut(NumAxioms, 0);
  std::vector<unsigned> Phase(NumAxioms, 0);
  unsigned MaxPhase = 0, CurrentPhase = 0;
  if (Limits.Phased)
    for (size_t I = 0; I < NumAxioms; ++I) {
      Phase[I] = axiomPhase(Axioms[I]);
      MaxPhase = std::max(MaxPhase, Phase[I]);
    }

  // Per-axiom attribution rows (the saturation profiler's raw output).
  const bool ProfileOn = Limits.Profile;
  if (ProfileOn)
    Stats.PerAxiom.assign(NumAxioms, obs::AxiomProfile());

  // Adaptive scheduling (--match-adaptive): replace "uniform budget +
  // blind doubling" with history. Two moves, both pure schedule changes
  // that re-enter held-back work through the existing backoff /
  // phase-advance machinery (so quiescent closure is unchanged):
  //   * Demote axioms whose recorded runs never changed the graph behind
  //     every scheduled phase; their enumeration cost is paid only after
  //     the productive set quiesces.
  //   * Seed each productive axiom's budget at its historical per-run raw
  //     demand (next power of two — the backoff ladder), so early rounds
  //     stop burning truncated enumerations and sit-outs discovering it.
  //     Seeding needs an active budget scheduler (MatchBudget > 0);
  //     yield-per-microsecond ordering gives the top half 2x headroom.
  bool PhasedRun = Limits.Phased;
  if (Limits.Adaptive && Limits.Ledger) {
    const unsigned DemotePhase = MaxPhase + 1;
    struct Hist {
      size_t Idx;
      obs::AxiomProfile P;
    };
    std::vector<Hist> Productive;
    bool AnyDemoted = false;
    for (size_t I = 0; I < NumAxioms; ++I) {
      if (Axioms[I].VarNames.empty())
        continue; // Ground facts are exempt from scheduling.
      obs::AxiomProfile P;
      if (!Limits.Ledger->lookup(Limits.LedgerKey,
                                 axiomLedgerId(Axioms[I], I), P) ||
          P.Runs == 0)
        continue; // No history: PR 6 defaults for this axiom.
      if (P.Instances == 0 && P.Merges == 0) {
        Phase[I] = DemotePhase;
        AnyDemoted = true;
        ++Stats.AdaptiveDemoted;
      } else if (Limits.MatchBudget) {
        Productive.push_back(Hist{I, P});
      }
    }
    if (AnyDemoted) {
      PhasedRun = true;
      MaxPhase = std::max(MaxPhase, DemotePhase);
    }
    if (!Productive.empty()) {
      std::sort(Productive.begin(), Productive.end(),
                [](const Hist &A, const Hist &B) {
                  double Ya = A.P.yieldPerUs(), Yb = B.P.yieldPerUs();
                  if (Ya != Yb)
                    return Ya > Yb;
                  return A.Idx < B.Idx;
                });
      for (size_t R = 0; R < Productive.size(); ++R) {
        const Hist &H = Productive[R];
        uint64_t PerRun = H.P.Raw / H.P.Runs + 1;
        uint64_t Seeded =
            roundUpPow2(std::max(PerRun, Limits.MatchBudget));
        if (R * 2 < Productive.size())
          Seeded *= 2;
        BudgetNow[H.Idx] = std::max(BudgetNow[H.Idx], Seeded);
        ++Stats.AdaptiveSeeded;
      }
    }
  }

  std::unique_ptr<support::ThreadPool> Pool;
  // Per-worker busy-time slots (match.sched.par.*): each slot is written
  // only by the pool worker that owns it and read only after the round's
  // futures have joined — TSan-clean by construction.
  std::vector<uint64_t> WorkerBusyNs;

  for (unsigned Round = 0; Round < Limits.MaxRounds; ++Round) {
    ++Stats.Rounds;
    obs::ObsSpan RoundSpan("match.round");
    uint64_t RoundMatches = Stats.MatchesFound;
    uint64_t RoundDeduped = Stats.InstancesDeduped;
    uint64_t RoundAsserted = Stats.InstancesAsserted;
    uint64_t RoundOverflows = Stats.BudgetOverflows;
    uint64_t RoundSkips = Stats.BudgetSkips;
    uint64_t RoundPruned = Stats.RootsPruned;
    uint64_t RoundRebuilds = G.rebuildStats().Rebuilds;
    uint64_t RoundMerges = G.rebuildStats().Merges;
    uint64_t RoundStart = G.version();
    bool SchedHeldBack = false; // Some axiom sat out or was truncated.

    for (const Elaborator &E : Elaborators)
      E(G);
    // Close over last round's instances and the elaborators' facts before
    // matching (no-op when nothing is pending / in eager mode).
    G.rebuild();
    if (G.isInconsistent())
      break;
    // Everything changed from here on is new to this round's complete
    // enumerations.
    const uint32_t Epoch = G.beginMatchPhase();

    // Which axioms match this round, and at what budget.
    std::vector<uint8_t> Active(NumAxioms, 1);
    for (size_t I = 0; I < NumAxioms; ++I) {
      if (Axioms[I].VarNames.empty())
        continue; // Ground facts are exempt from scheduling.
      if (PhasedRun && Phase[I] > CurrentPhase) {
        Active[I] = 0;
        continue;
      }
      if (SitOut[I]) {
        // Backoff: sit this round out; the budget was already doubled.
        SitOut[I] = 0;
        Active[I] = 0;
        ++Stats.BudgetSkips;
        if (ProfileOn)
          ++Stats.PerAxiom[I].Skips;
        SchedHeldBack = true;
      }
    }

    // Build the round's work items in fixed (axiom, trigger, slice)
    // order. Per-item caps keep memory bounded and make budget
    // truncation deterministic: an item's share of its axiom's first
    // `budget` raw matches is at most `budget`, so capping enumeration
    // at budget+1 never drops a match the merge phase would keep, and a
    // hit cap always proves a genuine overflow.
    std::vector<WorkItem> Items;
    std::vector<std::pair<size_t, size_t>> AxiomItems(NumAxioms, {0, 0});
    for (uint32_t AIdx = 0; AIdx < NumAxioms; ++AIdx) {
      AxiomItems[AIdx].first = Items.size();
      const Axiom &A = Axioms[AIdx];
      if (Active[AIdx] && !A.VarNames.empty()) {
        uint64_t RawCap = BudgetNow[AIdx] ? BudgetNow[AIdx] + 1 : UINT64_MAX;
        for (size_t T = 0; T < A.Triggers.size(); ++T) {
          PatternId Trigger = A.Triggers[T];
          size_t NumRoots = G.nodesWithOp(A.pattern(Trigger).Op).size();
          std::optional<TriggerShape> &Shape = Shapes[ShapeBase[AIdx] + T];
          if (NumRoots && !Shape)
            Shape.emplace(A, Trigger);
          for (size_t B = 0; B < NumRoots; B += RootChunk) {
            WorkItem It;
            It.AxiomIdx = AIdx;
            It.Trigger = Trigger;
            It.Shape = &*Shape;
            It.Begin = B;
            It.End = std::min(B + RootChunk, NumRoots);
            It.RawCap = RawCap;
            It.StoreCap = Limits.MaxInstancesPerRound + 1;
            Items.push_back(std::move(It));
          }
        }
      }
      AxiomItems[AIdx].second = Items.size();
    }

    // One work item: enumerate, canonicalize into a reused scratch key,
    // filter against the frozen queued set, store survivors. Locals move
    // into the shared item once at the end so concurrent workers never
    // write interleaved cache lines while the loop is hot.
    auto RunItem = [&](WorkItem &It) {
      const int64_t T0 = ProfileOn ? obs::nowNs() : 0;
      const Axiom &A = Axioms[It.AxiomIdx];
      const std::vector<ENodeId> &Roots =
          G.nodesWithOp(A.pattern(It.Trigger).Op);
      uint64_t Raw = 0, Deduped = 0;
      bool Capped = false;
      std::vector<WorkItem::Survivor> Matches;
      std::vector<ClassId> MatchBindings;
      std::vector<ClassId> Scratch(A.VarNames.size());
      auto OnMatch = [&](const std::vector<ClassId> &Bs) -> bool {
        ++Raw;
        for (size_t I = 0; I < Bs.size(); ++I)
          Scratch[I] = G.find(Bs[I]);
        const uint32_t Hash = keyHash(It.AxiomIdx, Scratch.data());
        if (Queued.find(Hash, [&](uint32_t Off) {
              return keyEquals(Off, It.AxiomIdx, Scratch.data());
            }) != FlatIndex::NotFound) {
          ++Deduped;
        } else {
          Matches.push_back({Raw, Hash});
          MatchBindings.insert(MatchBindings.end(), Scratch.begin(),
                               Scratch.end());
        }
        if (Raw >= It.RawCap || Matches.size() >= It.StoreCap) {
          Capped = true;
          return false;
        }
        return true;
      };
      MatchEngine Engine(G, A, MatchedThrough[It.AxiomIdx], OnMatch);
      It.Pruned = Engine.run(It.Trigger, *It.Shape, Roots.data() + It.Begin,
                             Roots.data() + It.End);
      It.Raw = Raw;
      It.Deduped = Deduped;
      It.Capped = Capped;
      It.Matches = std::move(Matches);
      It.MatchBindings = std::move(MatchBindings);
      if (ProfileOn) {
        It.Ns = static_cast<uint64_t>(obs::nowNs() - T0);
        // Attribute the item's wall time to the worker that ran it (slot
        // -1 = inline on the caller; only pool workers have slots).
        int W = support::ThreadPool::currentWorkerId();
        if (W >= 0 && static_cast<size_t>(W) < WorkerBusyNs.size())
          WorkerBusyNs[static_cast<size_t>(W)] += It.Ns;
      }
    };

    // Match generation: read-only against graph and queued set, so items
    // may run concurrently once union-find paths are fully compressed
    // (every find() is then a pure read). Instantiation and merging stay
    // single-threaded.
    if (Limits.Threads > 1 && Items.size() > 1) {
      G.compressPaths();
      if (!Pool) {
        Pool = std::make_unique<support::ThreadPool>(Limits.Threads);
        WorkerBusyNs.assign(Pool->numThreads(), 0);
      }
      ++Stats.ParRounds;
      Stats.ParItems += Items.size();
      for (const WorkItem &It : Items)
        Stats.ParChunkRoots += It.End - It.Begin;
      std::vector<std::future<void>> Futures;
      Futures.reserve(Items.size());
      for (WorkItem &It : Items)
        Futures.push_back(Pool->submit([&RunItem, &It] { RunItem(It); }));
      for (std::future<void> &F : Futures)
        F.get();
    } else {
      for (WorkItem &It : Items)
        RunItem(It);
    }

    // Merge in item order: budget truncation, cross-item dedup, pending
    // collection. Queueing an instance inserts its key (appended to the
    // arena) into the queued set; Pending holds the arena offsets.
    std::vector<uint32_t> Pending;
    // Axioms whose enumeration this round was complete; only those may
    // advance their epoch (a truncated one must re-find what it dropped).
    std::vector<uint8_t> Complete(NumAxioms, 0);
    uint64_t TopRaw = 0; // This round's busiest axiom, for the round span.
    uint32_t TopAIdx = 0;
    // Queues (AIdx, Bindings) under Hash unless already queued. \returns
    // false for a duplicate.
    auto Enqueue = [&](uint32_t AIdx, const ClassId *Bindings,
                       uint32_t Hash) {
      const uint32_t Off = static_cast<uint32_t>(KeyArena.size());
      if (Queued.insert(Hash, Off, [&](uint32_t Other) {
            return keyEquals(Other, AIdx, Bindings);
          }) != Off)
        return false;
      KeyArena.push_back(AIdx);
      KeyArena.insert(KeyArena.end(), Bindings,
                      Bindings + Axioms[AIdx].VarNames.size());
      Pending.push_back(Off);
      return true;
    };
    for (uint32_t AIdx = 0; AIdx < NumAxioms; ++AIdx) {
      const Axiom &A = Axioms[AIdx];
      if (A.VarNames.empty()) {
        // Ground fact: assert once.
        Enqueue(AIdx, nullptr, keyHash(AIdx, nullptr));
        continue;
      }
      if (!Active[AIdx])
        continue;
      uint64_t Raw = 0;
      bool Truncated = false;
      for (size_t I = AxiomItems[AIdx].first; I < AxiomItems[AIdx].second;
           ++I) {
        Raw += Items[I].Raw;
        Stats.InstancesDeduped += Items[I].Deduped;
        Stats.RootsPruned += Items[I].Pruned;
        Truncated |= Items[I].Capped;
        if (ProfileOn)
          Stats.PerAxiom[AIdx].MatchNs += Items[I].Ns;
      }
      Stats.MatchesFound += Raw;
      if (ProfileOn)
        Stats.PerAxiom[AIdx].Raw += Raw;
      if (Raw > TopRaw) {
        TopRaw = Raw;
        TopAIdx = AIdx;
      }
      uint64_t Budget = BudgetNow[AIdx];
      if (Budget && Raw > Budget)
        Truncated = true;
      const size_t NumVars = A.VarNames.size();
      uint64_t PrefixRaw = 0;
      for (size_t I = AxiomItems[AIdx].first; I < AxiomItems[AIdx].second;
           ++I) {
        const WorkItem &It = Items[I];
        for (size_t M = 0; M < It.Matches.size(); ++M) {
          // Keep only survivors within the first `Budget` raw matches of
          // the sequential enumeration order.
          if (Budget && PrefixRaw + It.Matches[M].Raw > Budget)
            break;
          const ClassId *Bindings = It.MatchBindings.data() + M * NumVars;
          const uint32_t Hash = It.Matches[M].Hash;
          bool Duplicate;
          if (Pending.size() >= Limits.MaxInstancesPerRound) {
            // Dropped matches are NOT queued — the next round must be
            // able to re-find them.
            Duplicate = Queued.find(Hash, [&](uint32_t Off) {
              return keyEquals(Off, AIdx, Bindings);
            }) != FlatIndex::NotFound;
            if (!Duplicate)
              Truncated = true;
          } else {
            Duplicate = !Enqueue(AIdx, Bindings, Hash);
          }
          if (Duplicate) {
            // An earlier item (or match) this round already queued this
            // substitution: workers see the set frozen at round start.
            ++Stats.InstancesDeduped;
            ++Stats.SeenHits;
          }
        }
        PrefixRaw += It.Raw;
      }
      if (Truncated)
        SchedHeldBack = true;
      else
        Complete[AIdx] = 1;
      if (Budget && Truncated) {
        // Backoff: overflowed its budget — sit out next round, return
        // with double.
        ++Stats.BudgetOverflows;
        if (ProfileOn)
          ++Stats.PerAxiom[AIdx].Overflows;
        SitOut[AIdx] = 1;
        BudgetNow[AIdx] = Budget * 2;
      }
    }

    // Per-axiom instantiate attribution is batched over the contiguous
    // runs of one axiom's instances in Pending (the merge loop queues per
    // axiom, in order), so the clock is read twice per axiom group, not
    // twice per instance — that difference is most of the attribution
    // overhead on instance-heavy rounds. Instantiation is
    // single-threaded, so plain accumulation here is race-free. Merges
    // counts direct unions; congruence repair is batched into the round
    // rebuild and not attributable per axiom.
    uint32_t GroupAIdx = UINT32_MAX;
    int64_t GroupT0 = 0;
    uint64_t GroupMerges0 = 0;
    auto FlushGroup = [&](int64_t Now) {
      if (GroupAIdx == UINT32_MAX)
        return;
      obs::AxiomProfile &AP = Stats.PerAxiom[GroupAIdx];
      AP.InstantiateNs += static_cast<uint64_t>(Now - GroupT0);
      AP.Merges += G.rebuildStats().Merges - GroupMerges0;
    };
    size_t Instantiated = 0;
    for (; Instantiated < Pending.size(); ++Instantiated) {
      if (G.numNodes() >= Limits.MaxNodes)
        break;
      if (G.isInconsistent())
        break;
      const uint32_t Off = Pending[Instantiated];
      const uint32_t AIdx = KeyArena[Off];
      if (ProfileOn && AIdx != GroupAIdx) {
        const int64_t Now = obs::nowNs();
        FlushGroup(Now);
        GroupAIdx = AIdx;
        GroupT0 = Now;
        GroupMerges0 = G.rebuildStats().Merges;
      }
      // instantiate() never touches the arena, so the key stays put.
      bool Changed = assertInstance(G, Axioms[AIdx], AIdx, Stats.Rounds,
                                    KeyArena.data() + Off + 1);
      if (Changed) {
        ++Stats.InstancesAsserted;
        if (ProfileOn) {
          obs::AxiomProfile &AP = Stats.PerAxiom[AIdx];
          ++AP.Instances;
          if (!AP.FirstRound)
            AP.FirstRound = Stats.Rounds;
          AP.LastRound = Stats.Rounds;
        }
      }
    }
    if (ProfileOn)
      FlushGroup(obs::nowNs());
    // Instances cut off by the node cap were queued; un-queue them so a
    // later round or saturate() of this matcher can retry them.
    for (size_t I = Instantiated; I < Pending.size(); ++I) {
      const uint32_t Off = Pending[I];
      const uint32_t AIdx = KeyArena[Off];
      Queued.erase(keyHash(AIdx, KeyArena.data() + Off + 1), Off);
      Complete[AIdx] = 0;
    }
    for (size_t I = 0; I < NumAxioms; ++I)
      if (Complete[I])
        MatchedThrough[I] = Epoch;

    // The batched per-round rebuild: close congruence over everything the
    // instances merged (one repair pass instead of one per assert).
    G.rebuild();

    if (RoundSpan.active()) {
      RoundSpan.arg("round", Stats.Rounds)
          .arg("matched", Stats.MatchesFound - RoundMatches)
          .arg("deduped", Stats.InstancesDeduped - RoundDeduped)
          .arg("asserted", Stats.InstancesAsserted - RoundAsserted)
          .arg("merges", G.rebuildStats().Merges - RoundMerges)
          .arg("rebuilds", G.rebuildStats().Rebuilds - RoundRebuilds)
          .arg("sched_overflows", Stats.BudgetOverflows - RoundOverflows)
          .arg("sched_skips", Stats.BudgetSkips - RoundSkips)
          .arg("roots_pruned", Stats.RootsPruned - RoundPruned)
          .arg("enodes", static_cast<uint64_t>(G.numNodes()))
          .arg("eclasses", static_cast<uint64_t>(G.numClasses()));
      if (TopRaw)
        RoundSpan
            .arg("top_axiom",
                 axiomLedgerId(Axioms[TopAIdx], TopAIdx).c_str())
            .arg("top_axiom_raw", TopRaw);
    }

    if (G.version() == RoundStart) {
      if (SchedHeldBack)
        continue; // Budgets doubled / axioms return: more to enumerate.
      if (PhasedRun && CurrentPhase < MaxPhase) {
        ++CurrentPhase;
        ++Stats.PhaseAdvances;
        continue;
      }
      Stats.Quiesced = true;
      break;
    }
    if (G.numNodes() >= Limits.MaxNodes || G.isInconsistent())
      break;
  }

  // Leave the graph closed and restore the caller's rebuild discipline.
  G.rebuild();
  G.setRebuildMode(PrevMode);
  Stats.Merges = G.rebuildStats().Merges - BaseRB.Merges;
  Stats.CongruenceMerges =
      G.rebuildStats().CongruenceMerges - BaseRB.CongruenceMerges;
  Stats.ConstantFolds = G.rebuildStats().ConstantFolds - BaseRB.ConstantFolds;
  Stats.Rebuilds = G.rebuildStats().Rebuilds - BaseRB.Rebuilds;

  Stats.FinalNodes = G.numNodes();
  Stats.FinalClasses = G.numClasses();
  for (uint64_t Busy : WorkerBusyNs)
    Stats.ParBusyNs += Busy;
  if (obs::enabled()) {
    if (SatSpan.active())
      SatSpan.arg("rounds", Stats.Rounds)
          .arg("matched", Stats.MatchesFound)
          .arg("asserted", Stats.InstancesAsserted)
          .arg("enodes", static_cast<uint64_t>(Stats.FinalNodes))
          .arg("eclasses", static_cast<uint64_t>(Stats.FinalClasses))
          .arg("quiesced", Stats.Quiesced ? "yes" : "no");
    auto &R = obs::Registry::global();
    R.counter("match.rounds").add(Stats.Rounds);
    R.counter("match.matches").add(Stats.MatchesFound);
    R.counter("match.instances_deduped").add(Stats.InstancesDeduped);
    R.counter("match.instances_asserted").add(Stats.InstancesAsserted);
    R.counter("match.sched.budget_overflows").add(Stats.BudgetOverflows);
    R.counter("match.sched.budget_skips").add(Stats.BudgetSkips);
    R.counter("match.sched.seen_hits").add(Stats.SeenHits);
    R.counter("match.sched.roots_pruned").add(Stats.RootsPruned);
    R.counter("match.sched.phase_advances").add(Stats.PhaseAdvances);
    R.counter("match.sched.merges").add(Stats.Merges);
    R.counter("match.sched.congruence_merges").add(Stats.CongruenceMerges);
    R.counter("match.sched.constant_folds").add(Stats.ConstantFolds);
    R.counter("match.sched.rebuilds").add(Stats.Rebuilds);
    R.counter("match.sched.adaptive_seeded").add(Stats.AdaptiveSeeded);
    R.counter("match.sched.adaptive_demoted").add(Stats.AdaptiveDemoted);
    R.gauge("match.enodes").noteMax(static_cast<int64_t>(Stats.FinalNodes));
    R.gauge("match.eclasses")
        .noteMax(static_cast<int64_t>(Stats.FinalClasses));
    // Parallel match-loop accounting (satellite of the saturation
    // profiler): how much work fanned out and how evenly it landed.
    if (Stats.ParRounds) {
      R.counter("match.sched.par.rounds").add(Stats.ParRounds);
      R.counter("match.sched.par.items").add(Stats.ParItems);
      R.counter("match.sched.par.chunk_roots").add(Stats.ParChunkRoots);
      R.counter("match.sched.par.busy_us").add(Stats.ParBusyNs / 1000);
      auto &ThreadBusy = R.histogram("match.sched.par.thread_busy_us");
      for (uint64_t Busy : WorkerBusyNs)
        if (Busy)
          ThreadBusy.record(Busy / 1000);
    }
    // Per-axiom attribution rows, as a counter family keyed by ledger id.
    // Only touched rows register, so the namespace holds the axioms that
    // actually did something, not the whole rule set times seven.
    if (ProfileOn)
      for (size_t I = 0; I < NumAxioms; ++I) {
        const obs::AxiomProfile &AP = Stats.PerAxiom[I];
        if (!AP.Raw && !AP.Instances && !AP.InstantiateNs && !AP.Skips)
          continue;
        std::string Base = "match.axiom." + axiomLedgerId(Axioms[I], I);
        auto Add = [&R, &Base](const char *Leaf, uint64_t V) {
          if (V)
            R.counter(Base + Leaf).add(V);
        };
        Add(".raw", AP.Raw);
        Add(".instances", AP.Instances);
        Add(".merges", AP.Merges);
        Add(".match_us", AP.MatchNs / 1000);
        Add(".inst_us", AP.InstantiateNs / 1000);
        Add(".overflows", AP.Overflows);
        Add(".skips", AP.Skips);
      }
  }
  return Stats;
}

std::string Matcher::axiomLedgerId(const Axiom &A, size_t Idx) {
  return strFormat("%s#%zu", A.Name.c_str(), Idx);
}

void denali::match::recordMatchProfile(obs::ProfileLedger &Ledger,
                                       const std::string &GraphKey,
                                       const std::vector<Axiom> &Axioms,
                                       const MatchStats &Stats) {
  for (size_t I = 0; I < Axioms.size() && I < Stats.PerAxiom.size(); ++I) {
    if (Axioms[I].VarNames.empty())
      continue; // Ground facts are exempt from scheduling — no history.
    obs::AxiomProfile P = Stats.PerAxiom[I];
    P.Runs = 1;
    Ledger.record(GraphKey, Matcher::axiomLedgerId(Axioms[I], I), P);
  }
}

std::vector<Elaborator> denali::match::standardElaborators() {
  return {powerOfTwoElaborator(), byteMaskElaborator(),
          byteShiftElaborator(), offsetDisequalityElaborator()};
}
