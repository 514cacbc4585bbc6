//===- codegen/Encoder.h - E-graph -> SAT constraint generation -*- C++ -*-===//
///
/// \file
/// The constraint generator (paper, section 6): formulates "some K-cycle
/// EV6 program computes all the goal classes" as propositional clauses over
///
///   L(t, u, i) — a computation of machine term t is Launched on unit u at
///                the beginning of cycle i;
///   B(q, c, i) — the value of class q has been computed By the end of
///                cycle i, on cluster c.
///
/// The paper's five conditions appear as:
///   1. launch/completion linkage — folded into the B definition (the
///      paper's A variables are eliminated by inlining the latency);
///   2. operands before launch — L(t,u,i) => B(arg, cluster(u), i-1);
///   3. class computed iff some member computed — the B iff-definition;
///   4. issue exclusivity — at-most-one launch per (cycle, unit), which on
///      the quad-issue EV6 also bounds the per-cycle total at 4;
///   5. goals computed within K cycles — B(goal, *, K-1).
///
/// Additional constraints (paper, section 7): guard-before-unsafe-operation
/// ordering, and memory discipline (loads of a memory state may not follow
/// the store that overwrites it; each store launches at most once).
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_CODEGEN_ENCODER_H
#define DENALI_CODEGEN_ENCODER_H

#include "codegen/Universe.h"
#include "machine/Program.h"
#include "sat/Encodings.h"
#include "sat/Solver.h"

#include <cassert>
#include <optional>
#include <unordered_map>

namespace denali {
namespace codegen {

/// Options of one encoding run.
struct EncoderOptions {
  unsigned Cycles = 4; ///< The budget K (the ceiling MaxCycles if Monotone).
  sat::AtMostOneStyle AmoStyle = sat::AtMostOneStyle::Ladder;
  /// Ablation: model a single cluster (no cross-cluster delay, B indexed
  /// by one cluster).
  bool SingleCluster = false;
  /// If set, loads and stores may only launch after this class (the GMA
  /// guard) has been computed.
  std::optional<egraph::ClassId> GuardClass;
  /// Monotone mode: encode once up to Cycles with one activation literal
  /// per budget K in [1, Cycles] (see budgetAssumption), so a single
  /// incremental solver serves the whole probe ladder. Without an
  /// assumption the instance is trivially satisfiable (every budget
  /// deadline is gated), so it only makes sense with solve(assumptions).
  bool Monotone = false;
  /// Refutation attribution: stamp every emitted clause with a ClauseFamily
  /// tag (Solver::setClauseTag) so an UNSAT core can be folded into a
  /// bottleneck report. Off by default — only dedicated explain probes pay
  /// for it.
  bool TagClauses = false;
};

/// Families a CNF clause can belong to, for refutation attribution. The
/// values match the EncodingStats per-family counters.
enum class ClauseFamily : uint32_t {
  None = 0,
  Definition = 1,  ///< Condition 3: B iff-definitions.
  Operand = 2,     ///< Condition 2: operands before launch.
  Exclusivity = 3, ///< Condition 4: issue exclusivity.
  Deadline = 4,    ///< Condition 5: goal deadlines.
  Guard = 5,       ///< Section 7: guard-before-unsafe.
  Memory = 6,      ///< Section 7: memory discipline.
  Monotone = 7,    ///< Budget-ladder activation clauses.
};

/// Packs a clause tag: family in bits 28-31, cycle+1 in bits 20-27 (0 =
/// not cycle-specific), unit index+1 in bits 16-19 (0 = not unit-specific),
/// and a 16-bit family-specific detail (term index, truncated class id, or
/// goal index). Nonzero whenever the family is.
inline uint32_t makeClauseTag(ClauseFamily F, unsigned Cycle = ~0u,
                              unsigned UnitIdx = ~0u, uint32_t Detail = 0) {
  uint32_t T = static_cast<uint32_t>(F) << 28;
  if (Cycle != ~0u)
    T |= ((Cycle + 1) & 0xffu) << 20;
  if (UnitIdx != ~0u)
    T |= ((UnitIdx + 1) & 0xfu) << 16;
  return T | (Detail & 0xffffu);
}
inline ClauseFamily tagFamily(uint32_t T) {
  return static_cast<ClauseFamily>(T >> 28);
}
inline bool tagHasCycle(uint32_t T) { return ((T >> 20) & 0xffu) != 0; }
inline unsigned tagCycle(uint32_t T) { return ((T >> 20) & 0xffu) - 1; }
inline bool tagHasUnit(uint32_t T) { return ((T >> 16) & 0xfu) != 0; }
inline unsigned tagUnit(uint32_t T) { return ((T >> 16) & 0xfu) - 1; }
inline uint32_t tagDetail(uint32_t T) { return T & 0xffffu; }

/// Human-readable family name ("operand", "exclusivity", ...).
const char *clauseFamilyName(ClauseFamily F);

/// Size statistics of one encoding (reported like the paper's "1639
/// variables and 4613 clauses").
struct EncodingStats {
  unsigned Cycles = 0;
  int Vars = 0;
  uint64_t Clauses = 0;
  size_t MachineTerms = 0;
  size_t Classes = 0;
  // Per-family clause counts (they sum to Clauses): the paper's five
  // conditions plus the section-7 extensions and the monotone ladder.
  uint64_t DefinitionClauses = 0;  ///< Condition 3: B iff-definitions.
  uint64_t OperandClauses = 0;     ///< Condition 2: operands before launch.
  uint64_t ExclusivityClauses = 0; ///< Condition 4: issue exclusivity.
  uint64_t DeadlineClauses = 0;    ///< Condition 5: goal deadlines.
  uint64_t GuardClauses = 0;       ///< Section 7: guard-before-unsafe.
  uint64_t MemoryClauses = 0;      ///< Section 7: memory discipline.
  uint64_t MonotoneClauses = 0;    ///< Budget-ladder activation clauses.
};

/// A named goal: GMA target name -> class to compute.
struct NamedGoal {
  std::string Target;
  egraph::ClassId Class;
  bool IsMemory = false;
};

/// The B-variable row of every class the encoding reads, resolved once so
/// the clause loops never hash. Shared by Encoder::encode and
/// criticalPathBound, so both apply one rule for which operands get an
/// Operand clause.
struct ClassRows {
  static constexpr uint32_t NoRow = ~0u;
  /// Canonical class -> row: the first neededClasses() entry of the class.
  std::unordered_map<egraph::ClassId, uint32_t> Row;
  /// Row per neededClasses() entry (a duplicate canonical class shares the
  /// first entry's row; a row R is its own class's first iff
  /// NeededRow[R] == R).
  std::vector<uint32_t> NeededRow;
  /// Per (term, argument), at ArgRow[ArgStart[T] + ArgIdx]: the row its
  /// Operand clause reads, NoRow when the operand is free or a literal.
  std::vector<uint32_t> ArgStart;
  std::vector<uint32_t> ArgRow;

  void build(const egraph::EGraph &G, const Universe &U);
  uint32_t rowOf(const egraph::EGraph &G, egraph::ClassId Q) const {
    auto It = Row.find(G.find(Q));
    assert(It != Row.end() && "class without a B row");
    return It->second;
  }
};

/// A lower bound on the minimal cycle budget: the critical path through
/// the universe. It is the least fixpoint of the Definition, Operand,
/// Guard and Deadline families with exclusivity and memory relaxed:
///
///   * a free class is ready at -1;
///   * a launch of term t on unit u may happen at 1 + the latest ready
///     time of t's non-free, non-literal operands on u's cluster (0 when
///     there are none); loads and stores also wait for the guard class on
///     its earliest cluster;
///   * a class is ready on cluster c at the earliest, over its producers,
///     of launch + latency - 1 + the cross-cluster delay to c;
///   * the bound is 1 + the latest, over the non-free goals, of the
///     goal's earliest ready time on any cluster.
///
/// Level-0 unit propagation of the budget-K encoding derives exactly these
/// facts, so every K below the bound is refuted by propagation alone (no
/// conflict). \returns 0 when every goal is free, and
/// std::numeric_limits<unsigned>::max() when some goal can never be
/// ready. Any change to those four clause families in Encoder::encode
/// must be mirrored here.
unsigned criticalPathBound(const egraph::EGraph &G,
                           const machine::MachineModel &M, const Universe &U,
                           const std::vector<NamedGoal> &Goals,
                           const EncoderOptions &Opts);

/// Encodes the universe into a solver and decodes models into programs.
/// One Encoder instance serves many probes (one encode per fresh Solver).
class Encoder {
public:
  Encoder(const egraph::EGraph &G, const machine::MachineModel &M,
          const Universe &U)
      : G(G), M(M), U(U) {
    NumUnits = M.numUnits();
  }

  /// Emits the constraints for \p Opts into \p S.
  EncodingStats encode(sat::Solver &S, const std::vector<NamedGoal> &Goals,
                       const EncoderOptions &Opts);

  /// After encode() and a Sat solve() on the same solver: reads the
  /// schedule off the model (the L's assigned true determine the machine
  /// program, section 6) and wires operands into a Program. In monotone
  /// mode pass Opts.Cycles = the SAT budget K (the model was produced
  /// under budgetAssumption(K), so no launch at a later cycle is true).
  machine::Program extract(const sat::Solver &S,
                           const std::vector<NamedGoal> &Goals,
                           const EncoderOptions &Opts,
                           const std::string &Name) const;

  /// After a Monotone encode(): the assumption literal meaning "no program
  /// longer than \p K cycles" (¬E_K — it forbids every launch at cycle
  /// >= K and activates the budget-K goal deadline). Valid for K in
  /// [1, Cycles of the encode].
  sat::Lit budgetAssumption(unsigned K) const;

private:
  const egraph::EGraph &G;
  const machine::MachineModel &M;
  const Universe &U;

  // Variable maps of the most recent encode(). Dense per-key vectors (L:
  // term x unit x cycle; B: needed-class row x cluster x cycle) — these
  // lookups are the hot path of every encode, and tree maps were measurable
  // there. -1 marks an absent variable.
  std::vector<sat::Var> LDense;
  std::vector<sat::Var> BDense;
  ClassRows Rows; ///< B rows of the most recent encode.
  unsigned LastCycles = 0;   ///< K of the most recent encode.
  unsigned LastClusters = 0; ///< NC of the most recent encode.
  unsigned NumUnits = 0;     ///< The machine's unit count (fixed per model).
  /// Monotone mode: E_K ("some launch at cycle >= K") per budget K; index
  /// 0 unused.
  std::vector<sat::Var> ExceedVars;

  size_t lIndex(size_t Term, unsigned UnitIdx, unsigned Cycle) const {
    return (Term * NumUnits + UnitIdx) * LastCycles + Cycle;
  }
  size_t bIndex(uint32_t Row, unsigned Cluster, unsigned Cycle) const {
    return (Row * LastClusters + Cluster) * LastCycles + Cycle;
  }

  unsigned numClusters(const EncoderOptions &Opts) const {
    return Opts.SingleCluster ? 1 : M.numClusters();
  }
  unsigned clusterOfUnit(machine::UnitId Un, const EncoderOptions &Opts) const {
    return Opts.SingleCluster ? 0 : M.clusterOf(Un);
  }
};

} // namespace codegen
} // namespace denali

#endif // DENALI_CODEGEN_ENCODER_H
