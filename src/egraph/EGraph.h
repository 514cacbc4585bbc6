//===- egraph/EGraph.h - The E-graph ----------------------------*- C++ -*-===//
///
/// \file
/// The E-graph (paper, section 5): a term DAG augmented with an equivalence
/// relation on nodes. An E-graph of size O(n) can represent exponentially
/// many ways of computing a term; Denali's matcher saturates it with axiom
/// instances, and the constraint generator reads every machine-computable
/// alternative out of it.
///
/// Beyond plain congruence closure this E-graph carries the three fact
/// kinds the paper's matcher uses:
///   * equalities  — assertEqual / merge;
///   * distinctions — pairs of classes constrained *uncombinable*;
///   * clauses     — disjunctions of equality/distinction literals, with
///     untenable-literal deletion and unit propagation (section 5's
///     select-store example).
///
/// The E-graph also runs a constant analysis: classes whose value is a
/// known 64-bit constant fold through builtin operators (this is how
/// `mskbl(0, i)` collapses to `0`, enabling further matches).
///
/// For semi-naive matching the graph stamps every node with the latest
/// *change epoch* at which something a match through it depends on
/// changed (see nodeEpoch/memberEpoch), and beginMatchPhase() summarizes
/// those stamps per class a few levels up the parent lists.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_EGRAPH_EGRAPH_H
#define DENALI_EGRAPH_EGRAPH_H

#include "egraph/UnionFind.h"
#include "ir/Term.h"
#include "support/FlatIndex.h"
#include "support/FunctionRef.h"

#include <array>
#include <cassert>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace denali {
namespace egraph {

using ClassId = uint32_t;
using ENodeId = uint32_t;

/// One E-node: an operator applied to equivalence classes.
struct ENode {
  ir::OpId Op = 0;
  std::vector<ClassId> Children; ///< Canonical as of the last rebuild.
  uint64_t ConstVal = 0;         ///< For Builtin::Const nodes.
  ClassId Class = 0;             ///< May be stale; canonicalize via find().
  bool Alive = true; ///< False once deduplicated against a congruent twin.
};

/// Why two classes were merged — one edge of the proof forest. The matcher
/// stamps axiom instances (rule id, firing round, substitution slice into
/// the graph's substitution arena); the graph itself stamps congruence
/// merges, constant folds, and clause unit propagations.
struct Justification {
  enum class Kind : uint8_t {
    External,     ///< assertEqual without an explicit reason (\assume, tests).
    Axiom,        ///< Matcher-instantiated axiom equality.
    Congruence,   ///< Two nodes became congruent twins during repair().
    ConstantFold, ///< A node's arguments all folded to constants.
    ClauseUnit,   ///< A recorded clause reduced to one equality literal.
  };
  Kind TheKind = Kind::External;
  uint32_t RuleId = ~0u;  ///< Axiom index (Kind::Axiom).
  uint32_t Round = 0;     ///< Matcher round the instance fired in.
  ENodeId NodeA = ~0u;    ///< Congruence: the surviving node; fold: the node.
  ENodeId NodeB = ~0u;    ///< Congruence: the retired twin.
  uint32_t SubstBegin = 0; ///< Slice into EGraph::substArena() (Axiom).
  uint32_t SubstLen = 0;

  static Justification axiom(uint32_t RuleId, uint32_t Round,
                             uint32_t SubstBegin, uint32_t SubstLen) {
    Justification J;
    J.TheKind = Kind::Axiom;
    J.RuleId = RuleId;
    J.Round = Round;
    J.SubstBegin = SubstBegin;
    J.SubstLen = SubstLen;
    return J;
  }
  static Justification congruence(ENodeId A, ENodeId B) {
    Justification J;
    J.TheKind = Kind::Congruence;
    J.NodeA = A;
    J.NodeB = B;
    return J;
  }
  static Justification constantFold(ENodeId N) {
    Justification J;
    J.TheKind = Kind::ConstantFold;
    J.NodeA = N;
    return J;
  }
  static Justification clauseUnit() {
    Justification J;
    J.TheKind = Kind::ClauseUnit;
    return J;
  }
};

/// One step of a derivation chain: the justification \p J asserted
/// From == To (Forward) or To == From (!Forward). Consecutive steps share
/// endpoints, so a chain From=A ... To=B is a proof that A and B are equal.
struct ProofStep {
  ClassId From = 0;
  ClassId To = 0;
  Justification J;
  bool Forward = true;
};

/// A literal of a recorded clause.
struct Literal {
  enum class Kind { Eq, Ne };
  Kind TheKind = Kind::Eq;
  ClassId A = 0;
  ClassId B = 0;

  static Literal eq(ClassId A, ClassId B) { return {Kind::Eq, A, B}; }
  static Literal ne(ClassId A, ClassId B) { return {Kind::Ne, A, B}; }
};

/// When congruence closure is restored after a mutation.
enum class RebuildMode {
  /// Every assertEqual/addNode/addClause immediately restores closure
  /// (repairs parents, folds constants, processes clauses). Simple, but a
  /// long instantiation batch pays one full clause scan per assertion.
  Eager,
  /// Mutations only union and enqueue dirty classes; closure is restored
  /// by an explicit batched rebuild() (egg-style). The matcher runs one
  /// rebuild per saturation round. Between a mutation and the next
  /// rebuild, union-find queries (find, sameClass, classConstant,
  /// areDistinct) stay exact — only congruence-derived merges, constant
  /// folds, and clause propagation lag.
  Deferred,
};

/// Mutation counters of one E-graph, cumulative over its lifetime. The
/// matcher reports per-saturation deltas through match.sched.* obs
/// counters, which is how scheduling regressions are diagnosed from a
/// metrics file.
struct RebuildStats {
  uint64_t Merges = 0;           ///< Class unions performed.
  uint64_t CongruenceMerges = 0; ///< Unions forced by congruent twins.
  uint64_t ConstantFolds = 0;    ///< Unions from the constant analysis.
  uint64_t Rebuilds = 0;         ///< rebuild() passes that found work.
  uint64_t Repairs = 0;          ///< Classes whose parents were rehashed.
};

class EGraph {
public:
  explicit EGraph(const ir::Context &Ctx, bool FoldConstants = true);

  //===--------------------------------------------------------------------===
  // Construction
  //===--------------------------------------------------------------------===

  /// Adds (or finds) the node op(children...). \returns its class. The
  /// children are canonicalized into a scratch key, so finding an existing
  /// node allocates nothing.
  ClassId addNode(ir::OpId Op, const ClassId *Children, size_t NumChildren);
  ClassId addNode(ir::OpId Op, const std::vector<ClassId> &Children) {
    return addNode(Op, Children.data(), Children.size());
  }

  /// The node op(children...) with \p Children canonicalized, or nullopt;
  /// never mutates the graph. Once the graph is rebuilt this is exactly
  /// the live node addNode would return (for a constant: Op is the Const
  /// builtin and \p ConstVal its value); between rebuilds a node whose
  /// stored children are stale may be missed.
  std::optional<ENodeId> lookupNode(ir::OpId Op,
                                    const std::vector<ClassId> &Children,
                                    uint64_t ConstVal = 0) const;

  /// Adds (or finds) the constant \p Value.
  ClassId addConst(uint64_t Value);

  /// Recursively adds an interned term (shares structure via the hashcons).
  ClassId addTerm(ir::TermId Term);

  //===--------------------------------------------------------------------===
  // Facts
  //===--------------------------------------------------------------------===

  /// Asserts A = B and restores congruence closure. \returns true if the
  /// graph changed.
  bool assertEqual(ClassId A, ClassId B);

  /// assertEqual with an explicit provenance justification (recorded only
  /// when provenance is enabled; see enableProvenance).
  bool assertEqual(ClassId A, ClassId B, const Justification &J);

  /// Asserts A != B (classes become uncombinable). \returns true if the
  /// graph changed. Sets the inconsistent flag if A and B are already equal.
  bool assertDistinct(ClassId A, ClassId B);

  /// Records the clause L1 | ... | Ln. Untenable literals are deleted as
  /// the graph evolves; a clause reduced to one literal asserts it.
  void addClause(std::vector<Literal> Lits);

  //===--------------------------------------------------------------------===
  // Rebuilding
  //===--------------------------------------------------------------------===

  /// Switches between per-mutation (Eager) and batched (Deferred)
  /// congruence restoration. Switching back to Eager first runs any
  /// pending rebuild, so the graph is always closed under Eager.
  void setRebuildMode(RebuildMode M);
  RebuildMode rebuildMode() const { return Mode; }

  /// Restores congruence closure, constant folding, and clause propagation
  /// to a fixpoint. Idempotent; a no-op-ish fast path when nothing is
  /// pending. Under Eager mode this runs automatically after every
  /// mutation; under Deferred the owner calls it (the matcher: once per
  /// saturation round).
  void rebuild();

  /// True when deferred work (dirty classes or unfolded constants) is
  /// queued for the next rebuild().
  bool rebuildPending() const {
    return !Worklist.empty() || (FoldConstants && !FoldQueue.empty());
  }

  /// Lifetime mutation counters (merges, congruence merges, folds,
  /// rebuild passes, class repairs).
  const RebuildStats &rebuildStats() const { return Stats; }

  //===--------------------------------------------------------------------===
  // Queries
  //===--------------------------------------------------------------------===

  ClassId find(ClassId C) const { return UF.find(C); }
  bool sameClass(ClassId A, ClassId B) const { return UF.sameSet(A, B); }

  /// Fully compresses the union-find so subsequent find() calls are pure
  /// reads. Until the next merge, the const query interface (find,
  /// classConstant, classNodes, areDistinct, ...) is then safe to call
  /// concurrently from many threads — required by the portfolio budget
  /// search, whose probe workers all read one frozen E-graph.
  void compressPaths() const { UF.compressAll(); }

  /// True if A and B are constrained uncombinable, either explicitly or
  /// because they hold different constants.
  bool areDistinct(ClassId A, ClassId B) const;

  /// The known constant value of class \p C, if any.
  std::optional<uint64_t> classConstant(ClassId C) const;

  /// Live nodes in the class of \p C.
  std::vector<ENodeId> classNodes(ClassId C) const;

  /// Applies \p Fn to every live node in the class of \p C. Allocation-free
  /// variant of classNodes() for the e-matcher's inner loop; \p Fn must not
  /// mutate the graph.
  void forEachClassNode(ClassId C, FunctionRef<void(ENodeId)> Fn) const {
    for (ENodeId N : ClassStates[UF.find(C)].Members)
      if (Nodes[N].Alive)
        Fn(N);
  }

  /// All canonical class representatives.
  std::vector<ClassId> canonicalClasses() const;

  /// Live nodes whose operator is \p Op (used by the e-matcher's root
  /// indexing). May include nodes from many classes.
  const std::vector<ENodeId> &nodesWithOp(ir::OpId Op) const;

  const ENode &node(ENodeId N) const { return Nodes[N]; }
  ClassId classOf(ENodeId N) const { return UF.find(Nodes[N].Class); }

  size_t numNodes() const { return LiveNodeCount; }
  size_t numClasses() const;
  size_t numClauses() const { return Clauses.size(); }

  /// True once contradictory facts were asserted (indicates unsound axioms
  /// or a bug); the message describes the first conflict.
  bool isInconsistent() const { return Inconsistent; }
  const std::string &inconsistencyMessage() const { return ConflictMsg; }

  /// Monotonically increasing counter bumped on every merge and node
  /// addition; the matcher uses it to detect quiescence.
  uint64_t version() const { return Version; }

  //===--------------------------------------------------------------------===
  // Change epochs (semi-naive matching)
  //===--------------------------------------------------------------------===

  /// Levels of the per-class change summary: classChangedWithin() answers
  /// for 0 .. ChangeLevels-1 levels below a class.
  static constexpr unsigned ChangeLevels = 4;

  /// Closes the current change epoch E and \returns it. Every node stamped
  /// since the previous call carries epoch E; its class, the classes of
  /// its parents, and so on ChangeLevels-1 levels up, get E as their
  /// change summary. Later mutations stamp epoch E+1 or above, so a
  /// matcher that enumerated completely during phase E treats the nodes
  /// stamped past E as new. Call on a rebuilt graph (the matcher calls
  /// it after each round's rebuild).
  uint32_t beginMatchPhase();

  /// The latest epoch at which node \p N was created, re-canonicalized,
  /// or saw a child class gain a constant: what matters when N is the
  /// root of a match, where its class plays no part.
  uint32_t nodeEpoch(ENodeId N) const { return NodeEpochs[N]; }

  /// nodeEpoch(), or later if \p N has since moved into another class as
  /// a member of a merged-away class: what matters when N is reached as
  /// a member of its class, below the root of a match.
  uint32_t memberEpoch(ENodeId N) const { return MemberEpochs[N]; }

  /// The latest epoch stamped on any node at most \p Levels levels below
  /// class \p C (0: C's own members; 1: also the members of their child
  /// classes; ...), as of the last beginMatchPhase(). \p Levels must be
  /// below ChangeLevels.
  uint32_t classChangedWithin(ClassId C, unsigned Levels) const {
    assert(Levels < ChangeLevels && "change summary is not that deep");
    return ClassStates[UF.find(C)].ChangedWithin[Levels];
  }

  //===--------------------------------------------------------------------===
  // Provenance (union-find proof forest)
  //===--------------------------------------------------------------------===

  /// Switches on per-merge justification recording. Call before any merge
  /// (typically right after construction); the off path costs nothing —
  /// not even the proof-forest storage is grown.
  void enableProvenance() { Provenance = true; }
  bool provenanceEnabled() const { return Provenance; }

  /// Copies a substitution (variable -> canonical class bindings) into the
  /// graph's arena; \returns the slice start for Justification::SubstBegin.
  uint32_t internSubst(const ClassId *Bindings, size_t NumBindings) {
    uint32_t Begin = static_cast<uint32_t>(SubstArena.size());
    SubstArena.insert(SubstArena.end(), Bindings, Bindings + NumBindings);
    return Begin;
  }
  const std::vector<ClassId> &substArena() const { return SubstArena; }

  /// The derivation chain between two equal classes: a sequence of proof
  /// steps whose endpoints chain from find-equivalent \p A to \p B, each
  /// carrying the justification of one recorded merge. Empty when A and B
  /// are the same proof node (or provenance is off / they are not equal).
  /// The proof forest is kept separate from the query union-find and is
  /// never path-compressed, so chains replay actual assertion history.
  std::vector<ProofStep> explain(ClassId A, ClassId B) const;

  /// Renders one node (with class annotations) for debugging.
  std::string nodeToString(ENodeId N) const;

  const ir::Context &context() const { return Ctx; }

private:
  const ir::Context &Ctx;
  bool FoldConstants;

  UnionFind UF;
  std::vector<ENode> Nodes;
  size_t LiveNodeCount = 0;

  // Change epochs: two stamps per node, the epoch now being stamped, and
  // the nodes stamped since the last beginMatchPhase().
  std::vector<uint32_t> NodeEpochs, MemberEpochs;
  uint32_t ChangeEpoch = 1;
  std::vector<ENodeId> Stamped;

  /// Stamps \p N's class membership with the current change epoch.
  void stampMember(ENodeId N) {
    if (MemberEpochs[N] == ChangeEpoch)
      return;
    MemberEpochs[N] = ChangeEpoch;
    Stamped.push_back(N);
  }
  /// Stamps \p N itself (and so its membership) with the current epoch.
  void stampNode(ENodeId N) {
    NodeEpochs[N] = ChangeEpoch;
    stampMember(N);
  }

  // Hashcons: one entry per live node, keyed by that node's stored
  // (Op, Children, ConstVal). repair() erases a node's entry before it
  // re-canonicalizes the children, so no entry's key is ever stale.
  FlatIndex Hashcons;
  std::vector<ClassId> KeyScratch; ///< insertNode's canonical children.

  // Per-class state, indexed by (possibly stale) class id; authoritative
  // only at the canonical representative.
  struct ClassState {
    std::vector<ENodeId> Members;
    std::vector<ENodeId> Parents; ///< Nodes using this class as a child.
    std::optional<uint64_t> Constant;
    std::vector<ClassId> DistinctFrom; ///< Canonicalize on use.
    /// Per level k: the latest epoch stamped within k levels below.
    std::array<uint32_t, ChangeLevels> ChangedWithin{};
  };
  std::vector<ClassState> ClassStates;

  // Root-op index for the matcher.
  std::unordered_map<ir::OpId, std::vector<ENodeId>> OpIndex;
  std::vector<ENodeId> EmptyNodeList;

  // Pending congruence repairs (classes whose parents must be rehashed),
  // and the batch rebuild() is draining.
  std::vector<ClassId> Worklist, RepairTodo;
  // repair() scratch: the parent list being rehashed, its survivors, and
  // a per-node stamp that skips duplicate parents.
  std::vector<ENodeId> RepairParents, RepairKept;
  std::vector<uint32_t> RepairStamp;
  uint32_t RepairEpoch = 0;
  std::vector<uint64_t> FoldArgs; ///< processFoldQueue's operand values.
  // Nodes whose constant-fold status should be (re)checked.
  std::deque<ENodeId> FoldQueue;

  struct Clause {
    std::vector<Literal> Lits;
    bool Done = false;
  };
  std::vector<Clause> Clauses;

  bool Inconsistent = false;
  std::string ConflictMsg;
  uint64_t Version = 0;
  bool InRebuild = false;
  RebuildMode Mode = RebuildMode::Eager;
  RebuildStats Stats;

  // Proof forest (provenance): per class id, the parent edge and its
  // justification. Parent pointers are reversed on union (re-rooting), never
  // compressed — explain() walks real assertion history. Grown lazily, only
  // when Provenance is on.
  bool Provenance = false;
  static constexpr ClassId NoProofParent = ~0u;
  struct ProofEdge {
    ClassId Parent = NoProofParent;
    Justification J;
    bool SelfIsA = true; ///< The child endpoint was the 'A' side of J.
  };
  std::vector<ProofEdge> ProofEdges;
  std::vector<ClassId> SubstArena;

  /// Adds the proof-forest edge for a recorded merge of (pre-find) A and B.
  void proofLink(ClassId A, ClassId B, const Justification &J);

  static uint32_t keyHash(ir::OpId Op, const ClassId *Children, size_t N,
                          uint64_t ConstVal);
  static uint32_t keyHash(const ENode &N) {
    return keyHash(N.Op, N.Children.data(), N.Children.size(), N.ConstVal);
  }
  /// True if node \p Id's stored key is (Op, Children[0..N), ConstVal).
  bool hasKey(ENodeId Id, ir::OpId Op, const ClassId *Children, size_t N,
              uint64_t ConstVal) const;
  ENodeId insertNode(ir::OpId Op, const ClassId *Children, size_t N,
                     uint64_t ConstVal, bool &WasNew);
  void mergeInto(ClassId Root, ClassId Gone);
  bool mergeClasses(ClassId A, ClassId B,
                    const Justification &J = Justification());
  void repair(ClassId C);
  void processClauses();
  void processFoldQueue();
  void conflict(const std::string &Msg);
  bool literalSatisfied(const Literal &L) const;
  bool literalUntenable(const Literal &L) const;
  void assertLiteral(const Literal &L);
};

} // namespace egraph
} // namespace denali

#endif // DENALI_EGRAPH_EGRAPH_H
